"""Self-tests of the benchmark's statistics helpers.

Run from the repository root:  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])


class MeanTest(unittest.TestCase):
    def test_plain(self):
        self.assertEqual(stats.mean([1, 2, 6]), 3.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.mean([])


class QuartilesTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [7.0, 1.0, 3.0, 9.0, 4.0, 6.0, 2.0, 8.0, 5.0, 10.0]
        self.assertEqual(stats.quartiles(values), tuple(statistics.quantiles(values, n=4)))

    def test_single_sample(self):
        self.assertEqual(stats.quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_iqr_share(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.iqr_share(values), (q3 - q1) / q2)

    def test_iqr_share_of_zero_median_has_no_base(self):
        self.assertIsNone(stats.iqr_share([0, 0, 0]))


class TailTest(unittest.TestCase):
    def test_exactly_ten_beyond(self):
        values = list(range(1, 101))  # 1..100
        pct, value = stats.tail(values)
        self.assertEqual(value, 90)
        self.assertEqual(pct, 90.0)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_twenty_one_samples_is_the_median_rank(self):
        self.assertEqual(stats.tail(list(range(21))), (100.0 * 11 / 21, 10))

    def test_unsorted_input(self):
        values = [5, 19, 0, 7, 12, 3, 18, 1, 11, 2, 14, 6, 17, 9, 4, 16, 8, 13, 10, 15, 20]
        pct, value = stats.tail(values)
        self.assertEqual(value, 10)
        self.assertAlmostEqual(pct, 100.0 * 11 / 21)

    def test_too_few_samples_fall_back_to_median(self):
        self.assertEqual(stats.tail([1, 2, 3]), (50.0, 2))
        self.assertEqual(stats.tail(list(range(10))), (50.0, 4.5))
        # 20 samples: ten beyond would be rank 9, below the median.
        self.assertEqual(stats.tail(list(range(20))), (50.0, 9.5))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.percentile(values, 99), 990)
        self.assertEqual(stats.percentile(values, 50), 500)
        self.assertEqual(stats.percentile([4, 2], 100), 4)

    def test_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([1], 0)


class RatioTest(unittest.TestCase):
    def test_zero_base(self):
        self.assertIsNone(stats.ratio(3, 0))
        self.assertEqual(stats.ratio_or_zero(3, 0), 0.0)
        self.assertEqual(stats.ratio_or_zero(0, 0), 0.0)

    def test_plain(self):
        self.assertEqual(stats.ratio(3, 4), 0.75)
        self.assertEqual(stats.ratio_or_zero(3, 4), 0.75)


if __name__ == "__main__":
    unittest.main()
