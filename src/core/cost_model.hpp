// CostModel: pinned per-operation costs for charging local computation to
// the virtual clock.
//
// The emulation charges every node's computation to virtual time. Measuring
// each tiny operation with the host clock would make barrier-style results
// (max over thousands of samples) grow with the *number* of measurements —
// every OS hiccup lands in some sample and the slowest sample gates the
// phase. Instead, engines charge `count x unit` from a cost profile that is
// part of the source: the member initializers below. The virtual clock is
// then a pure function of the seed, the workload and this file, so two runs
// of any binary — Release or Debug, on any host — write the same bytes.
//
// The profile was pinned from calibrate() on a 4-vCPU Xeon host (GCC 12.2,
// Release build): each unit is the per-field median of 7 runs. calibrate()
// stays as a measuring tool for tests and reports; it never feeds the clock.
#pragma once

#include <cstdint>

#include "hash/block_hasher.hpp"
#include "sim/simulation.hpp"

namespace concord::core {

class CostModel {
 public:
  /// The process-wide pinned profile (a default-constructed CostModel).
  static const CostModel& instance();

  /// Hashing `bytes` of memory with `algo`.
  [[nodiscard]] sim::Time hash_cost(hash::Algorithm algo, std::size_t bytes) const {
    const double per_byte =
        algo == hash::Algorithm::kMd5 ? md5_ns_per_byte : superfast_ns_per_byte;
    return static_cast<sim::Time>(per_byte * static_cast<double>(bytes));
  }

  /// Reading/writing `bytes` of memory (memcpy-class work).
  [[nodiscard]] sim::Time touch_cost(std::size_t bytes) const {
    return static_cast<sim::Time>(touch_ns_per_byte * static_cast<double>(bytes));
  }

  /// Fixed overhead of invoking one service callback (dispatch, lookups).
  [[nodiscard]] sim::Time callback_cost() const {
    return static_cast<sim::Time>(callback_ns);
  }

  /// Enumerating `entries` DHT entries (scan + bitmap intersection).
  [[nodiscard]] sim::Time scan_cost(std::size_t entries) const {
    return static_cast<sim::Time>(entry_scan_ns * static_cast<double>(entries));
  }

  /// Compressing `bytes` with the cgz stream compressor.
  [[nodiscard]] sim::Time compress_cost(std::size_t bytes) const {
    return static_cast<sim::Time>(cgz_ns_per_byte * static_cast<double>(bytes));
  }

  // Pinned unit costs, ns. Public so tests and reports can inspect them.
  double md5_ns_per_byte = 2.73;
  double superfast_ns_per_byte = 0.896;
  double touch_ns_per_byte = 0.0258;
  double callback_ns = 3.58;
  double entry_scan_ns = 5.37;
  double cgz_ns_per_byte = 29.2;

  /// Measures the unit costs on this host (median of repetitions). For tests
  /// and reports that compare the host with the pinned profile.
  static CostModel calibrate();
};

}  // namespace concord::core
