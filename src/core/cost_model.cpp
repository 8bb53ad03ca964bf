#include "core/cost_model.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "compress/cgz.hpp"
#include "dht/dht_store.hpp"
#include "obs/host_clock.hpp"

namespace concord::core {

namespace {

template <typename Fn>
double median_ns(Fn&& fn, int reps = 5) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    samples.push_back(static_cast<double>(obs::host_timed_ns(fn)));
  }
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2),
                   samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

CostModel CostModel::calibrate() {
  CostModel m;
  constexpr std::size_t kBuf = 256 * 1024;

  std::vector<std::byte> src(kBuf), dst(kBuf);
  Rng rng(12345);
  for (auto& b : src) b = static_cast<std::byte>(rng() & 0xff);

  // Hash costs: 64 pages of 4 KB per repetition.
  const hash::BlockHasher md5(hash::Algorithm::kMd5);
  const hash::BlockHasher sf(hash::Algorithm::kSuperFast);
  std::uint64_t sink = 0;
  m.md5_ns_per_byte = median_ns([&] {
                        for (std::size_t off = 0; off < kBuf; off += 4096) {
                          sink ^= md5(std::span(src).subspan(off, 4096)).lo;
                        }
                      }) /
                      static_cast<double>(kBuf);
  m.superfast_ns_per_byte = median_ns([&] {
                              for (std::size_t off = 0; off < kBuf; off += 4096) {
                                sink ^= sf(std::span(src).subspan(off, 4096)).lo;
                              }
                            }) /
                            static_cast<double>(kBuf);

  // Touch cost: memcpy.
  m.touch_ns_per_byte =
      median_ns([&] { std::memcpy(dst.data(), src.data(), kBuf); }) /
      static_cast<double>(kBuf);

  // Entry scan cost: enumerate a populated shard, intersecting bitmaps the
  // way the query/command engines do.
  dht::DhtStore store(64, dht::AllocMode::kPool);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    std::uint64_t s = i;
    store.insert(ContentHash{splitmix64(s), splitmix64(s)},
                 entity_id(static_cast<std::uint32_t>(i % 64)));
  }
  m.entry_scan_ns = median_ns([&] {
                      std::uint64_t acc = 0;
                      store.for_each_entry([&](const ContentHash& h, const std::uint64_t* w,
                                               std::size_t nw) {
                        acc ^= h.lo;
                        for (std::size_t i = 0; i < nw; ++i) acc += w[i];
                      });
                      sink ^= acc;
                    }) /
                    20000.0;

  // Compression: cgz over a representative half-structured buffer.
  {
    std::vector<std::byte> mixed(kBuf);
    for (std::size_t i = 0; i < kBuf; ++i) {
      mixed[i] = (i % 4096) < 2048 ? static_cast<std::byte>(i & 0x0f)
                                   : static_cast<std::byte>(rng() & 0xff);
    }
    m.cgz_ns_per_byte = median_ns([&] { sink ^= compress::compressed_size(mixed); }, 3) /
                        static_cast<double>(kBuf);
  }

  // Callback overhead: a virtual call through a small dispatch table plus a
  // hash-map probe, the engine's per-callback bookkeeping.
  struct Iface {
    virtual ~Iface() = default;
    virtual std::uint64_t f(std::uint64_t) = 0;
  };
  struct Impl final : Iface {
    std::uint64_t f(std::uint64_t x) override { return x * 2654435761u; }
  };
  Impl impl;
  Iface* iface = &impl;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  for (std::uint64_t i = 0; i < 1024; ++i) table[i] = i;
  m.callback_ns = median_ns([&] {
                    for (std::uint64_t i = 0; i < 4096; ++i) {
                      sink ^= iface->f(i) + table.count(i & 1023);
                    }
                  }) /
                  4096.0;

  // Keep the compiler honest about sink.
  if (sink == 0xdeadbeefcafef00dULL) m.callback_ns += 1e-9;
  return m;
}

const CostModel& CostModel::instance() {
  static const CostModel model;
  return model;
}

}  // namespace concord::core
