// The one sanctioned host-clock access point outside the real-UDP transport.
//
// Everything else in the tree runs on the simulation's virtual clock so runs
// replay bit-for-bit; concord-lint (rule D1, concord-determinism) bans the
// <chrono> clocks everywhere except this header, common/rng, src/sim, and the
// net/udp_* transport. Its only caller is CostModel::calibrate(), which
// measures this host's unit costs for tests and reports. Nothing measured
// here is charged to the virtual clock: engines charge the pinned profile
// in core/cost_model.hpp instead.
//
// Values returned here must never be folded into emitted bytes (snapshots,
// wire payloads, checkpoint contents) or virtual time; they may only be
// printed in human-facing reports.
#pragma once

#include <chrono>
#include <cstdint>

namespace concord::obs {

/// Monotonic host time in nanoseconds. Not comparable across processes.
[[nodiscard]] inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host-clock nanoseconds spent in fn().
template <typename Fn>
[[nodiscard]] inline std::int64_t host_timed_ns(Fn&& fn) {
  const std::int64_t t0 = host_now_ns();
  fn();
  return host_now_ns() - t0;
}

}  // namespace concord::obs
