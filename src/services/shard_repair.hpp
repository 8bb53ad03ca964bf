// ShardRepair: refill the best-effort DHT after membership changes and
// quarantines, one decision per home shard (DESIGN.md §7).
//
// The paper keeps ground truth in every node's NSM block map (§3.2), so any
// hole in the content-tracing DHT can be refilled from it. A hole opens when
// a home shard's replica group changes (a member died, was drafted in, or
// rejoined wiped) or when a member is marked dirty (it missed updates, or
// the integrity scrub quarantined entries there). For every such home the
// service makes one decision:
//
//   * donor stream — an alive group member that was already in the group
//     under the last repaired view and is in sync holds everything the
//     group was sent. The best one (highest applied epoch, successor order
//     breaking ties) streams its slice of the home in MTU-sized reliable
//     kReplicaSync chunks to every dirty alive member, which replaces its
//     slice and flips clean on the last chunk (Cheap Recovery, PAPERS.md).
//   * republish — no such member exists. Every alive host re-publishes its
//     block-map entries homed there through the normal update interface
//     (ServiceDaemon::publish_update, owner-batched unreliable datagrams),
//     and the alive members are marked clean.
//
// At R = 1 the one-member group that changed never has a donor (its member
// is new to the group), so the service republishes exactly the homes whose
// owner moved. Republishing runs first and is delivered before the streams
// start. Repairs are best-effort; DhtAudit convergence is the oracle.
//
// Registered as an epoch listener on the cluster's failure detector (after
// the cluster's placement and dirty-marking listeners, so placement and
// shard_insync() already reflect the new view), it runs at the end of every
// detection window that changes the view. Detection windows run from the
// top level (Cluster::detect()), so pumping the simulation here is safe.
#pragma once

#include <vector>

#include "core/cluster.hpp"

namespace concord::services {

struct RepairReport {
  std::uint64_t epoch = 0;             // view the repair ran against
  std::uint64_t homes_examined = 0;    // homes whose group changed or with a dirty alive member
  std::uint64_t homes_republished = 0; // homes without a donor, rebuilt from ground truth
  std::uint64_t hashes_checked = 0;    // ground-truth hashes walked
  std::uint64_t republished = 0;       // (hash, entity) pairs re-published
  /// Hashes of homes whose group changed but which kept a donor: republish
  /// skipped, the donor stream covers them. Always 0 at R = 1.
  std::uint64_t skipped_replicated = 0;
  std::uint64_t shards_synced = 0;     // (home, target) donor streams sent
  std::uint64_t records_streamed = 0;  // update records across all streams
  sim::Time latency = 0;
};

class ShardRepair {
 public:
  /// With auto_repair (default) the service registers itself as an epoch
  /// listener and runs repair() after every view change.
  explicit ShardRepair(core::Cluster& cluster, bool auto_repair = true);

  ShardRepair(const ShardRepair&) = delete;
  ShardRepair& operator=(const ShardRepair&) = delete;

  /// Repairs every home whose replica group differs between the view of the
  /// previous repair() (everyone up before the first) and the current one,
  /// or that has a dirty alive member; then pumps the simulation so the
  /// repairs land (or are lost). Call from the top level only.
  RepairReport repair();

  /// The same decision with no membership change to diff: repairs the homes
  /// that have a dirty alive member. IntegrityScrub marks each quarantined
  /// member's home dirty and calls this. Call from the top level only.
  RepairReport repair_dirty();

  [[nodiscard]] const RepairReport& last_report() const noexcept { return last_; }
  [[nodiscard]] std::uint64_t total_republished() const noexcept {
    return republished_->value();
  }

 private:
  RepairReport run(const std::vector<bool>& prev_alive);
  obs::Counter* lazy(obs::Counter*& slot, const char* name);

  core::Cluster& cluster_;
  std::vector<bool> prev_alive_;  // view the previous repair() ran against
  RepairReport last_;
  obs::Counter* runs_ = nullptr;         // dht/recovery_runs
  obs::Counter* republished_ = nullptr;  // dht/recovery_republished
  // Lazy cells, R > 1 only: dht/recovery_skipped_replicated and the
  // dht/resync_* family are created on first use, so R = 1 snapshots keep
  // their exact pre-replication cell set.
  obs::Counter* skipped_replicated_ = nullptr;
  obs::Counter* resync_runs_ = nullptr;
  obs::Counter* shards_ = nullptr;
  obs::Counter* records_ = nullptr;
};

}  // namespace concord::services
