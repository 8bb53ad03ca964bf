// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#include "services/shard_repair.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/cost_model.hpp"
#include "core/service_daemon.hpp"

namespace concord::services {

namespace {

/// One home shard's slice of a store as insert records, in the store's
/// deterministic pair order.
std::vector<dht::UpdateRecord> shard_records(const dht::DhtStore& store,
                                             const dht::Placement& pl, std::uint32_t home) {
  std::vector<dht::UpdateRecord> out;
  store.for_each_pair([&](const ContentHash& h, EntityId e) {
    if (pl.home(h) == home) out.push_back(dht::UpdateRecord{h, e, true});
  });
  return out;
}

}  // namespace

ShardRepair::ShardRepair(core::Cluster& cluster, bool auto_repair)
    : cluster_(cluster), prev_alive_(cluster.num_nodes(), true) {
  runs_ = &cluster_.metrics().counter("dht", "recovery_runs");
  republished_ = &cluster_.metrics().counter("dht", "recovery_republished");
  if (auto_repair) {
    cluster_.detector().on_epoch_change([this](const core::MembershipView&) { repair(); });
  }
}

obs::Counter* ShardRepair::lazy(obs::Counter*& slot, const char* name) {
  // concord-proto: cell counter dht/recovery_skipped_replicated dht/resync_runs
  // concord-proto: cell counter dht/resync_shards dht/resync_records
  if (slot == nullptr) slot = &cluster_.metrics().counter("dht", name);
  return slot;
}

RepairReport ShardRepair::repair() {
  const RepairReport rep = run(prev_alive_);
  prev_alive_ = cluster_.placement().alive();
  return rep;
}

RepairReport ShardRepair::repair_dirty() { return run(cluster_.placement().alive()); }

RepairReport ShardRepair::run(const std::vector<bool>& prev_alive) {
  RepairReport rep;
  const core::MembershipView& view = cluster_.membership();
  const dht::Placement& pl = cluster_.placement();
  sim::Simulation& simu = cluster_.sim();
  rep.epoch = view.epoch;
  const sim::Time t0 = simu.now();
  runs_->inc();
  if (pl.replication() > 1) lazy(resync_runs_, "resync_runs")->inc();

  // ---- decide: one verdict per home shard.
  struct Decision {
    bool repair = false;   // group changed or a dirty alive member
    bool changed = false;  // group differs from the previous view's
    core::ServiceDaemon* donor = nullptr;  // null: republish from ground truth
  };
  std::vector<Decision> decisions(pl.num_nodes());
  bool walk_block_maps = false;
  for (std::uint32_t home = 0; home < pl.num_nodes(); ++home) {
    const std::vector<NodeId> prev = pl.shard_replicas_in(prev_alive, home);
    const std::vector<NodeId> group = pl.shard_replicas(home);
    Decision& d = decisions[home];
    d.changed = prev != group;
    bool dirty = false;
    for (const NodeId n : group) {
      if (!view.is_alive(n)) continue;
      core::ServiceDaemon& member = cluster_.daemon(n);
      if (!member.shard_insync(home)) {
        dirty = true;
        continue;
      }
      // A member new to the group has missed every write to it, so it is
      // never a donor. The donor is the in-sync survivor with the highest
      // applied epoch; the first in successor order wins ties.
      if (std::find(prev.begin(), prev.end(), n) == prev.end()) continue;
      if (d.donor == nullptr || member.applied_epoch() > d.donor->applied_epoch()) {
        d.donor = &member;
      }
    }
    d.repair = d.changed || dirty;
    if (!d.repair) continue;
    ++rep.homes_examined;
    // Republish needs the block maps; so does counting the hashes a donor
    // spared from republish.
    if (d.donor == nullptr || d.changed) walk_block_maps = true;
  }

  // ---- republish the homes without a donor from the hosts' block maps.
  if (walk_block_maps) {
    for (std::uint32_t n = 0; n < cluster_.num_nodes(); ++n) {
      if (!view.is_alive(node_id(n))) continue;  // the dead publish nothing
      core::ServiceDaemon& host = cluster_.daemon(node_id(n));
      host.block_map().for_each([&](const ContentHash& h,
                                    const std::vector<mem::BlockLocation>& locs) {
        ++rep.hashes_checked;
        const Decision& d = decisions[pl.home(h)];
        if (!d.repair) return;
        if (d.donor != nullptr) {
          if (d.changed) {
            ++rep.skipped_replicated;
            lazy(skipped_replicated_, "recovery_skipped_replicated")->inc();
          }
          return;
        }
        std::vector<EntityId> seen;  // one insert per entity
        for (const mem::BlockLocation& loc : locs) {
          if (!cluster_.registry().alive(loc.entity)) continue;
          if (std::find(seen.begin(), seen.end(), loc.entity) != seen.end()) continue;
          seen.push_back(loc.entity);
          host.publish_update(h, loc.entity, /*insert=*/true);
          ++rep.republished;
          republished_->inc();
        }
      });
      host.flush_updates();
    }
  }
  simu.run();  // deliver (or lose) the republish batches
  // A republished home has been rebuilt from ground truth at every alive
  // group member: nothing better will arrive, so the members flip clean
  // (best-effort, like the republish itself).
  for (std::uint32_t home = 0; home < pl.num_nodes(); ++home) {
    if (!decisions[home].repair || decisions[home].donor != nullptr) continue;
    ++rep.homes_republished;
    for (const NodeId member : pl.shard_replicas(home)) {
      if (view.is_alive(member)) cluster_.daemon(member).mark_shard_clean(home, view.epoch);
    }
  }

  // ---- stream each donor's slice to the home's dirty alive members.
  const std::size_t chunk_records = cluster_.params().update_batching.max_records();
  for (std::uint32_t home = 0; home < pl.num_nodes(); ++home) {
    const core::ServiceDaemon* donor = decisions[home].donor;
    if (!decisions[home].repair || donor == nullptr) continue;
    std::vector<NodeId> targets;
    for (const NodeId n : pl.shard_replicas(home)) {
      if (view.is_alive(n) && !cluster_.daemon(n).shard_insync(home)) targets.push_back(n);
    }
    if (targets.empty()) continue;

    const auto records = std::make_shared<const std::vector<dht::UpdateRecord>>(
        shard_records(donor->store(), pl, home));
    // One donor-side shard walk per stream, charged like any shard scan.
    const sim::Time scan_cost =
        core::CostModel::instance().scan_cost(donor->store().unique_hashes());

    for (const NodeId target : targets) {
      // The target's slice of this home is replaced, not merged: it may
      // hold stale entries from an earlier group membership, and the
      // donor's copy is the authority. Direct store access — the same
      // surface DhtAudit repairs through — keeps the wipe atomic with
      // respect to the stream that follows.
      core::ServiceDaemon& t = cluster_.daemon(target);
      for (const dht::UpdateRecord& rec : shard_records(t.store(), pl, home)) {
        t.store().remove(rec.hash, rec.entity);
      }

      ++rep.shards_synced;
      rep.records_streamed += records->size();
      lazy(shards_, "resync_shards")->inc();
      lazy(records_, "resync_records")->inc(records->size());

      // Stream in MTU-sized reliable chunks; an empty shard still sends its
      // last-chunk marker so the target can flip clean.
      const NodeId donor_id = donor->id();
      const std::uint64_t epoch = view.epoch;
      net::Fabric& fabric = cluster_.fabric();
      simu.after(scan_cost, [records, chunk_records, donor_id, target, home, epoch,
                             &fabric]() {
        std::size_t off = 0;
        do {
          const std::size_t n = std::min(chunk_records, records->size() - off);
          core::ReplicaSyncMsg msg{
              home, epoch, off + n >= records->size(),
              std::vector<dht::UpdateRecord>(
                  records->begin() + static_cast<std::ptrdiff_t>(off),
                  records->begin() + static_cast<std::ptrdiff_t>(off + n))};
          fabric.send_reliable(net::make_message(donor_id, target,
                                                 net::MsgType::kReplicaSync, std::move(msg),
                                                 core::replica_sync_body_bytes(n)));
          off += n;
        } while (off < records->size());
      });
    }
  }
  simu.run();  // deliver (or lose, beyond retries) every stream chunk

  rep.latency = simu.now() - t0;
  last_ = rep;
  return rep;
}

}  // namespace concord::services
