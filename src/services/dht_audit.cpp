// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#include "services/dht_audit.hpp"

#include <map>
#include <set>

#include "core/cost_model.hpp"
#include "core/service_daemon.hpp"
#include "services/integrity_scrub.hpp"

namespace concord::services {

namespace {
/// Wire payload of an audit check batch (host -> shard owner): a list of
/// (hash, entity) pairs. Only the size matters for the traffic model.
constexpr std::size_t kPairBytes = sizeof(ContentHash) + sizeof(EntityId);
}  // namespace

AuditReport DhtAudit::run() {
  AuditReport report;
  sim::Simulation& simu = cluster_.sim();
  const core::CostModel& cm = core::CostModel::instance();
  const bool replicated = cluster_.placement().replication() > 1;
  const sim::Time t0 = simu.now();

  // ---- pass 1: find missing entries (host side drives).
  for (std::uint32_t n = 0; n < cluster_.num_nodes(); ++n) {
    if (cluster_.fault().is_down(node_id(n))) continue;  // down hosts drive nothing
    const core::ServiceDaemon& host = cluster_.daemon(node_id(n));
    // Batch the checks per shard owner, as a real implementation would.
    std::map<std::uint32_t, std::uint64_t> batch_pairs;  // ordered: repair traffic is emitted per owner
    sim::Time scan = 0;

    host.block_map().for_each([&](const ContentHash& h,
                                  const std::vector<mem::BlockLocation>& locs) {
      std::set<std::uint32_t> entities_here;  // ordered: repair inserts are emitted per entity
      for (const mem::BlockLocation& loc : locs) entities_here.insert(raw(loc.entity));
      // Every group member must hold the pair (at R = 1 the group is just
      // the owner, and this degenerates to the single-owner check).
      const std::vector<NodeId> group = cluster_.placement().replicas(h);
      for (const std::uint32_t e : entities_here) {
        if (!cluster_.registry().alive(entity_id(e))) continue;  // NSM lag
        ++report.entries_checked;
        scan += cm.callback_cost();
        bool missing_any = false;
        for (const NodeId member : group) {
          ++batch_pairs[raw(member)];
          if (!cluster_.daemon(member).store().contains(h, entity_id(e))) {
            // Missing: repair through the normal update interface.
            cluster_.fabric().send_unreliable(net::make_message(
                node_id(n), member, net::MsgType::kDhtInsert,
                core::DhtUpdateMsg{h, entity_id(e), true}, core::kDhtUpdateBytes));
            ++report.missing_repaired;
            missing_any = true;
          }
        }
        if (replicated && missing_any) ++report.under_replicated;
      }
    });

    // Charge the batched check traffic (one request per owner, paired
    // replies) and the host-side scan.
    for (const auto& [owner, pairs] : batch_pairs) {
      if (owner == n) continue;
      cluster_.fabric().send_unreliable(
          net::make_message(node_id(n), node_id(owner), net::MsgType::kControl,
                            std::uint64_t{pairs}, pairs * kPairBytes));
    }
    simu.run_until(simu.now() + scan);
  }

  // ---- pass 2: find stale and misplaced entries (shard owner side drives).
  for (std::uint32_t n = 0; n < cluster_.num_nodes(); ++n) {
    if (cluster_.fault().is_down(node_id(n))) continue;  // down shards keep their drift
    core::ServiceDaemon& owner = cluster_.daemon(node_id(n));
    std::vector<std::pair<ContentHash, EntityId>> stale;
    std::vector<std::pair<ContentHash, EntityId>> misplaced;
    std::vector<std::pair<ContentHash, EntityId>> corrupt;
    sim::Time scan = cm.scan_cost(owner.store().unique_hashes());

    const dht::Placement& pl = cluster_.placement();
    owner.store().for_each_pair([&](const ContentHash& h, EntityId e) {
      ++report.entries_checked;
      // Ownership may have moved with the membership epoch: entries left at
      // a node placement no longer maps this hash to are unreachable by
      // queries, so they are scrubbed here (pass 1 re-inserts at the
      // current owner from ground truth). Any current group member is a
      // legitimate holder — only non-members are misplaced.
      if (!pl.is_replica(pl.home(h), node_id(n))) {
        misplaced.emplace_back(h, e);
        return;
      }
      bool substantiated = false;
      bool host_reachable = true;
      if (cluster_.registry().alive(e)) {
        const NodeId host = cluster_.registry().host_of(e);
        if (cluster_.fault().is_down(host)) {
          // The authoritative host can't answer: not provably stale.
          host_reachable = false;
        } else {
          const auto* locs = cluster_.daemon(host).block_map().find(h);
          if (locs != nullptr) {
            for (const mem::BlockLocation& loc : *locs) {
              if (loc.entity == e) {
                substantiated = true;
                break;
              }
            }
          }
        }
      }
      if (!substantiated && host_reachable) {
        stale.emplace_back(h, e);
      } else if (substantiated && scrub_ != nullptr && !scrub_->verify_entry(h, e)) {
        // The block map vouches for the entry but the bytes do not:
        // corrupt, not stale — quarantine through the scrub so the
        // integrity gauges and flight-recorder events fire.
        corrupt.emplace_back(h, e);
      }
    });

    for (const auto& [h, e] : stale) {
      // Removal is local to the shard: apply directly (no datagram race —
      // the check above consulted the authoritative host).
      owner.store().remove(h, e);
      ++report.stale_removed;
    }
    for (const auto& [h, e] : misplaced) {
      owner.store().remove(h, e);
      ++report.misplaced_removed;
      if (replicated) ++report.over_replicated;
    }
    for (const auto& [h, e] : corrupt) {
      scrub_->quarantine(node_id(n), h, e);
      ++report.corrupt_quarantined;
    }
    simu.run_until(simu.now() + scan);
  }

  simu.run();  // deliver (or lose) the repair datagrams
  report.latency = simu.now() - t0;
  if (replicated && report.clean()) {
    // A clean pass certified every alive replica against ground truth, so
    // the audit doubles as the convergence oracle for dirty-shard markers:
    // a shard whose whole group died (no resync donor) would otherwise
    // refuse reads forever. Releasing the markers here is safe precisely
    // because nothing needed repair.
    const std::uint64_t epoch = cluster_.membership().epoch;
    for (std::uint32_t n = 0; n < cluster_.num_nodes(); ++n) {
      if (cluster_.fault().is_down(node_id(n))) continue;  // unaudited: keep drift
      cluster_.daemon(node_id(n)).mark_all_insync(epoch);
    }
  }
  if (!report.clean()) {
    // Tracked state drifted from ground truth — a postmortem trigger: stamp
    // the mismatch into every ring and dump the black box before further
    // passes repair the evidence away.
    cluster_.blackbox().record_all(
        simu.now(), obs::FrEvent::kAuditMismatch, 0, 0,
        report.missing_repaired + report.stale_removed + report.misplaced_removed);
    cluster_.blackbox().dump("audit_mismatch");
  }
  return report;
}

AuditReport DhtAudit::run_to_convergence(int max_passes) {
  AuditReport total;
  for (int pass = 0; pass < max_passes; ++pass) {
    const AuditReport r = run();
    total.entries_checked += r.entries_checked;
    total.missing_repaired += r.missing_repaired;
    total.stale_removed += r.stale_removed;
    total.misplaced_removed += r.misplaced_removed;
    total.under_replicated += r.under_replicated;
    total.over_replicated += r.over_replicated;
    total.corrupt_quarantined += r.corrupt_quarantined;
    total.latency += r.latency;
    if (r.clean()) break;
  }
  return total;
}

}  // namespace concord::services
