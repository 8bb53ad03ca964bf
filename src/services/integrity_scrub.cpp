// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#include "services/integrity_scrub.hpp"

#include <utility>

#include "core/cost_model.hpp"
#include "core/service_daemon.hpp"

namespace concord::services {

obs::Counter* IntegrityScrub::lazy(obs::Counter*& slot, const char* name) {
  // concord-proto: cell counter dht/entries_quarantined dht/entries_repaired
  if (slot == nullptr) slot = &cluster_.metrics().counter("dht", name);
  return slot;
}

bool IntegrityScrub::verify_entry(const ContentHash& h, EntityId e) const {
  if (!cluster_.registry().alive(e)) return false;
  const NodeId host = cluster_.registry().host_of(e);
  core::ServiceDaemon& hd = cluster_.daemon(host);
  const auto* locs = hd.block_map().find(h);
  if (locs == nullptr) return false;
  const hash::BlockHasher& hasher = hd.monitor().hasher();
  const mem::MemoryEntity& ent = cluster_.entity(e);
  for (const mem::BlockLocation& loc : *locs) {
    if (loc.entity != e) continue;
    if (hasher(ent.block(loc.block)) == h) return true;
  }
  return false;
}

void IntegrityScrub::quarantine(NodeId member, const ContentHash& h, EntityId e) {
  cluster_.daemon(member).store().remove(h, e);
  lazy(quarantined_cell_, "entries_quarantined")->inc();
  cluster_.blackbox().record(raw(member), cluster_.sim().now(), obs::FrEvent::kEntryQuarantined,
                             static_cast<std::uint16_t>(raw(e)),
                             raw(cluster_.registry().host_of(e)), h.lo);
  pending_.push_back({h, e, member, cluster_.placement().home(h)});
}

ScrubReport IntegrityScrub::scrub() {
  ScrubReport rep;
  rep.rounds = 1;
  sim::Simulation& simu = cluster_.sim();
  const core::CostModel& cm = core::CostModel::instance();
  const dht::Placement& pl = cluster_.placement();
  const hash::Algorithm algo = cluster_.params().hash_algorithm;
  const sim::Time t0 = simu.now();

  for (std::uint32_t n = 0; n < cluster_.num_nodes(); ++n) {
    if (cluster_.fault().is_down(node_id(n))) continue;  // down shards keep their drift
    core::ServiceDaemon& member = cluster_.daemon(node_id(n));
    std::vector<std::pair<ContentHash, EntityId>> bad;
    sim::Time scan = 0;

    member.store().for_each_pair([&](const ContentHash& h, EntityId e) {
      // Misplaced entries (placement no longer maps the hash here) are the
      // audit's territory; the scrub only judges entries this member
      // legitimately serves.
      if (!pl.is_replica(pl.home(h), node_id(n))) return;
      if (!cluster_.registry().alive(e)) return;  // stale, not corrupt
      if (cluster_.fault().is_down(cluster_.registry().host_of(e))) return;
      ++rep.entries_checked;
      scan += cm.hash_cost(algo, cluster_.entity(e).block_size());
      if (!verify_entry(h, e)) bad.emplace_back(h, e);
    });

    for (const auto& [h, e] : bad) {
      quarantine(node_id(n), h, e);
      ++rep.quarantined;
    }
    simu.run_until(simu.now() + scan);
  }

  rep.latency = simu.now() - t0;
  return rep;
}

void IntegrityScrub::heal() {
  if (pending_.empty()) return;
  const std::uint64_t epoch = cluster_.membership().epoch;
  for (const Quarantined& q : pending_) {
    cluster_.daemon(q.member).mark_shard_dirty(q.home, epoch);
  }
  if (!repair_) repair_.emplace(cluster_, /*auto_repair=*/false);
  repair_->repair_dirty();
}

void IntegrityScrub::credit_repairs() {
  for (const Quarantined& q : pending_) {
    lazy(repaired_cell_, "entries_repaired")->inc();
    cluster_.blackbox().record(raw(q.member), cluster_.sim().now(),
                               obs::FrEvent::kEntryRepaired,
                               static_cast<std::uint16_t>(raw(q.entity)), q.home, q.hash.lo);
  }
  pending_.clear();
}

ScrubReport IntegrityScrub::scrub_and_heal(int max_rounds) {
  ScrubReport total;
  for (int round = 0; round < max_rounds; ++round) {
    // Heal anything already on the quarantine list (from a previous round,
    // or a standalone scrub() call) before verifying, so a clean pass below
    // really does certify the repairs it credits.
    heal();
    const ScrubReport r = scrub();
    total.entries_checked += r.entries_checked;
    total.quarantined += r.quarantined;
    total.rounds += r.rounds;
    total.latency += r.latency;
    if (r.clean()) {
      // A clean pass re-hashed every verifiable entry and found nothing
      // corrupt: the heal held, so the whole pending quarantine list is
      // certified repaired.
      total.repaired += pending_.size();
      credit_repairs();
      break;
    }
  }
  return total;
}

}  // namespace concord::services
