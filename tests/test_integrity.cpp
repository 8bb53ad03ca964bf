// End-to-end data-integrity tests: the checksummed wire leg under chaos
// (watchdog conservation must hold while corrupted datagrams are dropped and
// retried), the integrity scrub's quarantine-and-repair cycle at every
// replication level, and the audit-driven detection of silent memory rot.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "hash/block_hasher.hpp"
#include "query/queries.hpp"
#include "services/dht_audit.hpp"
#include "services/integrity_scrub.hpp"
#include "services/null_service.hpp"
#include "svc/command_engine.hpp"
#include "workload/workloads.hpp"

namespace concord {
namespace {

struct IntegrityRigParams {
  std::uint32_t nodes = 4;
  std::uint64_t seed = 1;
  std::uint32_t replication = 1;
  double loss = 0.0;
  double corrupt = 0.0;
  double duplicate = 0.0;
  bool checksums = false;
  bool watchdog = false;
};

std::unique_ptr<core::Cluster> make_cluster(const IntegrityRigParams& rp) {
  core::ClusterParams p;
  p.num_nodes = rp.nodes;
  p.max_entities = 64;
  p.seed = rp.seed;
  p.dht_replication = rp.replication;
  p.fabric.loss_rate = rp.loss;
  p.fabric.corrupt_rate = rp.corrupt;
  p.fabric.duplicate_rate = rp.duplicate;
  p.fabric.checksum_enabled = rp.checksums;
  p.watchdog.enabled = rp.watchdog;
  return std::make_unique<core::Cluster>(p);
}

std::vector<EntityId> populate(core::Cluster& c, std::size_t blocks = 12) {
  std::vector<EntityId> out;
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    mem::MemoryEntity& e = c.create_entity(node_id(n), EntityKind::kProcess, blocks, 256);
    workload::fill(e, workload::defaults_for(workload::Kind::kMoldy, n + 1));
    out.push_back(e.id());
  }
  (void)c.scan_all();
  return out;
}

void run_null_command(core::Cluster& c, const std::vector<EntityId>& ses) {
  services::NullService null;
  svc::CommandEngine engine(c);
  svc::CommandSpec spec;
  spec.service_entities = ses;
  (void)engine.execute(null, spec);
}

// ------------------------------------------------ wire checksums + watchdog

TEST(Integrity, ConservationHoldsUnderChecksummedChaos) {
  // Satellite (a): corruption + loss + duplication, checksums on. Corrupted
  // datagrams are detected, dropped, and counted; the reliable class retries
  // through the normal backoff; the conservation identity stays violation-
  // free with the corrupt-dropped term included.
  IntegrityRigParams rp;
  rp.seed = 71;
  rp.loss = 0.15;
  rp.corrupt = 0.25;
  rp.duplicate = 0.10;
  rp.checksums = true;
  rp.watchdog = true;
  auto c = make_cluster(rp);
  const auto ses = populate(*c);
  run_null_command(*c, ses);
  c->sim().run();

  (void)c->check_invariants();
  EXPECT_EQ(c->watchdog().violations(), 0u);
  for (const auto& f : c->watchdog().last_findings()) {
    ADD_FAILURE() << f.invariant << ": " << f.detail;
  }
  EXPECT_GT(c->metrics().counter_total("net", "msgs_corrupt_dropped"), 0u)
      << "a 25% corrupt rate must have hit something";
}

TEST(Integrity, ChecksumsOffLeavesNoIntegrityCells) {
  // Default-off invariant: a run that never enables checksums, corruption,
  // or the scrub creates none of the integrity metric cells, so its metrics
  // snapshot is byte-identical to a build without the feature.
  IntegrityRigParams rp;
  rp.seed = 72;
  auto c = make_cluster(rp);
  const auto ses = populate(*c);
  run_null_command(*c, ses);
  const std::string snap = c->metrics().to_json();
  EXPECT_EQ(snap.find("corrupt"), std::string::npos);
  EXPECT_EQ(snap.find("quarantined"), std::string::npos);
  EXPECT_EQ(snap.find("repaired"), std::string::npos);
}

// ------------------------------------------- scrub: quarantine and repair

class ScrubAtReplication : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ScrubAtReplication, QuarantinesAndHealsCorruptEntries) {
  IntegrityRigParams rp;
  rp.seed = 80 + GetParam();
  rp.replication = GetParam();
  auto c = make_cluster(rp);
  const auto ses = populate(*c);

  // Plant corrupt shard entries: hashes no block map substantiates, inserted
  // directly into the stores of the nodes placement maps them to — the
  // footprint silent bit-rot in a shard's memory would leave.
  const dht::Placement& pl = c->placement();
  std::uint64_t planted = 0;
  for (std::uint64_t i = 0; i < 6; ++i) {
    const ContentHash bogus{0xdead0000 + i, 0xbeef0000 + i};
    c->daemon(pl.owner(bogus)).store().insert(bogus, ses[i % ses.size()]);
    ++planted;
  }

  services::IntegrityScrub scrub(*c);
  const services::ScrubReport rep = scrub.scrub_and_heal();
  EXPECT_EQ(rep.quarantined, planted);
  EXPECT_EQ(rep.repaired, rep.quarantined) << "heal must certify every quarantine";
  EXPECT_EQ(scrub.total_repaired(), scrub.total_quarantined());
  EXPECT_EQ(scrub.pending_repairs(), 0u);
  EXPECT_GT(rep.entries_checked, 0u);

  // Post-heal convergence: the audit agrees the DHT matches ground truth.
  services::DhtAudit audit(*c);
  audit.attach_scrub(&scrub);
  const services::AuditReport ar = audit.run_to_convergence();
  EXPECT_TRUE(ar.clean()) << "corrupt=" << ar.corrupt_quarantined
                          << " missing=" << ar.missing_repaired
                          << " stale=" << ar.stale_removed;
  EXPECT_EQ(scrub.total_repaired(), scrub.total_quarantined());
}

INSTANTIATE_TEST_SUITE_P(Replication, ScrubAtReplication, ::testing::Values(1u, 2u, 3u));

TEST(Integrity, WholeGroupQuarantineRepublishesAndReadsStayOk) {
  // Every member of one replica group holds the same corrupt entry, so the
  // scrub quarantines it everywhere and no in-sync donor is left. The heal
  // must rebuild the home from ground truth and flip the members clean;
  // otherwise every read of a legitimate hash homed there is refused.
  IntegrityRigParams rp;
  rp.seed = 83;
  rp.replication = 2;
  auto c = make_cluster(rp);
  const auto ses = populate(*c, 12);
  const dht::Placement& pl = c->placement();
  const ContentHash bogus{0xdead0000, 0xbeef0000};
  const std::uint32_t home = pl.home(bogus);
  const std::vector<NodeId> group = pl.replicas(bogus);
  ASSERT_EQ(group.size(), 2u);
  for (const NodeId member : group) c->daemon(member).store().insert(bogus, ses[0]);

  services::IntegrityScrub scrub(*c);
  const services::ScrubReport rep = scrub.scrub_and_heal();
  EXPECT_EQ(rep.quarantined, group.size());
  EXPECT_EQ(scrub.pending_repairs(), 0u);
  for (const NodeId member : group) {
    EXPECT_TRUE(c->daemon(member).shard_insync(home)) << "member " << raw(member);
  }

  std::set<ContentHash> legit;  // ground-truth hashes homed at the damaged shard
  const hash::BlockHasher hasher(c->params().hash_algorithm);
  for (const EntityId id : ses) {
    const mem::MemoryEntity& e = c->entity(id);
    for (BlockIndex b = 0; b < e.num_blocks(); ++b) {
      const ContentHash h = hasher(e.block(b));
      if (pl.home(h) == home) legit.insert(h);
    }
  }
  ASSERT_FALSE(legit.empty());
  query::QueryEngine q(*c);
  std::size_t degraded = 0;
  for (const ContentHash& h : legit) {
    const query::NodewiseAnswer a = q.num_copies(node_id(0), h);
    if (a.status != Status::kOk) ++degraded;
    EXPECT_GE(a.num_copies, 1u);
  }
  EXPECT_EQ(degraded, 0u) << "of " << legit.size() << " reads";
}

TEST(Integrity, ScrubAndHealLatencyCoversTheHeal) {
  // At R = 1 the heal republishes the quarantined home over the fabric, which
  // takes virtual time between the verify passes. The report must span it.
  IntegrityRigParams rp;
  rp.seed = 81;
  auto c = make_cluster(rp);
  const auto ses = populate(*c);
  const ContentHash bogus{0xdead0000, 0xbeef0000};
  c->daemon(c->placement().owner(bogus)).store().insert(bogus, ses[0]);

  services::IntegrityScrub scrub(*c);
  const sim::Time t0 = c->sim().now();
  const services::ScrubReport rep = scrub.scrub_and_heal();
  ASSERT_EQ(rep.quarantined, 1u);
  ASSERT_EQ(rep.repaired, 1u);
  EXPECT_EQ(rep.latency, c->sim().now() - t0);
}

TEST(Integrity, CleanClusterScrubIsANoOp) {
  IntegrityRigParams rp;
  rp.seed = 90;
  rp.replication = 2;
  auto c = make_cluster(rp);
  (void)populate(*c);
  services::IntegrityScrub scrub(*c);
  const services::ScrubReport rep = scrub.scrub_and_heal();
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.quarantined, 0u);
  EXPECT_EQ(rep.repaired, 0u);
  EXPECT_GT(rep.entries_checked, 0u) << "a scrub re-hashes every served entry";
}

// --------------------------------------- audit-driven detection of rot

TEST(Integrity, AuditQuarantinesMemoryRotAndConvergesAfterRescan) {
  // Memory rots *after* the monitor hashed it: the block map still vouches
  // for the stale hash, so only the audit's re-hash pass (through the
  // attached scrub) can tell the entry is corrupt.
  IntegrityRigParams rp;
  rp.seed = 91;
  auto c = make_cluster(rp);
  const auto ses = populate(*c);

  mem::MemoryEntity& victim = c->entity(ses[0]);
  std::vector<std::byte> garbage(256, std::byte{0xCD});
  victim.write_block(0, garbage);

  services::IntegrityScrub scrub(*c);
  services::DhtAudit audit(*c);
  audit.attach_scrub(&scrub);
  const services::AuditReport first = audit.run();
  EXPECT_GE(first.corrupt_quarantined, 1u);
  EXPECT_GE(scrub.total_quarantined(), 1u);

  // Recovery: rescan (the monitor republishes current content), then heal.
  (void)c->scan_all();
  const services::ScrubReport srep = scrub.scrub_and_heal();
  EXPECT_EQ(srep.repaired, srep.quarantined + first.corrupt_quarantined);
  EXPECT_EQ(scrub.total_repaired(), scrub.total_quarantined());

  const services::AuditReport converged = audit.run_to_convergence();
  EXPECT_TRUE(converged.clean());
}

}  // namespace
}  // namespace concord
