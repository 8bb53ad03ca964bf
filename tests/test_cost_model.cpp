// Tests for the pinned cost model and the determinism it buys: two
// identical simulations must produce bit-identical virtual timelines.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "core/cost_model.hpp"
#include "query/queries.hpp"
#include "services/collective_checkpoint.hpp"
#include "svc/command_engine.hpp"
#include "workload/workloads.hpp"

namespace concord::core {
namespace {

TEST(CostModel, InstanceIsThePinnedProfile) {
  const CostModel& m = CostModel::instance();
  const CostModel pinned;
  EXPECT_EQ(m.md5_ns_per_byte, pinned.md5_ns_per_byte);
  EXPECT_EQ(m.superfast_ns_per_byte, pinned.superfast_ns_per_byte);
  EXPECT_EQ(m.touch_ns_per_byte, pinned.touch_ns_per_byte);
  EXPECT_EQ(m.callback_ns, pinned.callback_ns);
  EXPECT_EQ(m.entry_scan_ns, pinned.entry_scan_ns);
  EXPECT_EQ(m.cgz_ns_per_byte, pinned.cgz_ns_per_byte);
}

TEST(CostModel, CalibratedValuesAreSane) {
  const CostModel m = CostModel::calibrate();
  // Report how this host compares with the pinned profile. Divergence is
  // information, not failure: sanitizer and Debug builds run far slower.
  const CostModel pinned;
  const struct {
    const char* name;
    double measured, pinned;
  } units[] = {
      {"md5_ns_per_byte", m.md5_ns_per_byte, pinned.md5_ns_per_byte},
      {"superfast_ns_per_byte", m.superfast_ns_per_byte, pinned.superfast_ns_per_byte},
      {"touch_ns_per_byte", m.touch_ns_per_byte, pinned.touch_ns_per_byte},
      {"callback_ns", m.callback_ns, pinned.callback_ns},
      {"entry_scan_ns", m.entry_scan_ns, pinned.entry_scan_ns},
      {"cgz_ns_per_byte", m.cgz_ns_per_byte, pinned.cgz_ns_per_byte},
  };
  for (const auto& u : units) {
    const double ratio = u.measured / u.pinned;
    std::printf("  %-22s measured %9.4f  pinned %9.4f  ratio %5.2f%s\n", u.name, u.measured,
                u.pinned, ratio, ratio > 2.0 || ratio < 0.5 ? "  (>2x off)" : "");
  }
  EXPECT_GT(m.md5_ns_per_byte, 0.0);
  EXPECT_LT(m.md5_ns_per_byte, 100.0);
  EXPECT_GT(m.superfast_ns_per_byte, 0.0);
  // MD5 is the expensive option (the §5.2 premise).
  EXPECT_GT(m.md5_ns_per_byte, m.superfast_ns_per_byte);
  EXPECT_GT(m.touch_ns_per_byte, 0.0);
  EXPECT_LT(m.touch_ns_per_byte, m.superfast_ns_per_byte);
  EXPECT_GT(m.callback_ns, 0.0);
  EXPECT_GT(m.entry_scan_ns, 0.0);
}

TEST(CostModel, CostsScaleLinearly) {
  // Within integer-nanosecond rounding, cost is proportional to work.
  const CostModel& m = CostModel::instance();
  EXPECT_NEAR(static_cast<double>(m.hash_cost(hash::Algorithm::kMd5, 8192)),
              2.0 * static_cast<double>(m.hash_cost(hash::Algorithm::kMd5, 4096)), 2.0);
  EXPECT_NEAR(static_cast<double>(m.touch_cost(2000)),
              2.0 * static_cast<double>(m.touch_cost(1000)), 2.0);
  EXPECT_NEAR(static_cast<double>(m.scan_cost(500)),
              5.0 * static_cast<double>(m.scan_cost(100)), 5.0);
}

sim::Time run_checkpoint_once() {
  ClusterParams p;
  p.num_nodes = 4;
  p.max_entities = 8;
  p.seed = 99;
  auto c = std::make_unique<Cluster>(p);
  std::vector<EntityId> ses;
  for (std::uint32_t n = 0; n < 4; ++n) {
    mem::MemoryEntity& e = c->create_entity(node_id(n), EntityKind::kProcess, 32, 256);
    workload::fill(e, workload::defaults_for(workload::Kind::kMoldy, 4));
    ses.push_back(e.id());
  }
  (void)c->scan_all();

  services::CollectiveCheckpointService ckpt(*c);
  svc::CommandEngine engine(*c);
  svc::CommandSpec spec;
  spec.service_entities = ses;
  return engine.execute(ckpt, spec).latency();
}

TEST(CostModel, CommandTimelineIsDeterministic) {
  const sim::Time a = run_checkpoint_once();
  const sim::Time b = run_checkpoint_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0);
}

TEST(CostModel, CollectiveQueryLatencyIsDeterministic) {
  const auto run = [] {
    ClusterParams p;
    p.num_nodes = 4;
    p.max_entities = 8;
    p.seed = 7;
    auto c = std::make_unique<Cluster>(p);
    std::vector<EntityId> ids;
    for (std::uint32_t n = 0; n < 4; ++n) {
      mem::MemoryEntity& e = c->create_entity(node_id(n), EntityKind::kProcess, 32, 256);
      workload::fill(e, workload::defaults_for(workload::Kind::kMoldy, 3));
      ids.push_back(e.id());
    }
    (void)c->scan_all();
    query::QueryEngine q(*c);
    return q.sharing(node_id(0), ids).latency;
  };
  EXPECT_EQ(run(), run());
}

TEST(CostModel, BiggerShardsChargeMoreScanTime) {
  // The Fig. 9 "single grows with hashes" mechanism, at the unit level.
  const CostModel& m = CostModel::instance();
  EXPECT_GT(m.scan_cost(1000000), m.scan_cost(1000));
}

}  // namespace
}  // namespace concord::core
