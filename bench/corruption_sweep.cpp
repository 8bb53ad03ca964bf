// End-to-end data integrity under injected corruption (PR 10).
//
// ConCORD's tracking plane tolerates *loss* by design; corruption is the
// nastier cousin — bytes that arrive (or persist) wrong. This harness sweeps
// seeded corruption through all three planes the integrity work covers:
//
//   1. wire — datagram bit-flips at increasing rates with the checksummed
//      leg on: every corrupt datagram is detected, dropped, and counted;
//      the reliable class retries through normal backoff; the watchdog's
//      extended conservation identity stays violation-free throughout;
//   2. database — silently corrupted shard entries at R = 1/2/3: the
//      integrity scrub quarantines every one, heals through ShardRepair (a
//      donor stream where an in-sync group member survives, a ground-truth
//      republish otherwise — always at R = 1), and a post-heal audit
//      converges with entries_repaired == entries_quarantined;
//   3. storage — integrity-mode checkpoints under torn writes, a mid-write
//      crash-point, and post-commit bit-rot: the committed generation always
//      restores bit-exact, and every rotted file is named by the manifest.
//
// `--smoke` runs the CI subset and writes BENCH_pr10.json; it exits non-zero
// on any watchdog violation, any unhealed quarantine, any undetected rot, or
// any restore that is not bit-exact.
#include <cstring>
#include <memory>
#include <set>

#include "bench_util.hpp"
#include "hash/block_hasher.hpp"
#include "services/checkpoint_format.hpp"
#include "services/collective_checkpoint.hpp"
#include "services/dht_audit.hpp"
#include "services/integrity_scrub.hpp"
#include "services/null_service.hpp"
#include "svc/command_engine.hpp"
#include "workload/workloads.hpp"

using namespace concord;

namespace {

constexpr std::uint32_t kNodes = 8;
constexpr std::size_t kBlocksPerEntity = 48;
constexpr std::size_t kBlockSize = 256;

std::unique_ptr<core::Cluster> make_cluster(std::uint64_t seed, std::uint32_t repl,
                                            double corrupt, double loss, bool checksums,
                                            bool smoke) {
  core::ClusterParams p;
  p.num_nodes = kNodes;
  p.max_entities = kNodes + 1;
  p.seed = seed;
  p.dht_replication = repl;
  p.fabric.loss_rate = loss;
  p.fabric.corrupt_rate = corrupt;
  p.fabric.checksum_enabled = checksums;
  p.watchdog.enabled = true;
  p.watchdog.hard_fail = smoke;
  return std::make_unique<core::Cluster>(p);
}

std::vector<EntityId> populate(core::Cluster& c) {
  std::vector<EntityId> ses;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    mem::MemoryEntity& e =
        c.create_entity(node_id(n), EntityKind::kProcess, kBlocksPerEntity, kBlockSize);
    workload::fill(e, workload::defaults_for(workload::Kind::kMoldy, n + 1));
    ses.push_back(e.id());
  }
  (void)c.scan_all();
  return ses;
}

// ---- phase 1: wire corruption sweep with the checksummed leg on.

struct WireRow {
  double rate = 0;
  std::uint64_t corrupt_dropped = 0;
  std::uint64_t sent = 0;
  std::uint64_t watchdog_viol = 0;
  double cmd_ms = 0;  // command still completes; corruption costs latency only
};

WireRow run_wire(double rate, std::uint64_t seed, bench::MetricsSidecar& sidecar,
                 bool smoke) {
  auto c = make_cluster(seed, 1, rate, /*loss=*/0.05, /*checksums=*/true, smoke);
  const auto ses = populate(*c);
  services::NullService null;
  svc::CommandEngine engine(*c);
  svc::CommandSpec spec;
  spec.service_entities = ses;
  const svc::CommandStats stats = engine.execute(null, spec);
  c->sim().run();
  (void)c->check_invariants();

  WireRow r;
  r.rate = rate;
  r.corrupt_dropped = c->metrics().counter_total("net", "msgs_corrupt_dropped");
  r.sent = c->fabric().total_traffic().msgs_sent;
  r.watchdog_viol = c->watchdog().violations();
  r.cmd_ms = bench::to_ms(stats.latency());
  sidecar.add("wire_rate=" + std::to_string(rate), c->metrics());
  return r;
}

// ---- phase 2: silent shard corruption, scrub heal, audit convergence.

struct ScrubRow {
  std::uint32_t repl = 1;
  std::uint64_t planted = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t repaired = 0;
  bool audit_clean = false;
  double heal_ms = 0;
};

ScrubRow run_scrub(std::uint32_t repl, std::uint64_t planted, std::uint64_t seed,
                   bench::MetricsSidecar& sidecar, bool smoke) {
  auto c = make_cluster(seed, repl, 0.0, 0.0, /*checksums=*/false, smoke);
  const auto ses = populate(*c);
  const dht::Placement& pl = c->placement();
  for (std::uint64_t i = 0; i < planted; ++i) {
    // Hashes no block map substantiates — the footprint silent bit-rot in a
    // shard's stored bytes would leave.
    const ContentHash bogus{0xc0ffee00 + i, seed * 1000 + i};
    c->daemon(pl.owner(bogus)).store().insert(bogus, ses[i % ses.size()]);
  }

  services::IntegrityScrub scrub(*c);
  const services::ScrubReport rep = scrub.scrub_and_heal();
  services::DhtAudit audit(*c);
  audit.attach_scrub(&scrub);
  const services::AuditReport ar = audit.run_to_convergence();

  ScrubRow r;
  r.repl = repl;
  r.planted = planted;
  r.quarantined = scrub.total_quarantined();
  r.repaired = scrub.total_repaired();
  r.audit_clean = ar.clean();
  r.heal_ms = bench::to_ms(rep.latency);
  sidecar.add("scrub_R=" + std::to_string(repl) + "_planted=" + std::to_string(planted),
              c->metrics());
  return r;
}

// ---- phase 3: checkpoint faults — torn writes, crash-point, bit-rot.

struct CkptRow {
  std::uint64_t seed = 0;
  bool gen1_bit_exact = false;       // committed generation restores bit-exact
  bool survives_crashed_gen2 = false;  // gen1 intact after gen2 dies mid-write
  std::uint64_t torn_writes = 0;
  std::uint64_t rotted_files = 0;
  std::uint64_t rot_detected = 0;    // files the manifest names after rot
  std::uint64_t blocks_quarantined = 0;  // verified restore of a rotted SE
};

bool restores_bit_exact(core::Cluster& c,
                        const services::CollectiveCheckpointService& svc,
                        const std::vector<EntityId>& ses) {
  const hash::BlockHasher hasher(c.params().hash_algorithm);
  for (const EntityId id : ses) {
    const services::RestoreReport rep = services::restore_entity_verified(
        c.fs(), svc.se_path(id), svc.shared_path(), &hasher);
    if (rep.status != Status::kOk) return false;
    const mem::MemoryEntity& e = c.entity(id);
    for (BlockIndex b = 0; b < e.num_blocks(); ++b) {
      if (std::memcmp(rep.memory.data() + b * kBlockSize, e.block(b).data(),
                      kBlockSize) != 0) {
        return false;
      }
    }
  }
  return true;
}

CkptRow run_ckpt(std::uint64_t seed, bench::MetricsSidecar& sidecar, bool smoke) {
  CkptRow r;
  r.seed = seed;
  auto c = make_cluster(seed, 1, 0.0, 0.0, /*checksums=*/false, smoke);
  const auto ses = populate(*c);
  services::CollectiveCheckpointService svc(*c);
  svc::CommandEngine engine(*c);
  svc::CommandSpec spec;
  spec.service_entities = ses;
  spec.config.set("ckpt.dir", "ckpt");
  spec.config.set("ckpt.integrity", "true");

  // Generation 1 commits clean; it must restore bit-exact.
  (void)engine.execute(svc, spec);
  r.gen1_bit_exact = restores_bit_exact(*c, svc, ses) &&
                     services::verify_manifest(c->fs(), svc.manifest_path())
                         .value_or({"<manifest unreadable>"})
                         .empty();

  // Generation 2 runs into torn writes and dies at a crash-point mid-write.
  // The temp-file + rename barrier must leave generation 1 untouched.
  c->fs().set_torn_writes(seed * 7 + 1, 0.25);
  c->fs().arm_crash_after(40);
  (void)engine.execute(svc, spec);
  c->fs().heal_faults();
  r.torn_writes = c->fs().torn_writes();
  r.survives_crashed_gen2 = restores_bit_exact(*c, svc, ses) &&
                            services::verify_manifest(c->fs(), svc.manifest_path())
                                .value_or({"<manifest unreadable>"})
                                .empty();

  // Bit-rot on the committed files: every rotted file must be named by the
  // manifest, and a verified restore must quarantine rather than abort.
  Rng rot_rng(seed * 31 + 5);
  std::set<std::string> rotted;
  for (const EntityId id : {ses[0], ses[ses.size() / 2]}) {
    const std::string path = svc.se_path(id);
    const std::uint64_t sz = c->fs().size(path).value_or(0);
    if (sz == 0) continue;
    (void)c->fs().rot(path, rot_rng.below(sz), static_cast<unsigned>(rot_rng.below(8)));
    rotted.insert(path);
  }
  r.rotted_files = rotted.size();
  const auto bad = services::verify_manifest(c->fs(), svc.manifest_path());
  if (bad.has_value()) {
    for (const std::string& f : bad.value()) {
      if (rotted.contains(f)) ++r.rot_detected;
    }
  }
  const services::RestoreReport rep = services::restore_entity_verified(
      c->fs(), svc.se_path(ses[0]), svc.shared_path());
  r.blocks_quarantined = rep.quarantined_blocks.size();

  sidecar.add("ckpt_seed=" + std::to_string(seed), c->metrics());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  bench::banner(
      "Corruption sweep — wire, database, and storage integrity (PR 10)",
      "corruption is detected at every layer: checksummed datagrams are "
      "dropped and retried, quarantined shard entries are healed, and "
      "checkpoints restore bit-exact through torn writes and bit-rot",
      "8 nodes, 1 entity/node, 48 blocks of 256 B; seeded fault injection "
      "on fabric, shard stores, and the simulated file system");

  bench::MetricsSidecar sidecar("corruption_sweep");

  // ---- phase 1: wire.
  std::printf("\nWire corruption with checksums on (5%% datagram loss throughout):\n");
  std::printf("%7s %10s %10s %10s %9s\n", "rate", "sent", "dropped", "violations",
              "cmd ms");
  const std::vector<double> rates =
      smoke ? std::vector<double>{0.0, 0.15, 0.30}
            : std::vector<double>{0.0, 0.05, 0.15, 0.30, 0.50};
  std::uint64_t wire_viol = 0;
  std::uint64_t dropped_at_zero = 0, dropped_at_max = 0;
  for (const double rate : rates) {
    const WireRow r = run_wire(rate, 1001, sidecar, smoke);
    std::printf("%7.2f %10llu %10llu %10llu %9.2f\n", r.rate,
                static_cast<unsigned long long>(r.sent),
                static_cast<unsigned long long>(r.corrupt_dropped),
                static_cast<unsigned long long>(r.watchdog_viol), r.cmd_ms);
    wire_viol += r.watchdog_viol;
    if (rate == 0.0) dropped_at_zero = r.corrupt_dropped;
    if (rate == rates.back()) dropped_at_max = r.corrupt_dropped;
  }

  // ---- phase 2: database.
  std::printf("\nSilent shard corruption, scrub heal, post-heal audit:\n");
  std::printf("%3s %8s %12s %9s %7s %9s\n", "R", "planted", "quarantined", "repaired",
              "audit", "heal ms");
  const std::vector<std::uint64_t> plants =
      smoke ? std::vector<std::uint64_t>{8} : std::vector<std::uint64_t>{4, 16, 48};
  bool scrub_ok = true;
  for (const std::uint32_t repl : {1u, 2u, 3u}) {
    for (const std::uint64_t planted : plants) {
      const ScrubRow r = run_scrub(repl, planted, 2000 + repl, sidecar, smoke);
      std::printf("%3u %8llu %12llu %9llu %7s %9.2f\n", r.repl,
                  static_cast<unsigned long long>(r.planted),
                  static_cast<unsigned long long>(r.quarantined),
                  static_cast<unsigned long long>(r.repaired),
                  r.audit_clean ? "clean" : "DIRTY", r.heal_ms);
      scrub_ok = scrub_ok && r.audit_clean && r.quarantined == r.planted &&
                 r.repaired == r.quarantined;
    }
  }

  // ---- phase 3: storage.
  std::printf("\nCheckpoint integrity under torn writes, crash-points, bit-rot:\n");
  std::printf("%6s %10s %10s %6s %8s %9s %12s\n", "seed", "gen1 ok", "crash ok", "torn",
              "rotted", "detected", "quarantined");
  const std::vector<std::uint64_t> ckpt_seeds =
      smoke ? std::vector<std::uint64_t>{31} : std::vector<std::uint64_t>{31, 32, 33};
  bool ckpt_ok = true;
  for (const std::uint64_t seed : ckpt_seeds) {
    const CkptRow r = run_ckpt(seed, sidecar, smoke);
    std::printf("%6llu %10s %10s %6llu %8llu %9llu %12llu\n",
                static_cast<unsigned long long>(r.seed), r.gen1_bit_exact ? "yes" : "NO",
                r.survives_crashed_gen2 ? "yes" : "NO",
                static_cast<unsigned long long>(r.torn_writes),
                static_cast<unsigned long long>(r.rotted_files),
                static_cast<unsigned long long>(r.rot_detected),
                static_cast<unsigned long long>(r.blocks_quarantined));
    ckpt_ok = ckpt_ok && r.gen1_bit_exact && r.survives_crashed_gen2 &&
              r.rot_detected == r.rotted_files;
  }

  const bool wire_ok = wire_viol == 0 && dropped_at_zero == 0 && dropped_at_max > 0;
  std::printf(
      "\nAcceptance: zero watchdog violations at every corruption rate (the\n"
      "conservation identity absorbs corrupt-dropped datagrams); every planted\n"
      "corruption quarantined AND repaired with a clean post-heal audit at\n"
      "R = 1/2/3; the committed checkpoint generation restores bit-exact\n"
      "through torn writes and a mid-write crash; every rotted file named by\n"
      "the manifest. wire=%s scrub=%s ckpt=%s\n",
      wire_ok ? "ok" : "FAIL", scrub_ok ? "ok" : "FAIL", ckpt_ok ? "ok" : "FAIL");

  if (smoke) {
    std::FILE* f = std::fopen("BENCH_pr10.json", "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"bench\":\"pr10_corruption_sweep\",\"nodes\":%u,"
                   "\"wire_rates\":%zu,\"wire_watchdog_violations\":%llu,"
                   "\"corrupt_dropped_at_max_rate\":%llu,"
                   "\"scrub_heals_converge\":%s,\"ckpt_bit_exact\":%s}\n",
                   kNodes, rates.size(), static_cast<unsigned long long>(wire_viol),
                   static_cast<unsigned long long>(dropped_at_max),
                   scrub_ok ? "true" : "false", ckpt_ok ? "true" : "false");
      std::fclose(f);
      std::printf("\n  [BENCH_pr10.json written]\n");
    }
    return (wire_ok && scrub_ok && ckpt_ok) ? 0 : 1;
  }
  return 0;
}
