// concord_shell — the interactive control shell of Fig. 2.
//
//   $ ./concord_shell            # interactive REPL
//   $ ./concord_shell --demo     # scripted walk-through
//   $ echo "..." | ./concord_shell
//
// Drives an emulated site through the full public API: entity lifecycle,
// monitor epochs, the Fig. 3 query interface, service commands
// (checkpoint/restore), migration, the audit service, and traffic/DHT
// statistics. Type `help` for the command list.
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "query/queries.hpp"
#include "services/checkpoint_format.hpp"
#include "services/integrity_scrub.hpp"
#include "services/collective_checkpoint.hpp"
#include "services/dht_audit.hpp"
#include "services/migration.hpp"
#include "services/shard_repair.hpp"
#include "svc/command_engine.hpp"
#include "workload/workloads.hpp"

using namespace concord;

namespace {

struct Shell {
  std::unique_ptr<core::Cluster> cluster;
  std::unique_ptr<services::ShardRepair> repair;  // auto-runs on epoch change
  std::unique_ptr<services::CollectiveCheckpointService> last_ckpt;

  bool require_cluster() const {
    if (!cluster) std::puts("no cluster — run: cluster <nodes> [loss]");
    return cluster != nullptr;
  }

  std::vector<EntityId> parse_entities(const std::string& spec) const {
    std::vector<EntityId> out;
    if (spec == "all") return cluster->live_entities();
    std::stringstream ss(spec);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      out.push_back(entity_id(static_cast<std::uint32_t>(std::stoul(tok))));
    }
    return out;
  }

  void cmd_cluster(std::istringstream& args) {
    std::uint32_t nodes = 4;
    double loss = 0.0;
    std::size_t mtu = 1500;  // 0 disables update batching
    std::uint32_t repl = 1;  // DHT replica-group size (clamped to nodes)
    args >> nodes >> loss >> mtu >> repl;
    core::ClusterParams p;
    p.num_nodes = nodes;
    p.max_entities = 256;
    p.fabric.loss_rate = loss;
    p.update_batching.enabled = mtu != 0;
    if (mtu != 0) p.update_batching.mtu_bytes = mtu;
    p.dht_replication = repl;
    // The shell is a debugging surface: stamp trace context on datagrams so
    // `trace <file>` exports show cross-node causal arrows, and let the
    // watchdog sweep the invariants at every scan boundary.
    p.trace_propagation = true;
    p.watchdog.enabled = true;
    repair.reset();
    cluster = std::make_unique<core::Cluster>(p);
    repair = std::make_unique<services::ShardRepair>(*cluster);
    last_ckpt.reset();
    if (mtu != 0) {
      std::printf("cluster: %u nodes, loss %.1f%%, update batching at %zu B MTU "
                  "(%zu records/datagram)",
                  nodes, loss * 100.0, mtu, p.update_batching.max_records());
    } else {
      std::printf("cluster: %u nodes, loss %.1f%%, update batching off", nodes,
                  loss * 100.0);
    }
    std::printf(", R=%u%s\n", cluster->placement().replication(),
                cluster->placement().replication() > 1 ? " (donor-stream repair on)" : "");
  }

  void cmd_entity(std::istringstream& args) {
    if (!require_cluster()) return;
    std::uint32_t node = 0;
    std::size_t blocks = 64;
    std::string kind = "process";
    args >> node >> blocks >> kind;
    if (node >= cluster->num_nodes()) {
      std::puts("no such node");
      return;
    }
    const EntityKind k =
        kind == "vm" ? EntityKind::kVirtualMachine : EntityKind::kProcess;
    mem::MemoryEntity& e = cluster->create_entity(node_id(node), k, blocks, 4096);
    std::printf("entity %u on node %u: %zu blocks of 4 KB\n", raw(e.id()), node, blocks);
  }

  void cmd_fill(std::istringstream& args) {
    if (!require_cluster()) return;
    std::uint32_t id = 0;
    std::string kind = "moldy";
    std::uint64_t seed = 1;
    args >> id >> kind >> seed;
    const workload::Kind k = kind == "nasty"    ? workload::Kind::kNasty
                             : kind == "hpccg"  ? workload::Kind::kHpccg
                             : kind == "random" ? workload::Kind::kRandom
                                                : workload::Kind::kMoldy;
    workload::fill(cluster->entity(entity_id(id)), workload::defaults_for(k, seed));
    std::printf("entity %u filled (%s, seed %llu)\n", id, kind.c_str(),
                static_cast<unsigned long long>(seed));
  }

  void cmd_mutate(std::istringstream& args) {
    if (!require_cluster()) return;
    std::uint32_t id = 0;
    double fraction = 0.1;
    args >> id >> fraction;
    workload::mutate(cluster->entity(entity_id(id)), fraction, 4242);
    std::printf("entity %u: ~%.0f%% of blocks rewritten\n", id, fraction * 100.0);
  }

  void cmd_scan() {
    if (!require_cluster()) return;
    const mem::ScanStats st = cluster->scan_all();
    std::printf("scan: %llu blocks hashed, %llu inserts, %llu removes; DHT now tracks %zu "
                "unique hashes\n",
                static_cast<unsigned long long>(st.blocks_hashed),
                static_cast<unsigned long long>(st.inserts_emitted),
                static_cast<unsigned long long>(st.removes_emitted),
                cluster->total_unique_hashes());
  }

  void cmd_copies(std::istringstream& args) {
    if (!require_cluster()) return;
    std::uint32_t id = 0;
    BlockIndex block = 0;
    args >> id >> block;
    const mem::MemoryEntity& e = cluster->entity(entity_id(id));
    if (block >= e.num_blocks()) {
      std::puts("no such block");
      return;
    }
    const hash::BlockHasher hasher(cluster->params().hash_algorithm);
    const ContentHash h = hasher(e.block(block));
    query::QueryEngine q(*cluster);
    const query::NodewiseAnswer ans = q.entities(node_id(0), h);
    std::printf("%s: %zu entities hold it:", h.to_string().c_str(), ans.entities.size());
    for (const EntityId eid : ans.entities) std::printf(" %u", raw(eid));
    std::printf("  (%.1f us)\n", static_cast<double>(ans.latency) / 1e3);
  }

  void cmd_sharing(std::istringstream& args) {
    if (!require_cluster()) return;
    std::string spec = "all";
    args >> spec;
    const auto set = parse_entities(spec);
    query::QueryEngine q(*cluster);
    const query::SharingAnswer a = q.sharing(node_id(0), set);
    std::printf("DoS %.1f%%: %llu copies / %llu distinct (intra %llu, inter %llu), %.2f ms\n",
                a.degree_of_sharing() * 100.0,
                static_cast<unsigned long long>(a.total_copies),
                static_cast<unsigned long long>(a.unique_hashes),
                static_cast<unsigned long long>(a.intra_sharing),
                static_cast<unsigned long long>(a.inter_sharing),
                static_cast<double>(a.latency) / 1e6);
  }

  void cmd_kshared(std::istringstream& args) {
    if (!require_cluster()) return;
    std::size_t k = 2;
    args >> k;
    query::QueryEngine q(*cluster);
    const query::KCopyAnswer a =
        q.num_shared_content(node_id(0), cluster->live_entities(), k);
    std::printf("%llu hashes with >= %zu replicas\n",
                static_cast<unsigned long long>(a.num_hashes), k);
  }

  void cmd_checkpoint(std::istringstream& args) {
    if (!require_cluster()) return;
    std::string spec = "all", dir = "shell-ckpt";
    args >> spec >> dir;
    last_ckpt = std::make_unique<services::CollectiveCheckpointService>(*cluster);
    svc::CommandEngine engine(*cluster);
    svc::CommandSpec cmd;
    cmd.service_entities = parse_entities(spec);
    cmd.config.set("ckpt.dir", dir);
    const svc::CommandStats st = engine.execute(*last_ckpt, cmd);
    std::printf("checkpoint [%s]: %s; %llu distinct handled, %llu stale, "
                "%llu/%llu blocks by pointer, %.1f KB total, %.2f ms\n",
                dir.c_str(), std::string(to_string(st.status)).c_str(),
                static_cast<unsigned long long>(st.collective_handled),
                static_cast<unsigned long long>(st.collective_stale),
                static_cast<unsigned long long>(st.local_covered),
                static_cast<unsigned long long>(st.local_blocks),
                static_cast<double>(last_ckpt->total_bytes()) / 1e3,
                static_cast<double>(st.latency()) / 1e6);
  }

  void cmd_restore(std::istringstream& args) {
    if (!require_cluster()) return;
    if (!last_ckpt) {
      std::puts("no checkpoint taken in this session");
      return;
    }
    std::uint32_t id = 0;
    args >> id;
    const auto mem = services::restore_entity(cluster->fs(), last_ckpt->se_path(entity_id(id)),
                                              last_ckpt->shared_path());
    if (!mem.has_value()) {
      std::printf("restore failed: %s\n", std::string(to_string(mem.status())).c_str());
      return;
    }
    const mem::MemoryEntity& e = cluster->entity(entity_id(id));
    bool identical = mem.value().size() == e.memory_bytes();
    for (BlockIndex b = 0; identical && b < e.num_blocks(); ++b) {
      identical = std::equal(e.block(b).begin(), e.block(b).end(),
                             mem.value().begin() +
                                 static_cast<std::ptrdiff_t>(b * e.block_size()));
    }
    std::printf("restored %zu bytes — %s current memory\n", mem.value().size(),
                identical ? "identical to" : "DIFFERS from");
  }

  void cmd_migrate(std::istringstream& args) {
    if (!require_cluster()) return;
    std::uint32_t id = 0, node = 0;
    args >> id >> node;
    services::CollectiveMigration mig(*cluster);
    const services::MigrationPlanItem item{entity_id(id), node_id(node)};
    const services::MigrationStats st = mig.migrate(std::span(&item, 1));
    if (!ok(st.status)) {
      std::puts("migration failed");
      return;
    }
    std::printf("entity %u -> node %u as entity %u: %llu shipped, %llu reconstructed, "
                "%.1f KB on the wire, %.2f ms\n",
                id, node, raw(st.new_ids[0]),
                static_cast<unsigned long long>(st.blocks_shipped),
                static_cast<unsigned long long>(st.blocks_reconstructed),
                static_cast<double>(st.wire_bytes) / 1e3,
                static_cast<double>(st.latency) / 1e6);
  }

  void cmd_audit() {
    if (!require_cluster()) return;
    services::DhtAudit audit(*cluster);
    const services::AuditReport r = audit.run_to_convergence();
    std::printf("audit: %llu entries checked, %llu missing repaired, %llu stale removed",
                static_cast<unsigned long long>(r.entries_checked),
                static_cast<unsigned long long>(r.missing_repaired),
                static_cast<unsigned long long>(r.stale_removed));
    if (cluster->placement().replication() > 1) {
      std::printf(", %llu under- / %llu over-replicated",
                  static_cast<unsigned long long>(r.under_replicated),
                  static_cast<unsigned long long>(r.over_replicated));
    }
    std::printf("\n");
  }

  void cmd_fault(std::istringstream& args) {
    if (!require_cluster()) return;
    std::uint32_t node = 0;
    std::string what;
    if (!(args >> node >> what) || node >= cluster->num_nodes()) {
      std::puts("usage: fault <node> crash|restart|pause|resume");
      return;
    }
    const NodeId n = node_id(node);
    if (what == "crash") cluster->fault().crash(n);
    else if (what == "restart") cluster->fault().restart(n);
    else if (what == "pause") cluster->fault().pause(n);
    else if (what == "resume") cluster->fault().resume(n);
    else {
      std::puts("usage: fault <node> crash|restart|pause|resume");
      return;
    }
    std::printf("node %u: %s (now %s; run `detect` to update membership)\n", node,
                what.c_str(),
                cluster->fault().is_crashed(n)  ? "crashed, shard lost"
                : cluster->fault().is_paused(n) ? "paused, state intact"
                                                : "up");
  }

  void cmd_partition(std::istringstream& args) {
    if (!require_cluster()) return;
    std::uint32_t a = 0, b = 0;
    if (!(args >> a >> b) || a >= cluster->num_nodes() || b >= cluster->num_nodes() ||
        a == b) {
      std::puts("usage: partition <a> <b>   (toggles the symmetric cut)");
      return;
    }
    if (cluster->fault().partitioned(node_id(a), node_id(b))) {
      cluster->fault().heal_partition(node_id(a), node_id(b));
      std::printf("partition %u <-> %u healed\n", a, b);
    } else {
      cluster->fault().partition(node_id(a), node_id(b));
      std::printf("partition %u <-> %u cut (both directions)\n", a, b);
    }
  }

  void cmd_detect() {
    if (!require_cluster()) return;
    const std::uint64_t before = cluster->membership().epoch;
    const core::MembershipView& v = cluster->detect();
    std::printf("detect: epoch %llu (%s), %u/%u alive",
                static_cast<unsigned long long>(v.epoch),
                v.epoch == before ? "unchanged" : "advanced",
                static_cast<std::uint32_t>(v.alive_count()), cluster->num_nodes());
    const auto suspected = v.suspected();
    if (!suspected.empty()) {
      std::printf(", suspected:");
      for (const NodeId n : suspected) std::printf(" %u", raw(n));
    }
    std::printf("\n");
    if (v.epoch != before && repair) {
      const services::RepairReport& r = repair->last_report();
      std::printf("repair: %llu home shards examined; %llu donor streams (%llu records); "
                  "%llu homes republished (%llu entries from %llu ground-truth hashes",
                  static_cast<unsigned long long>(r.homes_examined),
                  static_cast<unsigned long long>(r.shards_synced),
                  static_cast<unsigned long long>(r.records_streamed),
                  static_cast<unsigned long long>(r.homes_republished),
                  static_cast<unsigned long long>(r.republished),
                  static_cast<unsigned long long>(r.hashes_checked));
      if (r.skipped_replicated > 0) {
        std::printf(", %llu left to donor streams",
                    static_cast<unsigned long long>(r.skipped_replicated));
      }
      std::printf(") (%.2f ms)\n", static_cast<double>(r.latency) / 1e6);
    }
  }

  void cmd_corrupt(std::istringstream& args) {
    if (!require_cluster()) return;
    double rate = 0.0;
    std::string checksums;
    if (!(args >> rate) || rate < 0.0 || rate > 1.0) {
      std::puts("usage: corrupt <rate 0..1> [on|off]   (on/off toggles wire checksums)");
      return;
    }
    args >> checksums;
    cluster->fabric().set_corrupt_rate(rate);
    if (checksums == "on") cluster->fabric().set_checksum_enabled(true);
    else if (checksums == "off") cluster->fabric().set_checksum_enabled(false);
    std::printf("fabric: %.1f%% of datagram payloads bit-flipped in flight; wire "
                "checksums %s (%s)\n",
                rate * 100.0, cluster->fabric().checksum_enabled() ? "on" : "off",
                cluster->fabric().checksum_enabled()
                    ? "corrupt datagrams dropped + counted, reliable class retries"
                    : "corruption arrives undetected — run `scrub` to heal the DHT");
  }

  void cmd_rot(std::istringstream& args) {
    if (!require_cluster()) return;
    std::string path;
    if (!(args >> path)) {
      std::puts("usage: rot <file> [offset] [bit 0-7]");
      return;
    }
    const auto size = cluster->fs().size(path);
    if (!size.has_value()) {
      std::printf("rot: no such file '%s' (see `stats` for the file count)\n", path.c_str());
      return;
    }
    FileOffset offset = size.value() / 2;  // default: a bit in the middle
    unsigned bit = 0;
    args >> offset >> bit;
    const Status st = cluster->fs().rot(path, offset, bit);
    if (!ok(st)) {
      std::printf("rot failed: %s\n", std::string(to_string(st)).c_str());
      return;
    }
    std::printf("rot: flipped bit %u of byte %llu in %s (%llu flips total)\n", bit,
                static_cast<unsigned long long>(offset), path.c_str(),
                static_cast<unsigned long long>(cluster->fs().rot_flips()));
  }

  void cmd_scrub() {
    if (!require_cluster()) return;
    services::IntegrityScrub scrub(*cluster);
    const services::ScrubReport r = scrub.scrub_and_heal();
    std::printf("scrub: %llu entries re-hashed, %llu quarantined, %llu repaired "
                "in %llu rounds (%.2f ms)%s\n",
                static_cast<unsigned long long>(r.entries_checked),
                static_cast<unsigned long long>(r.quarantined),
                static_cast<unsigned long long>(r.repaired),
                static_cast<unsigned long long>(r.rounds),
                static_cast<double>(r.latency) / 1e6,
                r.repaired == r.quarantined ? "" : "  ! unhealed quarantines remain");
  }

  void cmd_stats() {
    if (!require_cluster()) return;
    const net::NodeTraffic t = cluster->fabric().total_traffic();
    std::printf("network: %llu msgs / %.1f KB sent, %llu dropped, %llu blackholed\n",
                static_cast<unsigned long long>(t.msgs_sent),
                static_cast<double>(t.bytes_sent) / 1e3,
                static_cast<unsigned long long>(t.msgs_dropped),
                static_cast<unsigned long long>(t.msgs_blackholed));
    std::printf("overload: %llu shed at ingress, %llu backoff retransmits, "
                "%llu breaker trips\n",
                static_cast<unsigned long long>(t.msgs_shed),
                static_cast<unsigned long long>(t.retransmits),
                static_cast<unsigned long long>(cluster->fabric().breaker_trips()));
    const core::MembershipView& view = cluster->membership();
    const auto suspected = view.suspected();
    const auto down = cluster->fault().down_nodes();
    std::printf("failures: epoch %llu, %zu suspected",
                static_cast<unsigned long long>(view.epoch), suspected.size());
    for (const NodeId n : suspected) std::printf(" %u", raw(n));
    std::printf("; %zu down now", down.size());
    for (const NodeId n : down) {
      std::printf(" %u(%s)", raw(n), cluster->fault().is_crashed(n) ? "crashed" : "paused");
    }
    std::printf("\n");
    std::printf("dht: %zu unique hashes across %u shards\n", cluster->total_unique_hashes(),
                cluster->num_nodes());
    if (cluster->placement().replication() > 1) {
      std::printf("replication: R=%u;", cluster->placement().replication());
      bool any_dirty = false;
      for (std::uint32_t n = 0; n < cluster->num_nodes(); ++n) {
        const auto& dirty = cluster->daemon(node_id(n)).dirty_shards();
        if (dirty.empty()) continue;
        any_dirty = true;
        std::printf(" node %u: %zu dirty (refusing reads)", n, dirty.size());
      }
      if (!any_dirty) std::printf(" all replicas in sync");
      std::printf("\n");
    }
    const std::uint64_t batched =
        cluster->metrics().counter_total("core", "updates_batched");
    std::uint64_t batch_dgrams = 0, batch_max = 0;
    cluster->metrics().for_each([&](const obs::MetricKey& key, const obs::Registry::Cell& c) {
      if (key.subsystem == "net" && key.name == "batch_fill") {
        const auto& h = std::get<obs::Histogram>(c);
        batch_dgrams += h.count();
        if (h.max() > batch_max) batch_max = h.max();
      }
    });
    if (batch_dgrams > 0) {
      std::printf("batching: %llu updates in %llu datagrams (avg %llu/dgram, max %llu)\n",
                  static_cast<unsigned long long>(batched),
                  static_cast<unsigned long long>(batch_dgrams),
                  static_cast<unsigned long long>(batched / batch_dgrams),
                  static_cast<unsigned long long>(batch_max));
    }
    for (std::uint32_t n = 0; n < cluster->num_nodes(); ++n) {
      const auto& store = cluster->daemon(node_id(n)).store();
      std::printf("  node %u: %zu hashes, %.1f KB, %zu entities tracked\n", n,
                  store.unique_hashes(), static_cast<double>(store.memory_bytes()) / 1e3,
                  cluster->daemon(node_id(n)).monitor().tracked_entities());
    }
    std::printf("integrity: %llu corrupt datagrams dropped; %llu entries quarantined, "
                "%llu repaired; %llu torn writes, %llu rot flips\n",
                static_cast<unsigned long long>(
                    cluster->metrics().counter_total("net", "msgs_corrupt_dropped")),
                static_cast<unsigned long long>(
                    cluster->metrics().counter_total("dht", "entries_quarantined")),
                static_cast<unsigned long long>(
                    cluster->metrics().counter_total("dht", "entries_repaired")),
                static_cast<unsigned long long>(cluster->fs().torn_writes()),
                static_cast<unsigned long long>(cluster->fs().rot_flips()));
    std::printf("fs: %.1f KB in %zu files; virtual time %.2f ms\n",
                static_cast<double>(cluster->fs().total_bytes()) / 1e3,
                cluster->fs().list().size(),
                static_cast<double>(cluster->sim().now()) / 1e6);
    // The shell is quiescent between commands, so the conservation-style
    // invariants are checkable right now.
    const std::size_t viol_now = cluster->check_invariants();
    const obs::Watchdog& wd = cluster->watchdog();
    std::printf("watchdog: %zu invariants, %llu runs, %llu violations ever; "
                "blackbox %llu dumps\n",
                wd.invariant_count(), static_cast<unsigned long long>(wd.runs()),
                static_cast<unsigned long long>(wd.violations()),
                static_cast<unsigned long long>(cluster->blackbox().dumps()));
    if (viol_now > 0) {
      for (const auto& f : wd.last_findings()) {
        std::printf("  ! %s: %s\n", f.invariant.c_str(), f.detail.c_str());
      }
    }
  }

  void cmd_blackbox(std::istringstream& args) {
    if (!require_cluster()) return;
    std::uint32_t node = 0;
    if (args >> node) {
      if (node >= cluster->num_nodes()) {
        std::puts("no such node");
        return;
      }
      std::printf("node %u: %llu events recorded (ring keeps %zu)\n%s\n", node,
                  static_cast<unsigned long long>(cluster->blackbox().recorded(node)),
                  cluster->blackbox().capacity(),
                  cluster->blackbox().to_json(node).c_str());
      return;
    }
    std::printf("%s\n", cluster->blackbox().to_json_all("shell").c_str());
  }

  void cmd_pressure() {
    if (!require_cluster()) return;
    const core::PressureController* pc = cluster->pressure();
    if (pc != nullptr) {
      std::puts("node  depth  credits  budget  quota  deferred  shed-local  throttled");
      for (const auto& s : pc->snapshot()) {
        std::printf("%4u  %5zu  %7llu  %6llu  %5llu  %8llu  %10llu  %s\n", raw(s.node),
                    s.ingress_depth, static_cast<unsigned long long>(s.credits),
                    static_cast<unsigned long long>(s.update_budget),
                    static_cast<unsigned long long>(s.flush_quota),
                    static_cast<unsigned long long>(s.flush_deferred),
                    static_cast<unsigned long long>(s.shed_local),
                    s.throttled ? "yes" : "no");
      }
    } else {
      std::puts("pressure controller off (AIMD inactive); fabric view:");
      std::puts("node  depth  shed  credits");
      for (std::uint32_t n = 0; n < cluster->num_nodes(); ++n) {
        const NodeId id = node_id(n);
        std::printf("%4u  %5zu  %4llu  %7llu\n", n, cluster->fabric().ingress_depth(id),
                    static_cast<unsigned long long>(cluster->fabric().traffic(id).msgs_shed),
                    static_cast<unsigned long long>(cluster->daemon(id).batcher().credits()));
      }
    }
    // Breaker map: only non-closed links are interesting.
    bool any_open = false;
    for (std::uint32_t s = 0; s < cluster->num_nodes(); ++s) {
      for (std::uint32_t d = 0; d < cluster->num_nodes(); ++d) {
        if (s == d) continue;
        const net::BreakerState st =
            cluster->fabric().breaker_state(node_id(s), node_id(d));
        if (st == net::BreakerState::kClosed) continue;
        if (!any_open) std::puts("breakers:");
        any_open = true;
        std::printf("  %u->%u %s\n", s, d,
                    st == net::BreakerState::kOpen ? "open" : "half-open");
      }
    }
    if (!any_open) std::puts("breakers: all closed");
    const auto hinted = cluster->detector().hinted();
    if (!hinted.empty()) {
      std::printf("suspicion hints:");
      for (const NodeId n : hinted) std::printf(" %u", raw(n));
      std::printf("\n");
    }
  }

  void cmd_metrics(std::istringstream& args) {
    if (!require_cluster()) return;
    std::string format = "json";
    args >> format;
    if (format == "csv") {
      std::fputs(cluster->metrics().to_csv().c_str(), stdout);
    } else if (format == "json") {
      std::printf("%s\n", cluster->metrics().to_json().c_str());
    } else {
      std::puts("usage: metrics [json|csv]");
    }
  }

  void cmd_trace(std::istringstream& args) {
    if (!require_cluster()) return;
    std::string path;
    if (!(args >> path)) {
      std::puts("usage: trace <file.json>");
      return;
    }
    const std::size_t spans = cluster->tracer().span_count();
    if (!cluster->tracer().write_chrome_json(path)) {
      std::printf("trace: cannot write %s\n", path.c_str());
      return;
    }
    std::printf("trace: %zu spans written to %s (load in chrome://tracing or Perfetto)\n",
                spans, path.c_str());
  }

  bool dispatch(const std::string& line) {
    std::istringstream args(line);
    std::string cmd;
    if (!(args >> cmd) || cmd[0] == '#') return true;
    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      std::puts(
          "cluster <nodes> [loss] [mtu] [R]  create an emulated site (mtu 0 = unbatched\n"
          "                            updates; R > 1 = replicated shards + donor streams)\n"
          "entity <node> <blocks> [process|vm]\n"
          "fill <id> <moldy|nasty|hpccg|random> [seed]\n"
          "mutate <id> <fraction>      rewrite a fraction of blocks\n"
          "scan                        one monitor epoch, site-wide\n"
          "copies <id> <block>         who holds this block's content?\n"
          "sharing [all|id,id,...]     collective sharing query\n"
          "kshared <k>                 content with >= k replicas\n"
          "checkpoint [all|ids] [dir]  collective checkpoint\n"
          "restore <id>                restore + verify from last checkpoint\n"
          "migrate <id> <node>         content-aware migration\n"
          "audit                       reconcile DHT with ground truth\n"
          "fault <node> <crash|restart|pause|resume>  inject a node fault\n"
          "partition <a> <b>           toggle a symmetric link cut\n"
          "corrupt <rate> [on|off]     bit-flip datagrams in flight (on/off = checksums)\n"
          "rot <file> [offset] [bit]   flip one stored bit (default: mid-file)\n"
          "scrub                       re-hash DHT entries; quarantine + heal corruption\n"
          "detect                      run a failure-detection window\n"
          "stats                       traffic / DHT / fs / clock / watchdog\n"
          "blackbox [node]             dump the flight-recorder ring(s) as JSON\n"
          "pressure                    queue depth / credits / breaker state per node\n"
          "metrics [json|csv]          dump the site-wide metrics registry\n"
          "trace <file>                export phase spans as Chrome trace JSON\n"
          "quit");
      return true;
    }
    if (cmd == "cluster") cmd_cluster(args);
    else if (cmd == "entity") cmd_entity(args);
    else if (cmd == "fill") cmd_fill(args);
    else if (cmd == "mutate") cmd_mutate(args);
    else if (cmd == "scan") cmd_scan();
    else if (cmd == "copies") cmd_copies(args);
    else if (cmd == "sharing") cmd_sharing(args);
    else if (cmd == "kshared") cmd_kshared(args);
    else if (cmd == "checkpoint") cmd_checkpoint(args);
    else if (cmd == "restore") cmd_restore(args);
    else if (cmd == "migrate") cmd_migrate(args);
    else if (cmd == "audit") cmd_audit();
    else if (cmd == "fault") cmd_fault(args);
    else if (cmd == "partition") cmd_partition(args);
    else if (cmd == "corrupt") cmd_corrupt(args);
    else if (cmd == "rot") cmd_rot(args);
    else if (cmd == "scrub") cmd_scrub();
    else if (cmd == "detect") cmd_detect();
    else if (cmd == "stats") cmd_stats();
    else if (cmd == "blackbox") cmd_blackbox(args);
    else if (cmd == "pressure") cmd_pressure();
    else if (cmd == "metrics") cmd_metrics(args);
    else if (cmd == "trace") cmd_trace(args);
    else std::printf("unknown command '%s' (try help)\n", cmd.c_str());
    return true;
  }
};

constexpr const char* kDemoScript[] = {
    "cluster 4 0.02",
    "entity 0 128", "entity 1 128", "entity 2 128 vm", "entity 3 128 vm",
    "fill 0 moldy 7", "fill 1 moldy 7", "fill 2 moldy 7", "fill 3 nasty 7",
    "scan",
    "sharing all",
    "kshared 3",
    "copies 0 0",
    "checkpoint all demo-ckpt",
    "mutate 0 0.3",
    "scan",
    "checkpoint all demo-ckpt2",
    "restore 0",
    "migrate 1 3",
    "audit",
    "fault 2 crash",
    "partition 0 3",
    "detect",
    "stats",
    "pressure",
    "fault 2 restart",
    "partition 0 3",
    "detect",
    "audit",
    "stats",
    "metrics csv",
};

}  // namespace

int main(int argc, char** argv) {
  Shell shell;
  if (argc > 1 && std::string(argv[1]) == "--demo") {
    for (const char* line : kDemoScript) {
      std::printf("concord> %s\n", line);
      if (!shell.dispatch(line)) break;
    }
    return 0;
  }

  std::string line;
  std::printf("concord> ");
  while (std::getline(std::cin, line)) {
    if (!shell.dispatch(line)) break;
    std::printf("concord> ");
  }
  return 0;
}
