// concord_perfbench: one workload, one seed, one run.
//
//   concord_perfbench --workload <scan_churn|service_cmd>
//                     --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//
// Prints one JSON document of raw measurements on stdout (run.py turns it
// into metrics). Every workload is a closed loop: a single controller issues
// the next operation only after the previous one returns. Every workload
// issues each operation kind (scan epoch, null service command, collective
// checkpoint, node-wise lookups, collective query), so every workload
// reports every end-to-end metric; the round's mix and the cluster shape
// decide which layer a workload stresses. With --trace 1 the
// run first measures seconds/2 untraced, then seconds/2 with spans around
// every call into the library and with the service callbacks timed, then
// replays the workload's own inputs through standalone instances of the
// layers buried inside those calls, and writes the spans at exit.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "services/checkpoint_format.hpp"
#include "services/collective_checkpoint.hpp"
#include "services/null_service.hpp"

namespace perfbench {
namespace {

using namespace concord;

enum class Workload { kScanChurn, kServiceCmd };

// scan_churn runs on a 1024-node DHT (a power of two, so placement and the
// shard's slot index share their low bits); service_cmd runs the paper's
// checkpoint shape of 4 KB pages.
constexpr Shape kBig{1024, 1024, 64, true};
constexpr Shape kSmall{32, 256, 4096, false};
constexpr int kSetups = 3;              // setup_s is the median of these
constexpr double kChurn = 0.05;         // share of every entity rewritten per epoch
constexpr std::size_t kCommandSes = 32; // service entities per command
constexpr double kZipfS = 0.99;
constexpr double kPresentShare = 0.75;  // lookups of tracked keys; the rest are absent
// scan_churn issues its collective, null command and checkpoint every this
// many rounds, so most of its time goes to epochs.
constexpr std::uint64_t kScanCmdEvery = 2;
// service_cmd replays its set-up cold scan's update stream, cut to about
// one scan_churn epoch's worth of records.
constexpr std::size_t kColdReplayRecords = 131072;

struct Args {
  Workload workload = Workload::kScanChurn;
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

// --- minimal JSON writer -------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T>
std::string array(const std::vector<T>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += num(static_cast<double>(v[i]));
  }
  return out + "]";
}

class Object {
 public:
  Object& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += quote(key);
    body_ += ':';
    body_ += json;
    return *this;
  }
  Object& str(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
  Object& number(const std::string& key, double v) { return raw(key, num(v)); }
  Object& flag(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void write_chrome(const SpanLog& log, const std::string& path) {
  const std::vector<SpanLog::Span>& spans_ = log.spans();
  std::ofstream f(path);
  f << "{\"traceEvents\":[";
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().t0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanLog::Span& s = spans_[i];
    f << (i > 0 ? ",\n" : "\n")
      << Object()
             .str("name", s.name)
             .str("cat", s.layer)
             .str("ph", "X")
             .number("ts", static_cast<double>(s.t0 - base) / 1e3)
             .number("dur", static_cast<double>(s.t1 - s.t0) / 1e3)
             .number("pid", 0)
             .number("tid", 0)
             .raw("args", Object()
                              .number("id", static_cast<double>(i))
                              .number("parent", s.parent)
                              .flag("aggregate", s.aggregate)
                              .done())
             .done();
  }
  f << "\n]}\n";
}

// --- the closed loop ------------------------------------------------------

struct Samples {
  std::vector<std::int64_t> epoch, null_cmd, ckpt, lookup, collective;
  std::vector<double> ckpt_bytes_ratio;
};

/// Layer counts gathered while tracing, one entry per call, read from the
/// registry, CommandStats and fabric traffic around each call. run.py turns
/// them into per-layer medians and ratios.
struct Counters {
  // per scan epoch
  std::vector<std::uint64_t> blocks_hashed, updates, scan_bytes, datagrams, bytes, batch_msgs,
      updates_remote, updates_local, inserts, inserts_new;
  // per command (null command and checkpoint)
  std::vector<std::uint64_t> cmd_msgs, callback_ns, engine_self_ns, distinct_hashes, local_blocks,
      local_covered, retries, cmd_hash_bytes;
  // per checkpoint
  std::vector<std::uint64_t> ckpt_collective_ns, ckpt_local_ns, fs_bytes, fs_files;
};

class Runner {
 public:
  Runner(Site& site, Workload w, std::uint64_t seed)
      : site_(site),
        cl_(site.cluster()),
        w_(w),
        rng_(seed * 0xd1342543de82ef95ULL + 7),
        q_(cl_),
        eng_(cl_),
        hasher_(cl_.params().hash_algorithm) {
    all_ = cl_.live_entities();
    const std::size_t ses = std::min<std::size_t>(kCommandSes, all_.size());
    for (std::size_t i = 0; i < ses; ++i) ses_.push_back(all_[i * all_.size() / ses]);
    for (const EntityId id : ses_) se_bytes_ += cl_.entity(id).memory_bytes();
    // Zipf(s) over the ranked keys.
    const std::vector<ContentHash>& keys = site_.ranked_keys();
    zipf_cdf_.resize(keys.size());
    double acc = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
      zipf_cdf_[i] = acc;
    }
    for (double& c : zipf_cdf_) c /= acc;
  }

  /// One round of the workload's mix. `record` = false for warm-up rounds.
  void round(bool record) {
    const std::uint64_t r = round_no_++;
    switch (w_) {
      case Workload::kScanChurn:
        epoch(true, record);
        lookups(1024, record);
        if (r % kScanCmdEvery == 0) {
          collective(record);
          null_cmd(record);
          checkpoint(record);
        }
        break;
      case Workload::kServiceCmd:
        null_cmd(record);
        checkpoint(record);
        lookups(128, record);
        collective(record);
        epoch(false, record);
        break;
    }
  }

  /// Draws the next lookup key: a tracked key by Zipf rank, or a random
  /// (absent) one. `present` reports which.
  ContentHash next_key(bool& present) {
    present = rng_.uniform() < kPresentShare;
    if (present) {
      const double u = rng_.uniform();
      const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
      const auto idx = static_cast<std::size_t>(it - zipf_cdf_.begin());
      return site_.ranked_keys()[std::min(idx, zipf_cdf_.size() - 1)];
    }
    return ContentHash{rng_(), rng_()};
  }

  /// One more churn epoch, untimed, for the replays: copies the shards the
  /// epoch's stream hits hardest *before* the scan applies it, then scans and
  /// checks. Returns the stream.
  std::vector<RoutedRecord> replay_epoch(std::vector<ShardCopy>& copies) {
    std::vector<RoutedRecord> stream = site_.churn(kChurn, epoch_no_++);
    copies = copy_busiest_shards(cl_, stream, false);
    const mem::ScanStats st = cl_.scan_all();
    ++ops_total;
    if (st.inserts_emitted + st.removes_emitted != stream.size()) {
      fail("replay epoch: emitted update count differs from the stream");
    } else if (const std::string err = site_.check_dht(); !err.empty()) {
      fail("replay epoch: " + err);
    }
    return stream;
  }

  Samples samples;
  Counters counters;
  SpanLog spans;
  std::uint64_t ops_total = 0;
  std::uint64_t ops_failed = 0;
  std::vector<std::string> failures;
  std::vector<double> unique_series, memory_series, tombstone_series;  // per timed churn epoch

 private:
  void fail(const std::string& what) {
    ++ops_failed;
    if (failures.size() < 10) failures.push_back(what);
  }

  void epoch(bool churn, bool record) {
    std::vector<RoutedRecord> stream;
    if (churn) {
      stream = site_.churn(kChurn, epoch_no_++);
    }
    net::Fabric& fab = cl_.fabric();
    const net::NodeTraffic tr0 = fab.total_traffic();
    const std::uint64_t batch0 = fab.type_msgs(net::MsgType::kDhtUpdateBatch);
    const std::uint64_t local0 = cl_.metrics().counter_total("core", "updates_local");
    const std::uint64_t remote0 = cl_.metrics().counter_total("core", "updates_remote");
    const std::uint64_t ins0 = cl_.metrics().counter_total("dht", "inserts");
    const std::uint64_t new0 = cl_.metrics().counter_total("dht", "inserts_new");
    mem::ScanStats st;
    std::int64_t dt = 0;
    {
      const Scope span(spans, "scan_epoch", "core");
      const std::int64_t t0 = now_ns();
      st = cl_.scan_all();
      dt = now_ns() - t0;
    }
    ++ops_total;
    if (st.inserts_emitted + st.removes_emitted != stream.size()) {
      fail("epoch " + std::to_string(epoch_no_) + ": emitted " +
           std::to_string(st.inserts_emitted + st.removes_emitted) + " updates, expected " +
           std::to_string(stream.size()));
    } else if (const std::string err = site_.check_dht(); !err.empty()) {
      fail("epoch " + std::to_string(epoch_no_) + ": " + err);
    }
    if (!record) return;
    samples.epoch.push_back(dt);
    if (churn) {
      double mem_bytes = 0, tombs = 0;
      for (std::uint32_t n = 0; n < cl_.num_nodes(); ++n) {
        mem_bytes += static_cast<double>(cl_.daemon(node_id(n)).store().memory_bytes());
        tombs += static_cast<double>(cl_.daemon(node_id(n)).store().tombstones());
      }
      tombstone_series.push_back(tombs);
      unique_series.push_back(static_cast<double>(cl_.total_unique_hashes()));
      memory_series.push_back(mem_bytes);
    }
    if (!spans.on) return;
    const net::NodeTraffic tr1 = fab.total_traffic();
    counters.blocks_hashed.push_back(st.blocks_hashed);
    counters.updates.push_back(st.inserts_emitted + st.removes_emitted);
    counters.scan_bytes.push_back(st.bytes_hashed);
    counters.datagrams.push_back(tr1.msgs_sent - tr0.msgs_sent);
    counters.bytes.push_back(tr1.bytes_sent - tr0.bytes_sent);
    counters.batch_msgs.push_back(fab.type_msgs(net::MsgType::kDhtUpdateBatch) - batch0);
    counters.updates_local.push_back(cl_.metrics().counter_total("core", "updates_local") - local0);
    counters.updates_remote.push_back(cl_.metrics().counter_total("core", "updates_remote") -
                                      remote0);
    counters.inserts.push_back(cl_.metrics().counter_total("dht", "inserts") - ins0);
    counters.inserts_new.push_back(cl_.metrics().counter_total("dht", "inserts_new") - new0);
  }

  /// Runs one command; returns its host time. Traced runs wrap the service
  /// so callback time can be told apart from the engine's own.
  std::int64_t command(svc::ApplicationService& service, const char* name,
                       svc::CommandStats& stats, TimedService& timed) {
    svc::CommandSpec spec;
    spec.service_entities = ses_;
    const std::uint64_t msgs0 = cl_.fabric().total_traffic().msgs_sent;
    const Scope span(spans, name, "svc");
    const std::int64_t t0 = now_ns();
    stats = eng_.execute(spans.on ? static_cast<svc::ApplicationService&>(timed) : service, spec);
    const std::int64_t dt = now_ns() - t0;
    ++ops_total;
    if (stats.status != Status::kOk) {
      fail(std::string(name) + ": status " + std::string(to_string(stats.status)));
    }
    if (spans.on) {
      spans.aggregate(span.id(), "collective_callbacks", "services", timed.collective_ns);
      spans.aggregate(span.id(), "local_callbacks", "services", timed.local_ns);
      spans.aggregate(span.id(), "init_deinit_callbacks", "services", timed.other_ns);
      const std::int64_t cb = timed.collective_ns + timed.local_ns + timed.other_ns;
      counters.cmd_msgs.push_back(cl_.fabric().total_traffic().msgs_sent - msgs0);
      counters.callback_ns.push_back(static_cast<std::uint64_t>(cb));
      counters.engine_self_ns.push_back(static_cast<std::uint64_t>(std::max<std::int64_t>(dt - cb, 0)));
      counters.distinct_hashes.push_back(stats.distinct_hashes);
      counters.local_blocks.push_back(stats.local_blocks);
      counters.local_covered.push_back(stats.local_covered);
      counters.retries.push_back(stats.collective_retries);
      counters.cmd_hash_bytes.push_back(stats.local_blocks * site_.shape().block_size);
    }
    return dt;
  }

  void null_cmd(bool record) {
    services::NullService service;
    TimedService timed(service);
    svc::CommandStats stats;
    const std::int64_t dt = command(service, "null_cmd", stats, timed);
    if (service.bytes_touched() < se_bytes_) fail("null_cmd: touched less than the SE memory");
    if (record) samples.null_cmd.push_back(dt);
  }

  void checkpoint(bool record) {
    services::CollectiveCheckpointService service(cl_);
    TimedService timed(service);
    svc::CommandStats stats;
    const std::int64_t dt = command(service, "checkpoint", stats, timed);
    fs::SimFs& fsys = cl_.fs();
    const std::vector<std::string> files = fsys.list();
    const std::uint64_t stored = fsys.total_bytes();
    for (const EntityId id : ses_) {
      const services::RestoreReport rep = services::restore_entity_verified(
          fsys, service.se_path(id), service.shared_path(), &hasher_);
      const mem::MemoryEntity& e = cl_.entity(id);
      if (rep.status != Status::kOk || rep.memory.size() != e.memory_bytes() ||
          std::memcmp(rep.memory.data(), e.block(0).data(), e.memory_bytes()) != 0) {
        fail("checkpoint: SE " + std::to_string(raw(id)) + " does not restore bit-exact");
        break;
      }
    }
    for (const std::string& f : files) (void)fsys.remove(f);
    if (!record) return;
    samples.ckpt.push_back(dt);
    samples.ckpt_bytes_ratio.push_back(static_cast<double>(stored) /
                                       static_cast<double>(se_bytes_));
    if (spans.on) {
      counters.ckpt_collective_ns.push_back(static_cast<std::uint64_t>(timed.collective_ns));
      counters.ckpt_local_ns.push_back(static_cast<std::uint64_t>(timed.local_ns));
      counters.fs_bytes.push_back(stored);
      counters.fs_files.push_back(files.size());
    }
  }

  void lookups(int count, bool record) {
    for (int i = 0; i < count; ++i) {
      bool present = false;
      const ContentHash h = next_key(present);
      const NodeId from = node_id(static_cast<std::uint32_t>(rng_.below(cl_.num_nodes())));
      const bool want_entities = rng_.below(2) == 1;
      query::NodewiseAnswer ans;
      std::int64_t dt = 0;
      {
        const Scope span(spans, "lookup", "query");
        const std::int64_t t0 = now_ns();
        ans = want_entities ? q_.entities(from, h) : q_.num_copies(from, h);
        dt = now_ns() - t0;
      }
      ++ops_total;
      const std::vector<std::uint32_t>& expect = site_.holders(h);
      bool ok = ans.status == Status::kOk && ans.num_copies == expect.size();
      if (ok && want_entities) {
        ok = ans.entities.size() == expect.size() &&
             std::equal(expect.begin(), expect.end(), ans.entities.begin(),
                        [](std::uint32_t a, EntityId b) { return a == raw(b); });
      }
      if (!ok) fail("lookup " + h.to_string() + ": answer differs from ground truth");
      if (record) samples.lookup.push_back(dt);
    }
  }

  void collective(bool record) {
    const CollectiveTruth truth = site_.collective_truth();
    const bool kshared = (coll_no_++ % 2) == 1;
    const NodeId from = node_id(static_cast<std::uint32_t>(rng_.below(cl_.num_nodes())));
    std::int64_t dt = 0;
    bool ok = false;
    {
      const Scope span(spans, kshared ? "num_shared_content" : "sharing", "query");
      const std::int64_t t0 = now_ns();
      if (kshared) {
        const query::KCopyAnswer a = q_.num_shared_content(from, all_, 2);
        dt = now_ns() - t0;
        ok = a.num_hashes == truth.k2;
      } else {
        const query::SharingAnswer a = q_.sharing(from, all_);
        dt = now_ns() - t0;
        ok = a.total_copies == truth.total && a.unique_hashes == truth.unique &&
             a.sharing == truth.total - truth.unique && a.intra_sharing == truth.intra &&
             a.inter_sharing == truth.inter;
      }
    }
    ++ops_total;
    if (!ok) fail(std::string(kshared ? "num_shared_content" : "sharing") + ": answer differs");
    if (record) samples.collective.push_back(dt);
  }

  Site& site_;
  core::Cluster& cl_;
  Workload w_;
  Rng rng_;
  query::QueryEngine q_;
  svc::CommandEngine eng_;
  hash::BlockHasher hasher_;
  std::vector<EntityId> all_, ses_;
  std::uint64_t se_bytes_ = 0;
  std::uint64_t epoch_no_ = 0, coll_no_ = 0, round_no_ = 0;
  std::vector<double> zipf_cdf_;
};

std::string samples_json(const Samples& s) {
  return Object()
      .raw("epoch_ns", array(s.epoch))
      .raw("null_cmd_ns", array(s.null_cmd))
      .raw("ckpt_ns", array(s.ckpt))
      .raw("lookup_ns", array(s.lookup))
      .raw("collective_ns", array(s.collective))
      .raw("ckpt_bytes_ratio", array(s.ckpt_bytes_ratio))
      .done();
}

std::string params_json(const Site& site) {
  const core::ClusterParams& p = site.params();
  const Shape& sh = site.shape();
  return Object()
      .number("num_nodes", p.num_nodes)
      .number("max_entities", p.max_entities)
      .number("blocks_per_entity", static_cast<double>(sh.blocks))
      .number("block_size", static_cast<double>(sh.block_size))
      .str("hash_algorithm", std::string(hash::to_string(p.hash_algorithm)))
      .str("detect_mode", p.detect_mode == mem::DetectMode::kDirtyBit ? "dirty_bit" : "other")
      .str("alloc_mode", p.alloc_mode == dht::AllocMode::kPool ? "pool" : "malloc")
      .number("dht_replication", p.dht_replication)
      .flag("update_batching", p.update_batching.enabled)
      .number("mtu_bytes", static_cast<double>(p.update_batching.mtu_bytes))
      .number("hash_workers", static_cast<double>(p.hash_workers))
      .number("sim_workers", static_cast<double>(p.sim_workers))
      .number("seed", static_cast<double>(p.seed))
      .number("fabric_base_latency_ns", static_cast<double>(p.fabric.base_latency))
      .number("fabric_jitter_ns", static_cast<double>(p.fabric.jitter))
      .number("fabric_ns_per_byte", p.fabric.ns_per_byte)
      .number("fabric_loss_rate", p.fabric.loss_rate)
      .done();
}

std::string cost_json(const core::CostModel& m) {
  return Object()
      .number("md5_ns_per_byte", m.md5_ns_per_byte)
      .number("superfast_ns_per_byte", m.superfast_ns_per_byte)
      .number("touch_ns_per_byte", m.touch_ns_per_byte)
      .number("callback_ns", m.callback_ns)
      .number("entry_scan_ns", m.entry_scan_ns)
      .number("cgz_ns_per_byte", m.cgz_ns_per_byte)
      .done();
}

std::string counters_json(const Counters& c) {
  return Object()
      .raw("blocks_hashed", array(c.blocks_hashed))
      .raw("updates", array(c.updates))
      .raw("scan_bytes", array(c.scan_bytes))
      .raw("datagrams", array(c.datagrams))
      .raw("bytes", array(c.bytes))
      .raw("batch_msgs", array(c.batch_msgs))
      .raw("updates_remote", array(c.updates_remote))
      .raw("updates_local", array(c.updates_local))
      .raw("inserts", array(c.inserts))
      .raw("inserts_new", array(c.inserts_new))
      .raw("cmd_msgs", array(c.cmd_msgs))
      .raw("callback_ns", array(c.callback_ns))
      .raw("engine_self_ns", array(c.engine_self_ns))
      .raw("distinct_hashes", array(c.distinct_hashes))
      .raw("local_blocks", array(c.local_blocks))
      .raw("local_covered", array(c.local_covered))
      .raw("retries", array(c.retries))
      .raw("cmd_hash_bytes", array(c.cmd_hash_bytes))
      .raw("ckpt_collective_ns", array(c.ckpt_collective_ns))
      .raw("ckpt_local_ns", array(c.ckpt_local_ns))
      .raw("fs_bytes", array(c.fs_bytes))
      .raw("fs_files", array(c.fs_files))
      .done();
}

/// Totals over the live cluster at the end of the traced phase.
std::string cluster_json(core::Cluster& cl) {
  std::uint64_t uniq = 0, bytes = 0, cap = 0, tomb = 0;
  for (std::uint32_t n = 0; n < cl.num_nodes(); ++n) {
    const dht::DhtStore& s = cl.daemon(node_id(n)).store();
    uniq += s.unique_hashes();
    bytes += s.memory_bytes();
    cap += s.capacity();
    tomb += s.tombstones();
  }
  return Object()
      .number("dht_unique_hashes", static_cast<double>(uniq))
      .number("dht_memory_bytes", static_cast<double>(bytes))
      .number("dht_capacity", static_cast<double>(cap))
      .number("dht_tombstones", static_cast<double>(tomb))
      .number("msgs_dropped", static_cast<double>(cl.fabric().total_traffic().msgs_dropped))
      .number("read_refused",
              static_cast<double>(cl.metrics().counter_total("query", "read_refused")))
      .done();
}

std::string replays_json(const ReplayTimings& replays) {
  Object out;
  for (const auto& [name, t] : replays) {
    out.raw(name, Object().raw("ns", array(t.ns)).number("count", static_cast<double>(t.count)).done());
  }
  return out.done();
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.name = v;
      if (v == "scan_churn") {
        a.workload = Workload::kScanChurn;
      } else if (v == "service_cmd") {
        a.workload = Workload::kServiceCmd;
      } else {
        return false;
      }
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return !a.name.empty() && a.seconds > 0;
}

std::int64_t max_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// Runs rounds until `seconds` of wall time have passed.
void run_for(Runner& r, double seconds) {
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < end) r.round(true);
}

int run(const Args& args) {
  const Shape shape = args.workload == Workload::kServiceCmd ? kSmall : kBig;
  // Each set-up builds a fresh site; the last one is kept for measuring.
  // A discarded site's memory goes back to the OS before the next set-up, so
  // peak_rss_mb measures one installation, not how the allocator happened to
  // reuse the freed ones.
  std::vector<std::int64_t> setup_ns;
  std::unique_ptr<Site> site;
  for (int i = 0; i < kSetups; ++i) {
    if (site != nullptr) {
      site.reset();
      malloc_trim(0);
    }
    site = std::make_unique<Site>(shape, args.seed, i == kSetups - 1);
    setup_ns.push_back(site->setup_ns());
  }

  Runner runner(*site, args.workload, args.seed);
  // Warm-up: caches, lazily built state and the first churn epochs (the
  // palette starts stationary, so two epochs suffice) are not timed.
  const int warmup = args.workload == Workload::kScanChurn ? 2 : 1;
  for (int i = 0; i < warmup; ++i) runner.round(false);
  // peak_rss_mb is read here, after set-up and warm-up rounds that issued
  // every operation kind, so it does not depend on how many operations the
  // timed phase fits into its seconds.
  const std::int64_t peak_rss_kb = max_rss_kb();

  Object out;
  out.str("workload", args.name)
      .number("seed", static_cast<double>(args.seed))
      .flag("trace", args.trace)
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .raw("cluster_params", params_json(*site))
      .raw("cost_model", cost_json(site->calibrated()))
      .raw("setup_ns", array(setup_ns));

  if (!args.trace) {
    run_for(runner, args.seconds);
    out.raw("samples", samples_json(runner.samples));
  } else {
    run_for(runner, args.seconds / 2);
    out.raw("samples", samples_json(runner.samples));
    runner.samples = Samples{};
    runner.spans.on = true;
    run_for(runner, args.seconds / 2);
    out.raw("traced_samples", samples_json(runner.samples));

    out.raw("counters", counters_json(runner.counters));
    out.raw("cluster", cluster_json(site->cluster()));
    ReplayInputs in;
    in.site = site.get();
    if (args.workload == Workload::kScanChurn) {
      in.stream = runner.replay_epoch(in.shards);
    } else {
      in.stream = site->cold_stream(kColdReplayRecords);
      in.shards = copy_busiest_shards(site->cluster(), in.stream, true);
    }
    for (int i = 0; i < 20000; ++i) {
      bool present = false;
      const ContentHash h = runner.next_key(present);
      (present && !site->holders(h).empty() ? in.hit_keys : in.miss_keys).push_back(h);
    }
    ReplayTimings replays;
    std::string replay_error;
    {
      const Scope span(runner.spans, "replays", "bench");
      replay_error = run_replays(in, replays, runner.spans);
    }
    if (!replay_error.empty()) {
      ++runner.ops_failed;
      runner.failures.push_back("replay: " + replay_error);
    }
    out.raw("replays", replays_json(replays));
    Object self;
    for (const auto& [layer, ms] : runner.spans.self_ms()) self.number(layer, ms);
    out.raw("layer_self_ms", self.done());
    const std::string trace_path =
        args.out_dir + "/trace_" + args.name + "_seed" + std::to_string(args.seed) + ".json";
    write_chrome(runner.spans, trace_path);
    out.str("trace_file", trace_path);
  }

  std::vector<std::string> fails;
  for (const std::string& f : runner.failures) fails.push_back(quote(f));
  std::string fail_json = "[";
  for (std::size_t i = 0; i < fails.size(); ++i) fail_json += (i > 0 ? "," : "") + fails[i];
  fail_json += "]";

  out.number("peak_rss_kb", static_cast<double>(peak_rss_kb))
      .number("end_rss_kb", static_cast<double>(max_rss_kb()))
      .number("ops_total", static_cast<double>(runner.ops_total))
      .number("ops_failed", static_cast<double>(runner.ops_failed))
      .raw("failures", fail_json)
      .raw("unique_hashes_series", array(runner.unique_series))
      .raw("dht_memory_series", array(runner.memory_series))
      .raw("tombstone_series", array(runner.tombstone_series));
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  bool ok = false;
  try {
    ok = perfbench::parse(argc, argv, args);
  } catch (const std::exception&) {
    ok = false;  // a number that does not parse
  }
  if (!ok) {
    std::fprintf(stderr,
                 "usage: concord_perfbench --workload <scan_churn|service_cmd> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  return perfbench::run(args);
}
