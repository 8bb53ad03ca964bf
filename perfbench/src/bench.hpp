// Shared declarations of the host-time benchmark.
//
// The benchmark drives the library only through its public functions and
// times each call from outside with the host clock. A Site is one emulated
// ConCORD installation plus the benchmark's own ground truth about it: the
// content hash of every block, computed from entity memory with BlockHasher,
// and the entity set of every hash. Every oracle compares the library's
// answers with that ground truth.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cluster.hpp"
#include "core/cost_model.hpp"
#include "dht/dht_store.hpp"
#include "query/queries.hpp"
#include "svc/command_engine.hpp"

namespace perfbench {

using concord::ContentHash;
using concord::EntityId;
using concord::NodeId;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Cluster geometry of one workload. One entity per node.
struct Shape {
  std::uint32_t nodes;
  std::size_t blocks;      // per entity
  std::size_t block_size;  // bytes
  /// Re-draw every entity-unique block from the bounded palette before the
  /// cold scan, so churn epochs start in their stationary distribution.
  bool palette;
};

/// Palette variants per block. Variants 0-1 are private to the entity;
/// variants 2-3 are shared by a group of kGroup consecutive entities, so
/// churn keeps producing small multi-entity sets.
inline constexpr unsigned kVariants = 4;
inline constexpr std::uint32_t kGroup = 4;

/// Writes palette variant `v` of block `b` of entity `e` into `out`.
void palette_block(std::uint64_t seed, std::uint32_t e, std::uint64_t b, unsigned v,
                   std::span<std::byte> out);

/// One DHT update record as the library's update stream carries it, tagged
/// with the node that emits it and the shard owner it is routed to.
struct RoutedRecord {
  std::uint32_t src;
  std::uint32_t dst;
  concord::dht::UpdateRecord rec;
};

/// Answers the oracle expects from the collective queries over all entities.
struct CollectiveTruth {
  std::uint64_t total = 0, unique = 0, intra = 0, inter = 0, k2 = 0;
};

/// What one DHT shard must hold: its distinct hashes, its (hash, entity)
/// pairs, and the sum of pair_mix over those pairs. Two shards with equal
/// counts and sums hold the same pairs except with probability ~2^-64.
struct ShardTruth {
  std::uint64_t hashes = 0;
  std::uint64_t pairs = 0;
  std::uint64_t fingerprint = 0;

  bool operator==(const ShardTruth&) const = default;
};

/// A strong 64-bit mix of one (hash, entity) pair.
[[nodiscard]] std::uint64_t pair_mix(const ContentHash& h, std::uint32_t e);

/// The ShardTruth of what `store` holds, from walking every entry.
[[nodiscard]] ShardTruth shard_truth(const concord::dht::DhtStore& store);

class Site {
 public:
  /// Builds the cluster, fills memory, and runs the cold scan. Only the
  /// library's share of that is counted in setup_ns: cost-model calibration,
  /// cluster construction, entity creation and the cold scan. Generating the
  /// content and the ground truth is the benchmark's own work; `truth` =
  /// false skips the ground truth (a set-up timed only for setup_s).
  Site(const Shape& shape, std::uint64_t seed, bool truth);

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  [[nodiscard]] concord::core::Cluster& cluster() { return *cluster_; }
  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::int64_t setup_ns() const { return setup_ns_; }
  [[nodiscard]] const concord::core::ClusterParams& params() const { return params_; }
  /// The unit costs this set-up's calibration measured.
  [[nodiscard]] const concord::core::CostModel& calibrated() const { return calibrated_; }

  /// Rewrites `fraction` of every entity's blocks with a different palette
  /// variant (through the dirty-tracking write path) and updates the ground
  /// truth. Only blocks whose content is unique within their entity are
  /// rewritten: the monitor emits remove(old hash, entity) on rewrite, which
  /// is exact only when no other block of the entity holds the old content.
  /// Returns the update stream the next scan must emit, in emission order.
  std::vector<RoutedRecord> churn(double fraction, std::uint64_t epoch);

  /// The set-up cold scan's update stream (inserts, in emission order),
  /// truncated to `cap` records.
  [[nodiscard]] std::vector<RoutedRecord> cold_stream(std::size_t cap) const;

  /// Oracle: every DHT shard holds exactly the ground-truth (hash, entity)
  /// pairs of the hashes it owns, compared through ShardTruth. Returns an
  /// empty string when it does, else a description.
  [[nodiscard]] std::string check_dht() const;

  /// Ground-truth entity ids holding `h`, ascending (empty if none).
  [[nodiscard]] const std::vector<std::uint32_t>& holders(const ContentHash& h) const;
  [[nodiscard]] CollectiveTruth collective_truth() const;
  /// Every distinct hash present at set-up, in a seeded order (the rank order
  /// of the Zipf key stream).
  [[nodiscard]] const std::vector<ContentHash>& ranked_keys() const { return ranked_keys_; }
  [[nodiscard]] std::size_t unique_hashes() const { return sets_.size(); }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  void add_holder(const ContentHash& h, std::uint32_t e);
  void drop_holder(const ContentHash& h, std::uint32_t e);

  Shape shape_;
  std::uint64_t seed_;
  concord::core::ClusterParams params_;
  std::unique_ptr<concord::core::Cluster> cluster_;
  std::int64_t setup_ns_ = 0;
  concord::core::CostModel calibrated_;
  concord::hash::BlockHasher hasher_;
  std::vector<std::vector<ContentHash>> block_hash_;      // [entity][block]
  std::vector<std::vector<std::uint64_t>> eligible_;      // entity-unique blocks
  std::vector<std::vector<std::uint8_t>> variant_;        // current palette variant
  std::unordered_map<ContentHash, std::vector<std::uint32_t>> sets_;
  std::vector<ShardTruth> shard_truth_;  // [owner node]
  CollectiveTruth totals_;               // k2 kept up to date by add/drop_holder
  std::vector<ContentHash> ranked_keys_;
};

/// Forwards every callback to `inner` and adds its host time to the
/// collective or local bucket. Wraps the service in traced runs only.
class TimedService final : public concord::svc::ApplicationService {
 public:
  explicit TimedService(concord::svc::ApplicationService& inner) : inner_(inner) {}

  [[nodiscard]] concord::Status service_init(NodeId node, concord::svc::Mode mode,
                                             const concord::Config& config) override;
  [[nodiscard]] concord::Status collective_start(
      NodeId node, concord::svc::Role role, EntityId entity,
      std::span<const ContentHash> partial) override;
  std::optional<EntityId> collective_select(NodeId node, const ContentHash& hash,
                                            std::span<const EntityId> candidates) override;
  [[nodiscard]] concord::Result<std::uint64_t> collective_command(
      NodeId node, EntityId entity, const ContentHash& hash,
      std::span<const std::byte> data) override;
  [[nodiscard]] concord::Status collective_finalize(NodeId node, concord::svc::Role role,
                                                    EntityId entity) override;
  [[nodiscard]] concord::Status local_start(NodeId node, EntityId entity) override;
  [[nodiscard]] concord::Status local_command(NodeId node, EntityId entity,
                                              concord::BlockIndex block,
                                              const ContentHash& hash,
                                              std::span<const std::byte> data,
                                              const std::uint64_t* handled) override;
  [[nodiscard]] concord::Status local_finalize(NodeId node, EntityId entity) override;
  [[nodiscard]] concord::Status service_deinit(NodeId node) override;

  std::int64_t collective_ns = 0;  // collective_start/select/command/finalize
  std::int64_t local_ns = 0;       // local_start/command/finalize
  std::int64_t other_ns = 0;       // service_init/deinit

 private:
  concord::svc::ApplicationService& inner_;
};

/// Spans around the benchmark's own calls into each layer, kept in memory
/// and written once at exit. A span whose t0 equals its parent's and whose
/// `aggregate` flag is set stands for the summed time of many short calls
/// (the service callbacks of one command), not one interval.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string layer;
    int parent;
    std::int64_t t0;
    std::int64_t t1;
    bool aggregate;
  };

  bool on = false;

  int begin(const char* name, const char* layer) {
    if (!on) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, layer, parent, now_ns(), 0, false});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].t1 = now_ns();
    stack_.pop_back();
  }
  void aggregate(int parent, const char* name, const char* layer, std::int64_t ns) {
    if (parent < 0) return;
    const std::int64_t t0 = spans_[static_cast<std::size_t>(parent)].t0;
    spans_.push_back({name, layer, parent, t0, t0 + ns, true});
  }

  /// Self time per layer: each span's duration minus its children's.
  [[nodiscard]] std::map<std::string, double> self_ms() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].layer] += static_cast<double>(spans_[i].t1 - spans_[i].t0 - child[i]) / 1e6;
    }
    return out;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name, const char* layer)
      : log_(log), id_(log.begin(name, layer)) {}
  ~Scope() { log_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Raw host times of one standalone replay: one entry per repetition, each
/// over `count` units of work (blocks, records, datagrams, keys or entries).
struct ReplayTiming {
  std::vector<std::int64_t> ns;
  std::size_t count = 0;
};
/// Keyed by replay name (md5_4k, batcher, apply, find_hit, ...).
using ReplayTimings = std::vector<std::pair<std::string, ReplayTiming>>;

/// A standalone copy of one live DHT shard.
struct ShardCopy {
  std::uint32_t node;
  std::unique_ptr<concord::dht::DhtStore> store;
};

/// Copies the (up to 64) shards that `stream` sends the most records to,
/// in node order. Call before the stream is applied, or, for a stream the
/// live shards already hold, with `without_stream` set: the copies then
/// drop the stream's records, so applying the stream inserts them anew.
std::vector<ShardCopy> copy_busiest_shards(concord::core::Cluster& cluster,
                                           const std::vector<RoutedRecord>& stream,
                                           bool without_stream);

/// Inputs the replays need from a workload run.
struct ReplayInputs {
  Site* site = nullptr;
  std::vector<RoutedRecord> stream;      // the workload's latest update stream
  std::vector<ShardCopy> shards;         // shards without `stream` applied
  std::vector<ContentHash> hit_keys;     // lookup stream: keys present in the DHT
  std::vector<ContentHash> miss_keys;    // lookup stream: absent keys
};

/// Replays the workload's inputs through standalone instances of the buried
/// layers (hash, UpdateBatcher, codec, Fabric, Simulation, DhtStore) and
/// appends their raw timings. Returns an empty string on success, else the
/// first replay output that failed its own check (e.g. codec round trip).
std::string run_replays(const ReplayInputs& in, ReplayTimings& out, SpanLog& spans);

}  // namespace perfbench
