#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <tuple>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/cost_model.hpp"
#include "workload/workloads.hpp"

namespace perfbench {

using namespace concord;

namespace {

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d) {
  std::uint64_t s = a;
  std::uint64_t h = splitmix64(s);
  for (const std::uint64_t x : {b, c, d}) {
    s = h ^ (x + 0x9e3779b97f4a7c15ULL);
    h = splitmix64(s);
  }
  return h;
}

/// Which blocks of each entity hold content no other block of that entity
/// holds (the blocks churn may rewrite), and the palette variant each starts
/// in. Deterministic in (shape, seed); computed once per process and shared
/// by every Site of that shape, so repeated set-ups pay for it only once.
struct ContentPlan {
  std::vector<std::vector<std::uint64_t>> eligible;
  std::vector<std::vector<std::uint8_t>> variant;  // kVariants = original content
};

const ContentPlan& plan_for(const Shape& shape, std::uint64_t seed) {
  static std::map<std::tuple<std::uint32_t, std::size_t, std::size_t, std::uint64_t>,
                  ContentPlan>
      cache;
  const auto key = std::make_tuple(shape.nodes, shape.blocks, shape.block_size, seed);
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  ContentPlan plan;
  plan.eligible.resize(shape.nodes);
  plan.variant.assign(shape.nodes, std::vector<std::uint8_t>(shape.blocks, kVariants));
  const hash::BlockHasher hasher(hash::Algorithm::kMd5);
  const workload::Params moldy = workload::defaults_for(workload::Kind::kMoldy, seed);
  Rng rng(mix(seed, 0x706c616eULL, 0, 0));
  for (std::uint32_t e = 0; e < shape.nodes; ++e) {
    mem::MemoryEntity scratch(entity_id(e), node_id(e), EntityKind::kProcess, shape.blocks,
                              shape.block_size);
    workload::fill(scratch, moldy);
    std::unordered_map<ContentHash, std::uint32_t> count;
    std::vector<ContentHash> hashes(shape.blocks);
    for (std::size_t b = 0; b < shape.blocks; ++b) {
      hashes[b] = hasher(scratch.block(b));
      ++count[hashes[b]];
    }
    for (std::size_t b = 0; b < shape.blocks; ++b) {
      if (count[hashes[b]] != 1) continue;
      plan.eligible[e].push_back(b);
      if (shape.palette) plan.variant[e][b] = static_cast<std::uint8_t>(rng.below(kVariants));
    }
  }
  return cache.emplace(key, std::move(plan)).first->second;
}

}  // namespace

std::uint64_t pair_mix(const ContentHash& h, std::uint32_t e) {
  std::uint64_t s = h.well_mixed() ^ (std::uint64_t{e} * 0x9e3779b97f4a7c15ULL);
  return splitmix64(s);
}

void palette_block(std::uint64_t seed, std::uint32_t e, std::uint64_t b, unsigned v,
                   std::span<std::byte> out) {
  std::uint64_t s = v < 2 ? mix(seed, e, b, v) : mix(seed ^ 0x6a09e667f3bcc909ULL, e / kGroup, b, v);
  for (std::size_t i = 0; i + 8 <= out.size(); i += 8) {
    const std::uint64_t w = splitmix64(s);
    std::memcpy(out.data() + i, &w, 8);
  }
}

Site::Site(const Shape& shape, std::uint64_t seed, bool truth)
    : shape_(shape), seed_(seed) {
  params_.num_nodes = shape.nodes;
  params_.max_entities = shape.nodes;
  params_.detect_mode = mem::DetectMode::kDirtyBit;
  params_.hash_workers = 1;
  params_.sim_workers = 1;
  params_.seed = seed;
  hasher_ = hash::BlockHasher(params_.hash_algorithm);
  const ContentPlan& plan = plan_for(shape, seed);

  const std::int64_t t0 = now_ns();
  calibrated_ = core::CostModel::calibrate();
  cluster_ = std::make_unique<core::Cluster>(params_);
  std::vector<mem::MemoryEntity*> entities;
  for (std::uint32_t n = 0; n < shape.nodes; ++n) {
    entities.push_back(&cluster_->create_entity(node_id(n), EntityKind::kProcess,
                                                shape.blocks, shape.block_size));
  }
  const std::int64_t t1 = now_ns();

  const workload::Params moldy = workload::defaults_for(workload::Kind::kMoldy, seed);
  std::vector<std::byte> buf(shape.block_size);
  for (std::uint32_t e = 0; e < shape.nodes; ++e) {
    workload::fill(*entities[e], moldy);
    for (const std::uint64_t b : plan.eligible[e]) {
      if (plan.variant[e][b] == kVariants) continue;
      palette_block(seed, e, b, plan.variant[e][b], buf);
      entities[e]->write_block(b, buf);
    }
  }
  const std::int64_t t2 = now_ns();
  (void)cluster_->scan_all();
  const std::int64_t t3 = now_ns();
  setup_ns_ = (t1 - t0) + (t3 - t2);
  if (!truth) return;

  eligible_ = plan.eligible;
  variant_ = plan.variant;
  shard_truth_.assign(shape.nodes, ShardTruth{});
  block_hash_.resize(shape.nodes);
  for (std::uint32_t e = 0; e < shape.nodes; ++e) {
    block_hash_[e].resize(shape.blocks);
    for (std::size_t b = 0; b < shape.blocks; ++b) {
      block_hash_[e][b] = hasher_(entities[e]->block(b));
      add_holder(block_hash_[e][b], e);
    }
  }
  ranked_keys_.reserve(sets_.size());
  for (const auto& [h, ids] : sets_) ranked_keys_.push_back(h);
  std::sort(ranked_keys_.begin(), ranked_keys_.end());
  Rng rng(mix(seed, 0x72616e6bULL, 0, 0));
  std::shuffle(ranked_keys_.begin(), ranked_keys_.end(), rng);
}

void Site::add_holder(const ContentHash& h, std::uint32_t e) {
  auto& ids = sets_[h];
  const auto it = std::lower_bound(ids.begin(), ids.end(), e);
  if (it != ids.end() && *it == e) return;
  ids.insert(it, e);
  ShardTruth& shard = shard_truth_[raw(cluster_->placement().owner(h))];
  if (ids.size() == 1) ++shard.hashes;
  if (ids.size() == 2) ++totals_.k2;
  ++shard.pairs;
  shard.fingerprint += pair_mix(h, e);
}

void Site::drop_holder(const ContentHash& h, std::uint32_t e) {
  const auto it = sets_.find(h);
  if (it == sets_.end()) return;
  auto& ids = it->second;
  const auto pos = std::lower_bound(ids.begin(), ids.end(), e);
  if (pos == ids.end() || *pos != e) return;
  ids.erase(pos);
  ShardTruth& shard = shard_truth_[raw(cluster_->placement().owner(h))];
  if (ids.size() == 1) --totals_.k2;
  --shard.pairs;
  shard.fingerprint -= pair_mix(h, e);
  if (ids.empty()) {
    --shard.hashes;
    sets_.erase(it);
  }
}

std::vector<RoutedRecord> Site::churn(double fraction, std::uint64_t epoch) {
  Rng rng(mix(seed_, 0x636875726eULL, epoch, 0));
  const auto per = static_cast<std::size_t>(
      std::lround(fraction * static_cast<double>(shape_.blocks)));
  const dht::Placement& pl = cluster_->placement();
  std::vector<RoutedRecord> stream;
  std::vector<std::byte> buf(shape_.block_size);
  std::vector<std::uint64_t> chosen;
  for (std::uint32_t e = 0; e < shape_.nodes; ++e) {
    auto& el = eligible_[e];
    const std::size_t k = std::min(per, el.size());
    for (std::size_t i = 0; i < k; ++i) std::swap(el[i], el[i + rng.below(el.size() - i)]);
    chosen.assign(el.begin(), el.begin() + static_cast<std::ptrdiff_t>(k));
    std::sort(chosen.begin(), chosen.end());
    mem::MemoryEntity& ent = cluster_->entity(entity_id(e));
    for (const std::uint64_t b : chosen) {
      const unsigned cur = variant_[e][b];
      const auto v = static_cast<unsigned>(
          cur == kVariants ? rng.below(kVariants) : (cur + 1 + rng.below(kVariants - 1)) % kVariants);
      palette_block(seed_, e, b, v, buf);
      ent.write_block(b, buf);
      variant_[e][b] = static_cast<std::uint8_t>(v);
      const ContentHash h = hasher_(ent.block(b));
      const ContentHash old = block_hash_[e][b];
      if (h == old) continue;
      drop_holder(old, e);
      add_holder(h, e);
      block_hash_[e][b] = h;
      stream.push_back({e, raw(pl.owner(old)), {old, entity_id(e), false}});
      stream.push_back({e, raw(pl.owner(h)), {h, entity_id(e), true}});
    }
  }
  return stream;
}

std::vector<RoutedRecord> Site::cold_stream(std::size_t cap) const {
  const dht::Placement& pl = cluster_->placement();
  std::vector<RoutedRecord> stream;
  for (std::uint32_t e = 0; e < shape_.nodes && stream.size() < cap; ++e) {
    for (std::size_t b = 0; b < shape_.blocks && stream.size() < cap; ++b) {
      const ContentHash& h = block_hash_[e][b];
      stream.push_back({e, raw(pl.owner(h)), {h, entity_id(e), true}});
    }
  }
  return stream;
}

ShardTruth shard_truth(const dht::DhtStore& store) {
  ShardTruth seen;
  store.for_each_entry([&](const ContentHash& h, const std::uint64_t* words, std::size_t nwords) {
    ++seen.hashes;
    for (std::size_t w = 0; w < nwords; ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        const auto id =
            static_cast<std::uint32_t>(w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits)));
        ++seen.pairs;
        seen.fingerprint += pair_mix(h, id);
      }
    }
  });
  return seen;
}

std::string Site::check_dht() const {
  for (std::uint32_t n = 0; n < shape_.nodes; ++n) {
    const ShardTruth seen = shard_truth(cluster_->daemon(node_id(n)).store());
    const ShardTruth& want = shard_truth_[n];
    if (seen != want) {
      return "shard " + std::to_string(n) + " holds " + std::to_string(seen.hashes) +
             " hashes / " + std::to_string(seen.pairs) + " (hash, entity) pairs, ground truth " +
             std::to_string(want.hashes) + " / " + std::to_string(want.pairs) +
             (seen.pairs == want.pairs ? " with different contents" : "");
    }
  }
  return {};
}

const std::vector<std::uint32_t>& Site::holders(const ContentHash& h) const {
  static const std::vector<std::uint32_t> kNone;
  const auto it = sets_.find(h);
  return it == sets_.end() ? kNone : it->second;
}

CollectiveTruth Site::collective_truth() const {
  // One entity per node: every holder of a hash sits on its own node, so
  // intra-node redundancy is zero and each extra holder is an inter-node copy.
  CollectiveTruth t;
  for (const ShardTruth& shard : shard_truth_) {
    t.total += shard.pairs;
    t.unique += shard.hashes;
  }
  t.inter = t.total - t.unique;
  t.k2 = totals_.k2;
  return t;
}

// --- TimedService --------------------------------------------------------

namespace {
template <typename Fn>
auto timed_into(std::int64_t& acc, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  auto r = fn();
  acc += now_ns() - t0;
  return r;
}
}  // namespace

Status TimedService::service_init(NodeId node, svc::Mode mode, const Config& config) {
  return timed_into(other_ns, [&] { return inner_.service_init(node, mode, config); });
}
Status TimedService::collective_start(NodeId node, svc::Role role, EntityId entity,
                                      std::span<const ContentHash> partial) {
  return timed_into(collective_ns,
                    [&] { return inner_.collective_start(node, role, entity, partial); });
}
std::optional<EntityId> TimedService::collective_select(NodeId node, const ContentHash& hash,
                                                        std::span<const EntityId> candidates) {
  return timed_into(collective_ns,
                    [&] { return inner_.collective_select(node, hash, candidates); });
}
Result<std::uint64_t> TimedService::collective_command(NodeId node, EntityId entity,
                                                       const ContentHash& hash,
                                                       std::span<const std::byte> data) {
  return timed_into(collective_ns,
                    [&] { return inner_.collective_command(node, entity, hash, data); });
}
Status TimedService::collective_finalize(NodeId node, svc::Role role, EntityId entity) {
  return timed_into(collective_ns,
                    [&] { return inner_.collective_finalize(node, role, entity); });
}
Status TimedService::local_start(NodeId node, EntityId entity) {
  return timed_into(local_ns, [&] { return inner_.local_start(node, entity); });
}
Status TimedService::local_command(NodeId node, EntityId entity, BlockIndex block,
                                   const ContentHash& hash, std::span<const std::byte> data,
                                   const std::uint64_t* handled) {
  return timed_into(local_ns, [&] {
    return inner_.local_command(node, entity, block, hash, data, handled);
  });
}
Status TimedService::local_finalize(NodeId node, EntityId entity) {
  return timed_into(local_ns, [&] { return inner_.local_finalize(node, entity); });
}
Status TimedService::service_deinit(NodeId node) {
  return timed_into(other_ns, [&] { return inner_.service_deinit(node); });
}

}  // namespace perfbench
