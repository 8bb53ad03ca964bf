// Standalone replays of a workload's own inputs through the layers that are
// buried inside one public call (Cluster::scan_all, QueryEngine lookups):
// hashing, UpdateBatcher, the wire codec, Fabric send->deliver, the event
// loop, and DhtStore apply/find/scan. Each replay times the layer alone on
// the same records, keys and shards the workload produced, and checks its
// output, so a per-layer figure is never measured on work that went wrong.
// The raw times go out as they are; run.py turns them into per-unit figures.
#include <algorithm>
#include <map>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/update_batcher.hpp"
#include "net/codec.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

using namespace concord;

namespace {

constexpr int kReps = 5;

/// kReps runs of fn(), which returns elapsed ns, over `count` units of work.
template <typename Fn>
ReplayTiming repeat(std::size_t count, Fn&& fn) {
  ReplayTiming t{{}, count};
  for (int i = 0; i < kReps; ++i) t.ns.push_back(fn());
  return t;
}

/// MD5 over `count` blocks of `size` bytes: the workload's own blocks when
/// its block size matches, else palette blocks of that size.
ReplayTiming md5_timing(Site& site, std::size_t size, std::size_t count) {
  const Shape& sh = site.shape();
  std::vector<std::byte> pages(size * count);
  if (sh.block_size == size) {
    std::size_t i = 0;
    for (std::uint32_t e = 0; e < sh.nodes && i < count; ++e) {
      const mem::MemoryEntity& ent = site.cluster().entity(entity_id(e));
      for (std::size_t b = 0; b < sh.blocks && i < count; ++b, ++i) {
        std::copy(ent.block(b).begin(), ent.block(b).end(), pages.begin() + static_cast<std::ptrdiff_t>(i * size));
      }
    }
    count = i;
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      palette_block(site.seed(), static_cast<std::uint32_t>(i % sh.nodes), i / sh.nodes, 0,
                    std::span(pages).subspan(i * size, size));
    }
  }
  const hash::BlockHasher md5(hash::Algorithm::kMd5);
  std::uint64_t sink = 0;
  ReplayTiming t = repeat(count, [&] {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < count; ++i) sink ^= md5(std::span(pages).subspan(i * size, size)).lo;
    return now_ns() - t0;
  });
  volatile std::uint64_t keep = sink;
  (void)keep;
  return t;
}

/// The stream cut into the datagrams the batcher ships: per (src, dst) in
/// arrival order, chunks of at most max_records.
std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>, std::vector<dht::UpdateRecord>>>
datagrams_of(const std::vector<RoutedRecord>& stream) {
  const std::size_t max_records = core::BatchPolicy{}.max_records();
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<dht::UpdateRecord>> by_pair;
  for (const RoutedRecord& r : stream) by_pair[{r.src, r.dst}].push_back(r.rec);
  std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>, std::vector<dht::UpdateRecord>>> out;
  for (const auto& [pair, recs] : by_pair) {
    for (std::size_t i = 0; i < recs.size(); i += max_records) {
      const std::size_t end = std::min(recs.size(), i + max_records);
      out.push_back({pair, std::vector<dht::UpdateRecord>(recs.begin() + static_cast<std::ptrdiff_t>(i),
                                                          recs.begin() + static_cast<std::ptrdiff_t>(end))});
    }
  }
  return out;
}

}  // namespace

std::vector<ShardCopy> copy_busiest_shards(core::Cluster& cluster,
                                           const std::vector<RoutedRecord>& stream,
                                           bool without_stream) {
  constexpr std::size_t kShards = 64;
  std::map<std::uint32_t, std::size_t> hits;
  for (const RoutedRecord& r : stream) ++hits[r.dst];
  std::vector<std::pair<std::size_t, std::uint32_t>> order;
  for (const auto& [node, n] : hits) order.push_back({n, node});
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  if (order.size() > kShards) order.resize(kShards);
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  std::vector<ShardCopy> out;
  const std::uint32_t max_entities = cluster.params().max_entities;
  for (const auto& [n, node] : order) {
    auto copy = std::make_unique<dht::DhtStore>(max_entities, cluster.params().alloc_mode);
    cluster.daemon(node_id(node)).store().for_each_entry(
        [&](const ContentHash& h, const std::uint64_t* words, std::size_t nwords) {
          for (std::size_t w = 0; w < nwords; ++w) {
            for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
              copy->insert(h, entity_id(static_cast<std::uint32_t>(
                                  w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits)))));
            }
          }
        });
    if (without_stream) {
      for (const RoutedRecord& r : stream) {
        if (r.dst == node) (void)copy->remove(r.rec.hash, r.rec.entity);
      }
    }
    out.push_back({node, std::move(copy)});
  }
  return out;
}

std::string run_replays(const ReplayInputs& in, ReplayTimings& out, SpanLog& spans) {
  Site& site = *in.site;
  core::Cluster& cl = site.cluster();
  const std::uint32_t nodes = cl.num_nodes();
  const auto dgrams = datagrams_of(in.stream);
  const std::size_t records = in.stream.size();

  // --- hash ---
  {
    const Scope span(spans, "md5_replay", "hash");
    out.emplace_back("md5_4k", md5_timing(site, 4096, 2048));
    out.emplace_back("md5_64b", md5_timing(site, 64, 65536));
  }

  // --- core: UpdateBatcher add + flush_all over the stream, per source node ---
  {
    const Scope span(spans, "batcher_replay", "core");
    std::size_t delivered = 0;
    out.emplace_back("batcher", repeat(records, [&] {
      sim::Simulation simu(site.seed());
      net::Fabric fabric(simu, net::FabricParams{});
      std::size_t got = 0;
      for (std::uint32_t n = 0; n < nodes; ++n) {
        fabric.register_node(node_id(n), [&got](const net::Message& m) {
          got += m.as<core::DhtUpdateBatchMsg>().size();
        });
      }
      std::vector<std::unique_ptr<core::UpdateBatcher>> batchers(nodes);
      for (std::uint32_t n = 0; n < nodes; ++n) {
        batchers[n] = std::make_unique<core::UpdateBatcher>(node_id(n), fabric, core::BatchPolicy{},
                                                            &cl.placement());
      }
      const std::int64_t t0 = now_ns();
      std::size_t i = 0;
      while (i < records) {
        const std::uint32_t src = in.stream[i].src;
        for (; i < records && in.stream[i].src == src; ++i) {
          batchers[src]->add(node_id(in.stream[i].dst), in.stream[i].rec);
        }
        batchers[src]->flush_all();
      }
      const std::int64_t dt = now_ns() - t0;
      simu.run();
      delivered = got;
      return dt;
    }));
    if (delivered != records) return "batcher replay delivered " + std::to_string(delivered) +
                                      " of " + std::to_string(records) + " records";
  }

  // --- net: fabric send -> deliver of the stream's datagrams ---
  {
    const Scope span(spans, "fabric_replay", "net");
    std::size_t delivered = 0;
    out.emplace_back("fabric", repeat(dgrams.size(), [&] {
      sim::Simulation simu(site.seed());
      net::Fabric fabric(simu, net::FabricParams{});
      std::size_t got = 0;
      for (std::uint32_t n = 0; n < nodes; ++n) {
        fabric.register_node(node_id(n), [&got](const net::Message&) { ++got; });
      }
      std::vector<net::Message> msgs;
      msgs.reserve(dgrams.size());
      for (const auto& [pair, recs] : dgrams) {
        msgs.push_back(net::make_message(
            node_id(pair.first), node_id(pair.second), net::MsgType::kDhtUpdateBatch, recs,
            core::batch_wire_size(recs.size()) - net::kWireHeaderBytes));
      }
      const std::int64_t t0 = now_ns();
      for (net::Message& m : msgs) fabric.send_unreliable(std::move(m));
      simu.run();
      const std::int64_t dt = now_ns() - t0;
      delivered = got;
      return dt;
    }));
    if (delivered != dgrams.size()) return "fabric replay lost datagrams";
  }

  // --- net codec: DhtUpdateBatch encode/decode of the stream's datagrams ---
  {
    const Scope span(spans, "codec_replay", "net");
    std::vector<net::codec::DhtUpdateBatch> batches;
    for (const auto& [pair, recs] : dgrams) {
      net::codec::DhtUpdateBatch b;
      for (const dht::UpdateRecord& r : recs) b.records.push_back({r.hash, r.entity, r.insert});
      batches.push_back(std::move(b));
    }
    std::vector<std::vector<std::byte>> wire(batches.size());
    out.emplace_back("codec_encode", repeat(records, [&] {
      for (auto& w : wire) w.clear();
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < batches.size(); ++i) net::codec::encode(batches[i], wire[i]);
      return now_ns() - t0;
    }));
    bool round_trip = true;
    out.emplace_back("codec_decode", repeat(records, [&] {
      std::size_t good = 0;
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < wire.size(); ++i) {
        const auto r = net::codec::decode_dht_update_batch(wire[i]);
        if (r.has_value() && r.value().records.size() == batches[i].records.size()) ++good;
      }
      const std::int64_t dt = now_ns() - t0;
      round_trip = round_trip && good == wire.size();
      return dt;
    }));
    for (std::size_t i = 0; i < wire.size() && round_trip; ++i) {
      const auto r = net::codec::decode_dht_update_batch(wire[i]);
      for (std::size_t j = 0; j < batches[i].records.size(); ++j) {
        const net::codec::DhtUpdate& a = r.value().records[j];
        const net::codec::DhtUpdate& b = batches[i].records[j];
        if (a.hash != b.hash || a.entity != b.entity || a.insert != b.insert) round_trip = false;
      }
    }
    if (!round_trip) return "codec replay: DhtUpdateBatch does not round-trip";
  }

  // --- sim: at() + run() at the epoch's event count (one per datagram) ---
  {
    const Scope span(spans, "event_loop_replay", "sim");
    const std::size_t events = std::max<std::size_t>(dgrams.size(), 1);
    std::size_t fired = 0;
    out.emplace_back("sim_event", repeat(events, [&] {
      sim::Simulation simu(site.seed());
      Rng rng(site.seed());
      std::size_t n = 0;
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < events; ++i) {
        simu.at(static_cast<sim::Time>(50'000 + rng.below(20'000)), [&n] { ++n; });
      }
      simu.run();
      const std::int64_t dt = now_ns() - t0;
      fired = n;
      return dt;
    }));
    if (fired != events) return "event loop replay lost events";
  }

  // --- dht write: apply_batch of each copied shard's records, once (it
  // mutates the copies); each copy must then hold what its live shard holds.
  {
    const Scope span(spans, "apply_replay", "dht");
    std::map<std::uint32_t, std::vector<dht::UpdateRecord>> by_dst;
    for (const RoutedRecord& r : in.stream) by_dst[r.dst].push_back(r.rec);
    std::int64_t total = 0;
    std::size_t applied = 0;
    for (const ShardCopy& s : in.shards) {
      const auto it = by_dst.find(s.node);
      if (it == by_dst.end()) continue;
      const std::int64_t t0 = now_ns();
      s.store->apply_batch(it->second);
      total += now_ns() - t0;
      applied += it->second.size();
      if (shard_truth(*s.store) != shard_truth(cl.daemon(node_id(s.node)).store())) {
        return "apply replay: shard " + std::to_string(s.node) + " diverges from the live shard";
      }
    }
    out.emplace_back("apply", ReplayTiming{{total}, applied});
  }

  // --- dht read: find on live shards with the lookup key stream ---
  std::uint64_t sink = 0;
  auto shard_find = [&](const std::vector<ContentHash>& keys) {
    return repeat(keys.size(), [&] {
      const std::int64_t t0 = now_ns();
      for (const ContentHash& h : keys) {
        sink += cl.daemon(cl.placement().owner(h)).store().num_entities(h);
      }
      return now_ns() - t0;
    });
  };
  {
    const Scope span(spans, "find_replay", "dht");
    out.emplace_back("find_hit", shard_find(in.hit_keys));
    out.emplace_back("find_miss", shard_find(in.miss_keys));

    // The same hit keys in one unfiltered store holding every tracked hash.
    dht::DhtStore flat(cl.params().max_entities, cl.params().alloc_mode);
    flat.reserve(site.unique_hashes());
    for (std::uint32_t n = 0; n < nodes; ++n) {
      cl.daemon(node_id(n)).store().for_each_entry(
          [&](const ContentHash& h, const std::uint64_t*, std::size_t) {
            flat.insert(h, entity_id(0));
          });
    }
    out.emplace_back("find_flat", repeat(in.hit_keys.size(), [&] {
      const std::int64_t t0 = now_ns();
      for (const ContentHash& h : in.hit_keys) sink += flat.num_entities(h);
      return now_ns() - t0;
    }));
  }
  {
    const Scope span(spans, "scan_replay", "dht");
    std::size_t entries = 0;
    for (std::uint32_t n = 0; n < nodes; ++n) entries += cl.daemon(node_id(n)).store().unique_hashes();
    out.emplace_back("scan", repeat(entries, [&] {
      std::uint64_t acc = 0;
      const std::int64_t t0 = now_ns();
      for (std::uint32_t n = 0; n < nodes; ++n) {
        cl.daemon(node_id(n)).store().for_each_entry(
            [&](const ContentHash& h, const std::uint64_t* w, std::size_t nw) {
              acc ^= h.lo;
              for (std::size_t i = 0; i < nw; ++i) acc += w[i];
            });
      }
      const std::int64_t dt = now_ns() - t0;
      sink += acc;
      return dt;
    }));
  }
  volatile std::uint64_t keep = sink;
  (void)keep;
  return {};
}

}  // namespace perfbench
