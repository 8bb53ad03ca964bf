// Tests for the zero-hop DHT store: model-based property checks against a
// std::map oracle, both allocation modes, and placement behaviour.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <numeric>
#include <optional>
#include <set>

#include "common/rng.hpp"
#include "dht/chained_store.hpp"
#include "dht/dht_store.hpp"
#include "dht/placement.hpp"

namespace concord::dht {
namespace {

ContentHash h(std::uint64_t v) { return ContentHash{v * 0x9e3779b97f4a7c15ULL, v}; }

class DhtStoreModes : public ::testing::TestWithParam<AllocMode> {};

TEST_P(DhtStoreModes, InsertLookupRemove) {
  DhtStore store(64, GetParam());
  EXPECT_TRUE(store.insert(h(1), entity_id(3)));
  EXPECT_FALSE(store.insert(h(1), entity_id(5)));  // entry exists, new bit
  EXPECT_EQ(store.num_entities(h(1)), 2u);
  EXPECT_TRUE(store.contains(h(1), entity_id(3)));
  EXPECT_FALSE(store.contains(h(1), entity_id(4)));
  EXPECT_EQ(store.entities(h(1)),
            (std::vector<EntityId>{entity_id(3), entity_id(5)}));

  EXPECT_TRUE(store.remove(h(1), entity_id(3)));
  EXPECT_EQ(store.num_entities(h(1)), 1u);
  EXPECT_TRUE(store.remove(h(1), entity_id(5)));
  EXPECT_EQ(store.unique_hashes(), 0u);  // entry erased when set drains
  EXPECT_FALSE(store.remove(h(1), entity_id(5)));
}

TEST_P(DhtStoreModes, IdempotentInsert) {
  DhtStore store(64, GetParam());
  store.insert(h(2), entity_id(1));
  store.insert(h(2), entity_id(1));
  EXPECT_EQ(store.num_entities(h(2)), 1u);
  EXPECT_EQ(store.unique_hashes(), 1u);
}

TEST_P(DhtStoreModes, RemoveUnknownHashFails) {
  DhtStore store(64, GetParam());
  EXPECT_FALSE(store.remove(h(99), entity_id(0)));
}

TEST_P(DhtStoreModes, GrowsPastInitialBuckets) {
  DhtStore store(32, GetParam());
  for (std::uint64_t i = 0; i < 5000; ++i) {
    store.insert(h(i), entity_id(static_cast<std::uint32_t>(i % 32)));
  }
  EXPECT_EQ(store.unique_hashes(), 5000u);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(store.contains(h(i), entity_id(static_cast<std::uint32_t>(i % 32)))) << i;
  }
}

TEST_P(DhtStoreModes, ForEachEntryVisitsAll) {
  DhtStore store(8, GetParam());
  for (std::uint64_t i = 0; i < 100; ++i) store.insert(h(i), entity_id(0));
  std::set<std::uint64_t> seen;
  store.for_each_entry([&](const ContentHash& hash, const std::uint64_t* words, std::size_t n) {
    seen.insert(hash.lo);
    ASSERT_GE(n, 1u);
    EXPECT_EQ(words[0], 1u);
  });
  EXPECT_EQ(seen.size(), 100u);
}

TEST_P(DhtStoreModes, ForEachEntryHandsOutExactSets) {
  // Inline sets are materialized in a shared scratch bitmap; each callback
  // must see exactly its own one, two or three holders, never a leftover bit
  // of an earlier entry.
  DhtStore store(200, GetParam());
  std::map<ContentHash, std::set<std::uint32_t>> model;
  for (std::uint64_t i = 0; i < 300; ++i) {
    for (std::uint64_t k = 0; k <= i % 3; ++k) {
      const auto ent = static_cast<std::uint32_t>((i * 37 + k * 71) % 200);
      store.insert(h(i), entity_id(ent));
      model[h(i)].insert(ent);
    }
  }
  std::size_t visits = 0;
  store.for_each_entry([&](const ContentHash& hash, const std::uint64_t* words, std::size_t n) {
    ++visits;
    std::set<std::uint32_t> got;
    for (std::size_t w = 0; w < n; ++w) {
      for (std::uint32_t b = 0; b < 64; ++b) {
        if ((words[w] >> b) & 1u) got.insert(static_cast<std::uint32_t>(w * 64 + b));
      }
    }
    EXPECT_EQ(got, model.at(hash));
  });
  EXPECT_EQ(visits, model.size());
}

TEST_P(DhtStoreModes, ModelBasedRandomOps) {
  // Property: a long random insert/remove sequence matches a map<hash,set>.
  DhtStore store(128, GetParam());
  std::map<ContentHash, std::set<std::uint32_t>> model;
  Rng rng(2024);

  for (int step = 0; step < 20000; ++step) {
    const ContentHash hash = h(rng.below(300));
    const auto ent = static_cast<std::uint32_t>(rng.below(128));
    if (rng.chance(0.6)) {
      store.insert(hash, entity_id(ent));
      model[hash].insert(ent);
    } else {
      const bool removed = store.remove(hash, entity_id(ent));
      const auto it = model.find(hash);
      const bool model_removed = it != model.end() && it->second.erase(ent) > 0;
      ASSERT_EQ(removed, model_removed) << "step " << step;
      if (it != model.end() && it->second.empty()) model.erase(it);
    }
  }

  EXPECT_EQ(store.unique_hashes(), model.size());
  for (const auto& [hash, ents] : model) {
    ASSERT_EQ(store.num_entities(hash), ents.size());
    const auto got = store.entities(hash);
    ASSERT_EQ(got.size(), ents.size());
    for (const EntityId e : got) ASSERT_TRUE(ents.contains(raw(e)));
  }
}

INSTANTIATE_TEST_SUITE_P(AllocModes, DhtStoreModes,
                         ::testing::Values(AllocMode::kMalloc, AllocMode::kPool));

TEST(DhtStore, PoolUsesLessMemoryThanMalloc) {
  // The Fig. 6 claim, as a hard invariant at steady state: for identically
  // loaded stores the pool's reserved bytes (minus slab overshoot) beat
  // malloc's real chunk-size accounting. One or two copies per hash never
  // allocates in the compact layout, so the load must spill (3+ entities
  // per hash) for the allocator choice to matter at all.
  constexpr std::uint32_t kEntities = 256;
  constexpr std::uint64_t kHashes = 50000;
  DhtStore pool(kEntities, AllocMode::kPool);
  DhtStore mall(kEntities, AllocMode::kMalloc);
  for (std::uint64_t i = 0; i < kHashes; ++i) {
    for (std::uint32_t e = 0; e < 3; ++e) {
      const auto ent = static_cast<std::uint32_t>((i + e * 31) % kEntities);
      pool.insert(h(i), entity_id(ent));
      mall.insert(h(i), entity_id(ent));
    }
  }
  EXPECT_LT(pool.memory_bytes(), mall.memory_bytes());
}

TEST(DhtStore, MemoryAccountingShrinksOnRemove) {
  DhtStore store(8, AllocMode::kMalloc);
  for (std::uint64_t i = 0; i < 1000; ++i) store.insert(h(i), entity_id(0));
  const std::size_t full = store.memory_bytes();
  for (std::uint64_t i = 0; i < 1000; ++i) store.remove(h(i), entity_id(0));
  EXPECT_LT(store.memory_bytes(), full);
}

TEST(DhtStore, ChurnKeepsCapacityStableWithoutTombstones) {
  // Churn at a fixed live size must converge: backward-shift deletion closes
  // every hole it makes, so remove/insert cycles neither grow the table nor
  // leave deletion markers behind.
  DhtStore store(8, AllocMode::kPool);
  for (std::uint64_t i = 0; i < 40; ++i) store.insert(h(i), entity_id(0));
  const std::size_t cap = store.capacity();
  for (std::uint64_t round = 0; round < 50; ++round) {
    for (std::uint64_t i = 0; i < 40; ++i) store.remove(h(i), entity_id(0));
    for (std::uint64_t i = 0; i < 40; ++i) store.insert(h(i), entity_id(0));
  }
  EXPECT_EQ(store.capacity(), cap);
  EXPECT_LE(store.tombstones(), store.capacity() - store.unique_hashes());
  EXPECT_EQ(store.tombstones(), 0u);
  EXPECT_EQ(store.unique_hashes(), 40u);
  for (std::uint64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(store.contains(h(i), entity_id(0))) << i;
  }
}

TEST(DhtStore, RehashGrowsAndShrinks) {
  DhtStore store(8, AllocMode::kPool);
  const std::size_t initial = store.capacity();
  for (std::uint64_t i = 0; i < 4000; ++i) store.insert(h(i), entity_id(0));
  const std::size_t grown = store.capacity();
  EXPECT_GT(grown, initial);
  EXPECT_GE(grown, 4000u);  // load factor never exceeds 7/8
  for (std::uint64_t i = 0; i < 3990; ++i) store.remove(h(i), entity_id(0));
  EXPECT_LT(store.capacity(), grown);  // sparse table gives memory back
  EXPECT_EQ(store.unique_hashes(), 10u);
  for (std::uint64_t i = 3990; i < 4000; ++i) {
    ASSERT_TRUE(store.contains(h(i), entity_id(0))) << i;
  }
}

TEST(DhtStore, InlinePromotionAndDemotion) {
  // 1 and 2 ids live inline in the 8-byte set slot; the 3rd spills to a
  // bitmap; draining back below 3 keeps answers exact either way.
  DhtStore store(256, AllocMode::kMalloc);
  store.insert(h(7), entity_id(9));
  EXPECT_EQ(store.memory_bytes(),
            store.capacity() * (sizeof(ContentHash) + 1 + sizeof(std::uint64_t)));
  store.insert(h(7), entity_id(3));
  EXPECT_EQ(store.entities(h(7)), (std::vector<EntityId>{entity_id(3), entity_id(9)}));
  const std::size_t inline_bytes = store.memory_bytes();
  store.insert(h(7), entity_id(200));  // spill
  EXPECT_GT(store.memory_bytes(), inline_bytes);
  EXPECT_EQ(store.entities(h(7)),
            (std::vector<EntityId>{entity_id(3), entity_id(9), entity_id(200)}));
  EXPECT_TRUE(store.remove(h(7), entity_id(9)));
  EXPECT_EQ(store.entities(h(7)), (std::vector<EntityId>{entity_id(3), entity_id(200)}));
  EXPECT_TRUE(store.remove(h(7), entity_id(200)));
  EXPECT_TRUE(store.remove(h(7), entity_id(3)));
  EXPECT_EQ(store.unique_hashes(), 0u);
  EXPECT_EQ(store.memory_bytes(),
            store.capacity() * (sizeof(ContentHash) + 1 + sizeof(std::uint64_t)));
}

// Property: randomized batches (mixed inserts/removes, duplicate hashes
// inside one batch) over `distinct` hashes and `holders` entity ids leave the
// store exactly where per-record application of the same sequence leaves a
// map<hash,set> oracle.
void check_apply_batch_against_model(DhtStore& store, std::uint64_t distinct,
                                     std::uint64_t holders) {
  std::map<ContentHash, std::set<std::uint32_t>> model;
  Rng rng(777);
  for (int batch = 0; batch < 400; ++batch) {
    std::vector<UpdateRecord> records;
    const std::size_t n = 1 + rng.below(60);
    for (std::size_t i = 0; i < n; ++i) {
      const ContentHash hash = h(rng.below(distinct));
      const auto ent = static_cast<std::uint32_t>(rng.below(holders));
      const bool insert = rng.chance(0.7);
      records.push_back(UpdateRecord{hash, entity_id(ent), insert});
      if (insert) {
        model[hash].insert(ent);
      } else {
        const auto it = model.find(hash);
        if (it != model.end()) {
          it->second.erase(ent);
          if (it->second.empty()) model.erase(it);
        }
      }
    }
    store.apply_batch(records);
  }
  ASSERT_EQ(store.unique_hashes(), model.size());
  for (const auto& [hash, ents] : model) {
    const auto got = store.entities(hash);
    ASSERT_EQ(got.size(), ents.size());
    for (const EntityId e : got) ASSERT_TRUE(ents.contains(raw(e)));
  }
}

TEST(DhtStore, ApplyBatchMatchesModel) {
  DhtStore store(128, AllocMode::kPool);
  check_apply_batch_against_model(store, 150, 128);
}

TEST(DhtStore, ApplyBatchMatchesModelAtMinimumCapacity) {
  // 40 live hashes at most never cross the 7/8 grow threshold of the
  // smallest table, so probe runs are long and crowded; two holders per hash
  // make sets drain often, so removals keep shifting entries back, across
  // the wrap point too.
  DhtStore store(128, AllocMode::kPool);
  const std::size_t min_cap = store.capacity();
  check_apply_batch_against_model(store, 40, 2);
  EXPECT_EQ(store.capacity(), min_cap);
}

TEST(DhtStore, BackwardShiftAcrossTheWrapPoint) {
  // Keys whose home slots are the last slots of the table run across index
  // 0. Removing them in any order must keep every survivor reachable, which
  // a deletion that leaves a plain empty slot mid-run would break.
  DhtStore probe(8, AllocMode::kPool);
  const std::size_t cap = probe.capacity();
  const int shift = 64 - std::countr_zero(cap);  // home = top log2(cap) bits
  std::vector<ContentHash> keys;
  for (std::uint64_t v = 0; keys.size() < 12; ++v) {
    const std::size_t home = static_cast<std::size_t>(h(v).well_mixed() >> shift);
    if (home >= cap - 3) keys.push_back(h(v));
  }
  for (std::uint64_t v = 0; keys.size() < 16; ++v) {  // residents of the wrapped slots
    if ((h(v).well_mixed() >> shift) <= 1) keys.push_back(h(v));
  }

  std::vector<std::size_t> forward(keys.size());
  std::iota(forward.begin(), forward.end(), 0u);
  std::vector<std::size_t> backward(forward.rbegin(), forward.rend());
  std::vector<std::size_t> shuffled = forward;
  Rng rng(31);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }

  for (const auto& order : {forward, backward, shuffled}) {
    DhtStore store(8, AllocMode::kPool);
    for (const ContentHash& k : keys) store.insert(k, entity_id(1));
    ASSERT_EQ(store.capacity(), cap);
    // Twelve keys homed in the last three slots end at least nine slots past
    // the end of the table.
    ASSERT_GE(store.max_displacement(), 9u);
    std::set<std::size_t> gone;
    for (const std::size_t victim : order) {
      ASSERT_TRUE(store.remove(keys[victim], entity_id(1)));
      gone.insert(victim);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(store.contains(keys[i], entity_id(1)), !gone.contains(i))
            << "key " << i << " after removing " << victim;
      }
    }
    EXPECT_EQ(store.unique_hashes(), 0u);
    EXPECT_EQ(store.max_displacement(), 0u);
  }
}

TEST(DhtStore, ShardKeysDoNotClusterInTheSlotIndex) {
  // Regression: placement takes well_mixed() % N, so every key of one shard
  // shares its low log2(N) bits when N is a power of two. A slot index built
  // from those same bits folded a shard into a few long probe runs (longest
  // displacement 665 at N = 1024 and 2,499 at N = 4096). The slot index must
  // not see placement at any N. At this load (2,500 keys in 4,096 slots),
  // healthy linear probing reaches a longest displacement of 17 to 47 across
  // these N.
  constexpr std::size_t kKeys = 2500;
  for (const std::uint32_t n : {8u, 64u, 1000u, 1024u, 4096u}) {
    const Placement placement(n);
    DhtStore store(8, AllocMode::kPool);
    std::size_t loaded = 0;
    for (std::uint64_t v = 0; loaded < kKeys; ++v) {
      if (placement.home(h(v)) != 0) continue;
      store.insert(h(v), entity_id(0));
      ++loaded;
    }
    EXPECT_LE(store.max_displacement(), 64u) << "N = " << n;
  }
}

TEST(DhtStore, NewHashesAcrossTheGrowthThreshold) {
  // insert() places a new hash in the empty slot its probe walk ended on,
  // unless growing the table moved every entry first. A reference table
  // with the same rules (home = top log2(cap) bits, grow to twice the
  // capacity past 7/8 occupancy, re-insert in old slot order, linear probing)
  // must agree with the store after every insert, at the growth steps too.
  std::vector<std::optional<ContentHash>> model(DhtStore(8, AllocMode::kPool).capacity());
  const auto home = [](const ContentHash& k, std::size_t cap) {
    return static_cast<std::size_t>(k.well_mixed() >> (64 - std::countr_zero(cap)));
  };
  const auto place = [&home](std::vector<std::optional<ContentHash>>& t, const ContentHash& k) {
    std::size_t i = home(k, t.size());
    while (t[i].has_value()) i = (i + 1) & (t.size() - 1);
    t[i] = k;
  };
  const auto model_displacement = [&home](const std::vector<std::optional<ContentHash>>& t) {
    std::size_t worst = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!t[i].has_value()) continue;
      worst = std::max(worst, (i - home(*t[i], t.size())) & (t.size() - 1));
    }
    return worst;
  };

  obs::Registry registry;
  DhtStore store(8, AllocMode::kPool);
  store.bind_metrics(registry, 0);
  const obs::Counter& inserts_new = registry.counter("dht", "inserts_new", 0);
  constexpr std::uint64_t kKeys = 500;  // crosses 56/64, 112/128, 224/256, 448/512
  std::size_t growths = 0;
  for (std::uint64_t v = 0; v < kKeys; ++v) {
    if ((v + 1) * 8 > model.size() * 7) {
      std::vector<std::optional<ContentHash>> grown(model.size() * 2);
      for (const auto& k : model) {
        if (k.has_value()) place(grown, *k);
      }
      model = std::move(grown);
      ++growths;
    }
    place(model, h(v));
    ASSERT_TRUE(store.insert(h(v), entity_id(1))) << v;
    // Re-inserting an old hash for a second holder creates no entry.
    if (v % 3 == 0) {
      ASSERT_FALSE(store.insert(h(v / 2), entity_id(2))) << v;
    }
    ASSERT_EQ(store.capacity(), model.size()) << "after " << v + 1 << " hashes";
    ASSERT_EQ(store.max_displacement(), model_displacement(model)) << "after " << v + 1;
    ASSERT_EQ(inserts_new.value(), v + 1);
    for (std::uint64_t k = 0; k <= v; ++k) {
      ASSERT_TRUE(store.contains(h(k), entity_id(1))) << k << " after " << v + 1;
    }
    ASSERT_EQ(store.num_entities(h(v + 1)), 0u);
  }
  EXPECT_EQ(growths, 4u);
  EXPECT_EQ(store.unique_hashes(), kKeys);
}

TEST(DhtStore, CompactBeatsChainedBytesPerEntry) {
  // The PR's headline memory claim at test scale: same load, both pool
  // mode, the open-addressing SoA layout holds >= 30% fewer bytes per entry
  // than the pointer-chained baseline.
  constexpr std::uint32_t kEntities = 256;
  constexpr std::uint64_t kHashes = 200000;
  DhtStore compact(kEntities, AllocMode::kPool);
  ChainedDhtStore chained(kEntities, AllocMode::kPool);
  for (std::uint64_t i = 0; i < kHashes; ++i) {
    const auto ent = entity_id(static_cast<std::uint32_t>(i % kEntities));
    compact.insert(h(i), ent);
    chained.insert(h(i), ent);
  }
  const double compact_bpe = static_cast<double>(compact.memory_bytes()) / kHashes;
  const double chained_bpe = static_cast<double>(chained.memory_bytes()) / kHashes;
  EXPECT_LE(compact_bpe, chained_bpe * 0.7)
      << "compact " << compact_bpe << " B/entry vs chained " << chained_bpe;
}

TEST(DhtStore, MoveAssignKeepsDestinationRegistryBinding) {
  // Regression: the shard a cluster registry knows as "node 7" must keep
  // accounting there after being replaced by move-assignment (shard
  // recovery rebuilds stores this way). The source's accumulated counts
  // fold into the destination's cells, and post-move inserts land there.
  obs::Registry registry;
  DhtStore bound(64, AllocMode::kPool);
  bound.bind_metrics(registry, 7);
  bound.insert(h(1), entity_id(0));
  bound.insert(h(2), entity_id(0));

  DhtStore unbound(64, AllocMode::kPool);
  unbound.insert(h(10), entity_id(1));
  unbound.insert(h(11), entity_id(1));
  unbound.insert(h(12), entity_id(1));

  bound = std::move(unbound);
  // 2 pre-move + 3 folded from the source.
  EXPECT_EQ(registry.counter("dht", "inserts", 7).value(), 5u);
  EXPECT_EQ(registry.gauge("dht", "unique_hashes", 7).value(), 3);
  bound.insert(h(13), entity_id(1));
  EXPECT_EQ(registry.counter("dht", "inserts", 7).value(), 6u);
  EXPECT_EQ(registry.gauge("dht", "unique_hashes", 7).value(), 4);
  EXPECT_TRUE(bound.contains(h(10), entity_id(1)));
  EXPECT_FALSE(bound.contains(h(1), entity_id(0)));
}

TEST(DhtStore, ClearReleasesEverything) {
  DhtStore store(8, AllocMode::kPool);
  for (std::uint64_t i = 0; i < 100; ++i) store.insert(h(i), entity_id(1));
  store.clear();
  EXPECT_EQ(store.unique_hashes(), 0u);
  EXPECT_EQ(store.num_entities(h(5)), 0u);
}

TEST(Placement, DeterministicAndInRange) {
  const Placement p(13);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const NodeId a = p.owner(h(i));
    const NodeId b = p.owner(h(i));
    EXPECT_EQ(a, b);
    EXPECT_LT(raw(a), 13u);
  }
}

TEST(Placement, SpreadsHashesRoughlyEvenly) {
  const Placement p(8);
  std::vector<int> count(8, 0);
  constexpr int kN = 80000;
  for (std::uint64_t i = 0; i < kN; ++i) ++count[raw(p.owner(h(i)))];
  for (const int c : count) {
    EXPECT_NEAR(c, kN / 8, kN / 8 * 0.1);
  }
}

TEST(Placement, SingleNodeOwnsEverything) {
  const Placement p(1);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(raw(p.owner(h(i))), 0u);
}

}  // namespace
}  // namespace concord::dht
