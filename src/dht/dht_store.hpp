// DhtStore: one node's shard of the zero-hop content-tracing DHT.
//
// The site-wide engine (§3.1, [22]) maps each unique content hash to the
// set of entities believed to hold a copy. Placement is zero-hop: every
// daemon knows the full membership, and owner(hash) is a pure function of
// the hash (see placement.hpp), so an update or node-wise query is a single
// message.
//
// Storage is an open-addressing (linear probing, power-of-two capacity,
// backward-shift deletion) table in struct-of-arrays layout — dense parallel
// arrays for hashes, per-slot control bytes, and 8-byte entity-set slots.
// A hash's home slot comes from the *top* bits of well_mixed(), while
// Placement::home takes it modulo N; the two are independent for every N, so
// a shard's keys spread over its whole table even when N is a power of two.
// An entity set holds up to two u32 entity ids inline (the overwhelmingly
// common case at site scale: most content is held by one or two entities);
// a third id promotes the slot to a spilled max_entities-wide bitmap. The
// layout replaces the original pointer-chained table (kept as
// ChainedDhtStore for baseline measurements), cutting per-entry overhead
// from header+chain+full-bitmap to ~25 bytes of slot plus amortized probing
// headroom.
//
// Two allocation modes reproduce Fig. 6 for the spilled bitmaps:
//   * kMalloc — each spilled bitmap comes from operator new;
//   * kPool   — spilled bitmaps come from a slab pool sized exactly for the
//               bitmap ("the allocation units of the DHT are statically
//               known, [so] a custom allocator can improve memory
//               efficiency over the use of GNU malloc").
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/pool_allocator.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace concord::dht {

enum class AllocMode : std::uint8_t { kMalloc, kPool };

/// Heap bytes a kMalloc-mode block really costs: its usable size plus the
/// allocator's size word, which is glibc's chunk size. Charging the size
/// word too keeps the malloc-vs-pool comparison honest under allocators
/// (ASan, TSan) whose usable size is exactly the request.
[[nodiscard]] std::size_t malloc_charge(void* p) noexcept;

/// One update-stream record: insert or remove `entity` from `hash`'s set.
/// This is the unit the owner-batched update datagrams carry; a batch is a
/// span of these applied through apply_batch().
struct UpdateRecord {
  ContentHash hash;
  EntityId entity{};
  bool insert = true;
};

class DhtStore {
 public:
  /// @param max_entities  site-wide entity universe (fixes the width of
  ///                      spilled bitmaps)
  explicit DhtStore(std::uint32_t max_entities, AllocMode mode = AllocMode::kPool);
  ~DhtStore();

  DhtStore(const DhtStore&) = delete;
  DhtStore& operator=(const DhtStore&) = delete;
  DhtStore(DhtStore&&) noexcept;
  /// Keeps the *destination's* registry binding: a store that was bound to a
  /// cluster registry under some node label stays bound there, and the moved
  /// store's accumulated counts fold into those cells (mirroring
  /// bind_metrics). An unbound destination adopts the source's binding.
  DhtStore& operator=(DhtStore&&) noexcept;

  /// Routes this shard's accounting into `registry` (subsystem "dht",
  /// labeled with `node`): insert/remove counters, stale-hit counters, and
  /// occupancy gauges. Counts accumulated before binding carry over. The
  /// store accounts into a private registry until bound.
  void bind_metrics(obs::Registry& registry, std::int32_t node);

  /// Records that `entity` holds content `h`. Returns true if this created
  /// a new hash entry (first copy site-wide on this shard).
  bool insert(const ContentHash& h, EntityId entity);

  /// Removes `entity` from `h`'s set. Returns true if the entry existed and
  /// the id was present. Erases the entry when its set drains.
  bool remove(const ContentHash& h, EntityId entity);

  /// Applies a whole update batch. Records are grouped by hash before
  /// application (a stable sort, so same-hash records keep their arrival
  /// order — an insert/remove pair for one hash must not commute), which
  /// turns a batch's worth of scattered probe walks into clustered ones.
  /// Counter accounting is identical to per-record insert()/remove() calls.
  void apply_batch(std::span<const UpdateRecord> records);

  /// Number of entities believed to hold `h` (0 if unknown).
  [[nodiscard]] std::size_t num_entities(const ContentHash& h) const;

  [[nodiscard]] bool contains(const ContentHash& h, EntityId entity) const;

  /// Entity ids believed to hold `h`, ascending (empty if unknown).
  [[nodiscard]] std::vector<EntityId> entities(const ContentHash& h) const;

  /// Invokes fn(hash, words, nwords) for every entry, in slot order.
  /// Fn: void(const ContentHash&, const std::uint64_t* words, std::size_t nwords)
  /// Inline sets are materialized into a per-store scratch bitmap, so the
  /// words pointer is only valid for the duration of one callback.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    static_assert(std::endian::native == std::endian::little,
                  "control-byte groups are decoded lowest address first");
    for (std::size_t base = 0; base < ctrl_.size(); base += kGroup) {
      std::uint64_t group;
      std::memcpy(&group, ctrl_.data() + base, sizeof(group));
      // Control bytes are 0..3, so a byte is live iff either low bit is set:
      // skip a run of eight empty slots with one test.
      std::uint64_t live = (group | (group >> 1)) & 0x0101010101010101ULL;
      while (live != 0) {
        const std::size_t i = base + static_cast<std::size_t>(std::countr_zero(live)) / 8;
        live &= live - 1;
        if (ctrl_[i] == kSpilled) {
          fn(hashes_[i], spill_of(i), words_per_entry_);
        } else {
          const InlineBits bits(scratch_.data(), sets_[i], ctrl_[i] == kInline2);
          fn(hashes_[i], scratch_.data(), words_per_entry_);
        }
      }
    }
  }

  /// Invokes fn(hash, entity) for every (hash, entity) pair, entries in
  /// slot order and each entry's entities ascending.
  template <typename Fn>
  void for_each_pair(Fn&& fn) const {
    for_each_entry([&](const ContentHash& h, const std::uint64_t* words, std::size_t nwords) {
      for (std::size_t w = 0; w < nwords; ++w) {
        for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
          fn(h, entity_id(static_cast<std::uint32_t>(
                    w * 64 + static_cast<std::size_t>(std::countr_zero(bits)))));
        }
      }
    });
  }

  /// Pre-sizes the table for an expected number of hashes so bulk loads and
  /// steady-state measurements don't pay incremental rehashing.
  void reserve(std::size_t expected_hashes);

  [[nodiscard]] std::size_t unique_hashes() const noexcept { return size_; }
  [[nodiscard]] std::uint32_t max_entities() const noexcept { return max_entities_; }
  [[nodiscard]] AllocMode alloc_mode() const noexcept { return mode_; }

  /// Table slots (power of two; grows past 7/8 occupancy, shrinks below 1/8
  /// load). Test/bench surface.
  [[nodiscard]] std::size_t capacity() const noexcept { return ctrl_.size(); }
  /// Slots holding a deletion marker. Always 0: remove() shifts the rest of
  /// the probe run back into the hole instead of leaving a marker. Kept for
  /// callers that report table health.
  [[nodiscard]] std::size_t tombstones() const noexcept { return 0; }
  /// Longest distance, in slots, of any live entry from its home slot,
  /// computed by walking the table. Test surface.
  [[nodiscard]] std::size_t max_displacement() const noexcept;

  /// Heap bytes held: slot arrays plus spilled bitmaps. In kMalloc mode each
  /// spill is charged malloc_charge(), the allocator's real chunk size, so
  /// the malloc-vs-pool gap in Fig. 6 is measured, not modeled.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  void clear();

 private:
  // Control byte per slot: anything but kEmpty is a live entry.
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kInline1 = 1;   // one inline id (set lo 32 bits)
  static constexpr std::uint8_t kInline2 = 2;   // two inline ids, ascending
  static constexpr std::uint8_t kSpilled = 3;   // set slot holds a bitmap pointer

  static constexpr std::size_t kMinCapacity = 64;
  static constexpr std::size_t kGroup = 8;  // control bytes per for_each_entry test
  static_assert(kMinCapacity % kGroup == 0);
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  // Spilled bitmaps per pool slab. Small, because a shard's first spill
  // reserves a whole slab and most shards spill only a few hashes.
  static constexpr std::size_t kSpillSlabObjects = 64;

  /// Sets an inline set's one or two ids in the all-zero scratch bitmap for
  /// the lifetime of the object, and clears them again on the way out.
  class InlineBits {
   public:
    InlineBits(std::uint64_t* words, std::uint64_t set, bool pair) noexcept
        : words_(words), set_(set), pair_(pair) {
      flip();
    }
    ~InlineBits() { flip(); }
    InlineBits(const InlineBits&) = delete;
    InlineBits& operator=(const InlineBits&) = delete;

   private:
    void flip() noexcept {
      const auto lo = static_cast<std::uint32_t>(set_ & 0xffffffffu);
      words_[lo >> 6] ^= std::uint64_t{1} << (lo & 63);
      if (pair_) {
        const auto hi = static_cast<std::uint32_t>(set_ >> 32);
        words_[hi >> 6] ^= std::uint64_t{1} << (hi & 63);
      }
    }
    std::uint64_t* words_;
    std::uint64_t set_;
    bool pair_;
  };

  /// Pre-resolved registry cells; updated on every mutation so the registry
  /// always reflects shard occupancy without polling.
  struct Cells {
    obs::Counter* inserts = nullptr;       // every insert() call
    obs::Counter* inserts_new = nullptr;   // first copy of a hash on this shard
    obs::Counter* removes = nullptr;       // every remove() call
    obs::Counter* removes_stale = nullptr; // remove of an entry/id not present
    obs::Gauge* unique_hashes = nullptr;
    obs::Gauge* memory_bytes = nullptr;
    obs::Gauge* bytes_per_entry = nullptr;  // memory_bytes / unique_hashes
    obs::Gauge* load_factor_pct = nullptr;  // live slots / capacity
  };

  [[nodiscard]] std::uint64_t* spill_of(std::size_t slot) const noexcept {
    return reinterpret_cast<std::uint64_t*>(static_cast<std::uintptr_t>(sets_[slot]));
  }
  std::uint64_t* allocate_spill();
  void free_spill(std::uint64_t* words) noexcept;
  void release_slot(std::size_t slot) noexcept;  // frees a spill, closes the hole

  /// Home slot of `h` in a table of `cap` slots: the top log2(cap) bits of
  /// well_mixed(), which Placement's `% N` does not constrain.
  [[nodiscard]] static std::size_t home_slot(const ContentHash& h, std::size_t cap) noexcept {
    return static_cast<std::size_t>(h.well_mixed() >> (64 - std::countr_zero(cap)));
  }
  /// Where h's probe walk stops: h's own slot (found), or the empty slot
  /// that ends its probe run, where an insert of h belongs.
  struct Probe {
    std::size_t slot;
    bool found;
  };
  [[nodiscard]] Probe probe(const ContentHash& h) const noexcept;
  [[nodiscard]] std::size_t find(const ContentHash& h) const noexcept;
  void rehash(std::size_t new_cap);
  bool maybe_grow();  // true if it rehashed, moving every entry
  void maybe_shrink();
  [[nodiscard]] static std::size_t capacity_for(std::size_t entries) noexcept;

  Cells resolve_cells(std::int32_t node);
  void update_occupancy() noexcept;
  void steal_storage(DhtStore&& o) noexcept;

  std::uint32_t max_entities_;
  std::size_t words_per_entry_;
  AllocMode mode_;
  std::vector<ContentHash> hashes_;   // [capacity]
  std::vector<std::uint8_t> ctrl_;    // [capacity]
  std::vector<std::uint64_t> sets_;   // [capacity] inline ids or spill pointer
  std::size_t size_ = 0;
  std::unique_ptr<PoolAllocatorBase> pool_;  // kPool spill arena
  std::size_t malloc_bytes_ = 0;             // kMalloc spill accounting
  mutable std::vector<std::uint64_t> scratch_;  // inline-set materialization
  obs::Registry* metrics_ = nullptr;            // bound registry, if any
  std::unique_ptr<obs::Registry> own_metrics_;  // fallback when unbound
  std::int32_t node_ = obs::Registry::kSiteWide;
  Cells cells_;
};

}  // namespace concord::dht
