// IntegrityScrub: re-hash verification and quarantine-and-repair for the
// content-tracing DHT.
//
// The audit (dht_audit.hpp) trusts the host's block map: an entry is clean
// if ground truth *says* the entity holds the content. Corruption breaks
// that trust from the other side — a bit-flipped update datagram (checksums
// off) plants a hash nobody ever held, and bit-rot in restored memory makes
// the block map itself a lie. The scrub closes the loop by re-hashing: an
// entry (h, e) at a shard member is verifiable only if some block of e,
// hashed *right now* with the site hasher, actually produces h.
//
// Entries that fail re-hash are *quarantined*: removed from the shard,
// counted on the dht/entries_quarantined gauge, and stamped into the
// member's flight-recorder ring. Quarantine alone leaves a coverage hole,
// so scrub_and_heal() repairs it the way the paper repairs every DHT gap:
// it marks each quarantined member's home shard dirty and lets ShardRepair
// decide (DESIGN.md §7) — a donor stream from an in-sync group member where
// one survives, otherwise a republish of the home from the hosts' local
// block maps. At R = 1 the only member is the quarantined one, so the home
// is always republished.
// A following verify pass that quarantines nothing certifies the heal;
// every pending quarantined entry is then credited to
// dht/entries_repaired, so a converged scrub always ends with
// entries_repaired == entries_quarantined.
#pragma once

#include <optional>
#include <vector>

#include "core/cluster.hpp"
#include "services/shard_repair.hpp"

namespace concord::services {

struct ScrubReport {
  std::uint64_t entries_checked = 0;  // (hash, entity) pairs re-hashed
  std::uint64_t quarantined = 0;      // entries removed as unverifiable
  std::uint64_t repaired = 0;         // entries credited healed this call
  std::uint64_t rounds = 0;           // verify passes run (scrub_and_heal)
  sim::Time latency = 0;              // virtual time the call spanned, heals included

  [[nodiscard]] bool clean() const noexcept { return quarantined == 0; }
};

class IntegrityScrub {
 public:
  explicit IntegrityScrub(core::Cluster& cluster) : cluster_(cluster) {}

  IntegrityScrub(const IntegrityScrub&) = delete;
  IntegrityScrub& operator=(const IntegrityScrub&) = delete;

  /// One verify pass over every alive shard: re-hashes each entry the
  /// current placement maps here and quarantines the failures. Entries
  /// whose authoritative host (or entity) is down or dead are skipped —
  /// unverifiable is not provably corrupt. Call from the top level only.
  ScrubReport scrub();

  /// Verify/heal rounds until a pass quarantines nothing (or `max_rounds`
  /// is hit): scrub, heal the quarantine list through ShardRepair (donor
  /// stream or block-map republish), re-verify. The terminating clean pass
  /// credits every pending quarantined entry as repaired.
  ScrubReport scrub_and_heal(int max_rounds = 4);

  /// Re-hash verification of one entry: true iff some block of `e`, hashed
  /// now on the entity's host, produces `h`. Also used by DhtAudit when a
  /// scrub is attached to it.
  [[nodiscard]] bool verify_entry(const ContentHash& h, EntityId e) const;

  /// Quarantines (h, e) at `member`: removes it from the shard, ticks
  /// dht/entries_quarantined, records kEntryQuarantined in the member's
  /// ring, and queues the entry for repair credit. Exposed for audit-time
  /// detection; scrub() uses it internally.
  void quarantine(NodeId member, const ContentHash& h, EntityId e);

  [[nodiscard]] std::uint64_t total_quarantined() const noexcept {
    return quarantined_cell_ != nullptr ? quarantined_cell_->value() : 0;
  }
  [[nodiscard]] std::uint64_t total_repaired() const noexcept {
    return repaired_cell_ != nullptr ? repaired_cell_->value() : 0;
  }
  /// Quarantined entries not yet certified healed by a clean verify pass.
  [[nodiscard]] std::size_t pending_repairs() const noexcept { return pending_.size(); }

 private:
  struct Quarantined {
    ContentHash hash;
    EntityId entity{};
    NodeId member{};
    std::uint32_t home = 0;
  };

  obs::Counter* lazy(obs::Counter*& slot, const char* name);
  void heal();
  void credit_repairs();

  core::Cluster& cluster_;
  // Heal path (manual trigger), built by the first heal so a scrub that
  // never quarantines creates no dht/recovery_* cells.
  std::optional<ShardRepair> repair_;
  std::vector<Quarantined> pending_;
  // Lazy gauges (dht/entries_quarantined, dht/entries_repaired): created on
  // first quarantine, so corruption-free runs keep their metric snapshots
  // byte-identical to builds without the scrub.
  obs::Counter* quarantined_cell_ = nullptr;
  obs::Counter* repaired_cell_ = nullptr;
};

}  // namespace concord::services
