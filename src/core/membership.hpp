// MembershipView: the epoch-stamped "who is up" snapshot shared by every
// daemon on the site.
//
// ConCORD assumes a low-churn parallel machine (§3.3): membership is a slow
// control-plane fact, not a per-message negotiation. The failure detector
// produces these snapshots; dht::Placement consumes them to remap dead
// nodes' shards, the command engine consults them to exclude suspects from
// barriers, and ShardRepair diffs consecutive views to decide which home
// shards to repair.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace concord::core {

struct MembershipView {
  std::uint64_t epoch = 0;
  std::vector<bool> alive;  // indexed by raw(NodeId); empty = everyone up

  [[nodiscard]] bool is_alive(NodeId n) const {
    const auto i = raw(n);
    return i >= alive.size() || alive[i];
  }

  [[nodiscard]] std::size_t alive_count() const {
    std::size_t c = 0;
    for (const bool a : alive) c += a ? 1 : 0;
    return c;
  }

  /// Nodes this view considers dead, ascending.
  [[nodiscard]] std::vector<NodeId> suspected() const {
    std::vector<NodeId> out;
    for (std::uint32_t i = 0; i < alive.size(); ++i) {
      if (!alive[i]) out.push_back(node_id(i));
    }
    return out;
  }
};

}  // namespace concord::core
