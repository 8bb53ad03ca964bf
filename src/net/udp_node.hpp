// UdpDhtNode: a deployable ConCORD DHT shard over real UDP sockets.
//
// The emulation (Fabric + ServiceDaemon) carries the evaluation; this class
// is the genuine-deployment counterpart for the data path the paper's
// system runs in production: each node binds a UDP socket, applies incoming
// insert/remove updates to its DhtStore ("send and forget", §3.4), and
// answers node-wise queries with a reply datagram to the sender. The wire
// format is net/codec.hpp.
//
// Single-threaded by design: callers pump poll_once() from their event
// loop, exactly like the user-level daemon's receive loop.
#pragma once

#include "dht/dht_store.hpp"
#include "net/codec.hpp"
#include "net/udp_transport.hpp"

namespace concord::net {

class UdpDhtNode {
 public:
  explicit UdpDhtNode(std::uint32_t max_entities,
                      dht::AllocMode mode = dht::AllocMode::kPool)
      : store_(max_entities, mode) {}

  /// Binds the node's socket; must be called before polling.
  [[nodiscard]] Status start() { return endpoint_.bind(); }

  [[nodiscard]] std::uint16_t port() const noexcept { return endpoint_.port(); }
  [[nodiscard]] dht::DhtStore& store() noexcept { return store_; }

  /// Site membership (entity id -> host node index), required before the
  /// node can answer collective queries (the intra/inter split needs it).
  /// Deployment configuration, just like the paper's low-churn membership.
  void set_entity_hosts(std::vector<std::uint32_t> hosts) { entity_hosts_ = std::move(hosts); }

  struct PollStats {
    std::uint64_t updates_applied = 0;
    std::uint64_t queries_answered = 0;
    std::uint64_t malformed_dropped = 0;
  };

  /// Processes at most one pending datagram (waiting up to timeout_ms).
  /// Returns whether a datagram was consumed.
  bool poll_once(int timeout_ms);

  /// Drains everything currently queued.
  void poll_all() {
    while (poll_once(0)) {
    }
  }

  [[nodiscard]] const PollStats& stats() const noexcept { return stats_; }

  // --- client-side helpers (any endpoint can use these against a node) ---

  /// Fire-and-forget update to a node at `port`.
  [[nodiscard]] static Status send_update(UdpEndpoint& from, std::uint16_t port,
                            const codec::DhtUpdate& update);

  /// Fire-and-forget owner-batched update datagram to a node at `port`.
  [[nodiscard]] static Status send_update_batch(UdpEndpoint& from, std::uint16_t port,
                                  const codec::DhtUpdateBatch& batch);

  /// Synchronous node-wise query: sends, waits up to timeout_ms for the
  /// reply. kTimeout if the reply (or the query — UDP!) was lost.
  [[nodiscard]] static Result<codec::QueryReply> query(UdpEndpoint& from, std::uint16_t port,
                                         const codec::Query& q, int timeout_ms);

  /// Synchronous collective-slice query against one shard node.
  [[nodiscard]] static Result<codec::CollectiveReply> collective_query(UdpEndpoint& from,
                                                         std::uint16_t port,
                                                         const codec::CollectiveQuery& q,
                                                         int timeout_ms);

 private:
  /// Sends `q` and waits up to timeout_ms for the reply with its req_id.
  template <typename Reply, typename Request>
  static Result<Reply> round_trip(UdpEndpoint& from, std::uint16_t port, const Request& q,
                                  Result<Reply> (*decode)(std::span<const std::byte>),
                                  int timeout_ms);

  UdpEndpoint endpoint_;
  dht::DhtStore store_;
  std::vector<std::uint32_t> entity_hosts_;
  PollStats stats_;
};

}  // namespace concord::net
