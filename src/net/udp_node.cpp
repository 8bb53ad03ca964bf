#include "net/udp_node.hpp"

#include <bit>

#include "common/log.hpp"
#include "dht/collective_scan.hpp"

namespace concord::net {

bool UdpDhtNode::poll_once(int timeout_ms) {
  Result<UdpEndpoint::Datagram> dgram = endpoint_.recv_from(timeout_ms);
  if (!dgram.has_value()) return false;
  const auto& data = dgram.value().data;

  const Result<codec::WireHeader> header = codec::decode_header(data);
  if (!header.has_value()) {
    ++stats_.malformed_dropped;
    return true;
  }

  switch (header.value().type) {
    case codec::WireType::kDhtInsert:
    case codec::WireType::kDhtRemove: {
      const Result<codec::DhtUpdate> u = codec::decode_dht_update(data);
      if (!u.has_value()) {
        ++stats_.malformed_dropped;
        return true;
      }
      if (raw(u.value().entity) >= store_.max_entities()) {
        ++stats_.malformed_dropped;  // never index past the bitmap
        return true;
      }
      if (u.value().insert) {
        store_.insert(u.value().hash, u.value().entity);
      } else {
        store_.remove(u.value().hash, u.value().entity);
      }
      ++stats_.updates_applied;
      return true;
    }

    case codec::WireType::kDhtUpdateBatch: {
      const Result<codec::DhtUpdateBatch> batch = codec::decode_dht_update_batch(data);
      if (!batch.has_value()) {
        ++stats_.malformed_dropped;
        return true;
      }
      // Record-level validation: a batch with one bad entity id still applies
      // its good records (best-effort semantics, same as losing a datagram).
      std::vector<dht::UpdateRecord> records;
      records.reserve(batch.value().records.size());
      for (const codec::DhtUpdate& u : batch.value().records) {
        if (raw(u.entity) >= store_.max_entities()) {
          ++stats_.malformed_dropped;  // never index past the bitmap
          continue;
        }
        records.push_back(dht::UpdateRecord{u.hash, u.entity, u.insert});
      }
      store_.apply_batch(records);
      stats_.updates_applied += records.size();
      return true;
    }

    case codec::WireType::kReplicaSync: {
      // A standalone UDP node has no replica-group state; a resync chunk is
      // applied like a batch (the dirty-counter bookkeeping lives in the
      // emulated daemons and a future multi-node deployment's daemon shell).
      const Result<codec::ReplicaSync> sync = codec::decode_replica_sync(data);
      if (!sync.has_value()) {
        ++stats_.malformed_dropped;
        return true;
      }
      std::vector<dht::UpdateRecord> records;
      records.reserve(sync.value().records.size());
      for (const codec::DhtUpdate& u : sync.value().records) {
        if (raw(u.entity) >= store_.max_entities()) {
          ++stats_.malformed_dropped;  // never index past the bitmap
          continue;
        }
        records.push_back(dht::UpdateRecord{u.hash, u.entity, u.insert});
      }
      store_.apply_batch(records);
      stats_.updates_applied += records.size();
      return true;
    }

    case codec::WireType::kNumCopiesQuery:
    case codec::WireType::kEntitiesQuery: {
      const Result<codec::Query> q = codec::decode_query(data);
      if (!q.has_value()) {
        ++stats_.malformed_dropped;
        return true;
      }
      codec::QueryReply reply;
      reply.req_id = q.value().req_id;
      reply.num_copies = static_cast<std::uint32_t>(store_.num_entities(q.value().hash));
      if (q.value().want_entities) reply.entities = store_.entities(q.value().hash);

      std::vector<std::byte> wire;
      codec::encode(reply, wire);
      if (!ok(endpoint_.send_to(dgram.value().sender_port, wire))) {
        log::warn("udp node: reply send failed (port %u)", dgram.value().sender_port);
      }
      ++stats_.queries_answered;
      return true;
    }

    case codec::WireType::kCollectiveQuery: {
      const Result<codec::CollectiveQuery> q = codec::decode_collective_query(data);
      if (!q.has_value() || entity_hosts_.empty()) {
        ++stats_.malformed_dropped;  // no membership -> cannot answer
        return true;
      }
      Bitmap scope(entity_hosts_.size());
      for (std::size_t w = 0; w < q.value().scope_words.size(); ++w) {
        std::uint64_t bits = q.value().scope_words[w];
        while (bits != 0) {
          const auto idx = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          scope.set(idx);
        }
      }
      const dht::ScanPartial p = dht::collective_scan(store_, scope, entity_hosts_,
                                                      q.value().k, q.value().collect_hashes);
      codec::CollectiveReply reply;
      reply.req_id = q.value().req_id;
      reply.total = p.total;
      reply.unique = p.unique;
      reply.intra = p.intra;
      reply.inter = p.inter;
      reply.k_count = p.k_count;
      reply.k_hashes = p.k_hashes;
      std::vector<std::byte> wire;
      codec::encode(reply, wire);
      if (!ok(endpoint_.send_to(dgram.value().sender_port, wire))) {
        log::warn("udp node: collective reply send failed");
      }
      ++stats_.queries_answered;
      return true;
    }

    case codec::WireType::kQueryReply:
    case codec::WireType::kCollectiveReply:
      // A node never expects replies; clients consume them.
      ++stats_.malformed_dropped;
      return true;
  }
  ++stats_.malformed_dropped;
  return true;
}

Status UdpDhtNode::send_update(UdpEndpoint& from, std::uint16_t port,
                               const codec::DhtUpdate& update) {
  std::vector<std::byte> wire;
  codec::encode(update, wire);
  return from.send_to(port, wire);
}

Status UdpDhtNode::send_update_batch(UdpEndpoint& from, std::uint16_t port,
                                     const codec::DhtUpdateBatch& batch) {
  std::vector<std::byte> wire;
  codec::encode(batch, wire);
  return from.send_to(port, wire);
}

template <typename Reply, typename Request>
Result<Reply> UdpDhtNode::round_trip(UdpEndpoint& from, std::uint16_t port, const Request& q,
                                     Result<Reply> (*decode)(std::span<const std::byte>),
                                     int timeout_ms) {
  std::vector<std::byte> wire;
  codec::encode(q, wire);
  const Status s = from.send_to(port, wire);
  if (!ok(s)) return s;

  // Wait for the matching reply; unrelated datagrams are ignored.
  for (int waited = 0; waited <= timeout_ms;) {
    const int slice = std::min(timeout_ms - waited + 1, 50);
    const Result<std::vector<std::byte>> got = from.recv(slice);
    waited += slice;
    if (!got.has_value()) {
      if (got.status() == Status::kTimeout) continue;
      return got.status();
    }
    Result<Reply> reply = decode(got.value());
    if (reply.has_value() && reply.value().req_id == q.req_id) return reply;
  }
  return Status::kTimeout;
}

Result<codec::CollectiveReply> UdpDhtNode::collective_query(UdpEndpoint& from,
                                                            std::uint16_t port,
                                                            const codec::CollectiveQuery& q,
                                                            int timeout_ms) {
  return round_trip(from, port, q, &codec::decode_collective_reply, timeout_ms);
}

Result<codec::QueryReply> UdpDhtNode::query(UdpEndpoint& from, std::uint16_t port,
                                            const codec::Query& q, int timeout_ms) {
  return round_trip(from, port, q, &codec::decode_query_reply, timeout_ms);
}

}  // namespace concord::net
