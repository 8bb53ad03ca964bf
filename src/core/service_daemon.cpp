#include "core/service_daemon.hpp"

#include "common/log.hpp"

namespace concord::core {

ServiceDaemon::ServiceDaemon(NodeId id, std::uint32_t max_entities, dht::AllocMode alloc_mode,
                             const dht::Placement& placement, net::Fabric& fabric,
                             hash::BlockHasher hasher, mem::DetectMode detect_mode,
                             BatchPolicy batching)
    : id_(id),
      placement_(placement),
      fabric_(fabric),
      store_(max_entities, alloc_mode),
      monitor_(hasher, detect_mode),
      batcher_(id, fabric, batching, &placement) {
  fabric_.register_node(id_, [this](const net::Message& m) { handle_message(m); });
}

void ServiceDaemon::bind_metrics(obs::Registry& registry) {
  const auto node = static_cast<std::int32_t>(raw(id_));
  store_.bind_metrics(registry, node);
  monitor_.bind_metrics(registry, node);
  obs::Counter* old_local = updates_local_;
  obs::Counter* old_remote = updates_remote_;
  obs::Counter* old_unhandled = unhandled_msgs_;
  updates_local_ = &registry.counter("core", "updates_local", node);
  updates_remote_ = &registry.counter("core", "updates_remote", node);
  unhandled_msgs_ = &registry.counter("core", "unhandled_msgs", node);
  if (old_local != nullptr) updates_local_->inc(old_local->value());
  if (old_remote != nullptr) updates_remote_->inc(old_remote->value());
  if (old_unhandled != nullptr) unhandled_msgs_->inc(old_unhandled->value());
  batcher_.bind_metrics(registry, node);
}

void ServiceDaemon::route_update(const mem::ContentUpdate& u) {
  const bool insert = u.op == mem::ContentUpdate::Op::kInsert;
  if (placement_.replication() > 1) {
    // Replica fan-out (DESIGN.md §14): one single-phase write per group
    // member, in deterministic successor order (primary first). No quorum —
    // a member that misses the write is healed by resync or audit, exactly
    // like a lost datagram at R = 1.
    const dht::UpdateRecord rec{u.hash, u.entity, insert};
    for (const NodeId dst : placement_.replicas(u.hash)) {
      if (dst == id_) {
        if (updates_local_ != nullptr) updates_local_->inc();
        if (insert) {
          store_.insert(u.hash, u.entity);
        } else {
          store_.remove(u.hash, u.entity);
        }
      } else {
        if (updates_remote_ != nullptr) updates_remote_->inc();
        route_update_to(dst, rec);
      }
    }
    return;
  }
  const NodeId owner = placement_.owner(u.hash);
  if (owner == id_) {
    // Local shard: apply directly; no network traffic (intra-node updates
    // bypass the NIC in the real system too).
    if (updates_local_ != nullptr) updates_local_->inc();
    if (insert) {
      store_.insert(u.hash, u.entity);
    } else {
      store_.remove(u.hash, u.entity);
    }
    return;
  }
  if (updates_remote_ != nullptr) updates_remote_->inc();
  route_update_to(owner, dht::UpdateRecord{u.hash, u.entity, insert});
}

void ServiceDaemon::route_update_to(NodeId dst, const dht::UpdateRecord& rec) {
  if (batcher_.policy().enabled) {
    batcher_.add(dst, rec);
    return;
  }
  net::Message msg = net::make_message(
      id_, dst, rec.insert ? net::MsgType::kDhtInsert : net::MsgType::kDhtRemove,
      DhtUpdateMsg{rec.hash, rec.entity, rec.insert}, kDhtUpdateBytes);
  if (send_stage_ != nullptr) {
    // Sharded scan epoch: capture the send for the cluster's sequential
    // merge pass (stamped from the ambient context at replay, like a direct
    // send would be).
    send_stage_->push_back(StagedSend{std::move(msg)});
    return;
  }
  fabric_.send_unreliable(std::move(msg));
}

void ServiceDaemon::mark_wiped(std::uint64_t epoch) {
  if (placement_.replication() <= 1) return;
  for (std::uint32_t home = 0; home < placement_.num_nodes(); ++home) {
    if (placement_.is_replica(home, id_)) dirty_shards_[home] = epoch;
  }
}

std::uint64_t ServiceDaemon::compute_grant() const {
  // Grant what the ingress queue can still absorb: half the headroom (so
  // several concurrent senders sharing this owner cannot jointly overrun
  // it), floored at one — a starved sender must always be able to trickle,
  // or the credit loop deadlocks when grants ride on batches that can no
  // longer be sent.
  const std::size_t limit = fabric_.params().ingress_queue_limit;
  if (limit == 0) return 4;  // no bounded queue: steady modest allowance
  const std::size_t depth = fabric_.ingress_depth(id_);
  const std::size_t headroom = depth < limit ? limit - depth : 0;
  return headroom > 1 ? static_cast<std::uint64_t>(headroom / 2) : 1;
}

void ServiceDaemon::apply_staged() {
  for (std::vector<dht::UpdateRecord>& batch : staged_applies_) {
    store_.apply_batch(batch);
  }
  staged_applies_.clear();
}

mem::ScanStats ServiceDaemon::scan_and_publish() {
  mem::ScanStats stats =
      monitor_.scan([this](const mem::ContentUpdate& u) { route_update(u); });
  batcher_.flush_all();  // scan boundary: no record outlives its epoch
  return stats;
}

void ServiceDaemon::publish_departure(EntityId id) {
  const auto* hashes = monitor_.known_hashes(id);
  if (hashes != nullptr) {
    for (const ContentHash& h : *hashes) {
      if (h == ContentHash{}) continue;  // never scanned
      route_update(mem::ContentUpdate{mem::ContentUpdate::Op::kRemove, h, id});
    }
  }
  // Ship the departure removes before ground truth forgets the entity, so a
  // departure is never left sitting in a half-full batch.
  batcher_.flush_all();
  monitor_.detach(id);
}

void ServiceDaemon::handle_message(const net::Message& msg) {
  switch (msg.type) {
    case net::MsgType::kDhtInsert: {
      const auto& u = msg.as<DhtUpdateMsg>();
      if (apply_staging_) {
        staged_applies_.push_back({dht::UpdateRecord{u.hash, u.entity, true}});
        return;
      }
      store_.insert(u.hash, u.entity);
      return;
    }
    case net::MsgType::kDhtRemove: {
      const auto& u = msg.as<DhtUpdateMsg>();
      if (apply_staging_) {
        staged_applies_.push_back({dht::UpdateRecord{u.hash, u.entity, false}});
        return;
      }
      store_.remove(u.hash, u.entity);
      return;
    }
    case net::MsgType::kDhtUpdateBatch: {
      const auto& records = msg.as<DhtUpdateBatchMsg>();
      // A traced batch leaves an apply marker on the owner's trace thread so
      // the flow arrow from the monitor lands on visible work.
      obs::Tracer* tracer = fabric_.tracer();
      if (msg.trace.valid() && tracer != nullptr && tracer->enabled()) {
        const obs::Tracer::SpanId span = tracer->begin_span(
            "apply_batch", "dht", raw(id_), fabric_.sim().now());
        tracer->add_arg(span, "root", msg.trace.root);
        tracer->add_arg(span, "records", records.size());
        tracer->end_span(span, fabric_.sim().now());
      }
      if (apply_staging_) {
        // Epoch-barrier apply: buffer the datagram for the parallel apply
        // pass. The grant below still reads only fabric ingress state, so
        // deferring the store mutation leaves it byte-identical.
        staged_applies_.push_back(records);
      } else {
        store_.apply_batch(records);
      }
      if (credit_grants_ && msg.src != id_) {
        fabric_.send_unreliable(net::make_message(
            id_, msg.src, net::MsgType::kCreditGrant, CreditGrantMsg{compute_grant()},
            kCreditGrantBytes));
      }
      return;
    }
    case net::MsgType::kCreditGrant: {
      batcher_.grant_credits(msg.as<CreditGrantMsg>().credits);
      return;
    }
    case net::MsgType::kReplicaSync: {
      const auto& s = msg.as<ReplicaSyncMsg>();
      if (apply_staging_) {
        if (!s.records.empty()) staged_applies_.push_back(s.records);
      } else if (!s.records.empty()) {
        store_.apply_batch(s.records);
      }
      if (s.last) mark_shard_clean(s.home, s.epoch);
      return;
    }
    default: {
      const auto it = handlers_.find(static_cast<std::uint16_t>(msg.type));
      if (it != handlers_.end()) {
        it->second(*this, msg);
      } else if (net::binding(msg.type).dispatch != net::MsgDispatch::kSink) {
        // Sink types only model wire volume; arriving unhandled is their job.
        if (unhandled_msgs_ != nullptr) unhandled_msgs_->inc();
        log::warn("daemon %u: unhandled message type %u", raw(id_),
                  static_cast<unsigned>(msg.type));
      }
    }
  }
}

}  // namespace concord::core
