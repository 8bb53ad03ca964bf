#include "services/reconstruction.hpp"

#include <memory>
#include <unordered_map>
#include <utility>

#include "core/cost_model.hpp"

namespace concord::services {

namespace {
struct BlockPull {
  std::uint64_t req_id;
  ContentHash hash;
  std::shared_ptr<std::vector<std::byte>> data;  // filled by the replier
  bool* success;
};
}  // namespace

Result<EntityId> VmReconstruction::reconstruct(const std::string& se_path,
                                               const std::string& shared_path,
                                               NodeId destination,
                                               ReconstructionStats& stats) {
  sim::Simulation& simu = cluster_.sim();
  const sim::Time t0 = simu.now();
  fs::SimFs& fsys = cluster_.fs();

  const Result<CheckpointHeader> hr = read_header(fsys, se_path);
  if (!hr.has_value()) {
    stats.status = hr.status();
    return hr.status();
  }
  const CheckpointHeader& hdr = hr.value();

  // Walk the checkpoint once to learn the manifest: block -> (hash, record).
  std::vector<BlockRecord> records(hdr.num_blocks);
  std::vector<std::vector<std::byte>> embedded(hdr.num_blocks);
  {
    FileOffset off = kHeaderBytes;
    std::vector<std::byte> content;
    for (std::uint64_t i = 0; i < hdr.num_blocks; ++i) {
      const Result<BlockRecord> rr = read_record(fsys, se_path, hdr.block_size, off, content);
      if (!rr.has_value()) {
        stats.status = rr.status();
        return rr.status();
      }
      records[rr.value().block] = rr.value();
      if (rr.value().kind == RecordKind::kContent) embedded[rr.value().block] = content;
    }
  }

  mem::MemoryEntity& out = cluster_.create_entity(destination, EntityKind::kVirtualMachine,
                                                  hdr.num_blocks, hdr.block_size);
  const hash::BlockHasher& hasher = cluster_.daemon(destination).monitor().hasher();

  // Fetch each *distinct* pointer-record hash once; reuse for every block
  // that needs it.
  std::unordered_map<ContentHash, std::vector<std::byte>> fetched;
  stats.blocks_total = hdr.num_blocks;

  for (BlockIndex b = 0; b < hdr.num_blocks; ++b) {
    const BlockRecord& r = records[b];
    if (r.kind == RecordKind::kContent) {
      out.write_block(b, embedded[b]);
      continue;
    }
    const auto hit = fetched.find(r.hash);
    if (hit != fetched.end()) {
      out.write_block(b, hit->second);
      continue;
    }
    ++stats.distinct_hashes;

    // Prefer a live replica: ask the shard owner who holds the hash, then
    // pull the block from that entity's host, verifying by rehash.
    std::vector<std::byte> block;
    bool got_live = false;
    const NodeId owner = cluster_.placement().owner(r.hash);
    for (const EntityId cand : cluster_.daemon(owner).store().entities(r.hash)) {
      if (!cluster_.registry().alive(cand)) continue;
      const NodeId host = cluster_.registry().host_of(cand);
      const auto* locs = cluster_.daemon(host).block_map().find(r.hash);
      if (locs == nullptr) continue;
      for (const mem::BlockLocation& loc : *locs) {
        if (loc.entity != cand) continue;
        const auto donor = cluster_.entity(loc.entity).block(loc.block);
        simu.run_until(simu.now() +
                       core::CostModel::instance().hash_cost(hasher.algorithm(), donor.size()));
        if (hasher(donor) == r.hash) {
          block.assign(donor.begin(), donor.end());
          got_live = true;
          // Charge the pull as one query round trip to the owner plus the
          // bulk transfer from the replica host.
          cluster_.fabric().send_reliable(net::make_message(
              host, destination, net::MsgType::kData,
              BlockPull{0, r.hash, nullptr, nullptr}, 8 + sizeof(ContentHash) + block.size()));
          stats.wire_bytes += block.size();
        }
        break;
      }
      if (got_live) break;
    }

    if (got_live) {
      ++stats.from_live_replicas;
    } else {
      // Fall back to the shared content file.
      block.resize(hdr.block_size);
      const Status s = fsys.pread(shared_path, r.location, block);
      if (!ok(s)) {
        stats.status = s;
        return s;
      }
      ++stats.from_storage;
    }
    out.write_block(b, block);
    fetched.emplace(r.hash, std::move(block));
  }

  // The kData messages above need a sink; reconstruction only charges them.
  cluster_.daemon(destination)
      .set_handler(net::MsgType::kData, [](core::ServiceDaemon&, const net::Message&) {});
  simu.run();
  stats.latency = simu.now() - t0;
  return out.id();
}

}  // namespace concord::services
