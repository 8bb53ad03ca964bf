// Figure 8: latency of node-wise queries as a function of the number of
// unique hashes in the answering node's store.
//
// Paper: end-to-end query latency is dominated by the network (essentially
// a ping), while the compute time at the answering node is a hash-table
// lookup plus bitmap scan — hundreds of ns — and both are flat in the store
// size. We preload one node's shard and issue num_copies()/entities()
// queries from another node; end-to-end latency is virtual time over the
// emulated fabric. The compute time the clock charges is modeled (one
// callback plus one entry, core/cost_model.hpp), so it is flat by
// construction; the measured columns time the same store lookups on the host
// to show the flatness holds for the real hash table too.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.hpp"
#include "query/queries.hpp"

using namespace concord;

namespace {

constexpr std::uint32_t kEntities = 64;
constexpr int kQueriesPerPoint = 200;

struct Row {
  std::uint64_t hashes;
  double entities_query_us, num_copies_query_us;
  double modeled_compute_ns;
  double entities_lookup_ns, num_copies_lookup_ns;  // measured on the host
};

Row run(std::uint64_t hashes) {
  core::ClusterParams p;
  p.num_nodes = 2;
  p.max_entities = kEntities;
  p.single_node_dht = true;  // everything on node 0, queried from node 1
  p.seed = 5;
  auto cluster = std::make_unique<core::Cluster>(p);
  for (std::uint32_t i = 0; i < kEntities; ++i) {
    (void)cluster->registry().register_entity(node_id(i % 2), EntityKind::kProcess);
  }
  dht::DhtStore& store = cluster->daemon(node_id(0)).store();
  for (std::uint64_t i = 0; i < hashes; ++i) {
    store.insert(bench::synth_hash(i), entity_id(static_cast<std::uint32_t>(i % kEntities)));
  }

  query::QueryEngine q(*cluster);
  Row r{hashes, 0, 0, 0, 0, 0};
  for (int i = 0; i < kQueriesPerPoint; ++i) {
    const ContentHash h =
        bench::synth_hash(cluster->sim().rng().below(hashes));
    const query::NodewiseAnswer en = q.entities(node_id(1), h);
    r.entities_query_us += bench::to_us(en.latency);
    r.modeled_compute_ns += static_cast<double>(en.compute_time);
    const query::NodewiseAnswer nc = q.num_copies(node_id(1), h);
    r.num_copies_query_us += bench::to_us(nc.latency);
    r.entities_lookup_ns += static_cast<double>(
        bench::wall_ns([&] { benchmark::DoNotOptimize(store.entities(h)); }));
    r.num_copies_lookup_ns += static_cast<double>(
        bench::wall_ns([&] { benchmark::DoNotOptimize(store.num_entities(h)); }));
  }
  r.entities_query_us /= kQueriesPerPoint;
  r.num_copies_query_us /= kQueriesPerPoint;
  r.modeled_compute_ns /= kQueriesPerPoint;
  r.entities_lookup_ns /= kQueriesPerPoint;
  r.num_copies_lookup_ns /= kQueriesPerPoint;
  return r;
}

}  // namespace

int main() {
  bench::banner(
      "Figure 8 — node-wise query latency vs unique hashes in the local store",
      "latency is dominated by communication (a ping); compute time is a lookup, "
      "flat in store size",
      "store swept to 8M hashes (paper: 60M); 200 queries per point; emulated-fabric "
      "RTT ~100-200 us");

  std::printf("%12s %18s %20s %20s %21s %23s\n", "hashes", "entities query us",
              "num_copies query us", "modeled compute ns", "entities lookup ns*",
              "num_copies lookup ns*");
  for (const std::uint64_t hashes :
       {std::uint64_t{250000}, std::uint64_t{500000}, std::uint64_t{1000000},
        std::uint64_t{2000000}, std::uint64_t{4000000}, std::uint64_t{8000000}}) {
    const Row r = run(hashes);
    std::printf("%12llu %18.1f %20.1f %20.1f %21.1f %23.1f\n",
                static_cast<unsigned long long>(r.hashes), r.entities_query_us,
                r.num_copies_query_us, r.modeled_compute_ns, r.entities_lookup_ns,
                r.num_copies_lookup_ns);
  }
  std::printf("  * host wall clock per store lookup, includes the clock read itself\n");
  return 0;
}
