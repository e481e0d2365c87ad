#include "multilevel/coarsening.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "hypergraph/contraction.h"

namespace prop {

std::vector<NodeId> attraction_clusters(const Hypergraph& g, Rng& rng,
                                        std::int64_t max_cluster_weight,
                                        std::size_t rating_max_net_size,
                                        NodeId& num_clusters) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> cluster_of(n, kInvalidNode);
  std::vector<std::int64_t> cluster_weight;
  cluster_weight.reserve(n);

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  rng.shuffle(order);

  // Sparse rating accumulator: ratings are strictly positive, so a zero
  // entry doubles as the "not touched yet" flag and `touched` lists exactly
  // the entries to reset afterwards.
  std::vector<double> rating(n, 0.0);
  std::vector<NodeId> touched;

  for (const NodeId u : order) {
    if (cluster_of[u] != kInvalidNode) continue;  // joined by an earlier pick

    touched.clear();
    for (const NetId net : g.nets_of(u)) {
      const std::size_t s = g.net_size(net);
      if (s < 2 || s > rating_max_net_size) continue;
      const double w = g.net_cost(net) / static_cast<double>(s - 1);
      for (const NodeId v : g.pins_of(net)) {
        if (v == u) continue;
        if (rating[v] == 0.0) touched.push_back(v);
        rating[v] += w;
      }
    }

    // Highest-rated neighbor whose cluster can still absorb u; exact-tie
    // break to the smallest node id (ratings accumulate in a fixed order,
    // so the whole selection is deterministic).
    const std::int64_t wu = g.node_size(u);
    NodeId best = kInvalidNode;
    double best_rating = 0.0;
    for (const NodeId v : touched) {
      const NodeId cv = cluster_of[v];
      const std::int64_t combined =
          wu + (cv == kInvalidNode ? g.node_size(v) : cluster_weight[cv]);
      if (combined > max_cluster_weight) continue;
      if (best == kInvalidNode || rating[v] > best_rating ||
          (rating[v] == best_rating && v < best)) {
        best = v;
        best_rating = rating[v];
      }
    }
    for (const NodeId v : touched) rating[v] = 0.0;

    if (best == kInvalidNode) {
      // No joinable neighbor: u opens its own cluster.
      cluster_of[u] = static_cast<NodeId>(cluster_weight.size());
      cluster_weight.push_back(wu);
    } else if (cluster_of[best] == kInvalidNode) {
      // Pair match: u and its best neighbor seed a new cluster.
      const NodeId c = static_cast<NodeId>(cluster_weight.size());
      cluster_of[u] = c;
      cluster_of[best] = c;
      cluster_weight.push_back(wu + g.node_size(best));
    } else {
      const NodeId c = cluster_of[best];
      cluster_of[u] = c;
      cluster_weight[c] += wu;
    }
  }

  num_clusters = static_cast<NodeId>(cluster_weight.size());
  return cluster_of;
}

std::deque<CoarseLevel> coarsen(const Hypergraph& g, std::uint64_t seed,
                                const CoarseningConfig& config,
                                NodeId min_clusters, const RunContext* ctx) {
  const NodeId floor_nodes = std::max(config.coarsest_max_nodes, min_clusters);
  std::deque<CoarseLevel> levels;
  const Hypergraph* current = &g;
  for (int level = 0;
       level < config.max_levels && current->num_nodes() > floor_nodes;
       ++level) {
    if (ctx && ctx->should_stop()) break;
    Rng rng(mix_seed(seed, 0xC0A45EULL, static_cast<std::uint64_t>(level)));
    const std::int64_t max_weight = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               static_cast<double>(current->total_node_size()) *
               config.max_cluster_fraction));
    NodeId num_clusters = 0;
    const std::vector<NodeId> cluster_of =
        attraction_clusters(*current, rng, max_weight,
                            config.rating_max_net_size, num_clusters);
    if (num_clusters < min_clusters ||
        static_cast<double>(num_clusters) >
            config.min_reduction * static_cast<double>(current->num_nodes())) {
      break;  // stalled, or contracting further would drop below the floor
    }
    ContractionResult contracted = contract(*current, cluster_of, num_clusters);
    levels.push_back(CoarseLevel{std::move(contracted.coarse),
                                 std::move(contracted.fine_to_coarse)});
    current = &levels.back().graph;
  }
  return levels;
}

}  // namespace prop
