// Cluster contraction: collapses groups of nodes into super-nodes.
//
// Used by the WINDOW-style clustering partitioner and the multilevel
// V-cycle driver: clusters become nodes of a smaller hypergraph, each net
// maps to the set of clusters it touches.  Nets that fall entirely inside
// one cluster disappear (they can never be cut), and identical parallel
// nets are merged with summed cost, so a partition of the contracted graph
// has exactly the same cut cost as the corresponding flat partition.
//
// Cluster ids that no node maps to are compacted away, so the coarse graph
// has no zero-size phantom nodes and its total node size always equals the
// fine total — the invariant every balance constraint mapped through a
// level hierarchy depends on.
#pragma once

#include <cstdint>
#include <vector>

#include "hypergraph/hypergraph.h"

namespace prop {

struct ContractionResult {
  Hypergraph coarse;
  /// fine node id -> coarse node id.  Equal to the input clustering when
  /// every cluster id in [0, num_clusters) is used; otherwise the empty
  /// cluster ids are compacted away (order-preserving), and this holds the
  /// compacted ids.
  std::vector<NodeId> fine_to_coarse;
};

/// Contracts `g` according to `cluster_of` (one entry per node, cluster ids
/// must be < num_clusters).  Node sizes accumulate exactly into their
/// cluster — total coarse size == total fine size — so balance constraints
/// stay meaningful on the coarse graph.  Cluster ids with no member are
/// removed by compaction, not materialized as phantom nodes.
ContractionResult contract(const Hypergraph& g,
                           const std::vector<NodeId>& cluster_of,
                           NodeId num_clusters);

/// Projects a partition of the coarse graph back to the fine graph: fine
/// node u gets the part (or side) of its coarse node fine_to_coarse[u].
template <typename Part>
std::vector<Part> project_partition(const std::vector<NodeId>& fine_to_coarse,
                                    const std::vector<Part>& coarse) {
  std::vector<Part> fine(fine_to_coarse.size());
  for (std::size_t u = 0; u < fine.size(); ++u) {
    fine[u] = coarse[fine_to_coarse[u]];
  }
  return fine;
}

}  // namespace prop
