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
#include <span>
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

/// The distinct coarse nets of a contraction, in the order contract() adds
/// them (lexicographic by pin sequence): net j has the sorted,
/// deduplicated pins pins[offsets[j] .. offsets[j + 1]) and cost costs[j].
struct MergedNets {
  std::vector<NodeId> pins;
  std::vector<std::size_t> offsets{0};
  std::vector<double> costs;

  std::size_t size() const noexcept { return costs.size(); }
  std::span<const NodeId> pins_of(std::size_t j) const noexcept {
    return {pins.data() + offsets[j], offsets[j + 1] - offsets[j]};
  }
};

/// contract()'s net step: maps every net of `g` through `fine_to_coarse`,
/// drops the nets left inside one coarse node, and merges parallel nets,
/// summing their costs in fine-net order.  `hash_mask` narrows the merge
/// table's hash (all ones in contract()); a narrow mask makes distinct pin
/// sets share a hash and a probe chain, so tests can drive the table's
/// collision path.  The result does not depend on it.
MergedNets merge_nets(const Hypergraph& g,
                      const std::vector<NodeId>& fine_to_coarse,
                      std::uint64_t hash_mask = ~std::uint64_t{0});

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
