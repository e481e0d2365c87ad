// Attraction coarsening — the level hierarchy shared by both V-cycles
// (multilevel_driver.h for 2-way, multilevel_kway.h for k-way).
//
// Each level clusters the previous one with attraction_clusters() and
// collapses the clusters with contract(), which preserves cut costs
// exactly — the multilevel scheme of Henne et al. (n-Level Hypergraph
// Partitioning) with a whole clustering contracted per level instead of
// one node pair.  The
// hierarchy stops once a level has at most max(coarsest_max_nodes,
// min_clusters) nodes, when coarsening stalls (min_reduction), when one
// more level would drop below min_clusters nodes, or after max_levels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "runtime/run_context.h"
#include "util/rng.h"

namespace prop {

/// The coarsening settings both V-cycle configs embed.
struct CoarseningConfig {
  /// Coarsening stops once the level has at most this many nodes.
  NodeId coarsest_max_nodes = 200;
  /// Hard cap on contraction levels (safety; attraction coarsening roughly
  /// halves the graph per level, so ~log2(n) levels in practice).
  int max_levels = 64;
  /// Coarsening stalls when one level keeps more than this fraction of its
  /// input nodes; the V-cycle then starts from whatever it has.
  double min_reduction = 0.95;
  /// Cluster weight cap as a fraction of total node size.  Keeps coarse
  /// nodes light enough that every fraction-mapped balance window stays
  /// reachable (BalanceConstraint::fraction widens by the max node size).
  double max_cluster_fraction = 1.0 / 32.0;
  /// Nets larger than this are ignored by the attraction rating: a k-pin
  /// net contributes c/(k-1) per pin, so huge nets carry almost no signal
  /// but dominate the rating sweep's cost.
  std::size_t rating_max_net_size = 64;
};

/// The PROP pass bounds the V-cycles set by default (PropConfig and
/// KWayPropConfig::stale_move_limit).  A projected level arrives nearly
/// refined, so a pass's best prefix is short; the pass ends this many moves
/// after it instead of moving every node.  The k-way bound is longer: at
/// 1000, 2 of 30 paired seeds of ML k=8 on industry2 ended with a worse
/// connectivity than with full passes, and at 2000 none did
/// (BENCH_vcycle_passes.json).
inline constexpr std::size_t kVCycleStaleMoveLimit = 1000;
inline constexpr std::size_t kVCycleKWayStaleMoveLimit = 2000;

/// A default PropConfig or KWayPropConfig with a V-cycle pass bound on.
template <class PassConfig>
PassConfig vcycle_pass_config(std::size_t stale_move_limit) {
  PassConfig config;
  config.stale_move_limit = stale_move_limit;
  return config;
}

/// One level of the hierarchy: the coarse graph and the projection map
/// from the next finer level onto it.
struct CoarseLevel {
  Hypergraph graph;
  std::vector<NodeId> fine_to_coarse;
};

/// One coarsening step's clustering: visits nodes in seeded random order;
/// each unassigned node joins (or forms) the cluster of its
/// highest-attraction neighbor, where attraction sums c(n)/(|n|-1) over
/// shared nets of size <= rating_max_net_size, subject to the cluster
/// weight cap.  Returns a dense clustering (every id in [0, num_clusters)
/// has at least one member).  Deterministic in `rng`.
std::vector<NodeId> attraction_clusters(const Hypergraph& g, Rng& rng,
                                        std::int64_t max_cluster_weight,
                                        std::size_t rating_max_net_size,
                                        NodeId& num_clusters);

/// Builds the hierarchy of `g`, finest first (empty = `g` is already small
/// or does not coarsen).  Level i is clustered with an Rng seeded from
/// (seed, 0xC0A45E, i).  `min_clusters` is the number of parts the caller
/// will partition the coarsest graph into (2 or k).  A stop requested
/// through `ctx` ends coarsening early.  Levels live in a deque so
/// references to earlier graphs stay valid.
std::deque<CoarseLevel> coarsen(const Hypergraph& g, std::uint64_t seed,
                                const CoarseningConfig& config,
                                NodeId min_clusters, const RunContext* ctx);

}  // namespace prop
