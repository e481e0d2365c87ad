// Direct k-way greedy refinement — improves a k-way partition (typically
// from recursive bisection) by moving nodes between arbitrary parts, the
// paper's Sec. 5 "k-way partitioning" future-work direction.
//
// Each pass visits free nodes in a seeded random order; a node moves to the
// part with the highest positive gain among balance-feasible targets.
// Passes repeat until one yields no improvement.
#pragma once

#include <cstdint>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "partition/kway_state.h"
#include "partition/partitioner.h"

namespace prop {

enum class KWayObjective {
  kCut,           ///< nets spanning >= 2 parts
  kConnectivity,  ///< sum of c(n) * (lambda(n) - 1)
};

struct KWayRefineConfig {
  KWayObjective objective = KWayObjective::kConnectivity;
  /// Per-part size window as fractions of total (defaults: proportional
  /// share +-10%).
  double tolerance = 0.1;
  int max_passes = 16;
};

struct KWayRefineOutcome {
  double cut_cost = 0.0;
  double connectivity_cost = 0.0;
  int passes = 0;
  int moves = 0;
};

/// Refines `part` (k parts) in place.  Deterministic in `seed`.
KWayRefineOutcome kway_refine(const Hypergraph& g, std::vector<NodeId>& part,
                              NodeId k, std::uint64_t seed,
                              const KWayRefineConfig& config = {});

}  // namespace prop
