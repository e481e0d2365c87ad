// Native k-way PROP refinement (paper Sec. 5's k-way direction).
//
// The same speculative pass discipline as the 2-way PROP refiner
// (core/prop_partitioner.h) lifted to k parts: every free node carries a
// probability of moving, gains are the probabilistic per-(net, part)
// products of core/prob_gain.h, nodes are held in ONE ordered container keyed by
// their best move (KWayGainEntry: gain + target part), and each pass
// speculatively moves best-feasible nodes — locking movers, refreshing
// neighbor gains — then rolls back to the prefix with the best exact
// objective improvement.  The exact-prefix acceptance makes every pass
// monotone in the configured objective: the refined partition is never
// worse than the input, so running this after the greedy k-way polish can
// only improve (or match) it.
//
// Balance is a per-part size window (partition/kway_balance.h), shared
// with the greedy refiner and recursive bisection so feasibility cannot
// drift between layers.  Deadline/cancel polling and per-pass telemetry
// match the 2-way refiner's contract.
#pragma once

#include <vector>

#include "core/prop_config.h"
#include "kway/kway_refine.h"  // KWayObjective
#include "partition/kway_balance.h"

namespace prop {

/// The k-way refiner's config: the shared PROP pass fields
/// (core/prop_config.h) plus the objective.
struct KWayPropConfig : PropPassConfig {
  KWayObjective objective = KWayObjective::kConnectivity;
};

struct KWayPropOutcome {
  double cut_cost = 0.0;
  double connectivity_cost = 0.0;
  int passes = 0;
  /// A deadline/cancellation stopped refinement early; the partition is the
  /// best-so-far state (every pass rolls back to its best prefix).
  bool interrupted = false;
};

/// Refines `part` (part ids in [0, k)) in place toward the configured
/// objective, keeping every part inside `window`.  Parts already outside
/// the window are tolerated: nodes only move when source stays >= lo and
/// destination stays <= hi, so imbalance never grows.  Deterministic: equal
/// inputs give equal outputs (no RNG).
KWayPropOutcome kway_prop_refine(const Hypergraph& g,
                                 std::vector<NodeId>& part, NodeId k,
                                 const KWayBalanceWindow& window,
                                 const KWayPropConfig& config);

}  // namespace prop
