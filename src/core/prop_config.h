// Configuration of the PROP partitioner (paper Secs. 3 and 4).
#pragma once

#include <cstddef>
#include <limits>

#include "core/probability_model.h"
#include "runtime/run_context.h"
#include "telemetry/telemetry.h"

namespace prop {

/// How initial node probabilities are obtained at the start of a pass
/// (paper Sec. 3: "one of two ways").
enum class PropBootstrap {
  /// Method 1: every node starts at pinit ("blind" assignment).  This is
  /// the setting used for the paper's experiments (pinit = 0.95).
  kUniform,
  /// Method 2: p(u) = f(deterministic FM gain of u) — "reasonable
  /// first-cut probability estimates".
  kDeterministicGain,
};

/// The fields both PROP refiners share: PropConfig (2-way) and
/// KWayPropConfig (kway/kway_prop_refiner.h) add their own on top.
struct PropPassConfig {
  ProbabilityModel model;  ///< defaults are the paper's Table 2/3 settings

  /// Gain/probability fixed-point iterations at pass start ("we have used
  /// 2 iterations in our implementations", Sec. 3).
  int refine_iterations = 2;

  /// Number of top-ranked nodes whose gains are recomputed after every
  /// move ("a few, say, five, of the top ranked nodes", Sec. 3.4); the
  /// 2-way refiner counts them per side.
  int top_update_width = 5;

  int max_passes = 64;

  /// Pass bound for refinement inside a V-cycle.  When nonzero, a pass
  /// ends once stale_move_limit moves have been made since its best
  /// prefix, and the usual rollback to that prefix follows.  0 = off: the
  /// paper's full passes (Fig. 2, steps 6-10), which flat PROP keeps.  Both
  /// V-cycles turn it on through their config defaults
  /// (kVCycleStaleMoveLimit, kVCycleKWayStaleMoveLimit; coarsening.h).
  std::size_t stale_move_limit = 0;

  /// Opt-in per-pass trajectory recording; null records nothing.
  RefineTelemetry* telemetry = nullptr;

  /// Optional runtime context: the move loop polls for deadline expiry /
  /// injected cancellation, stopping mid-pass with the usual best-prefix
  /// rollback.  Null = inert.
  const RunContext* context = nullptr;
};

/// The 2-way refiner's config.  Gains always come from the calculator's
/// cached products (core/prob_gain.h, DESIGN.md §4f), renormalized every
/// ProbGainCalculator::kDefaultRenormInterval updates of a slot.
struct PropConfig : PropPassConfig {
  PropBootstrap bootstrap = PropBootstrap::kUniform;

  /// Debug auditor cadence: every `audit_interval` moves the pass verifies
  /// the exact incremental invariants from scratch — per-(net, side) locked
  /// pin counts, tree keys == gains[], probability bounds, cut cost — and
  /// throws std::logic_error on a mismatch beyond `audit_tolerance`.  The
  /// gap between gains[] and a from-scratch ProbGainCalculator recompute is
  /// *recorded* as PassStats::max_gain_drift, never acted on: it mixes FP
  /// drift with the deliberate staleness of the paper's Sec. 3.4 update
  /// policy, and stale gains only steer selection — a pass accepts the best
  /// prefix of exact immediate gains.  The auditor only reads state, so an
  /// audited run makes the same moves as an unaudited one.  0 = off.
  int audit_interval = 0;
  double audit_tolerance = 1e-6;
};

/// The pass bound of both PROP engines: a pass stops once this many moves
/// follow its best prefix.  A `stale_move_limit` of 0 (off) gives a bound
/// no pass reaches.
inline std::size_t stale_move_bound(std::size_t stale_move_limit) {
  return stale_move_limit == 0 ? std::numeric_limits<std::size_t>::max()
                               : stale_move_limit;
}

}  // namespace prop
