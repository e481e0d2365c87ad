#include "la/la_partitioner.h"

#include <cmath>
#include <cstdlib>
#include <vector>

#include "datastruct/gain_vector.h"
#include "datastruct/ordered_gains.h"
#include "la/la_gains.h"
#include "partition/initial.h"
#include "telemetry/invariant_audit.h"
#include "util/rng.h"
#include "util/timer.h"

namespace prop {
namespace {

constexpr double kEps = 1e-9;

using GainTree = OrderedGains<GainVector>;

/// Debug audit (LaConfig::audit_interval): gain vectors are integral, so
/// the incrementally-maintained vectors, the tree keys and the calculator's
/// binding-number counts must all match a from-scratch recompute exactly.
void la_audit(const Partition& part, const LaGainCalculator& calc,
              const std::vector<GainVector>& gains, const GainTree& side0,
              const GainTree& side1, const LaConfig& config,
              PassStats* stats) {
  audit::check_cut(part, config.audit_tolerance);
  calc.audit_consistency();
  audit::DriftTracker drift;
  const NodeId n = part.graph().num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    const GainTree& own = part.side(v) == 0 ? side0 : side1;
    const GainTree& other = part.side(v) == 0 ? side1 : side0;
    if (!calc.is_free(v)) {
      audit::check_node(!side0.contains(v) && !side1.contains(v),
                        "LA: locked node still in a gain tree", v);
      continue;
    }
    audit::check_node(own.contains(v) && !other.contains(v),
                      "LA: free node not in its side's gain tree", v);
    audit::check_node(own.key(v) == gains[v],
                      "LA: tree key out of sync with gains[]", v);
    const GainVector scratch = calc.gain(v);
    for (int level = 1; level <= scratch.levels(); ++level) {
      drift.observe(v, gains[v].at(level), scratch.at(level));
    }
    audit::check_node(gains[v] == scratch,
                      "LA: incremental gain vector != scratch recompute", v);
  }
  if (stats) {
    ++stats->audits;
    if (drift.max_abs > stats->max_gain_drift) {
      stats->max_gain_drift = drift.max_abs;
    }
  }
}

/// One LA-k pass.  Returns the accepted prefix improvement; sets
/// `interrupted` when a deadline/cancellation cut the pass short (the
/// rollback to the best prefix still runs, so the partition stays valid).
double la_pass(Partition& part, const BalanceConstraint& balance,
               const LaConfig& config, LaGainCalculator& calc,
               GainTree& side0, GainTree& side1, PassStats* stats,
               bool& interrupted) {
  const Hypergraph& g = part.graph();
  const NodeId n = g.num_nodes();

  calc.reset();
  side0.clear();
  side1.clear();
  std::vector<GainVector> gains(n);
  for (NodeId u = 0; u < n; ++u) {
    gains[u] = calc.gain(u);
    (part.side(u) == 0 ? side0 : side1).insert(u, gains[u]);
  }
  if (stats) stats->ops.inserts += n;

  // Scratch for per-move delta accumulation.
  std::vector<GainVector> delta(n);
  std::vector<std::uint32_t> touched(n, 0);
  std::uint32_t stamp = 0;
  std::vector<NodeId> affected;

  std::vector<NodeId> moved;
  moved.reserve(n);
  double prefix = 0.0;
  double best_prefix = 0.0;
  std::size_t best_count = 0;

  // With unit node sizes feasibility is uniform per side, so it is checked
  // once instead of walking the tree past every infeasible node.
  const bool unit_sizes = g.unit_node_sizes();
  const auto best_feasible = [&](GainTree& tree, int side) {
    if (tree.empty()) return GainTree::kNull;
    if (unit_sizes) {
      if (!balance.move_feasible(part.side_size(0), side, 1)) {
        return GainTree::kNull;
      }
      return tree.max();
    }
    GainTree::Handle found = GainTree::kNull;
    tree.for_each_descending([&](GainTree::Handle h, const GainVector&) {
      if (balance.move_feasible(part.side_size(0), side, g.node_size(h))) {
        found = h;
        return false;
      }
      return true;
    });
    return found;
  };

  while (true) {
    if (config.context && config.context->refine_should_stop()) {
      interrupted = true;
      break;
    }
    const auto h0 = best_feasible(side0, 0);
    const auto h1 = best_feasible(side1, 1);
    if (h0 == GainTree::kNull && h1 == GainTree::kNull) break;

    NodeId u;
    if (h0 == GainTree::kNull) {
      u = h1;
    } else if (h1 == GainTree::kNull) {
      u = h0;
    } else if (side0.key(h0) != side1.key(h1)) {
      u = side0.key(h0) > side1.key(h1) ? h0 : h1;
    } else {
      u = part.side_size(0) >= part.side_size(1) ? h0 : h1;
    }

    const int from = part.side(u);
    const double immediate = part.immediate_gain(u);
    (from == 0 ? side0 : side1).erase(u);
    if (stats) ++stats->ops.erases;

    // Locking and moving u changes binding numbers only on u's nets; each
    // free pin of those nets gets the before/after delta of that net's O(1)
    // contribution — O(pins of u's nets) per move in total.
    ++stamp;
    affected.clear();
    const auto visit = [&](double sign) {
      for (const NetId net : g.nets_of(u)) {
        for (const NodeId v : g.pins_of(net)) {
          if (v == u || !calc.is_free(v)) continue;
          if (touched[v] != stamp) {
            touched[v] = stamp;
            delta[v] = GainVector(gains[v].levels());
            affected.push_back(v);
          }
          GainVector c = calc.net_contribution(net, v);
          if (sign < 0) {
            delta[v] -= c;
          } else {
            delta[v] += c;
          }
        }
      }
    };
    visit(-1.0);
    calc.lock(u);
    part.move(u);
    calc.move_locked(u, from);
    visit(+1.0);

    for (const NodeId v : affected) {
      if (delta[v].is_zero()) continue;  // contribution unchanged
      gains[v] += delta[v];
      GainTree& tree = part.side(v) == 0 ? side0 : side1;
      if (tree.contains(v)) {
        tree.update(v, gains[v]);
        if (stats) ++stats->ops.updates;
      }
    }

    moved.push_back(u);
    prefix += immediate;
    if (prefix > best_prefix + kEps) {
      best_prefix = prefix;
      best_count = moved.size();
    }

    if (config.audit_interval > 0 &&
        moved.size() % static_cast<std::size_t>(config.audit_interval) == 0) {
      la_audit(part, calc, gains, side0, side1, config, stats);
    }
  }

  for (std::size_t i = moved.size(); i > best_count; --i) {
    part.move(moved[i - 1]);
  }
  if (stats) {
    stats->moves_attempted = moved.size();
    stats->moves_accepted = best_count;
    stats->best_prefix_gain = best_prefix;
  }
  return best_prefix;
}

}  // namespace

RefineOutcome la_refine(Partition& part, const BalanceConstraint& balance,
                        const LaConfig& config) {
  LaGainCalculator calc(part, config.lookahead);
  GainTree side0(part.graph().num_nodes());
  GainTree side1(part.graph().num_nodes());
  RefineOutcome out;
  for (int pass = 0; pass < config.max_passes; ++pass) {
    PassStats* stats = nullptr;
    WallTimer wall;
    ThreadCpuTimer cpu;
    if (config.telemetry) {
      stats = &config.telemetry->begin_pass(part.cut_cost());
    }
    bool interrupted = false;
    const double gained =
        la_pass(part, balance, config, calc, side0, side1, stats, interrupted);
    ++out.passes;
    if (stats) {
      stats->cut_after = part.cut_cost();
      stats->wall_seconds = wall.seconds();
      stats->cpu_seconds = cpu.seconds();
    }
    if (interrupted) {
      out.interrupted = true;
      break;
    }
    if (gained <= kEps) break;
  }
  out.cut_cost = part.cut_cost();
  return out;
}

PartitionResult LaPartitioner::run(const Hypergraph& g,
                                   const BalanceConstraint& balance,
                                   std::uint64_t seed) {
  Rng rng(seed);
  Partition part(g, random_balanced_sides(g, balance, rng));
  const RefineOutcome outcome = la_refine(part, balance, config_);
  PartitionResult result;
  result.side = part.sides();
  result.cut_cost = outcome.cut_cost;
  result.passes = outcome.passes;
  return result;
}

}  // namespace prop
