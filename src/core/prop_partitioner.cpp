#include "core/prop_partitioner.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "datastruct/gain_sort.h"
#include "partition/initial.h"
#include "telemetry/invariant_audit.h"
#include "util/rng.h"
#include "util/timer.h"

namespace prop {
namespace {

constexpr double kEps = 1e-9;

/// Probabilistic gains are products/sums of doubles, so exact comparisons
/// essentially never fire; anything within this absolute tolerance is
/// treated as equal (selection ties) or as unchanged (delta application,
/// refresh-node tree updates).
constexpr double kGainEps = 1e-12;

}  // namespace

PropRefiner::PropRefiner(Partition& part, const BalanceConstraint& balance,
                         const PropConfig& config)
    : part_(&part),
      balance_(&balance),
      config_(&config),
      state_(part),
      // Every pass starts with reset() or reset_uniform()
      // (bootstrap_probabilities).
      calc_(state_, ProbGainCalculator::DeferReset{}),
      side0_(part.graph().num_nodes()),
      side1_(part.graph().num_nodes()),
      gains_(part.graph().num_nodes(), 0.0),
      delta_(part.graph().num_nodes(), 0.0),
      to_refresh_(),
      visit_stamp_(part.graph().num_nodes(), 0) {
  const Hypergraph& g = part.graph();
  staged_.reserve(g.num_nodes());
  radix_scratch_.reserve(g.num_nodes());
  moved_.reserve(g.num_nodes());
  to_refresh_.reserve(g.num_nodes());
  if (!g.unit_node_sizes()) {
    by_size_.resize(g.num_nodes());
    std::iota(by_size_.begin(), by_size_.end(), NodeId{0});
    std::sort(by_size_.begin(), by_size_.end(), [&](NodeId a, NodeId b) {
      return g.node_size(a) != g.node_size(b) ? g.node_size(a) < g.node_size(b)
                                              : a < b;
    });
  }
}

/// Steps 3-4 of Fig. 2: bootstrap probabilities, then iterate
/// gains -> probabilities `refine_iterations` times.  Leaves gains_ filled
/// with the final probabilistic gains.  The uniform start is closed-form
/// (DESIGN.md §4f): reset_uniform sets every product at once, and the
/// first iteration's gains come from pin counts (uniform_gains), so one
/// loop computes each node's gain and new probability, in the
/// set_probability order two sweeps would use.  The deterministic-gain
/// bootstrap keeps reset() plus a sweep.
void PropRefiner::bootstrap_probabilities() {
  const PropConfig& config = *config_;
  const NodeId n = state_.graph().num_nodes();
  const bool closed_form = config.bootstrap == PropBootstrap::kUniform &&
                           config.model.pinit > 0.0;
  if (closed_form) {
    calc_.reset_uniform(config.model.pinit);
  } else {
    calc_.reset();
    for (NodeId u = 0; u < n; ++u) {
      const double p =
          config.bootstrap == PropBootstrap::kUniform
              ? config.model.pinit
              : config.model.from_gain(
                    state_.cut_gain(u, 1 - state_.part(u)));
      calc_.set_probability(u, p);
    }
  }
  for (int iter = 0; iter < config.refine_iterations; ++iter) {
    if (iter == 0 && closed_form) {
      double out[2];
      for (NodeId u = 0; u < n; ++u) {
        calc_.uniform_gains(u, out);
        gains_[u] = out[1 - state_.part(u)];
        calc_.set_probability(u, config.model.from_gain(gains_[u]));
      }
      continue;
    }
    // Gains from the current probability snapshot, then probabilities from
    // those gains.
    for (NodeId u = 0; u < n; ++u) gains_[u] = gain_of(u);
    for (NodeId u = 0; u < n; ++u) {
      calc_.set_probability(u, config.model.from_gain(gains_[u]));
    }
  }
}

/// Recomputes gain and probability of one free node from scratch at the
/// current probability state.  When the recomputed gain matches the stored
/// gains_[v] within kGainEps, the node's container position and probability
/// are already right — skip the remove/reinsert churn entirely (counted as
/// a refresh_skip in telemetry).
void PropRefiner::refresh_node(NodeId v, PassStats* stats) {
  const double g = gain_of(v);
  if (std::abs(g - gains_[v]) <= kGainEps) {
    if (stats) ++stats->refresh_skips;
    return;
  }
  gains_[v] = g;
  GainTree& tree = tree_of(v);
  if (tree.contains(v)) {
    tree.update(v, g);
    if (stats) ++stats->ops.updates;
  }
  calc_.set_probability(v, config_->model.from_gain(g));
}

/// Debug audit (PropConfig::audit_interval): asserts the exact incremental
/// invariants — locked-pin counts, cached products vs the scratch oracle,
/// probability bounds, each side container's own structure
/// (check_invariants), container membership and keys vs gains_,
/// incremental cut cost — and records the gap between gains_ and a
/// from-scratch recompute as telemetry drift.  The gap is not asserted:
/// gains_ is stale w.r.t. later probability updates of neighboring nodes
/// *by design* (the paper's Sec. 3.4 update policy).  Reads state only.
void PropRefiner::audit(PassStats* stats) const {
  const PropConfig& config = *config_;
  audit::check_cut(state_, config.audit_tolerance);
  calc_.audit_consistency();
  audit::check(side0_.check_invariants() && side1_.check_invariants(),
               "PROP: gain container structure invalid");
  audit::DriftTracker drift;
  const NodeId n = state_.graph().num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    const GainTree& own = state_.part(v) == 0 ? side0_ : side1_;
    const GainTree& other = state_.part(v) == 0 ? side1_ : side0_;
    if (!calc_.is_free(v)) {
      audit::check_node(!side0_.contains(v) && !side1_.contains(v),
                        "PROP: locked node still in a gain tree", v);
      continue;
    }
    audit::check_node(own.contains(v) && !other.contains(v),
                      "PROP: free node not in its side's gain tree", v);
    audit::check_node(own.key(v) == gains_[v],
                      "PROP: tree key out of sync with gains[]", v);
    drift.observe(v, gains_[v], gain_of(v));
  }
  if (stats) {
    ++stats->audits;
    if (drift.max_abs > stats->max_gain_drift) {
      stats->max_gain_drift = drift.max_abs;
    }
  }
}

double PropRefiner::run_pass(PassStats* stats) {
  KWayState& state = state_;
  const PropConfig& config = *config_;
  const Hypergraph& g = state.graph();
  const NodeId n = g.num_nodes();

  bootstrap_probabilities();

  // Bulk-load the gain containers, one side at a time: stage (gain, node)
  // in node order, sort stably by gain (so ascending by (gain, node)),
  // copy into blocks in O(n).  Equal gains end up in node order — the same
  // LIFO recency order the old insert-each-node loop produced — so the
  // containers are observationally identical to incremental construction,
  // just cheaper.  Both buffers are reserved for n items and touched only
  // up to the larger side, so this path stays allocation-free across
  // passes.
  for (NodeId s = 0; s < 2; ++s) {
    staged_.clear();
    for (NodeId u = 0; u < n; ++u) {
      if (state.part(u) == s) staged_.emplace_back(gains_[u], u);
    }
    radix_scratch_.resize(staged_.size());
    stable_sort_by_gain(std::span(staged_), std::span(radix_scratch_),
                        [](const std::pair<double, NodeId>& item) {
                          return item.first;
                        });
    (s == 0 ? side0_ : side1_)
        .assign_sorted(staged_.data(),
                       static_cast<std::uint32_t>(staged_.size()));
  }
  if (stats) stats->ops.inserts += n;

  moved_.clear();
  double prefix = 0.0;
  double best_prefix = 0.0;
  std::size_t best_count = 0;
  const std::size_t stale_bound = stale_move_bound(config.stale_move_limit);

  // With unit node sizes feasibility is uniform per side, so it is checked
  // once instead of walking the tree past every infeasible node.  With
  // non-unit sizes a move out of side 0 needs size <= s0 - lo and one out
  // of side 1 size <= hi - s0; when even the side's smallest free node is
  // larger, no node is feasible and the walk is skipped.  Free nodes never
  // change side during a pass, so a cursor per side over the refiner's
  // size order, past every node that is locked or on the other side, gives
  // that minimum in amortized O(1).
  const bool unit_sizes = g.unit_node_sizes();
  const BalanceConstraint& balance = *balance_;
  std::size_t size_cursor[2] = {0, 0};
  const auto best_feasible = [&](GainTree& tree, int side) {
    if (tree.empty()) return GainTree::kNull;
    if (unit_sizes) {
      if (!balance.move_feasible(state.part_size(0), side, 1)) {
        return GainTree::kNull;
      }
      return tree.max();
    }
    // The tree is non-empty, so the side still has a free node.
    std::size_t& cursor = size_cursor[side];
    while (!calc_.is_free(by_size_[cursor]) ||
           state.part(by_size_[cursor]) != static_cast<NodeId>(side)) {
      ++cursor;
    }
    const NodeId smallest = by_size_[cursor];
    const std::int64_t s0 = state.part_size(0);
    const std::int64_t room = side == 0 ? s0 - balance.lo() : balance.hi() - s0;
    if (g.node_size(smallest) > room) return GainTree::kNull;
    GainTree::Handle found = GainTree::kNull;
    tree.for_each_descending([&](GainTree::Handle h, double) {
      if (balance.move_feasible(state.part_size(0), side, g.node_size(h))) {
        found = h;
        return false;
      }
      return true;
    });
    return found;
  };

  // The visit-stamp epoch survives across passes (visit_stamp_ is reused,
  // not reallocated); rewind it before it can wrap around (at most one
  // stamp per move, at most n moves per pass).
  if (stamp_ >= static_cast<std::uint32_t>(-1) - n - 1) {
    std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0);
    stamp_ = 0;
  }

  while (true) {
    if (config.context && config.context->refine_should_stop()) {
      interrupted_ = true;
      break;
    }
    // Step 6: best-gain node in either subset whose move keeps balance.
    const auto h0 = side0_.empty() ? GainTree::kNull : best_feasible(side0_, 0);
    const auto h1 = side1_.empty() ? GainTree::kNull : best_feasible(side1_, 1);
    if (h0 == GainTree::kNull && h1 == GainTree::kNull) break;

    NodeId u;
    if (h0 == GainTree::kNull) {
      u = h1;
    } else if (h1 == GainTree::kNull) {
      u = h0;
    } else if (std::abs(side0_.key(h0) - side1_.key(h1)) > kGainEps) {
      u = side0_.key(h0) > side1_.key(h1) ? h0 : h1;
    } else {
      // Gain tie (within FP tolerance — an exact comparison of probability
      // products never ties): move from the heavier side, mirroring FM.
      u = state.part_size(0) >= state.part_size(1) ? h0 : h1;
    }

    // Step 7: the recorded prefix uses the *immediate* deterministic gain.
    const NodeId from = state.part(u);
    const double immediate = state.cut_gain(u, 1 - from);
    tree_of(u).erase(u);
    if (stats) ++stats->ops.erases;

    // Step 8 / Sec. 3.4: after moving u, the removal probabilities of u's
    // nets change, so every free pin of those nets gets the before/after
    // delta of that net's gain contribution — O(pins of u's nets) per move.
    ++stamp_;
    to_refresh_.clear();
    const auto visit = [&](double sign) {
      for (const NetId net : g.nets_of(u)) {
        calc_.for_each_net_gain(net, [&](NodeId v, NodeId, double gv) {
          if (v == u) return;
          if (visit_stamp_[v] != stamp_) {
            visit_stamp_[v] = stamp_;
            delta_[v] = 0.0;
            to_refresh_.push_back(v);
          }
          delta_[v] += sign * gv;
        });
      }
    };
    visit(-1.0);
    calc_.lock(u);
    state.move(u, 1 - from);
    calc_.move_locked(u, from);

    // Record the prefix; a bounded pass (stale_move_limit) ends here, before
    // the neighbour refresh its last move would not use.
    moved_.push_back(u);
    prefix += immediate;
    if (prefix > best_prefix + kEps) {
      best_prefix = prefix;
      best_count = moved_.size();
    }
    if (moved_.size() - best_count >= stale_bound) break;

    visit(+1.0);

    for (const NodeId v : to_refresh_) {
      // An exact == 0.0 test never fires once real contributions cancel:
      // the -old/+new accumulation leaves FP residue.  Treat residue-sized
      // deltas as "contribution unchanged" so they neither trigger tree
      // updates nor seep into gains[].
      if (std::abs(delta_[v]) <= kGainEps) continue;
      gains_[v] += delta_[v];
      GainTree& tree = tree_of(v);
      if (tree.contains(v)) {
        tree.update(v, gains_[v]);
        if (stats) ++stats->ops.updates;
      }
      calc_.set_probability(v, config.model.from_gain(gains_[v]));
    }

    for (GainTree* tree : {&side0_, &side1_}) {
      if (config.top_update_width <= 0) break;
      to_refresh_.clear();
      int budget = config.top_update_width;
      tree->for_each_descending([&](GainTree::Handle h, double) {
        to_refresh_.push_back(h);
        return --budget > 0;
      });
      for (const NodeId v : to_refresh_) {
        refresh_node(v, stats);
      }
    }

    if (config.audit_interval > 0 &&
        moved_.size() % static_cast<std::size_t>(config.audit_interval) == 0) {
      audit(stats);
    }
  }

  // Step 10: keep only the maximum-prefix moves — roll the speculative
  // state back past them, and apply just them to the caller's partition.
  for (std::size_t i = moved_.size(); i > best_count; --i) {
    const NodeId v = moved_[i - 1];
    state.move(v, 1 - state.part(v));
  }
  for (std::size_t i = 0; i < best_count; ++i) part_->move(moved_[i]);
  if (stats) {
    stats->moves_attempted = moved_.size();
    stats->moves_accepted = best_count;
    stats->best_prefix_gain = best_prefix;
  }
  return best_prefix;
}

RefineOutcome prop_refine(Partition& part, const BalanceConstraint& balance,
                          const PropConfig& config) {
  config.model.validate();
  PropRefiner refiner(part, balance, config);
  RefineOutcome out;
  for (int pass = 0; pass < config.max_passes; ++pass) {
    PassStats* stats = nullptr;
    WallTimer wall;
    ThreadCpuTimer cpu;
    if (config.telemetry) {
      stats = &config.telemetry->begin_pass(part.cut_cost());
    }
    const double gained = refiner.run_pass(stats);
    ++out.passes;
    if (stats) {
      stats->cut_after = part.cut_cost();
      stats->wall_seconds = wall.seconds();
      stats->cpu_seconds = cpu.seconds();
    }
    if (refiner.interrupted()) {
      out.interrupted = true;
      break;
    }
    if (gained <= kEps) break;
  }
  out.cut_cost = part.cut_cost();
  return out;
}

PartitionResult PropPartitioner::run(const Hypergraph& g,
                                     const BalanceConstraint& balance,
                                     std::uint64_t seed) {
  Rng rng(seed);
  Partition part(g, random_balanced_sides(g, balance, rng));
  const RefineOutcome outcome = prop_refine(part, balance, config_);
  PartitionResult result;
  result.side = part.sides();
  result.cut_cost = outcome.cut_cost;
  result.passes = outcome.passes;
  return result;
}

}  // namespace prop
