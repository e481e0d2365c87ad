#include "kway/kway_prop_refiner.h"

#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/prob_gain.h"
#include "core/prop_config.h"
#include "datastruct/gain_sort.h"
#include "datastruct/kway_gain_entry.h"
#include "datastruct/ordered_gains.h"
#include "partition/kway_state.h"
#include "runtime/run_context.h"
#include "telemetry/telemetry.h"
#include "util/timer.h"

namespace prop {
namespace {

// Same thresholds as the 2-way pass engine (core/prop_partitioner.cpp):
// a pass must improve the exact objective by more than kEps to continue,
// and a recomputed gain within kGainEps of the stored one skips the tree
// reposition.
constexpr double kEps = 1e-9;
constexpr double kGainEps = 1e-12;

using GainTree = OrderedGains<KWayGainEntry, KWayGainEntryLess>;

struct MoveRecord {
  NodeId node;
  NodeId from;
};

class PassEngine {
 public:
  PassEngine(const Hypergraph& g, KWayState& state,
             const KWayBalanceWindow& window, const KWayPropConfig& config)
      : g_(g),
        state_(state),
        window_(window),
        config_(config),
        // Every pass starts with reset_uniform() (bootstrap_probabilities).
        calc_(state, ProbGainCalculator::DeferReset{}),
        tree_(g.num_nodes()),
        gains_(g.num_nodes()),
        target_gains_(state.k()),
        stamp_(g.num_nodes(), 0),
        radix_scratch_(g.num_nodes()) {
    moved_.reserve(g.num_nodes());
    sort_scratch_.reserve(g.num_nodes());
    top_scratch_.reserve(
        config.top_update_width > 0
            ? static_cast<std::size_t>(config.top_update_width)
            : 0);
  }

  bool interrupted() const noexcept { return interrupted_; }

  double objective_cost() const noexcept {
    return config_.objective == KWayObjective::kCut
               ? state_.cut_cost()
               : state_.connectivity_cost();
  }

  /// One speculative pass; returns the accepted exact-objective improvement
  /// (the best prefix, everything past it rolled back).
  double run_pass(PassStats* stats) {
    bootstrap_probabilities();
    load_tree(stats);

    moved_.clear();
    double prefix = 0.0;
    double best_prefix = 0.0;
    std::size_t best_count = 0;
    const std::size_t stale_bound = stale_move_bound(config_.stale_move_limit);
    const RunContext* ctx = config_.context;

    for (;;) {
      if (ctx && ctx->refine_should_stop()) {
        interrupted_ = true;
        break;
      }
      NodeId pick = kInvalidNode;
      NodeId pick_to = 0;
      tree_.for_each_descending([&](GainTree::Handle h,
                                    const KWayGainEntry& e) {
        const NodeId u = h;
        const NodeId from = state_.part(u);
        const std::int64_t sz = g_.node_size(u);
        if (state_.part_size(from) - sz < window_.lo) return true;
        NodeId to = e.target;
        if (to == from || state_.part_size(to) + sz > window_.hi) {
          // The stored best target went infeasible since the entry was
          // refreshed — fall back to the best feasible one, live.
          to = best_feasible_target(u, from, sz);
          if (to == from) return true;  // no feasible destination
        }
        pick = u;
        pick_to = to;
        return false;
      });
      if (pick == kInvalidNode) break;

      const NodeId from = state_.part(pick);
      const double immediate = objective_gain(pick, pick_to);
      tree_.erase(pick);
      if (stats) ++stats->ops.erases;
      calc_.lock(pick);
      state_.move(pick, pick_to);
      calc_.move_locked(pick, from);
      moved_.push_back({pick, from});
      prefix += immediate;
      if (prefix > best_prefix + kEps) {
        best_prefix = prefix;
        best_count = moved_.size();
      }
      if (stats) ++stats->moves_attempted;
      if (moved_.size() - best_count >= stale_bound) break;
      refresh_neighbors(pick, stats);
      refresh_top(stats);
    }

    // Roll back everything past the best exact-gain prefix, newest first.
    for (std::size_t i = moved_.size(); i > best_count; --i) {
      state_.move(moved_[i - 1].node, moved_[i - 1].from);
    }
    if (stats) {
      stats->moves_accepted = best_count;
      stats->best_prefix_gain = best_prefix;
    }
    return best_prefix;
  }

 private:
  double objective_gain(NodeId u, NodeId to) const {
    return config_.objective == KWayObjective::kCut
               ? state_.cut_gain(u, to)
               : state_.connectivity_gain(u, to);
  }

  /// Best probabilistic move of u: max gain over the k - 1 targets, lowest
  /// part id winning ties (deterministic).  Feasibility is NOT checked here
  /// — the selection walk re-checks it and falls back live.  One gains()
  /// walk over u's nets serves all targets.
  KWayGainEntry best_entry(NodeId u) {
    calc_.gains(u, target_gains_.data());
    return best_of_targets(u);
  }

  /// The best_entry choice over the gains already in target_gains_.
  KWayGainEntry best_of_targets(NodeId u) const {
    const NodeId from = state_.part(u);
    KWayGainEntry e{0.0, from};
    bool first = true;
    for (NodeId to = 0; to < state_.k(); ++to) {
      if (to == from) continue;
      const double gain = target_gains_[to];
      if (first || gain > e.gain + kGainEps) {
        e.gain = gain;
        e.target = to;
        first = false;
      }
    }
    return e;
  }

  NodeId best_feasible_target(NodeId u, NodeId from, std::int64_t sz) {
    calc_.gains(u, target_gains_.data());
    NodeId best = from;
    double best_gain = 0.0;
    for (NodeId to = 0; to < state_.k(); ++to) {
      if (to == from || state_.part_size(to) + sz > window_.hi) continue;
      const double gain = target_gains_[to];
      if (best == from || gain > best_gain + kGainEps) {
        best = to;
        best_gain = gain;
      }
    }
    return best;
  }

  /// Pass start: every node at pinit, then `refine_iterations` Jacobi-style
  /// refinement sweeps (Sec. 3.3): gains against the current probabilities
  /// first, then all probabilities rewritten — so the sweep is
  /// order-independent and ulps don't feed back mid-sweep.  The pass starts
  /// in closed form (reset_uniform; kway_prop_refine validated the model, so
  /// pinit >= pmin > 0), and the first sweep reads the uniform-state gains
  /// from pin counts (uniform_gains), so gain and new probability of a node
  /// come from one loop with the same set_probability calls in the same
  /// order (DESIGN.md §4f).
  void bootstrap_probabilities() {
    const NodeId nodes = g_.num_nodes();
    calc_.reset_uniform(config_.model.pinit);
    for (int it = 0; it < config_.refine_iterations; ++it) {
      if (it == 0) {
        for (NodeId u = 0; u < nodes; ++u) {
          calc_.uniform_gains(u, target_gains_.data());
          gains_[u] = best_of_targets(u).gain;
          calc_.set_probability(u, config_.model.from_gain(gains_[u]));
        }
        continue;
      }
      for (NodeId u = 0; u < nodes; ++u) {
        gains_[u] = best_entry(u).gain;
      }
      for (NodeId u = 0; u < nodes; ++u) {
        calc_.set_probability(u, config_.model.from_gain(gains_[u]));
      }
    }
  }

  void load_tree(PassStats* stats) {
    sort_scratch_.clear();
    const NodeId nodes = g_.num_nodes();
    for (NodeId u = 0; u < nodes; ++u) {
      sort_scratch_.emplace_back(best_entry(u), u);
    }
    // Staged in node order and sorted stably by gain, so ascending by
    // (gain, node): equal gains keep node order, which fixes the
    // container's LIFO tie order deterministically.
    stable_sort_by_gain(
        std::span(sort_scratch_), std::span(radix_scratch_),
        [](const std::pair<KWayGainEntry, GainTree::Handle>& item) {
          return item.first.gain;
        });
    tree_.assign_sorted(sort_scratch_.data(),
                        static_cast<std::uint32_t>(sort_scratch_.size()));
    if (stats) stats->ops.inserts += nodes;
  }

  /// Re-evaluates every free pin of every net of the mover once (stamp
  /// de-dup), repositioning its tree entry and rewriting its probability
  /// when the best gain moved by more than kGainEps.
  void refresh_neighbors(NodeId mover, PassStats* stats) {
    ++stamp_value_;
    for (const NetId n : g_.nets_of(mover)) {
      for (const NodeId v : g_.pins_of(n)) {
        if (!calc_.is_free(v) || stamp_[v] == stamp_value_) continue;
        stamp_[v] = stamp_value_;
        if (!tree_.contains(v)) continue;
        const KWayGainEntry e = best_entry(v);
        const KWayGainEntry& old = tree_.key(v);
        const bool gain_moved = std::abs(e.gain - old.gain) > kGainEps;
        if (gain_moved || e.target != old.target) {
          tree_.update(v, e);
          if (stats) ++stats->ops.updates;
        }
        if (gain_moved) {
          calc_.set_probability(v, config_.model.from_gain(e.gain));
        }
      }
    }
  }

  /// Re-verifies the top entries of the tree (Sec. 3.4's bounded update):
  /// stale maxima would otherwise steer selection with outdated gains.
  void refresh_top(PassStats* stats) {
    if (config_.top_update_width <= 0 || tree_.empty()) return;
    top_scratch_.clear();
    int budget = config_.top_update_width;
    tree_.for_each_descending(
        [&](GainTree::Handle h, const KWayGainEntry&) {
          top_scratch_.push_back(h);
          return --budget > 0;
        });
    for (const GainTree::Handle h : top_scratch_) {
      const KWayGainEntry e = best_entry(h);
      const KWayGainEntry& old = tree_.key(h);
      if (std::abs(e.gain - old.gain) <= kGainEps && e.target == old.target) {
        if (stats) ++stats->refresh_skips;
        continue;
      }
      tree_.update(h, e);
      if (stats) ++stats->ops.updates;
    }
  }

  const Hypergraph& g_;
  KWayState& state_;
  const KWayBalanceWindow& window_;
  const KWayPropConfig& config_;
  ProbGainCalculator calc_;
  GainTree tree_;
  std::vector<double> gains_;
  std::vector<double> target_gains_;  // gains() output, one slot per part
  std::vector<std::uint32_t> stamp_;
  std::uint32_t stamp_value_ = 0;
  std::vector<MoveRecord> moved_;
  std::vector<std::pair<KWayGainEntry, GainTree::Handle>> sort_scratch_;
  std::vector<std::pair<KWayGainEntry, GainTree::Handle>> radix_scratch_;
  std::vector<GainTree::Handle> top_scratch_;
  bool interrupted_ = false;
};

}  // namespace

KWayPropOutcome kway_prop_refine(const Hypergraph& g,
                                 std::vector<NodeId>& part, NodeId k,
                                 const KWayBalanceWindow& window,
                                 const KWayPropConfig& config) {
  if (k < 2) {
    throw std::invalid_argument("kway_prop_refine: k must be >= 2");
  }
  config.model.validate();
  KWayState state(g, part, k);
  PassEngine engine(g, state, window, config);

  KWayPropOutcome out;
  for (int pass = 0; pass < config.max_passes; ++pass) {
    const double before = engine.objective_cost();
    PassStats* stats =
        config.telemetry ? &config.telemetry->begin_pass(before) : nullptr;
    WallTimer wall;
    ThreadCpuTimer cpu;
    const double gained = engine.run_pass(stats);
    ++out.passes;
    if (stats) {
      stats->cut_after = engine.objective_cost();
      stats->wall_seconds = wall.seconds();
      stats->cpu_seconds = cpu.seconds();
    }
    if (engine.interrupted()) {
      out.interrupted = true;
      break;
    }
    if (gained <= kEps) break;
  }
  part = state.parts();
  out.cut_cost = state.cut_cost();
  out.connectivity_cost = state.connectivity_cost();
  return out;
}

}  // namespace prop
