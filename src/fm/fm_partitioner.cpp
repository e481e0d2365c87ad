#include "fm/fm_partitioner.h"

#include <cmath>
#include <vector>

#include "datastruct/bucket_list.h"
#include "datastruct/ordered_gains.h"
#include "fm/fm_gains.h"
#include "partition/initial.h"
#include "telemetry/invariant_audit.h"
#include "util/timer.h"

namespace prop {
namespace {

constexpr double kEps = 1e-9;

/// Bucket-array gain container (unit net costs: gains are integers).
class BucketContainer {
 public:
  using Handle = BucketList::Handle;
  static constexpr Handle kNull = BucketList::kNull;

  BucketContainer(Handle capacity, int max_gain) : list_(capacity, max_gain) {}

  void clear() { list_.clear(); }
  bool empty() const { return list_.empty(); }
  double gain(Handle h) const { return list_.gain(h); }
  bool contains(Handle h) const { return list_.contains(h); }
  void insert(Handle h, double g) {
    list_.insert(h, static_cast<int>(std::llround(g)));
  }
  void erase(Handle h) { list_.erase(h); }
  void update(Handle h, double g) {
    list_.update(h, static_cast<int>(std::llround(g)));
  }
  // Non-const like the underlying BucketList: selection tightens the lazy
  // max-gain cursor.
  Handle best() { return list_.best(); }
  template <typename Pred>
  Handle best_where(Pred&& pred) {
    return list_.best_where(pred);
  }

 private:
  BucketList list_;
};

/// Ordered gain container (general net costs).
class TreeContainer {
 public:
  using Tree = OrderedGains<double>;
  using Handle = Tree::Handle;
  static constexpr Handle kNull = Tree::kNull;

  TreeContainer(Handle capacity, int /*max_gain*/) : tree_(capacity) {}

  void clear() { tree_.clear(); }
  bool empty() const { return tree_.empty(); }
  double gain(Handle h) const { return tree_.key(h); }
  bool contains(Handle h) const { return tree_.contains(h); }
  void insert(Handle h, double g) { tree_.insert(h, g); }
  void erase(Handle h) { tree_.erase(h); }
  void update(Handle h, double g) { tree_.update(h, g); }
  Handle best() const { return tree_.max(); }
  template <typename Pred>
  Handle best_where(Pred&& pred) const {
    Handle found = kNull;
    tree_.for_each_descending([&](Handle h, double) {
      if (pred(h)) {
        found = h;
        return false;
      }
      return true;
    });
    return found;
  }

 private:
  Tree tree_;
};

/// Debug audit (FmConfig::audit_interval): checks every free node's
/// container gain against a from-scratch Eqn. 1 recompute, container
/// membership against the lock flags, and the incremental cut cost.  The
/// FM update rules restate the scratch definition exactly, so any gap
/// beyond FP accumulation noise is a bug.
template <typename Container>
void fm_audit(const Partition& part, const std::vector<std::uint8_t>& locked,
              const Container& side0, const Container& side1,
              const FmConfig& config, PassStats* stats) {
  audit::check_cut(part, config.audit_tolerance);
  audit::DriftTracker drift;
  const NodeId n = part.graph().num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    const Container& own = part.side(v) == 0 ? side0 : side1;
    const Container& other = part.side(v) == 0 ? side1 : side0;
    if (locked[v]) {
      audit::check_node(!side0.contains(v) && !side1.contains(v),
                        "FM: locked node still in a gain container", v);
      continue;
    }
    audit::check_node(own.contains(v) && !other.contains(v),
                      "FM: free node not in its side's gain container", v);
    const double scratch = part.immediate_gain(v);
    drift.observe(v, own.gain(v), scratch);
    audit::check_close(own.gain(v), scratch, config.audit_tolerance,
                       "FM incremental gain", v);
  }
  if (stats) {
    ++stats->audits;
    if (drift.max_abs > stats->max_gain_drift) {
      stats->max_gain_drift = drift.max_abs;
    }
  }
}

/// Per-pass scratch hoisted out of fm_pass so repeated passes of one
/// refine call reuse the same buffers instead of reallocating them.
struct FmScratch {
  std::vector<std::uint8_t> locked;
  std::vector<NodeId> moved;
};

/// One FM pass: virtually move everything, roll back to the best prefix.
/// Returns the accepted (positive part of the) improvement.  Sets
/// `interrupted` when a deadline/cancellation cut the pass short (the
/// rollback to the best prefix still runs, so the partition stays valid).
template <typename Container>
double fm_pass(Partition& part, const BalanceConstraint& balance,
               const FmConfig& config, Container& side0, Container& side1,
               FmScratch& scratch, PassStats* stats, bool& interrupted) {
  const Hypergraph& g = part.graph();
  const NodeId n = g.num_nodes();

  scratch.locked.assign(n, 0);
  std::vector<std::uint8_t>& locked = scratch.locked;
  side0.clear();
  side1.clear();
  for (NodeId u = 0; u < n; ++u) {
    (part.side(u) == 0 ? side0 : side1).insert(u, part.immediate_gain(u));
  }
  if (stats) stats->ops.inserts += n;

  scratch.moved.clear();
  std::vector<NodeId>& moved = scratch.moved;
  moved.reserve(n);
  double prefix = 0.0;
  double best_prefix = 0.0;
  std::size_t best_count = 0;

  const auto feasible_from = [&](int side) {
    return [&part, &balance, &g, side](NodeId h) {
      return balance.move_feasible(part.side_size(0), side, g.node_size(h));
    };
  };
  // With unit node sizes feasibility is uniform per side, so it is checked
  // once instead of scanning the container past every infeasible node.
  const bool unit_sizes = g.unit_node_sizes();
  const auto candidate = [&](Container& c, int side) -> NodeId {
    if (c.empty()) return Container::kNull;
    if (unit_sizes) {
      if (!balance.move_feasible(part.side_size(0), side, 1)) {
        return Container::kNull;
      }
      return c.best();
    }
    return c.best_where(feasible_from(side));
  };

  while (true) {
    if (config.context && config.context->refine_should_stop()) {
      interrupted = true;
      break;
    }
    const NodeId h0 = candidate(side0, 0);
    const NodeId h1 = candidate(side1, 1);
    if (h0 == Container::kNull && h1 == Container::kNull) break;

    NodeId u;
    if (h0 == Container::kNull) {
      u = h1;
    } else if (h1 == Container::kNull) {
      u = h0;
    } else if (side0.gain(h0) != side1.gain(h1)) {
      u = side0.gain(h0) > side1.gain(h1) ? h0 : h1;
    } else {
      // Gain tie: move from the heavier side to improve balance headroom.
      u = part.side_size(0) >= part.side_size(1) ? h0 : h1;
    }

    const double immediate = part.immediate_gain(u);
    (part.side(u) == 0 ? side0 : side1).erase(u);
    locked[u] = 1;
    if (stats) ++stats->ops.erases;

    fm_move_with_updates(
        part, u, [&](NodeId v) { return locked[v] == 0; },
        [&](NodeId v, double delta) {
          Container& c = part.side(v) == 0 ? side0 : side1;
          c.update(v, c.gain(v) + delta);
          if (stats) ++stats->ops.updates;
        });

    moved.push_back(u);
    prefix += immediate;
    if (prefix > best_prefix + kEps) {
      best_prefix = prefix;
      best_count = moved.size();
    }

    if (config.audit_interval > 0 &&
        moved.size() % static_cast<std::size_t>(config.audit_interval) == 0) {
      fm_audit(part, locked, side0, side1, config, stats);
    }
  }

  // Roll back every move beyond the maximum-prefix point.
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

template <typename Container>
RefineOutcome refine_with(Partition& part, const BalanceConstraint& balance,
                          const FmConfig& config) {
  const int max_gain =
      static_cast<int>(part.graph().max_degree()) + 1;
  Container side0(part.graph().num_nodes(), max_gain);
  Container side1(part.graph().num_nodes(), max_gain);
  FmScratch scratch;
  RefineOutcome out;
  for (int pass = 0; pass < config.max_passes; ++pass) {
    PassStats* stats = nullptr;
    WallTimer wall;
    ThreadCpuTimer cpu;
    if (config.telemetry) {
      stats = &config.telemetry->begin_pass(part.cut_cost());
    }
    bool interrupted = false;
    const double gained = fm_pass(part, balance, config, side0, side1,
                                  scratch, stats, interrupted);
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

}  // namespace

RefineOutcome fm_refine(Partition& part, const BalanceConstraint& balance,
                        const FmConfig& config) {
  if (config.structure == FmStructure::kBucket) {
    if (!part.graph().unit_net_costs()) {
      // The bucket array indexes integer gains; fall back to the tree for
      // weighted nets — exactly the trade-off the paper discusses in Sec. 4.
      return refine_with<TreeContainer>(part, balance, config);
    }
    return refine_with<BucketContainer>(part, balance, config);
  }
  return refine_with<TreeContainer>(part, balance, config);
}

PartitionResult FmPartitioner::run(const Hypergraph& g,
                                   const BalanceConstraint& balance,
                                   std::uint64_t seed) {
  Rng rng(seed);
  Partition part(g, random_balanced_sides(g, balance, rng));
  const RefineOutcome outcome = fm_refine(part, balance, config_);
  PartitionResult result;
  result.side = part.sides();
  result.cut_cost = outcome.cut_cost;
  result.passes = outcome.passes;
  return result;
}

}  // namespace prop
