#include "multilevel/multilevel_driver.h"

#include <algorithm>
#include <deque>

#include "core/prop_partitioner.h"
#include "hypergraph/contraction.h"
#include "partition/initial.h"
#include "partition/partition.h"

namespace prop {
namespace {

/// Maps the caller's (r1, r2) balance fractions onto a coarse graph.  The
/// fraction constructor re-widens by the coarse max node size, so the
/// window stays reachable even though super-nodes are heavy.
BalanceConstraint level_balance(const Hypergraph& coarse,
                                const BalanceConstraint& flat) {
  const double total =
      static_cast<double>(std::max<std::int64_t>(flat.total(), 1));
  const double r1 = static_cast<double>(flat.lo()) / total;
  const double r2 = static_cast<double>(flat.hi()) / total;
  return BalanceConstraint::fraction(coarse, std::max(0.01, r1),
                                     std::min(0.99, r2));
}

}  // namespace

MultilevelResult multilevel_partition(const Hypergraph& g,
                                      const BalanceConstraint& balance,
                                      std::uint64_t seed,
                                      const MultilevelConfig& config) {
  const RunContext* ctx = config.context;
  MultilevelResult out;

  // Phase 1: coarsen until small, stalled, or out of levels.
  std::deque<CoarseLevel> levels = coarsen(g, seed, config, 2, ctx);
  // Valid until phase 3 frees the levels.
  const Hypergraph& coarsest = levels.empty() ? g : levels.back().graph;
  out.levels = static_cast<int>(levels.size());
  out.coarsest_nodes = coarsest.num_nodes();

  // Phase 2: multi-start FM initial partition on the coarsest graph.
  const BalanceConstraint coarsest_balance =
      levels.empty() ? balance : level_balance(coarsest, balance);
  std::vector<std::uint8_t> sides;
  double best_cut = 0.0;
  int total_passes = 0;
  for (int run = 0; run < std::max(1, config.initial_runs); ++run) {
    if (run > 0 && ctx && ctx->should_stop()) break;
    Rng rng(mix_seed(seed, 0x141714ULL, static_cast<std::uint64_t>(run)));
    Partition part(coarsest,
                   random_balanced_sides(coarsest, coarsest_balance, rng));
    const RefineOutcome outcome =
        fm_refine(part, coarsest_balance, config.fm);
    if (sides.empty() || outcome.cut_cost < best_cut) {
      sides = part.sides();
      best_cut = outcome.cut_cost;
      total_passes = outcome.passes;
    }
    if (outcome.interrupted) {
      out.interrupted = true;
      break;
    }
  }

  // Phase 3: uncoarsen — refine at every level, then project one level
  // down and free the level.  After a stop the remaining levels are still
  // projected and legalized (never refined), so the flat result is always
  // valid.
  const auto refine_level = [&](const Hypergraph& lg,
                                const BalanceConstraint& lb) {
    Partition part(lg, sides);
    repair_balance(part, lb);
    if (!(ctx && ctx->should_stop())) {
      const RefineOutcome outcome =
          config.refiner == MlRefiner::kProp
              ? prop_refine(part, lb, config.prop)
              : fm_refine(part, lb, config.fm);
      total_passes += outcome.passes;
      if (outcome.interrupted) out.interrupted = true;
    } else {
      out.interrupted = true;
    }
    sides = part.sides();
    return part.cut_cost();
  };

  double cut = 0.0;
  while (!levels.empty()) {
    const Hypergraph& lg = levels.back().graph;
    cut = refine_level(lg, level_balance(lg, balance));
    sides = project_partition(levels.back().fine_to_coarse, sides);
    levels.pop_back();
  }
  cut = refine_level(g, balance);

  out.part.side = std::move(sides);
  out.part.cut_cost = cut;
  out.part.passes = total_passes;
  return out;
}

PartitionResult MultilevelPartitioner::run(const Hypergraph& g,
                                           const BalanceConstraint& balance,
                                           std::uint64_t seed) {
  return multilevel_partition(g, balance, seed, config_).part;
}

}  // namespace prop
