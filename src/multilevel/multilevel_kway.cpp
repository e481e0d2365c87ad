#include "multilevel/multilevel_kway.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>

#include "hypergraph/contraction.h"
#include "partition/kway_state.h"

namespace prop {

MultilevelKWayPartitioner::MultilevelKWayPartitioner(
    MultilevelKWayConfig config)
    : config_(std::move(config)) {
  if (config_.k < 2) {
    throw std::invalid_argument("multilevel kway: k must be >= 2");
  }
  if (config_.k > 256) {
    throw std::invalid_argument("multilevel kway: k must be <= 256");
  }
}

std::string MultilevelKWayPartitioner::name() const {
  return std::string("ML-KWAY-") + std::to_string(config_.k) + "-" +
         to_string(config_.refiner);
}

PartitionResult MultilevelKWayPartitioner::run(const Hypergraph& g,
                                               const BalanceConstraint& balance,
                                               std::uint64_t seed) {
  (void)balance;  // k-way balance comes from config_.tolerance
  if (config_.k > g.num_nodes()) {
    throw std::invalid_argument("multilevel kway: k exceeds node count");
  }
  const RunContext* ctx = config_.context;
  const auto objective_cost = [&](const KWayPipelineResult& r) {
    return config_.objective == KWayObjective::kCut ? r.cut_cost
                                                    : r.connectivity_cost;
  };

  // Phase 1: coarsen until small, stalled, or out of levels — never below
  // k nodes.
  std::deque<CoarseLevel> levels = coarsen(g, seed, config_, config_.k, ctx);
  // Valid until phase 3 frees the levels.
  const Hypergraph& coarsest = levels.empty() ? g : levels.back().graph;

  // Phase 2: multi-start k-way pipeline on the coarsest graph.
  KWayPipelineResult best;
  for (int run = 0; run < std::max(1, config_.initial_runs); ++run) {
    if (run > 0 && ctx && ctx->should_stop()) break;
    FmPartitioner bisector(config_.fm);
    const KWayPipelineResult r = kway_partition(
        bisector, coarsest,
        mix_seed(seed, 0x141714ULL, static_cast<std::uint64_t>(run)), config_,
        nullptr, ctx);
    if (best.part.empty() || objective_cost(r) < objective_cost(best)) {
      best = r;
    }
    if (r.interrupted) break;
  }

  // Phase 3: uncoarsen — project one level down, free the level, then
  // refine.  After a stop the remaining levels are still projected (never
  // refined), so the flat result is always a valid k-way partition.
  for (std::size_t i = levels.size(); i-- > 0;) {
    best.part = project_partition(levels[i].fine_to_coarse, best.part);
    levels.pop_back();
    if (ctx && ctx->should_stop()) continue;
    refine_kway_partition(
        i == 0 ? g : levels[i - 1].graph,
        mix_seed(seed, 0x57A9EULL, static_cast<std::uint64_t>(i)), config_,
        telemetry_, ctx, best);
  }

  const KWayState state(g, best.part, config_.k);
  PartitionResult out;
  out.side.assign(best.part.begin(), best.part.end());
  out.cut_cost = config_.objective == KWayObjective::kCut
                     ? state.cut_cost()
                     : state.connectivity_cost();
  out.passes = best.passes;
  return out;
}

std::unique_ptr<Bipartitioner> MultilevelKWayPartitioner::clone() const {
  auto copy = std::make_unique<MultilevelKWayPartitioner>(config_);
  copy->attach_telemetry(nullptr);
  copy->attach_context(nullptr);
  return copy;
}

ValidationReport MultilevelKWayPartitioner::validate(
    const Hypergraph& g, const BalanceConstraint& balance,
    const PartitionResult& result) const {
  (void)balance;
  return validate_kway_result(g, config_.k, config_.objective, result);
}

}  // namespace prop
