#include "multilevel/multilevel_kway.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>

#include "hypergraph/contraction.h"
#include "partition/kway_state.h"

namespace prop {
namespace {

/// Greedy legalize/polish + (optionally) PROP at one level.  Returns the
/// passes executed.
int refine_level(const Hypergraph& lg, std::vector<NodeId>& part,
                 const MultilevelKWayConfig& config, std::uint64_t seed,
                 RefineTelemetry* telemetry, bool* interrupted) {
  int passes = 0;
  if (config.refiner == KWayRefinerKind::kNone) return passes;
  KWayRefineConfig greedy;
  greedy.objective = config.objective;
  greedy.tolerance = config.tolerance;
  greedy.max_passes = config.greedy_max_passes;
  const KWayRefineOutcome gr = kway_refine(lg, part, config.k, seed, greedy);
  passes += gr.passes;
  if (config.refiner == KWayRefinerKind::kProp) {
    KWayPropConfig prop = config.prop;
    prop.objective = config.objective;
    prop.telemetry = telemetry;
    prop.context = config.context;
    const KWayBalanceWindow window =
        kway_part_window(lg.total_node_size(), config.k, config.tolerance,
                         kway_max_node_size(lg));
    const KWayPropOutcome pr =
        kway_prop_refine(lg, part, config.k, window, prop);
    passes += pr.passes;
    if (pr.interrupted) *interrupted = true;
  }
  return passes;
}

}  // namespace

MultilevelKWayResult multilevel_kway_partition(
    const Hypergraph& g, std::uint64_t seed,
    const MultilevelKWayConfig& config, RefineTelemetry* telemetry) {
  if (config.k < 1) {
    throw std::invalid_argument("multilevel kway: k must be >= 1");
  }
  const RunContext* ctx = config.context;
  MultilevelKWayResult out;

  // Phase 1: coarsen until small, stalled, or out of levels — never below
  // k nodes.
  const std::deque<CoarseLevel> levels =
      coarsen(g, seed, config, config.k, ctx);
  const Hypergraph& coarsest = levels.empty() ? g : levels.back().graph;
  out.levels = static_cast<int>(levels.size());
  out.coarsest_nodes = coarsest.num_nodes();

  // Phase 2: multi-start k-way pipeline on the coarsest graph.
  KWayPipelineConfig pipeline;
  pipeline.k = config.k;
  pipeline.tolerance = config.tolerance;
  pipeline.objective = config.objective;
  pipeline.refiner = config.refiner;
  pipeline.prop = config.prop;
  pipeline.greedy_max_passes = config.greedy_max_passes;
  std::vector<NodeId> part;
  double best_cost = 0.0;
  for (int run = 0; run < std::max(1, config.initial_runs); ++run) {
    if (run > 0 && ctx && ctx->should_stop()) break;
    FmPartitioner bisector(config.fm);
    const KWayPipelineResult r = kway_partition(
        bisector, coarsest,
        mix_seed(seed, 0x141714ULL, static_cast<std::uint64_t>(run)),
        pipeline, nullptr, ctx);
    const double cost = config.objective == KWayObjective::kCut
                            ? r.cut_cost
                            : r.connectivity_cost;
    if (part.empty() || cost < best_cost) {
      part = r.part;
      best_cost = cost;
      out.passes = r.passes;
    }
    if (r.interrupted) {
      out.interrupted = true;
      break;
    }
  }

  // Phase 3: uncoarsen — project one level down, then refine.  After a
  // stop the remaining levels are still projected (never refined), so the
  // flat result is always a valid k-way partition.
  for (std::size_t i = levels.size(); i-- > 0;) {
    part = project_partition(levels[i].fine_to_coarse, part);
    const Hypergraph& lg = i == 0 ? g : levels[i - 1].graph;
    if (ctx && ctx->should_stop()) {
      out.interrupted = true;
      continue;
    }
    out.passes += refine_level(
        lg, part, config,
        mix_seed(seed, 0x57A9EULL, static_cast<std::uint64_t>(i)), telemetry,
        &out.interrupted);
  }

  out.part = std::move(part);
  const KWayState state(g, out.part, config.k);
  out.cut_cost = state.cut_cost();
  out.connectivity_cost = state.connectivity_cost();
  return out;
}

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
  const MultilevelKWayResult r =
      multilevel_kway_partition(g, seed, config_, telemetry_);
  PartitionResult out;
  out.side.resize(r.part.size());
  for (std::size_t i = 0; i < r.part.size(); ++i) {
    out.side[i] = static_cast<std::uint8_t>(r.part[i]);
  }
  out.cut_cost = config_.objective == KWayObjective::kCut
                     ? r.cut_cost
                     : r.connectivity_cost;
  out.passes = r.passes;
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
