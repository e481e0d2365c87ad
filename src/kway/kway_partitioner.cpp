#include "kway/kway_partitioner.h"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "partition/kway_state.h"

namespace prop {

const char* to_string(KWayRefinerKind kind) noexcept {
  switch (kind) {
    case KWayRefinerKind::kNone:
      return "none";
    case KWayRefinerKind::kGreedy:
      return "greedy";
    case KWayRefinerKind::kProp:
      return "prop";
  }
  return "?";
}

KWayPipelineResult kway_partition(Bipartitioner& bisector, const Hypergraph& g,
                                  std::uint64_t seed,
                                  const KWayPipelineConfig& config,
                                  RefineTelemetry* telemetry,
                                  const RunContext* context) {
  KWayOptions rb_options;
  rb_options.tolerance = config.tolerance;
  KWayResult rb = recursive_bisection(bisector, g, config.k, seed, rb_options);

  KWayPipelineResult out;
  out.k = config.k;
  out.part = std::move(rb.part);

  if (config.refiner != KWayRefinerKind::kNone && config.k >= 2) {
    refine_kway_partition(g, seed, config, telemetry, context, out);
    return out;
  }

  // RB-only: recompute both objectives once for the result record.
  const KWayState state(g, out.part, config.k);
  out.cut_cost = state.cut_cost();
  out.connectivity_cost = state.connectivity_cost();
  return out;
}

void refine_kway_partition(const Hypergraph& g, std::uint64_t seed,
                           const KWayPipelineConfig& config,
                           RefineTelemetry* telemetry,
                           const RunContext* context, KWayPipelineResult& out) {
  if (config.refiner == KWayRefinerKind::kNone) return;
  // Greedy stage: polishes AND legalizes the window (recursive bisection
  // compounds per-split tolerance, so parts can start outside it).
  KWayRefineConfig greedy;
  greedy.objective = config.objective;
  greedy.tolerance = config.tolerance;
  greedy.max_passes = config.greedy_max_passes;
  const KWayRefineOutcome gr = kway_refine(g, out.part, config.k, seed, greedy);
  out.passes += gr.passes;
  out.cut_cost = gr.cut_cost;
  out.connectivity_cost = gr.connectivity_cost;
  if (config.refiner != KWayRefinerKind::kProp) return;

  KWayPropConfig prop = config.prop;
  prop.objective = config.objective;
  prop.telemetry = telemetry;
  prop.context = context;
  const KWayBalanceWindow window = kway_part_window(
      g.total_node_size(), config.k, config.tolerance, kway_max_node_size(g));
  const KWayPropOutcome pr =
      kway_prop_refine(g, out.part, config.k, window, prop);
  out.passes += pr.passes;
  out.interrupted = out.interrupted || pr.interrupted;
  out.cut_cost = pr.cut_cost;
  out.connectivity_cost = pr.connectivity_cost;
}

KWayPartitioner::KWayPartitioner(std::unique_ptr<Bipartitioner> bisector,
                                 KWayPipelineConfig config)
    : bisector_(std::move(bisector)), config_(config) {
  if (!bisector_) {
    throw std::invalid_argument("kway partitioner: null bisector");
  }
  if (config_.k < 2) {
    throw std::invalid_argument("kway partitioner: k must be >= 2");
  }
  if (config_.k > 256) {
    // PartitionResult::side is uint8_t per node.
    throw std::invalid_argument("kway partitioner: k must be <= 256");
  }
}

std::string KWayPartitioner::name() const {
  std::ostringstream s;
  s << "KWAY-" << config_.k << "(" << bisector_->name() << "+"
    << to_string(config_.refiner) << ","
    << (config_.objective == KWayObjective::kCut ? "cut" : "connectivity")
    << ")";
  return s.str();
}

PartitionResult KWayPartitioner::run(const Hypergraph& g,
                                     const BalanceConstraint& balance,
                                     std::uint64_t seed) {
  (void)balance;  // see header: k-way balance comes from config_.tolerance
  if (config_.k > g.num_nodes()) {
    throw std::invalid_argument("kway partitioner: k exceeds node count");
  }
  const KWayPipelineResult r =
      kway_partition(*bisector_, g, seed, config_, telemetry_, context_);
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

std::unique_ptr<Bipartitioner> KWayPartitioner::clone() const {
  std::unique_ptr<Bipartitioner> inner = bisector_->clone();
  if (!inner) return nullptr;
  // Telemetry/context hooks stay detached on the clone (Bipartitioner
  // contract); config_ carries none (they are passed at run time).
  return std::make_unique<KWayPartitioner>(std::move(inner), config_);
}

bool KWayPartitioner::attach_telemetry(RefineTelemetry* telemetry) noexcept {
  telemetry_ = telemetry;
  // Only the PROP stage records passes.
  return config_.refiner == KWayRefinerKind::kProp;
}

bool KWayPartitioner::attach_context(const RunContext* context) noexcept {
  context_ = context;
  bisector_->attach_context(context);
  return true;
}

ValidationReport validate_kway_result(const Hypergraph& g, NodeId k,
                                      KWayObjective objective,
                                      const PartitionResult& result) {
  ValidationReport report;
  if (result.side.size() != g.num_nodes()) {
    report.ok = false;
    report.message = "side vector size mismatch";
    return report;
  }
  std::vector<NodeId> part(result.side.size());
  for (std::size_t i = 0; i < result.side.size(); ++i) {
    if (result.side[i] >= k) {
      std::ostringstream msg;
      msg << "node " << i << " has part id " << int(result.side[i])
          << " >= k = " << k;
      report.ok = false;
      report.message = msg.str();
      return report;
    }
    part[i] = result.side[i];
  }
  const KWayState state(g, std::move(part), k);
  double cut = 0.0;
  double connectivity = 0.0;
  state.verify_costs(&cut, &connectivity);
  const double want = objective == KWayObjective::kCut ? cut : connectivity;
  const double tol = 1e-6 * std::max(1.0, std::abs(want));
  if (!(std::abs(result.cut_cost - want) <= tol)) {
    std::ostringstream msg;
    msg << "claimed objective cost " << result.cut_cost
        << " != recomputed " << want;
    report.ok = false;
    report.message = msg.str();
  }
  return report;
}

ValidationReport KWayPartitioner::validate(const Hypergraph& g,
                                           const BalanceConstraint& balance,
                                           const PartitionResult& result) const {
  (void)balance;
  return validate_kway_result(g, config_.k, config_.objective, result);
}

}  // namespace prop
