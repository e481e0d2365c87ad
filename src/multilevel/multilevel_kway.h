// Multilevel k-way V-cycle: the 2-way driver's coarsening and projection
// machinery with native k-way refinement at every uncoarsening level.
//
// Coarsening is the same coarsen() hierarchy as multilevel_driver.h
// (coarsening.h), never below k nodes.  The coarsest graph is solved by
// the k-way pipeline (recursive bisection with a multi-start FM bisector,
// then the configured k-way refiner), and each projection step hands the
// next finer level an already-good k-way partition that the greedy polish
// legalizes and the k-way PROP refiner improves toward the configured
// objective.  Balance at
// every level is the shared proportional-share window
// (partition/kway_balance.h) recomputed against that level's max node
// size, so super-node weight never makes the window unreachable.
//
// Deterministic: everything is seeded, so equal seeds give byte-identical
// results for any runner thread count (same contract as the 2-way driver).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fm/fm_partitioner.h"
#include "kway/kway_partitioner.h"
#include "multilevel/multilevel_driver.h"

namespace prop {

/// The coarsening settings are the CoarseningConfig base (coarsening.h).
struct MultilevelKWayConfig : CoarseningConfig {
  NodeId k = 2;
  /// Proportional-share tolerance applied at every level.
  double tolerance = 0.1;
  KWayObjective objective = KWayObjective::kConnectivity;
  /// Refiner at every uncoarsening level AND inside the coarsest solve.
  KWayRefinerKind refiner = KWayRefinerKind::kProp;
  /// PROP-stage knobs (refiner == kProp); passes are bounded by default.
  KWayPropConfig prop =
      vcycle_pass_config<KWayPropConfig>(kVCycleKWayStaleMoveLimit);
  int greedy_max_passes = 16;
  /// Multi-start pipeline runs on the coarsest graph (best objective wins).
  int initial_runs = 4;
  /// 2-way bisector settings for recursive bisection on the coarsest graph.
  FmConfig fm;
  /// Optional runtime context: polled between levels (a stop skips the
  /// remaining refinement but still projects down to the flat graph) and
  /// threaded into the PROP refiner.  Null = inert.
  const RunContext* context = nullptr;
};

struct MultilevelKWayResult {
  std::vector<NodeId> part;  ///< part id in [0, k) per node
  double cut_cost = 0.0;
  double connectivity_cost = 0.0;
  int passes = 0;
  int levels = 0;             ///< contraction levels built (0 = ran flat)
  NodeId coarsest_nodes = 0;  ///< node count of the coarsest graph
  bool interrupted = false;
};

MultilevelKWayResult multilevel_kway_partition(
    const Hypergraph& g, std::uint64_t seed,
    const MultilevelKWayConfig& config,
    RefineTelemetry* telemetry = nullptr);

/// Bipartitioner adapter with the same k-way PartitionResult contract as
/// KWayPartitioner (part ids in `side`, objective cost in `cut_cost`,
/// BalanceConstraint ignored, validate via validate_kway_result).
class MultilevelKWayPartitioner final : public Bipartitioner {
 public:
  explicit MultilevelKWayPartitioner(MultilevelKWayConfig config);

  std::string name() const override;

  PartitionResult run(const Hypergraph& g, const BalanceConstraint& balance,
                      std::uint64_t seed) override;

  std::unique_ptr<Bipartitioner> clone() const override;

  bool attach_telemetry(RefineTelemetry* telemetry) noexcept override {
    telemetry_ = telemetry;
    return config_.refiner == KWayRefinerKind::kProp;
  }

  bool attach_context(const RunContext* context) noexcept override {
    config_.context = context;
    config_.fm.context = context;
    return true;
  }

  ValidationReport validate(const Hypergraph& g,
                            const BalanceConstraint& balance,
                            const PartitionResult& result) const override;

  const MultilevelKWayConfig& config() const noexcept { return config_; }

 private:
  MultilevelKWayConfig config_;
  RefineTelemetry* telemetry_ = nullptr;
};

}  // namespace prop
