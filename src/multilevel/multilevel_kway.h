// Multilevel k-way V-cycle: the coarsen() hierarchy it shares with the
// 2-way driver (coarsening.h), with the k-way pipeline (kway_partitioner.h)
// at both ends.
//
// Coarsening never goes below k nodes.  The coarsest graph is solved by
// kway_partition (recursive bisection with a multi-start FM bisector, then
// the configured refine stage), and after each projection step the same
// refine stage, refine_kway_partition, runs on the finer level: the greedy
// polish legalizes the projected parts and the k-way PROP refiner improves
// them toward the configured objective.  Balance at every level is the
// shared proportional-share window (partition/kway_balance.h) recomputed
// against that level's max node size, so super-node weight never makes the
// window unreachable.
//
// Deterministic: everything is seeded, so equal seeds give byte-identical
// results for any runner thread count (same contract as the 2-way driver).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "fm/fm_partitioner.h"
#include "kway/kway_partitioner.h"
#include "multilevel/coarsening.h"

namespace prop {

/// The coarsening settings are the CoarseningConfig base (coarsening.h);
/// k, tolerance, objective, refiner, prop and greedy_max_passes are the
/// KWayPipelineConfig base, which the coarsest-graph starts and the
/// refinement at every uncoarsening level read as they are.
struct MultilevelKWayConfig : CoarseningConfig, KWayPipelineConfig {
  /// PROP passes are bounded by default (coarsening.h).
  MultilevelKWayConfig() {
    prop = vcycle_pass_config<KWayPropConfig>(kVCycleKWayStaleMoveLimit);
  }

  /// Multi-start pipeline runs on the coarsest graph (best objective wins).
  int initial_runs = 4;
  /// 2-way bisector settings for recursive bisection on the coarsest graph.
  FmConfig fm;
  /// Optional runtime context: polled between levels (a stop skips the
  /// remaining refinement but still projects down to the flat graph) and
  /// threaded into the PROP refiner.  Null = inert.
  const RunContext* context = nullptr;
};

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
