// The native k-way pipeline and its Bipartitioner adapter.
//
// kway_partition composes the three stages the bench compares:
//   1. recursive_bisection with a 2-way bisector (always);
//   2. the greedy k-way polish (kway_refine) — also the window legalizer,
//      since recursive bisection compounds per-split tolerance;
//   3. the native k-way PROP refiner (kway_prop_refine).
// PROP runs after greedy and accepts only exact-objective-improving move
// prefixes, so the kProp pipeline's objective cost is never worse than the
// kGreedy pipeline's — the bench gate's quality guarantee by construction.
//
// KWayPartitioner wraps the pipeline in the Bipartitioner interface so the
// multi-start runner (run_many: clones, threads, seed-ordered reduction,
// byte-identical stats) and the service layer drive k-way jobs unchanged.
// The `side` vector of its PartitionResult carries part ids in [0, k)
// (hence k <= 256) and `cut_cost` is the configured k-way objective; its
// validate() override checks exactly that contract.
#pragma once

#include <memory>
#include <string>

#include "kway/kway_prop_refiner.h"
#include "kway/kway_refine.h"
#include "partition/partitioner.h"
#include "partition/recursive.h"

namespace prop {

/// Which post-pass runs after recursive bisection.
enum class KWayRefinerKind {
  kNone,    ///< recursive bisection only
  kGreedy,  ///< + greedy k-way polish (kway_refine)
  kProp,    ///< + greedy legalization + native k-way PROP
};

const char* to_string(KWayRefinerKind kind) noexcept;

/// The post-pass every k-way entry point runs unless told otherwise: the
/// pipeline config, make_kway_algo, the wire JobSpec and prop_cli's
/// --kway-refiner all default to it (the latter two by its to_string name).
inline constexpr KWayRefinerKind kDefaultKWayRefiner = KWayRefinerKind::kProp;

struct KWayPipelineConfig {
  NodeId k = 2;
  /// Proportional-share balance tolerance, shared by every stage via
  /// partition/kway_balance.h.
  double tolerance = 0.1;
  KWayObjective objective = KWayObjective::kConnectivity;
  KWayRefinerKind refiner = kDefaultKWayRefiner;
  /// PROP-stage knobs; objective/telemetry/context are synced from the
  /// fields above at run time.
  KWayPropConfig prop;
  /// Greedy-stage pass cap (its tolerance/objective are synced too).
  int greedy_max_passes = 16;
};

struct KWayPipelineResult {
  std::vector<NodeId> part;  ///< part id in [0, k) per node
  NodeId k = 0;
  double cut_cost = 0.0;
  double connectivity_cost = 0.0;
  int passes = 0;  ///< refinement passes (greedy + PROP)
  bool interrupted = false;
};

/// Runs the configured pipeline.  `context`/`telemetry` reach the PROP
/// stage (the bisector's own hooks are whatever the caller attached to it).
KWayPipelineResult kway_partition(Bipartitioner& bisector, const Hypergraph& g,
                                  std::uint64_t seed,
                                  const KWayPipelineConfig& config,
                                  RefineTelemetry* telemetry = nullptr,
                                  const RunContext* context = nullptr);

/// Stages 2 and 3 on `out.part`: the greedy polish/legalize, then k-way
/// PROP when config.refiner == kProp; kNone runs neither and leaves `out`
/// as it is.  Adds the passes run, sets both costs of the refined parts,
/// and sets `out.interrupted` when PROP stopped early.  kway_partition runs
/// it after recursive bisection; the k-way V-cycle at every level.
void refine_kway_partition(const Hypergraph& g, std::uint64_t seed,
                           const KWayPipelineConfig& config,
                           RefineTelemetry* telemetry,
                           const RunContext* context, KWayPipelineResult& out);

/// The k-way PartitionResult contract shared by every k-way adapter: part
/// ids < k and the claimed cost equal (1e-6 relative) to a from-scratch
/// KWayState recomputation of `objective`.  Part sizes are NOT checked
/// against the balance window: an input whose legalization gave up
/// (pathological node sizes) is still a valid result, just imbalanced.
ValidationReport validate_kway_result(const Hypergraph& g, NodeId k,
                                      KWayObjective objective,
                                      const PartitionResult& result);

class KWayPartitioner : public Bipartitioner {
 public:
  /// Takes ownership of the 2-way bisector used inside recursive
  /// bisection; it must be cloneable for run_many with threads > 1.
  KWayPartitioner(std::unique_ptr<Bipartitioner> bisector,
                  KWayPipelineConfig config);

  std::string name() const override;

  /// The BalanceConstraint parameter is IGNORED: k-way balance is the
  /// per-part window derived from config.tolerance (the 2-way side-0
  /// constraint has no k-way meaning).  validate() is overridden to match.
  PartitionResult run(const Hypergraph& g, const BalanceConstraint& balance,
                      std::uint64_t seed) override;

  std::unique_ptr<Bipartitioner> clone() const override;
  bool attach_telemetry(RefineTelemetry* telemetry) noexcept override;
  bool attach_context(const RunContext* context) noexcept override;

  /// Delegates to validate_kway_result (the balance parameter is ignored,
  /// matching run()).
  ValidationReport validate(const Hypergraph& g,
                            const BalanceConstraint& balance,
                            const PartitionResult& result) const override;

 private:
  std::unique_ptr<Bipartitioner> bisector_;
  KWayPipelineConfig config_;
  RefineTelemetry* telemetry_ = nullptr;
  const RunContext* context_ = nullptr;
};

}  // namespace prop
