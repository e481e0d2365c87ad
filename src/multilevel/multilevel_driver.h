// Multilevel (V-cycle) driver: coarsen -> initial partition -> uncoarsen
// with refinement at every level.
//
// Flat FM-family engines degrade on large instances: a pass sees only
// single-node moves, so well-separated clusters straddling the cut are
// never recombined.  The multilevel scheme (Henne et al., n-Level
// Hypergraph Partitioning) fixes both quality and runtime at once —
// attraction-based coarsening collapses natural clusters into super-nodes,
// the coarsest graph is small enough for a multi-start initial partition,
// and each projection step hands the refiner a partition that is already
// good, so PROP/FM only polish boundaries.  Cut costs are preserved
// exactly through every contraction level (see contraction.h), so the cut
// measured at any level is the flat cut of its projection.
//
// Level hierarchy: coarsen() (coarsening.h, shared with the k-way
// V-cycle).  Refinement: PROP by default, FM as the ablation
// (MultilevelConfig::refiner).  The cached-product gain engine is rebuilt
// per level from the coarse hypergraph — see DESIGN.md Sec. 4g for why the
// remap-through-contraction fast path is deferred.
//
// Determinism: everything is seeded (clustering visit order, initial
// starts, refiner tie-breaks), so equal seeds give byte-identical results;
// clone() detaches hooks, which is all the parallel multi-start runner
// needs to extend its any-thread-count determinism contract over
// multilevel runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/prop_config.h"
#include "fm/fm_partitioner.h"
#include "multilevel/coarsening.h"
#include "partition/partitioner.h"

namespace prop {

enum class MlRefiner { kProp, kFm };

/// The coarsening settings are the CoarseningConfig base (coarsening.h).
struct MultilevelConfig : CoarseningConfig {
  /// Multi-start FM runs for the initial partition of the coarsest graph.
  int initial_runs = 10;
  /// Refiner applied at every uncoarsening level (PROP, or FM as the
  /// ablation baseline).
  MlRefiner refiner = MlRefiner::kProp;
  /// PROP settings (refiner == kProp); passes are bounded by default.
  PropConfig prop = vcycle_pass_config<PropConfig>(kVCycleStaleMoveLimit);
  FmConfig fm;      ///< FM settings (refiner == kFm, and the initial runs)
  /// Optional runtime context: polled between levels (a stop skips the
  /// remaining refinement but still projects + legalizes down to the flat
  /// graph, so the run returns a valid balanced partition) and threaded
  /// into every inner refine call.  Null = inert.
  const RunContext* context = nullptr;
};

/// V-cycle outcome: the flat partition plus the hierarchy facts the tests
/// and benches assert on.
struct MultilevelResult {
  PartitionResult part;
  int levels = 0;            ///< contraction levels built (0 = ran flat)
  NodeId coarsest_nodes = 0; ///< node count of the coarsest graph
  bool interrupted = false;  ///< a deadline/cancellation cut refinement short
};

/// Runs the full V-cycle on `g`.  The finest level is refined under
/// `balance` exactly; coarse levels use the same (r1, r2) fractions mapped
/// through BalanceConstraint::fraction.
MultilevelResult multilevel_partition(const Hypergraph& g,
                                      const BalanceConstraint& balance,
                                      std::uint64_t seed,
                                      const MultilevelConfig& config = {});

class MultilevelPartitioner final : public Bipartitioner {
 public:
  explicit MultilevelPartitioner(MultilevelConfig config = {})
      : config_(std::move(config)) {}

  std::string name() const override {
    return config_.refiner == MlRefiner::kProp ? "ML-PROP" : "ML-FM";
  }

  bool attach_telemetry(RefineTelemetry* telemetry) noexcept override {
    // Every level's refine passes append to the same trajectory, coarsest
    // first — the per-pass schema already records cut_before/cut_after, so
    // level boundaries show up as cut discontinuities.
    config_.prop.telemetry = telemetry;
    config_.fm.telemetry = telemetry;
    return true;
  }

  bool attach_context(const RunContext* context) noexcept override {
    config_.context = context;
    config_.prop.context = context;
    config_.fm.context = context;
    return true;
  }

  PartitionResult run(const Hypergraph& g, const BalanceConstraint& balance,
                      std::uint64_t seed) override;

  std::unique_ptr<Bipartitioner> clone() const override {
    auto copy = std::make_unique<MultilevelPartitioner>(config_);
    copy->attach_telemetry(nullptr);
    copy->attach_context(nullptr);
    return copy;
  }

  const MultilevelConfig& config() const noexcept { return config_; }

 private:
  MultilevelConfig config_;
};

}  // namespace prop
