// Refinement telemetry: per-pass trajectory of an FM-family refiner.
//
// The pass engines (fm_refine, la_refine, prop_refine) are hot loops; the
// paper's claims are about their *dynamics* (which nodes move, how deep the
// speculative pass goes before rollback, how many passes until convergence).
// A RefineTelemetry pointer in the refiner config opts into recording one
// PassStats per pass — cut before/after, moves attempted vs. accepted,
// rollback depth, best-prefix gain, wall/CPU seconds, and gain-container
// operation counts.  A null pointer (the default) records nothing and adds
// no measurable overhead.
//
// The multi-run harness (partition/runner.h) aggregates one RunTelemetry
// per run into MultiRunResult, and tools/bench expose the whole trajectory
// as JSON via --stats-json.
#pragma once

#include <cstdint>
#include <vector>

#include "util/json_writer.h"

namespace prop {

/// Operation counts on the pass's gain container (bucket list or ordered
/// container).
struct GainContainerOps {
  std::uint64_t inserts = 0;
  std::uint64_t erases = 0;
  std::uint64_t updates = 0;

  std::uint64_t total() const noexcept { return inserts + erases + updates; }

  GainContainerOps& operator+=(const GainContainerOps& o) noexcept {
    inserts += o.inserts;
    erases += o.erases;
    updates += o.updates;
    return *this;
  }
};

/// Everything recorded about one speculative pass of a refiner.
struct PassStats {
  int pass = 0;               ///< 0-based pass index within the refine call
  double cut_before = 0.0;    ///< cut cost entering the pass
  double cut_after = 0.0;     ///< cut cost after rollback to the best prefix
  std::uint64_t moves_attempted = 0;  ///< nodes speculatively moved
  std::uint64_t moves_accepted = 0;   ///< best-prefix position kept
  double best_prefix_gain = 0.0;      ///< accepted immediate-gain improvement
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  GainContainerOps ops;

  /// Top-of-tree refreshes whose recomputed gain matched the stored value
  /// within tolerance, skipping the container's remove/reinsert (PROP only).
  std::uint64_t refresh_skips = 0;

  // Invariant-audit observations (zero unless auditing was enabled).
  std::uint64_t audits = 0;        ///< audit sweeps performed this pass
  double max_gain_drift = 0.0;     ///< max |incremental - scratch| observed

  /// Moves undone by the rollback to the best prefix.
  std::uint64_t rollback_depth() const noexcept {
    return moves_attempted - moves_accepted;
  }
};

/// Trajectory of one refine call: one PassStats per executed pass.
struct RefineTelemetry {
  std::vector<PassStats> passes;

  void clear() { passes.clear(); }

  /// Appends a pass record (index assigned automatically) and returns it.
  /// The reference is invalidated by the next begin_pass.
  PassStats& begin_pass(double cut_before);

  // Aggregates over all passes.
  std::uint64_t total_moves_attempted() const noexcept;
  std::uint64_t total_moves_accepted() const noexcept;
  std::uint64_t max_rollback_depth() const noexcept;
  std::uint64_t total_audits() const noexcept;
  double max_gain_drift() const noexcept;
  GainContainerOps total_ops() const noexcept;
};

/// Telemetry of one run inside a multi-run experiment.
struct RunTelemetry {
  std::uint64_t seed = 0;
  double cut = 0.0;       ///< final validated cut of the run
  double seconds = 0.0;   ///< CPU seconds of the run
  RefineTelemetry refine;
};

// Component writers of the stats-json "runs" schema (EXPERIMENTS.md).
// `include_timing = false` omits the measured wall/CPU seconds fields — the
// one part of the schema that cannot be byte-identical across repeated or
// parallel runs (see StatsJsonOptions in partition/runner.h).
void write_json(JsonWriter& w, const PassStats& s, bool include_timing = true);
void write_json(JsonWriter& w, const RefineTelemetry& t,
                bool include_timing = true);
void write_json(JsonWriter& w, const RunTelemetry& r,
                bool include_timing = true);

}  // namespace prop
