// Multi-start harness: the paper reports "FM20 / FM40 / FM100", "PROP with
// 20 runs" etc. — the best cut over N independent runs from random starts —
// plus CPU seconds per run (Table 4).
//
// Failures are data here: a run that throws, produces an invalid partition
// or trips a fault injection is recorded in its RunRecord and the multi-start
// continues with the remaining seeds.  run_many throws only when *every*
// attempted run failed to produce a validated partition.
//
// Parallel multi-start (RunnerOptions::threads >= 1) dispatches the N
// independent seeded runs onto a fixed thread pool against the shared
// read-only Hypergraph, one cloned partitioner per run, and merges per-run
// results in seed order with a deterministic best-selection, so the output
// is byte-identical for any thread count (timing fields aside — see
// StatsJsonOptions::include_timing).  The determinism contract is spelled
// out in DESIGN.md §4e.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "partition/partitioner.h"
#include "partition/validate.h"
#include "runtime/run_context.h"
#include "runtime/status.h"
#include "telemetry/telemetry.h"
#include "util/timer.h"

namespace prop {

/// Outcome of one checked run: the validated partition (when one exists)
/// plus the Status explaining how the run ended.  A non-ok code does not
/// imply a missing result — a budget-exhausted or injected-cancel run still
/// carries its best-so-far validated partition.
struct RunOutcome {
  PartitionResult result;  ///< valid() only when a validated partition exists
  Status status;
  double wall_seconds = 0.0;  ///< wall-clock seconds of this run
  double cpu_seconds = 0.0;   ///< CPU seconds of this run (calling thread)
  std::vector<DegradationEvent> degradations;  ///< fallbacks taken in-run

  bool ok() const noexcept { return status.ok(); }
  bool has_result() const noexcept { return result.valid(); }
};

/// Per-run ledger entry of a multi-start.
struct RunRecord {
  std::uint64_t seed = 0;
  Status status;
  double cut = -1.0;  ///< cut of the validated partition; < 0 when none
  double wall_seconds = 0.0;  ///< wall-clock seconds of the run
  double cpu_seconds = 0.0;   ///< CPU seconds of the run (its own thread)
  std::vector<DegradationEvent> degradations;

  bool produced_result() const noexcept { return cut >= 0.0; }
};

struct MultiRunResult {
  PartitionResult best;
  std::uint64_t best_seed = 0;  ///< seed of the run that produced `best`
  std::vector<double> cuts;    ///< cut of every *successful* run, in run order

  // Timing, split by semantics: wall is harness elapsed time (what a user
  // waits for), cpu is the sum of per-run thread-CPU seconds (the paper's
  // Table 4 "CPU secs per run" metric).  Sequentially the two are nearly
  // equal; with threads > 1 they diverge by roughly the thread count.
  double total_wall_seconds = 0.0;
  double total_cpu_seconds = 0.0;
  double wall_seconds_per_run = 0.0;  ///< total_wall_seconds / runs_attempted
  double cpu_seconds_per_run = 0.0;   ///< total_cpu_seconds / runs_attempted

  /// Overall status: ok when every requested run was attempted; the stop
  /// code (budget_exhausted / cancelled / injected_fault) when the
  /// multi-start ended early.  Individual run failures live in `records`
  /// and do not make this non-ok.
  Status status;

  /// One entry per attempted run, failures included.
  std::vector<RunRecord> records;
  int runs_requested = 0;

  /// One entry per run when RunnerOptions::collect_telemetry was set and
  /// the partitioner supports it (attach_telemetry returns true); empty
  /// otherwise.  Failed runs record no telemetry.
  std::vector<RunTelemetry> telemetry;

  int runs_attempted() const noexcept {
    return static_cast<int>(records.size());
  }
  int runs_failed() const noexcept {
    int failed = 0;
    for (const RunRecord& r : records) failed += r.produced_result() ? 0 : 1;
    return failed;
  }

  double best_cut() const noexcept { return best.cut_cost; }
  double mean_cut() const noexcept {
    if (cuts.empty()) return 0.0;
    double s = 0.0;
    for (const double c : cuts) s += c;
    return s / static_cast<double>(cuts.size());
  }

  // Trajectory aggregates over all collected runs (zero when telemetry is
  // empty).
  std::uint64_t total_passes() const noexcept;
  std::uint64_t total_moves_attempted() const noexcept;
  std::uint64_t max_rollback_depth() const noexcept;
  double max_gain_drift() const noexcept;
};

struct RunnerOptions {
  /// Record a RunTelemetry per run into MultiRunResult::telemetry.
  bool collect_telemetry = false;

  /// Optional runtime context threaded into every run (deadline polls,
  /// fault injection, degradation log).  Null = inert.
  const RunContext* context = nullptr;

  /// 0 (default): the legacy sequential path — runs share `context`
  /// verbatim (one injector counter stream across runs, a stop skips the
  /// remaining seeds).
  ///
  /// >= 1: the deterministic dispatch path — a pool of `threads` workers,
  /// one cloned partitioner and one forked runtime context per run.  Fault
  /// injection is per-run ('@N' counts within each run), every requested
  /// run is attempted (a broadcast stop makes pending runs finish at their
  /// first poll with their best validated prefix), and results are merged
  /// in seed order, so any `threads` value produces identical output.
  /// Requires Bipartitioner::clone(); throws std::invalid_argument when the
  /// partitioner does not support it.
  int threads = 0;

  /// By default run_many throws when *every* attempted run failed to produce
  /// a validated partition (a table experiment cannot continue without one).
  /// The service layer sets this to true to get the failure back as data
  /// instead: MultiRunResult::best stays invalid and the overall status
  /// carries the first per-run failure, so a served job turns into a failed
  /// response rather than an exception unwinding a worker.
  bool allow_all_failed = false;
};

/// One run of `partitioner`, never throwing on a bad run: exceptions,
/// validation failures and early stops all land in RunOutcome::status.
/// Attaches `context` for the duration of the run (when the partitioner
/// supports it) and snapshots the degradation events it recorded.
RunOutcome run_checked(Bipartitioner& partitioner, const Hypergraph& g,
                       const BalanceConstraint& balance, std::uint64_t seed,
                       const RunContext* context = nullptr);

/// Runs `partitioner` `runs` times with seeds derived from `base_seed` by
/// SplitMix64 mixing (mix_seed(base_seed, run) — identical for every
/// schedule and thread count), keeping the best validated result; cut ties
/// break to the earliest run in seed order.  A failing run is recorded and
/// the remaining seeds still execute; throws std::runtime_error only when
/// every attempted run failed.  With an expired/cancelled context, run 0 is
/// still attempted (the engines stop at their first poll and return their
/// best-so-far), so `--on-timeout=best` always has a result; later runs are
/// skipped (sequential path) and the overall status carries the stop code.
MultiRunResult run_many(Bipartitioner& partitioner, const Hypergraph& g,
                        const BalanceConstraint& balance, int runs,
                        std::uint64_t base_seed,
                        const RunnerOptions& options = {});

struct StatsJsonOptions {
  /// Emit measured wall/CPU seconds.  Disable to get the byte-identical
  /// serialization the parallel determinism contract promises across
  /// thread counts (timing is the one physically schedule-dependent field).
  bool include_timing = true;
};

/// The degradation object {"site": ..., "action": ..., "detail": ...}
/// (detail omitted when empty), shared by stats-json run_records and the
/// service's response envelope.
void write_json(JsonWriter& w, const DegradationEvent& e);

/// Dumps a multi-run trajectory as one JSON object:
///   {"circuit": ..., "algo": ..., "outcome": ..., "best_cut": ...,
///    "run_records": [...], "runs": [...]}
/// (the per-run / per-pass schema is documented in EXPERIMENTS.md).
/// All doubles are emitted at round-trip precision (17 significant digits).
void write_stats_json(std::ostream& out, const std::string& circuit,
                      const std::string& algo, const MultiRunResult& result,
                      const StatsJsonOptions& json_options = {});

}  // namespace prop
