#include "partition/runner.h"

#include <cstdio>
#include <exception>
#include <future>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace prop {
namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars) for
/// every string the stats JSON carries: circuit and algorithm names, status
/// messages and degradation details.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Every double in the stats JSON goes through this one helper so all
/// fields round-trip bit-for-bit (cut used to get precision 17 while the
/// timing fields silently truncated at the default 6 digits).
void put_double(std::ostream& out, double v) {
  std::ostringstream s;
  s.precision(17);
  s << v;
  out << s.str();
}

void write_json(std::ostream& out, const DegradationEvent& e) {
  out << "{\"site\":\"" << json_escape(e.site) << "\",\"action\":\""
      << json_escape(e.action) << "\"";
  if (!e.detail.empty()) out << ",\"detail\":\"" << json_escape(e.detail) << "\"";
  out << "}";
}

void write_json(std::ostream& out, const RunRecord& r, bool include_timing) {
  out << "{\"seed\":" << r.seed << ",\"outcome\":\"" << to_string(r.status.code)
      << "\"";
  if (!r.status.message.empty()) {
    out << ",\"message\":\"" << json_escape(r.status.message) << "\"";
  }
  if (r.produced_result()) {
    out << ",\"cut\":";
    put_double(out, r.cut);
  }
  if (include_timing) {
    out << ",\"wall_seconds\":";
    put_double(out, r.wall_seconds);
    out << ",\"cpu_seconds\":";
    put_double(out, r.cpu_seconds);
  }
  if (!r.degradations.empty()) {
    out << ",\"degradations\":[";
    bool first = true;
    for (const DegradationEvent& e : r.degradations) {
      if (!first) out << ",";
      first = false;
      write_json(out, e);
    }
    out << "]";
  }
  out << "}";
}

RunRecord make_record(RunOutcome& outcome, std::uint64_t seed) {
  RunRecord record;
  record.seed = seed;
  record.status = outcome.status;
  record.wall_seconds = outcome.wall_seconds;
  record.cpu_seconds = outcome.cpu_seconds;
  record.degradations = std::move(outcome.degradations);
  if (outcome.has_result()) record.cut = outcome.result.cut_cost;
  return record;
}

void finish_timing(MultiRunResult& out, double wall_seconds) {
  out.total_wall_seconds = wall_seconds;
  double cpu = 0.0;
  for (const RunRecord& r : out.records) cpu += r.cpu_seconds;
  out.total_cpu_seconds = cpu;
  const int attempted = out.runs_attempted();
  out.wall_seconds_per_run =
      attempted > 0 ? out.total_wall_seconds / attempted : 0.0;
  out.cpu_seconds_per_run =
      attempted > 0 ? out.total_cpu_seconds / attempted : 0.0;
}

[[noreturn]] void throw_all_failed(const Bipartitioner& partitioner,
                                   const Hypergraph& g,
                                   const MultiRunResult& out) {
  std::string first_failure;
  for (const RunRecord& rec : out.records) {
    if (!rec.status.ok()) {
      first_failure = rec.status.describe();
      break;
    }
  }
  throw std::runtime_error(
      partitioner.name() + ": all " + std::to_string(out.runs_attempted()) +
      " runs failed on " + g.name() +
      (first_failure.empty() ? "" : " (first failure: " + first_failure + ")"));
}

/// No validated result across the whole multi-start: throw (legacy harness
/// contract) or, for allow_all_failed callers, surface the first per-run
/// failure as the overall status so the caller gets failure-as-data.
void finish_all_failed(const Bipartitioner& partitioner, const Hypergraph& g,
                       MultiRunResult& out, bool allow_all_failed) {
  if (out.best.valid()) return;
  if (!allow_all_failed) throw_all_failed(partitioner, g, out);
  if (out.status.ok()) {
    for (const RunRecord& rec : out.records) {
      if (!rec.status.ok()) {
        out.status = rec.status;
        break;
      }
    }
    if (out.status.ok()) {
      out.status = Status::failure(StatusCode::kError,
                                   "all runs failed without a status");
    }
  }
}

MultiRunResult run_many_sequential(Bipartitioner& partitioner,
                                   const Hypergraph& g,
                                   const BalanceConstraint& balance, int runs,
                                   std::uint64_t base_seed,
                                   const RunnerOptions& options) {
  const RunContext* context = options.context;
  MultiRunResult out;
  out.runs_requested = runs;
  out.cuts.reserve(static_cast<std::size_t>(runs));
  out.records.reserve(static_cast<std::size_t>(runs));
  WallTimer wall;
  for (int r = 0; r < runs; ++r) {
    // Run 0 is always attempted: even with an already-expired budget the
    // engines stop at their first poll and return a validated best-effort
    // partition, so --on-timeout=best has something to report.
    if (r > 0 && context && context->stop_code() != StatusCode::kOk) {
      out.status = Status::failure(
          context->stop_code(), "multi-start stopped after " +
                                    std::to_string(r) + " of " +
                                    std::to_string(runs) + " runs");
      break;
    }
    const std::uint64_t seed = mix_seed(base_seed, static_cast<std::uint64_t>(r));
    RunTelemetry run_telemetry;
    run_telemetry.seed = seed;
    const bool collecting =
        options.collect_telemetry &&
        partitioner.attach_telemetry(&run_telemetry.refine);
    RunOutcome outcome = run_checked(partitioner, g, balance, seed, context);
    if (collecting) partitioner.attach_telemetry(nullptr);

    RunRecord record = make_record(outcome, seed);
    if (outcome.has_result()) {
      out.cuts.push_back(outcome.result.cut_cost);
      if (collecting) {
        run_telemetry.cut = outcome.result.cut_cost;
        run_telemetry.seconds = outcome.cpu_seconds;
        out.telemetry.push_back(std::move(run_telemetry));
      }
      if (!out.best.valid() || outcome.result.cut_cost < out.best.cut_cost) {
        out.best = std::move(outcome.result);
        out.best_seed = seed;
      }
    }
    // A failed run (no result) is recorded and the loop continues: one bad
    // seed must not abort the whole multi-start.
    out.records.push_back(std::move(record));
  }
  // The skip check above only runs before a next run; a budget that expired
  // during the last attempted run must still surface in the overall status.
  if (out.status.ok() && context &&
      context->stop_code() != StatusCode::kOk) {
    out.status = Status::failure(context->stop_code(),
                                 "stopped during the final attempted run");
  }
  finish_timing(out, wall.seconds());
  finish_all_failed(partitioner, g, out, options.allow_all_failed);
  return out;
}

/// The deterministic dispatch path (options.threads >= 1): every run gets a
/// cloned partitioner, a forked fault injector, its own DegradationLog and
/// a per-worker CancelToken sharing the caller's deadline through a
/// StopBroadcast.  All requested runs are attempted (a broadcast stop makes
/// the remaining runs finish at their first poll with their best validated
/// prefix — never a schedule-dependent skip), and the merge walks slots in
/// seed order, so the result is identical for every thread count.
MultiRunResult run_many_parallel(Bipartitioner& partitioner,
                                 const Hypergraph& g,
                                 const BalanceConstraint& balance, int runs,
                                 std::uint64_t base_seed,
                                 const RunnerOptions& options) {
  const RunContext* context = options.context;
  if (!partitioner.clone()) {
    throw std::invalid_argument(
        partitioner.name() +
        ": clone() unsupported; required for run_many with threads >= 1");
  }

  struct Slot {
    RunOutcome outcome;
    RunTelemetry telemetry;
    bool collected = false;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(runs));

  const Deadline deadline = context && context->cancel
                                ? context->cancel->deadline()
                                : Deadline::never();
  StopBroadcast broadcast;
  // An externally pre-stopped context (expired budget, prior cancellation)
  // is observed before dispatch so every run sees it at its first poll.
  if (context && context->stop_code() != StatusCode::kOk) {
    broadcast.publish(context->stop_code());
  }

  WallTimer wall;
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<std::size_t>(runs));
  {
    ThreadPool pool(options.threads < runs ? options.threads : runs);
    for (int r = 0; r < runs; ++r) {
      futures.push_back(pool.submit([&, r] {
        Slot& slot = slots[static_cast<std::size_t>(r)];
        const std::uint64_t seed =
            mix_seed(base_seed, static_cast<std::uint64_t>(r));
        CancelToken token(deadline);
        token.bind_broadcast(&broadcast);
        FaultInjector injector =
            context && context->injector
                ? context->injector->fork(static_cast<std::uint64_t>(r))
                : FaultInjector();
        DegradationLog log;
        RunContext run_context;
        run_context.cancel = &token;
        run_context.injector = &injector;
        run_context.degradations = &log;
        const std::unique_ptr<Bipartitioner> algo = partitioner.clone();
        if (!algo) {
          slot.outcome.status =
              Status::failure(StatusCode::kError, "clone() returned null");
          return;
        }
        slot.collected = options.collect_telemetry &&
                         algo->attach_telemetry(&slot.telemetry.refine);
        slot.outcome = run_checked(*algo, g, balance, seed, &run_context);
        if (slot.collected) algo->attach_telemetry(nullptr);
      }));
    }
    for (std::size_t r = 0; r < futures.size(); ++r) {
      try {
        futures[r].get();
      } catch (const std::exception& e) {
        // run_checked never throws; this catches clone/dispatch failures.
        slots[r].outcome = RunOutcome{};
        slots[r].outcome.status = Status::failure(StatusCode::kError, e.what());
      }
    }
  }
  const double wall_seconds = wall.seconds();

  MultiRunResult out;
  out.runs_requested = runs;
  out.cuts.reserve(static_cast<std::size_t>(runs));
  out.records.reserve(static_cast<std::size_t>(runs));
  // Seed-ordered reduction: records, cuts, telemetry, the caller's
  // degradation log and the best-selection all walk the slots in run order,
  // never completion order.
  for (int r = 0; r < runs; ++r) {
    Slot& slot = slots[static_cast<std::size_t>(r)];
    const std::uint64_t seed =
        mix_seed(base_seed, static_cast<std::uint64_t>(r));
    RunRecord record = make_record(slot.outcome, seed);
    if (context && context->degradations) {
      for (const DegradationEvent& e : record.degradations) {
        context->degradations->record(e.site, e.action, e.detail);
      }
    }
    if (slot.outcome.has_result()) {
      out.cuts.push_back(slot.outcome.result.cut_cost);
      if (slot.collected) {
        slot.telemetry.seed = seed;
        slot.telemetry.cut = slot.outcome.result.cut_cost;
        slot.telemetry.seconds = slot.outcome.cpu_seconds;
        out.telemetry.push_back(std::move(slot.telemetry));
      }
      // Deterministic best-selection: strictly-lower cut wins, so a tie
      // keeps the earliest run in seed order.
      if (!out.best.valid() ||
          slot.outcome.result.cut_cost < out.best.cut_cost) {
        out.best = std::move(slot.outcome.result);
        out.best_seed = seed;
      }
    }
    out.records.push_back(std::move(record));
  }
  if (broadcast.stopped()) {
    out.status = Status::failure(
        broadcast.code(),
        "parallel multi-start stopped; every run kept its best validated "
        "prefix");
  } else if (context && context->stop_code() != StatusCode::kOk) {
    out.status = Status::failure(context->stop_code(),
                                 "stopped during the final attempted run");
  }
  finish_timing(out, wall_seconds);
  finish_all_failed(partitioner, g, out, options.allow_all_failed);
  return out;
}

}  // namespace

std::uint64_t MultiRunResult::total_passes() const noexcept {
  std::uint64_t total = 0;
  for (const RunTelemetry& r : telemetry) total += r.refine.passes.size();
  return total;
}

std::uint64_t MultiRunResult::total_moves_attempted() const noexcept {
  std::uint64_t total = 0;
  for (const RunTelemetry& r : telemetry) {
    total += r.refine.total_moves_attempted();
  }
  return total;
}

std::uint64_t MultiRunResult::max_rollback_depth() const noexcept {
  std::uint64_t best = 0;
  for (const RunTelemetry& r : telemetry) {
    if (r.refine.max_rollback_depth() > best) {
      best = r.refine.max_rollback_depth();
    }
  }
  return best;
}

double MultiRunResult::max_gain_drift() const noexcept {
  double best = 0.0;
  for (const RunTelemetry& r : telemetry) {
    if (r.refine.max_gain_drift() > best) best = r.refine.max_gain_drift();
  }
  return best;
}

RunOutcome run_checked(Bipartitioner& partitioner, const Hypergraph& g,
                       const BalanceConstraint& balance, std::uint64_t seed,
                       const RunContext* context) {
  RunOutcome out;
  const std::size_t degrade_base =
      context && context->degradations ? context->degradations->events().size()
                                       : 0;
  const bool attached = context && partitioner.attach_context(context);
  WallTimer wall;
  ThreadCpuTimer cpu;
  try {
    PartitionResult result = partitioner.run(g, balance, seed);
    if (context && context->inject(FaultSite::kValidateFail)) {
      out.status = Status::failure(StatusCode::kInjectedFault,
                                   "injected validation failure");
    } else {
      const ValidationReport report = partitioner.validate(g, balance, result);
      if (!report.ok) {
        out.status = Status::failure(
            StatusCode::kInvalidResult,
            partitioner.name() + " produced invalid result on " + g.name() +
                ": " + report.message);
      } else {
        // The partition is valid even if the run was stopped early — the
        // pass engines roll back to their best validated prefix.  Keep it
        // and let the status say *why* the run ended.
        out.result = std::move(result);
        const StatusCode stop =
            context ? context->stop_code() : StatusCode::kOk;
        if (stop != StatusCode::kOk) {
          out.status = Status::failure(
              stop, "stopped early; returning best validated partition");
        }
      }
    }
  } catch (const std::exception& e) {
    out.status = Status::failure(StatusCode::kError, e.what());
  }
  out.wall_seconds = wall.seconds();
  out.cpu_seconds = cpu.seconds();
  if (attached) partitioner.attach_context(nullptr);
  if (context && context->degradations) {
    const auto& events = context->degradations->events();
    out.degradations.assign(events.begin() + static_cast<std::ptrdiff_t>(degrade_base),
                            events.end());
  }
  return out;
}

MultiRunResult run_many(Bipartitioner& partitioner, const Hypergraph& g,
                        const BalanceConstraint& balance, int runs,
                        std::uint64_t base_seed, const RunnerOptions& options) {
  if (runs <= 0) throw std::invalid_argument("run_many: runs must be positive");
  if (options.threads < 0) {
    throw std::invalid_argument("run_many: threads must be >= 0");
  }
  if (options.threads >= 1) {
    return run_many_parallel(partitioner, g, balance, runs, base_seed, options);
  }
  return run_many_sequential(partitioner, g, balance, runs, base_seed, options);
}

void write_stats_json(std::ostream& out, const std::string& circuit,
                      const std::string& algo, const MultiRunResult& result,
                      const StatsJsonOptions& json_options) {
  const bool timing = json_options.include_timing;
  out << "{\"circuit\":\"" << json_escape(circuit) << "\",\"algo\":\""
      << json_escape(algo) << "\",\"outcome\":\"" << to_string(result.status.code) << "\"";
  if (!result.status.message.empty()) {
    out << ",\"message\":\"" << json_escape(result.status.message) << "\"";
  }
  out << ",\"best_cut\":";
  put_double(out, result.best_cut());
  out << ",\"best_seed\":" << result.best_seed
      << ",\"runs_requested\":" << result.runs_requested
      << ",\"runs_attempted\":" << result.runs_attempted()
      << ",\"runs_failed\":" << result.runs_failed();
  if (timing) {
    out << ",\"total_wall_seconds\":";
    put_double(out, result.total_wall_seconds);
    out << ",\"total_cpu_seconds\":";
    put_double(out, result.total_cpu_seconds);
    out << ",\"wall_seconds_per_run\":";
    put_double(out, result.wall_seconds_per_run);
    out << ",\"cpu_seconds_per_run\":";
    put_double(out, result.cpu_seconds_per_run);
  }
  out << ",\"run_records\":[";
  bool first = true;
  for (const RunRecord& r : result.records) {
    if (!first) out << ",";
    first = false;
    write_json(out, r, timing);
  }
  out << "],\"runs\":[";
  first = true;
  for (const RunTelemetry& r : result.telemetry) {
    if (!first) out << ",";
    first = false;
    write_json(out, r, timing);
  }
  out << "]}";
}

}  // namespace prop
