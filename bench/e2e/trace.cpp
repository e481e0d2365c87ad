// Traced replay: the per-layer numbers of the end-to-end benchmark.
//
// Every job runs twice.  First as the library call e2e_driver measures
// (run_many on the real partitioner, or the real Server), then replayed
// through the public stage functions with a span around every call
// (replay.h).  The replay must reproduce the library call's partition, cost
// and stats-json byte for byte, or the run exits with kExitReplay: the
// per-layer numbers always describe the program that was measured.
//
// A stage every workload runs is reported in seconds; a stage some
// workloads bypass is reported as its share of the traced job's wall time,
// so it reads 0 where it is bypassed.  Counters and ratios come from the
// refiners' PassStats.  Timing metrics are medians over every traced job;
// counters are medians over the first trace_jobs jobs, which every run of a
// seed replays identically.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <sstream>

#include "hypergraph/hgr_io.h"
#include "hypergraph/mcnc_suite.h"
#include "replay.h"
#include "service/algo_factory.h"
#include "service/wire.h"

namespace e2e {
namespace {

constexpr double kUndefined = std::numeric_limits<double>::quiet_NaN();
constexpr int kMaxLoggedFailures = 5;

struct MetricSpec {
  const char* name;
  const char* unit;
  bool counter;  ///< deterministic: taken over the first trace_jobs jobs
};

// Per-job values, aggregated as a median over jobs (undefined ratios skipped).
const MetricSpec kJobMetrics[] = {
    {"hypergraph.contract_share", "fraction", false},
    {"hypergraph.contract_pins", "count", true},
    {"multilevel.cluster_share", "fraction", false},
    {"multilevel.project_share", "fraction", false},
    {"multilevel.initial_share", "fraction", false},
    {"multilevel.refine_share", "fraction", false},
    {"multilevel.refine_finest_share", "fraction", false},
    {"multilevel.levels", "count", true},
    {"multilevel.coarsest_nodes", "count", true},
    {"core.refine_s", "s", false},
    {"core.pass_s", "s", false},
    {"core.refine_setup_s", "s", false},
    {"core.passes", "count", true},
    {"core.moves_attempted", "count", true},
    {"core.moves_accepted", "count", true},
    {"core.refresh_skips", "count", true},
    {"core.accept_ratio", "ratio", true},
    {"core.us_per_move", "us", false},
    {"datastruct.container_ops", "count", true},
    {"datastruct.ops_per_move", "ratio", true},
    {"fm.refine_share", "fraction", false},
    {"fm.passes", "count", true},
    {"kway.rb_share", "fraction", false},
    {"kway.greedy_share", "fraction", false},
    {"kway.prop_share", "fraction", false},
    {"kway.prop_moves_attempted", "count", true},
    {"kway.prop_accept_ratio", "ratio", true},
    {"kway.prop_gain_pct", "%", true},
    {"partition.validate_s", "s", false},
    {"partition.stats_json_s", "s", false},
    {"partition.stats_json_bytes", "B", true},
};

// Layers by source module.  "core" holds both PROP refiners (2-way in
// src/core, k-way PROP in src/kway): they are one engine at k = 2.
const char* const kLayers[] = {"bench", "hypergraph", "multilevel", "partition",
                               "core",  "fm",         "kway",       "service"};

struct JobValues {
  double job_s = 0.0;
  double lib_s = 0.0;
  bool nesting_ok = true;
  std::map<std::string, double> v;
};

struct EngineTotals {
  double passes = 0, attempted = 0, accepted = 0, refresh_skips = 0;
  double pass_cpu = 0, pass_wall = 0, ops = 0;

  void add(const prop::RefineTelemetry& t) {
    for (const prop::PassStats& p : t.passes) {
      passes += 1;
      attempted += static_cast<double>(p.moves_attempted);
      accepted += static_cast<double>(p.moves_accepted);
      refresh_skips += static_cast<double>(p.refresh_skips);
      pass_cpu += p.cpu_seconds;
      pass_wall += p.wall_seconds;
      ops += static_cast<double>(p.ops.total());
    }
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : kUndefined; }

/// A per-job value of a stage the job never ran is undefined, not 0, so a
/// median describes the jobs that run the stage.
double when(bool ran, double value) { return ran ? value : kUndefined; }

/// Per-job values from the job's spans [first, end) and its counters.
JobValues summarize(const Tracer& tracer, std::size_t first, const Counters& c,
                    double lib_s) {
  const std::vector<SpanRecord>& spans = tracer.spans();
  JobValues out;
  out.lib_s = lib_s;
  std::map<std::string, double> stage;
  std::map<std::string, double> layer_self;
  std::vector<double> child(spans.size() - first, 0.0);
  const auto seconds = [](const SpanRecord& s) { return (s.end_us - s.start_us) * 1e-6; };
  for (std::size_t i = first; i < spans.size(); ++i) {
    stage[spans[i].name] += seconds(spans[i]);
    if (spans[i].parent >= static_cast<int>(first)) {
      child[static_cast<std::size_t>(spans[i].parent) - first] += seconds(spans[i]);
    }
  }
  for (std::size_t i = first; i < spans.size(); ++i) {
    const double self = seconds(spans[i]) - child[i - first];
    if (self < -1e-9) out.nesting_ok = false;
    layer_self[spans[i].layer] += std::max(0.0, self);
  }
  out.job_s = seconds(spans[first]);
  const auto share = [&](double s) { return when(s > 0.0, s / out.job_s); };
  auto& v = out.v;

  double level_refine = 0.0;
  for (const double s : c.level_refine_s) level_refine += s;
  const bool multilevel = c.levels > 0.0;
  v["hypergraph.contract_share"] = share(stage["contract"]);
  v["hypergraph.contract_pins"] = when(multilevel, c.contract_pins);
  v["multilevel.cluster_share"] = share(stage["attraction_clusters"]);
  v["multilevel.project_share"] = share(stage["project_partition"] + stage["repair_balance"] +
                                        stage["project_parts"]);
  v["multilevel.initial_share"] = share(stage["initial"]);
  v["multilevel.refine_share"] = share(level_refine);
  v["multilevel.refine_finest_share"] =
      c.level_refine_s.empty() ? kUndefined : ratio(c.level_refine_s.back(), level_refine);
  v["multilevel.levels"] = when(multilevel, c.levels);
  v["multilevel.coarsest_nodes"] = when(multilevel, c.coarsest_nodes);

  EngineTotals prop;
  prop.add(c.prop2);
  prop.add(c.kprop);
  EngineTotals kprop;
  kprop.add(c.kprop);
  EngineTotals fm;
  fm.add(c.fm);
  const double refine_s = stage["prop_refine"] + stage["kway_prop_refine"];
  const bool ran_prop = prop.passes > 0;
  v["core.refine_s"] = when(ran_prop, refine_s);
  v["core.pass_s"] = when(ran_prop, prop.pass_cpu);
  v["core.refine_setup_s"] = when(ran_prop, refine_s - prop.pass_wall);
  v["core.passes"] = when(ran_prop, prop.passes);
  v["core.moves_attempted"] = when(ran_prop, prop.attempted);
  v["core.moves_accepted"] = when(ran_prop, prop.accepted);
  v["core.refresh_skips"] = when(ran_prop, prop.refresh_skips);
  v["core.accept_ratio"] = ratio(prop.accepted, prop.attempted);
  v["core.us_per_move"] = ratio(prop.pass_wall * 1e6, prop.attempted);
  v["datastruct.container_ops"] = prop.ops + fm.ops;
  v["datastruct.ops_per_move"] = ratio(prop.ops + fm.ops, prop.attempted + fm.attempted);
  v["fm.refine_share"] = share(stage["fm_refine"]);
  v["fm.passes"] = when(fm.passes > 0, fm.passes);
  v["kway.rb_share"] = share(stage["recursive_bisection"]);
  v["kway.greedy_share"] = share(stage["kway_refine"]);
  v["kway.prop_share"] = share(stage["kway_prop_refine"]);
  v["kway.prop_moves_attempted"] = when(kprop.passes > 0, kprop.attempted);
  v["kway.prop_accept_ratio"] = ratio(kprop.accepted, kprop.attempted);
  v["kway.prop_gain_pct"] = ratio((c.kway_before - c.kway_after) * 100.0, c.kway_before);
  v["partition.validate_s"] = stage["validate"];
  v["partition.stats_json_s"] = stage["write_stats_json"];
  for (const char* layer : kLayers) {
    v[std::string(layer) + ".self_share"] = share(layer_self[layer]);
  }
  return out;
}

struct Collected {
  std::vector<JobValues> jobs;
  std::vector<std::pair<double, double>> parses;  ///< (bytes, seconds)
  std::vector<double> generate_s;
  QualityTable quality;
  Digest digest;
  std::uint64_t mismatches = 0;
  std::uint64_t failed = 0;
  // Served workloads only (server phase of the traced run).
  std::vector<double> submit_share, queue_share, exec_share;
  double response_bytes_mean = 0.0;
  double worker_busy_frac = 0.0;

  void mismatch(const std::string& what) {
    if (++mismatches <= kMaxLoggedFailures) {
      std::fprintf(stderr, "replay mismatch: %s\n", what.c_str());
    }
  }
  void failure(const std::string& what) {
    if (++failed <= kMaxLoggedFailures) std::fprintf(stderr, "job failed: %s\n", what.c_str());
  }
};

std::string stats_json(const prop::MultiRunResult& r, const std::string& circuit,
                       const std::string& algo) {
  std::ostringstream out;
  prop::StatsJsonOptions options;
  options.include_timing = false;
  prop::write_stats_json(out, circuit, algo, r, options);
  return out.str();
}

void trace_batch(const Workload& w, const Options& o, Replay& replay,
                 const std::vector<prop::Hypergraph>& graphs, Collected& c) {
  Tracer& t = replay.tracer;
  const auto library = make_partitioner(w.algo);
  const auto replayed = make_batch_replay(w.algo, *library, replay);
  const Promise promise = batch_promise(w.algo);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;
       i < w.trace_jobs || seconds_between(start, Clock::now()) < o.seconds; ++i) {
    const BatchJob job = w.batch_job(i);
    const prop::Hypergraph& g = graphs[job.input];
    BatchOutput lib;
    double lib_s = 0.0;
    const auto call_library = [&] {
      const Clock::time_point t0 = Clock::now();
      lib = run_batch_job(*library, g, job.seed);
      lib_s = seconds_between(t0, Clock::now());
    };
    BatchOutput rep;
    std::size_t first = 0;
    const auto call_replay = [&] {
      replay.begin_job(static_cast<std::int64_t>(i));
      first = t.spans().size();
      try {
        Span root(t, "job", "bench");
        rep.result = traced(t, "run_many", "partition", [&] {
          return prop::run_many(*replayed, g, batch_balance(g), 1, job.seed);
        });
        rep.stats_json = traced(t, "write_stats_json", "partition", [&] {
          return stats_json(rep.result, g.name(), replayed->name());
        });
      } catch (const std::exception& e) {
        rep.error = e.what();
      }
    };
    // Alternate the order so warm caches favour neither side of the overhead.
    if (i % 2 == 0) {
      call_library();
      call_replay();
    } else {
      call_replay();
      call_library();
    }
    c.jobs.push_back(summarize(t, first, replay.counters, lib_s));

    std::vector<std::uint8_t>& sides = rep.result.best.side;
    if (o.corrupt && i == 0 && !sides.empty()) sides[0] ^= 1;
    const std::string id = "job " + std::to_string(i);
    if (!lib.error.empty()) {
      c.failure(id + ": " + lib.error);
      continue;
    }
    const OracleVerdict v = oracle_check(w.inputs[job.input].graph, lib.result.best.side,
                                         promise, lib.result.best.cut_cost);
    if (!v.ok) c.failure(id + ": " + v.message);
    if (!rep.error.empty() || sides != lib.result.best.side ||
        std::memcmp(&rep.result.best.cut_cost, &lib.result.best.cut_cost, sizeof(double)) != 0 ||
        rep.stats_json != lib.stats_json) {
      c.mismatch(id + (rep.error.empty() ? " differs from the library call" : ": " + rep.error));
    }
    if (i < w.trace_jobs) {
      c.quality.add(w.group(job), lib.result.best.cut_cost);
      c.digest.add_job(i, sides);
      c.jobs.back().v["partition.stats_json_bytes"] = static_cast<double>(rep.stats_json.size());
    }
  }
}

std::unique_ptr<prop::Bipartitioner> served_algo(const ServeJob& job) {
  return job.k > 2 ? prop::service::make_kway_algo(job.algo, static_cast<prop::NodeId>(job.k))
                   : prop::service::make_algo(job.algo);
}

prop::Hypergraph served_ingest(const Input& in, bool inline_hgr) {
  if (!inline_hgr) return prop::make_mcnc_circuit(in.name);
  std::istringstream text(in.hgr);
  return prop::read_hgr(text, "inline", prop::service::ServerConfig{}.hgr_limits);
}

/// A served job's worker-side work (ingest, partitioner, run_many,
/// stats-json, side encoding), untraced, on this thread alone: the base the
/// tracing overhead is measured against.  The server's own exec_ms is not a
/// fair base, since its two workers run concurrently.
double served_library_s(const Workload& w, const ServeJob& job) {
  const Clock::time_point t0 = Clock::now();
  const prop::Hypergraph g = served_ingest(w.inputs[job.input], job.inline_hgr);
  const auto library = served_algo(job);
  prop::RunnerOptions options;
  options.allow_all_failed = true;
  const prop::MultiRunResult m = prop::run_many(
      *library, g, prop::BalanceConstraint::forty_five(g), job.runs, job.seed, options);
  const std::string json = stats_json(m, g.name(), library->name());
  const std::string side = prop::service::encode_side(m.best.side);
  return json.empty() || side.empty() ? 0.0 : seconds_between(t0, Clock::now());
}

void trace_served(const Workload& w, const Options& o, Replay& replay, Collected& c) {
  Tracer& t = replay.tracer;
  ServeHarness harness;
  // Each job then runs twice more on this thread (untraced and replayed);
  // a fifth of the budget for the server phase keeps the run near --seconds.
  const ServeHarness::Run run = harness.run(w, o.seconds / 5.0, w.trace_jobs);
  if (!run.error.empty()) {
    c.failure(run.error);
    return;
  }
  double exec_total_s = 0.0;
  double response_bytes = 0.0;
  for (const ServedJob& j : run.jobs) {
    c.submit_share.push_back(j.submit_s / j.latency_s);
    c.queue_share.push_back(j.queue_ms * 1e-3 / j.latency_s);
    c.exec_share.push_back(j.exec_ms * 1e-3 / j.latency_s);
    exec_total_s += j.exec_ms * 1e-3;
    response_bytes += static_cast<double>(j.response.size());
  }
  c.response_bytes_mean = response_bytes / static_cast<double>(run.jobs.size());
  c.worker_busy_frac = exec_total_s / (ServeHarness::kWorkers * run.wall_s);

  for (std::size_t i = 0; i < run.jobs.size(); ++i) {
    const ServeJob job = w.serve_job(i);
    const ServedCheck check = check_served(w, job, run.jobs[i].response);
    const double lib_s = served_library_s(w, job);
    replay.begin_job(static_cast<std::int64_t>(i));
    const std::size_t first = t.spans().size();
    std::string json;
    std::string side;
    std::string error;
    try {
      Span root(t, "job", "bench");
      const Input& in = w.inputs[job.input];
      prop::Hypergraph g;
      {
        Span ingest(t, job.inline_hgr ? "read_hgr" : "make_mcnc_circuit", "hypergraph");
        g = served_ingest(in, job.inline_hgr);
        const double s = ingest.close();
        if (job.inline_hgr) {
          c.parses.emplace_back(static_cast<double>(in.hgr.size()), s);
        } else {
          c.generate_s.push_back(s);
        }
      }
      const auto library = traced(t, "make_algo", "service", [&] { return served_algo(job); });
      const auto replayed = make_served_replay(job, *library, replay);
      prop::RunnerOptions options;
      options.allow_all_failed = true;
      const prop::MultiRunResult m = traced(t, "run_many", "partition", [&] {
        return prop::run_many(*replayed, g, prop::BalanceConstraint::forty_five(g), job.runs,
                              job.seed, options);
      });
      json = traced(t, "write_stats_json", "partition",
                    [&] { return stats_json(m, g.name(), library->name()); });
      side = traced(t, "encode_side", "service",
                    [&] { return prop::service::encode_side(m.best.side); });
    } catch (const std::exception& e) {
      error = e.what();
    }
    c.jobs.push_back(summarize(t, first, replay.counters, lib_s));

    if (o.corrupt && i == 0 && !side.empty()) side[0] = side[0] == '0' ? '1' : '0';
    if (!check.ok) {
      c.failure(check.message);
      continue;
    }
    if (!error.empty() || json != check.result || side != check.partition) {
      c.mismatch(job_id(i) + (error.empty() ? " differs from the server's response" : ": " + error));
    }
    if (i < w.trace_jobs) {
      c.quality.add(w.group(job), check.cost);
      c.digest.add_job(i, check.parts);
      c.jobs.back().v["partition.stats_json_bytes"] = static_cast<double>(json.size());
    }
  }
}

/// Median over jobs of one per-job value, skipping undefined entries.
double job_median(const std::vector<JobValues>& jobs, const std::string& name,
                  std::size_t limit) {
  std::vector<double> values;
  for (std::size_t i = 0; i < jobs.size() && i < limit; ++i) {
    const auto it = jobs[i].v.find(name);
    if (it != jobs[i].v.end() && !std::isnan(it->second)) values.push_back(it->second);
  }
  return median(values);
}

int run(const Options& o) {
  const Workload w = make_workload(o.workload, o.seed, o.smoke);
  Replay replay;
  Tracer& t = replay.tracer;
  Collected c;

  // Set-up ingest, as e2e_driver does it (once here: spans, not repetitions).
  std::vector<prop::Hypergraph> graphs;
  for (const Input& in : w.inputs) {
    if (!w.served) c.generate_s.push_back(in.generate_s);
    if (in.hgr.empty()) continue;
    Span ingest(t, "read_hgr", "hypergraph");
    graphs.push_back(parse_input(in));
    c.parses.emplace_back(static_cast<double>(in.hgr.size()), ingest.close());
  }
  if (w.served) {
    trace_served(w, o, replay, c);
  } else {
    trace_batch(w, o, replay, graphs, c);
  }

  bool nesting_ok = true;
  std::vector<double> job_s, lib_s;
  for (const JobValues& j : c.jobs) {
    nesting_ok = nesting_ok && j.nesting_ok;
    job_s.push_back(j.job_s);
    lib_s.push_back(j.lib_s);
  }
  if (!nesting_ok) c.mismatch("a child span outlasts its parent");
  double parse_bytes = 0.0, parse_s = 0.0;
  std::vector<double> parse_times;
  for (const auto& [bytes, s] : c.parses) {
    parse_bytes += bytes;
    parse_s += s;
    parse_times.push_back(s);
  }

  Report report(w.name, o.seed, "trace", o.smoke);
  report.set_counts(c.jobs.size(), c.failed + c.mismatches);
  report.set_correct(c.failed == 0 && c.mismatches == 0 && !c.jobs.empty());
  report.metric("bench.traced_job_s_p50", median(job_s), "s");
  report.metric("bench.trace_overhead_pct",
                (median(job_s) - median(lib_s)) / median(lib_s) * 100.0, "%");
  report.metric("bench.jobs_traced", static_cast<double>(c.jobs.size()), "count");
  report.metric("hypergraph.parse_s", median(parse_times), "s");
  report.metric("hypergraph.parse_mb_per_s", parse_bytes / 1e6 / parse_s, "MB/s");
  report.metric("hypergraph.generate_s", median(c.generate_s), "s");
  for (const MetricSpec& m : kJobMetrics) {
    const double value = job_median(c.jobs, m.name, m.counter ? w.trace_jobs : c.jobs.size());
    report.metric(m.name, value, m.unit);
    if (m.counter) report.exact(m.name, value);
  }
  for (const char* layer : kLayers) {
    const std::string name = std::string(layer) + ".self_share";
    report.metric(name, job_median(c.jobs, name, c.jobs.size()), "fraction");
  }
  report.metric("partition.cut_sd", c.quality.cut_sd(), "cost");
  report.metric("service.submit_share_p50", median(c.submit_share), "fraction");
  report.metric("service.queue_share_p50", median(c.queue_share), "fraction");
  report.metric("service.queue_share_p90", percentile(c.queue_share, 0.9), "fraction");
  report.metric("service.exec_share_p50", median(c.exec_share), "fraction");
  report.metric("service.response_bytes_mean", c.response_bytes_mean, "B");
  report.metric("service.worker_busy_frac", c.worker_busy_frac, "fraction");
  report.exact("replay_digest", c.digest.hex());
  report.exact("partition.cut_sd", c.quality.cut_sd());
  report.info("replay_mismatches", static_cast<double>(c.mismatches));
  report.print(stdout);

  if (!o.trace_out.empty() && !t.write(o.trace_out, w.name, o.seed)) {
    std::fprintf(stderr, "e2e_trace: cannot write %s\n", o.trace_out.c_str());
    return 1;
  }
  if (c.mismatches > 0) return kExitReplay;
  return c.failed == 0 ? 0 : kExitOracle;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const auto options = e2e::parse_options(argc, argv, /*allow_trace_out=*/true);
  if (!options) return e2e::kExitUsage;
  if (options->self_test) {
    const int failures = e2e::run_common_self_test();
    std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : e2e::kExitSelfTest;
  }
  try {
    return e2e::run(*options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_trace: %s\n", e.what());
    return 1;
  }
}
