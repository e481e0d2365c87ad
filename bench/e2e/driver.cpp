// Untraced end-to-end driver: the numbers a user of the library pays for.
//
// One workload per process.  The measured phase runs jobs back to back
// until --seconds have passed and at least the workload's quality jobs are
// done.  Set-up (parse every .hgr text, construct the partitioner or the
// Server) is repeated five times first and then once every tenth of the
// run, with the measured phase's clocks stopped, and reported as the
// median: host contention comes in bursts of up to a second, which a
// quarter-second block of repetitions cannot average out.  Every output is
// graded by the bench-local oracle; the last stdout line is the JSON report
// (see Report in common.h).
#include <cstdio>
#include <exception>
#include <memory>
#include <vector>

#include "common.h"
#include "util/timer.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr int kSetupReps = 5;
constexpr double kSpreadSetupReps = 10.0;  // more repetitions, spread over the run
constexpr int kMaxLoggedFailures = 5;

struct Measured {
  std::vector<double> setup_s;
  std::vector<double> latency_s;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t failed = 0;
  QualityTable quality;
  Digest digest;
};

void log_failure(const Measured& m, const std::string& what) {
  if (m.failed <= kMaxLoggedFailures) std::fprintf(stderr, "job failed: %s\n", what.c_str());
}

void measure_batch(const Workload& w, const Options& o, Measured& m) {
  std::vector<prop::Hypergraph> graphs;
  std::unique_ptr<prop::Bipartitioner> algo;
  const auto setup = [&] {
    const Clock::time_point t0 = Clock::now();
    std::vector<prop::Hypergraph> parsed;
    for (const Input& in : w.inputs) parsed.push_back(parse_input(in));
    std::unique_ptr<prop::Bipartitioner> fresh = make_partitioner(w.algo);
    m.setup_s.push_back(seconds_between(t0, Clock::now()));
    graphs = std::move(parsed);  // the previous set is freed untimed
    algo = std::move(fresh);
  };
  for (int rep = 0; rep < kSetupReps; ++rep) setup();

  const Promise promise = batch_promise(w.algo);
  const Clock::time_point start = Clock::now();
  const prop::CpuTimer cpu;
  Clock::time_point last_setup = start;
  double paused_s = 0.0;
  double paused_cpu_s = 0.0;
  const auto elapsed = [&] { return seconds_between(start, Clock::now()) - paused_s; };
  for (std::size_t i = 0; i < w.quality_jobs || elapsed() < o.seconds ||
                          i % w.rotation.size() != 0;
       ++i) {
    if (o.seconds > 0.0 &&
        seconds_between(last_setup, Clock::now()) >= o.seconds / kSpreadSetupReps) {
      const Clock::time_point t0 = Clock::now();
      const prop::CpuTimer setup_cpu;
      setup();
      last_setup = Clock::now();
      paused_s += seconds_between(t0, last_setup);
      paused_cpu_s += setup_cpu.seconds();
    }
    const BatchJob job = w.batch_job(i);
    const Clock::time_point t0 = Clock::now();
    BatchOutput out = run_batch_job(*algo, graphs[job.input], job.seed);
    m.latency_s.push_back(seconds_between(t0, Clock::now()));
    if (!out.error.empty()) {
      ++m.failed;
      log_failure(m, out.error);
      continue;
    }
    std::vector<std::uint8_t>& parts = out.result.best.side;
    if (o.corrupt && i == 0) std::fill(parts.begin(), parts.end(), 0);
    const OracleVerdict v = oracle_check(w.inputs[job.input].graph, parts,
                                         promise, out.result.best.cut_cost);
    if (!v.ok) {
      ++m.failed;
      log_failure(m, "job " + std::to_string(i) + ": " + v.message);
    }
    if (i < w.quality_jobs) {
      m.quality.add(w.group(job), out.result.best.cut_cost);
      m.digest.add_job(i, parts);
    }
  }
  m.wall_s = elapsed();
  m.cpu_s = cpu.seconds() - paused_cpu_s;
}

void measure_served(const Workload& w, const Options& o, Measured& m) {
  const auto setup = [&] {
    const Clock::time_point t0 = Clock::now();
    for (const Input& in : w.inputs) {
      if (!in.hgr.empty()) parse_input(in);
    }
    auto fresh = std::make_unique<ServeHarness>();
    m.setup_s.push_back(seconds_between(t0, Clock::now()));
    return fresh;  // destroyed (workers joined) by the caller, untimed
  };
  std::unique_ptr<ServeHarness> harness;
  for (int rep = 0; rep < kSetupReps; ++rep) harness = setup();

  const ServeHarness::Run run =
      harness->run(w, o.seconds, w.quality_jobs, [&] { setup(); },
                   o.seconds > 0.0 ? o.seconds / kSpreadSetupReps : 0.0);
  m.wall_s = run.wall_s;
  m.cpu_s = run.cpu_s;
  if (!run.error.empty()) {
    m.failed = run.jobs.size();
    log_failure(m, run.error);
    return;
  }
  for (std::size_t i = 0; i < run.jobs.size(); ++i) {
    const ServeJob job = w.serve_job(i);
    m.latency_s.push_back(run.jobs[i].latency_s);
    ServedCheck c = check_served(w, job, run.jobs[i].response);
    if (c.ok && o.corrupt && i == 0) {
      std::fill(c.parts.begin(), c.parts.end(), 0);
      Promise promise;
      promise.k = job.k;
      promise.connectivity = job.k > 2;
      const OracleVerdict v = oracle_check(w.inputs[job.input].graph, c.parts, promise, c.cost);
      c.ok = v.ok;
      c.message = v.message;
    }
    if (!c.ok) {
      ++m.failed;
      log_failure(m, c.message);
      continue;
    }
    if (i < w.quality_jobs) {
      m.quality.add(w.group(job), c.cost);
      m.digest.add_job(i, c.parts);
    }
  }
}

int run(const Options& o) {
  const Workload w = make_workload(o.workload, o.seed, o.smoke);
  Measured m;
  if (w.served) {
    measure_served(w, o, m);
  } else {
    measure_batch(w, o, m);
  }

  const auto jobs = static_cast<double>(m.latency_s.size());
  Report report(w.name, o.seed, "e2e", o.smoke);
  report.set_counts(m.latency_s.size(), m.failed);
  report.set_correct(m.failed == 0 && !m.latency_s.empty());
  report.metric("setup_s", median(m.setup_s), "s");
  report.metric("jobs_per_s", jobs / m.wall_s, "1/s");
  report.metric("job_s_p50", median(m.latency_s), "s");
  report.metric("job_s_p90", percentile(m.latency_s, 0.9), "s");
  report.metric("cpu_s_per_job", m.cpu_s / jobs, "s");
  report.metric("cut_mean", m.quality.cut_mean(), "cost");
  report.metric("cut_best", m.quality.cut_best(), "cost");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.exact("digest", m.digest.hex());
  report.exact("cut_mean", m.quality.cut_mean());
  report.exact("cut_best", m.quality.cut_best());
  report.exact("quality_jobs", static_cast<double>(w.quality_jobs));
  report.info("jobs", jobs);
  report.info("p90_samples_beyond", static_cast<double>(samples_beyond(m.latency_s, 0.9)));
  report.info("measured_s", m.wall_s);
  report.info("setup_reps", static_cast<double>(m.setup_s.size()));
  report.print(stdout);
  return m.failed == 0 ? 0 : kExitOracle;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const auto options = e2e::parse_options(argc, argv, /*allow_trace_out=*/false);
  if (!options) return e2e::kExitUsage;
  if (options->self_test) {
    const int failures = e2e::run_common_self_test();
    std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : e2e::kExitSelfTest;
  }
  try {
    return e2e::run(*options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_driver: %s\n", e.what());
    return 1;
  }
}
