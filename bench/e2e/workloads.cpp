#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "core/prop_partitioner.h"
#include "hypergraph/generator.h"
#include "hypergraph/hgr_io.h"
#include "hypergraph/mcnc_suite.h"
#include "multilevel/multilevel_driver.h"
#include "multilevel/multilevel_kway.h"
#include "service/json.h"
#include "util/rng.h"
#include "util/timer.h"

namespace e2e {
namespace {

// Small bundled circuits for served jobs: short jobs, so the fixed per-job
// costs (decode, admission, regeneration, stats-json) stay visible.
const std::vector<std::string> kServedCircuits = {"balu", "bm1", "p1", "struct",
                                                  "t2",   "t3",  "t4", "t6"};
constexpr std::size_t kInlinePayloads = 6;

template <typename Generate>
Input generated(const std::string& name, bool with_text, Generate generate) {
  Input in;
  in.name = name;
  const Clock::time_point t0 = Clock::now();
  in.graph = generate();
  in.generate_s = seconds_between(t0, Clock::now());
  if (with_text) {
    std::ostringstream text;
    prop::write_hgr(in.graph, text);
    in.hgr = text.str();
  }
  return in;
}

Input bundled(const std::string& name, bool with_text) {
  return generated(name, with_text, [&] { return prop::make_mcnc_circuit(name); });
}

Input synthetic(const std::string& name, prop::NodeId nodes, std::uint64_t seed) {
  return generated(name, true, [&] {
    return prop::generate_circuit(prop::scaled_spec(name, nodes), seed);
  });
}

}  // namespace

std::string job_id(std::size_t index) {
  // snprintf, not "j" + std::to_string: GCC 12 reports a false -Wrestrict there.
  char buf[24];
  std::snprintf(buf, sizeof(buf), "j%zu", index);
  return buf;
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "flat-mcnc") {
    // The paper's flow: flat 2-way PROP at 45-55 on Table 1 circuits,
    // interleaved so a time-bounded run keeps the mix.  Seven circuits, not
    // six: with an even count the median job falls on the boundary between
    // the fast and the slow circuits and jumps between them from run to run.
    w.algo = Algo::kFlatProp;
    for (const char* c : {"balu", "bm1", "struct", "t3", "p2", "s9234", "industry2"}) {
      w.inputs.push_back(bundled(c, true));
    }
    for (std::size_t i = 0; i < w.inputs.size(); ++i) w.rotation.push_back(i);
    w.quality_jobs = smoke ? 14 : 210;  // 2 / 30 seeds per circuit
    w.trace_jobs = smoke ? 7 : 70;
  } else if (name == "ml-synth100k") {
    // One fixed synthetic, like the Table 1 circuits: the seed picks the
    // partition seeds, so runs differ in the engine's work, not the graph.
    w.algo = Algo::kMlProp;
    const prop::NodeId nodes = smoke ? 10000 : 100000;
    const std::string input = smoke ? "synth10k" : "synth100k";
    w.inputs.push_back(synthetic(input, nodes, prop::kSuiteSeed));
    w.rotation = {0};
    w.quality_jobs = smoke ? 3 : 8;
    w.trace_jobs = smoke ? 2 : 3;
  } else if (name == "kway8-ml") {
    // Two industry2 jobs per s15850 job (8x cheaper), so the median and p90
    // fall inside one circuit's distribution instead of between the two.
    w.algo = Algo::kMlKway8;
    for (const char* c : {"industry2", "s15850"}) w.inputs.push_back(bundled(c, true));
    w.rotation = smoke ? std::vector<std::size_t>{1, 0} : std::vector<std::size_t>{0, 0, 1};
    w.quality_jobs = smoke ? 2 : 18;  // industry2 12 seeds, s15850 6 (smoke: 1 each)
    w.trace_jobs = smoke ? 2 : 6;
  } else if (name == "serve-mixed") {
    w.served = true;
    for (const std::string& c : kServedCircuits) w.inputs.push_back(bundled(c, false));
    for (std::size_t i = 0; i < kInlinePayloads; ++i) {
      // 2-4k nodes: big enough that parsing the payload is real work.
      const auto nodes = static_cast<prop::NodeId>(
          2000 + prop::mix_seed(seed, 0x1A1ULL, i) % 2001);
      const std::string input = "inline" + std::to_string(i);
      w.inputs.push_back(synthetic(input, nodes, prop::mix_seed(seed, 0x1A2ULL, i)));
    }
    w.quality_jobs = smoke ? 40 : 400;
    w.trace_jobs = smoke ? 20 : 120;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

BatchJob Workload::batch_job(std::size_t i) const {
  BatchJob job;
  job.index = i;
  job.input = rotation[i % rotation.size()];
  job.seed = prop::mix_seed(seed, 0xBA7C4ULL, i);
  return job;
}

ServeJob Workload::serve_job(std::size_t i) const {
  // Mix: 50% prop runs=2 on a bundled circuit, 20% prop on an inline
  // payload, 15% fm runs=4, 15% k=4 recursive bisection + k-way PROP.
  prop::Rng rng(prop::mix_seed(seed, 0x5E4EULL, i));
  const double u = rng.uniform();
  ServeJob job;
  job.index = i;
  job.algo = "prop";
  const auto bundled_input = [&] {
    return static_cast<std::size_t>(rng.bounded(kServedCircuits.size()));
  };
  if (u < 0.50) {
    job.runs = 2;
    job.input = bundled_input();
  } else if (u < 0.70) {
    job.inline_hgr = true;
    job.input = kServedCircuits.size() +
                static_cast<std::size_t>(rng.bounded(kInlinePayloads));
  } else if (u < 0.85) {
    job.algo = "fm";
    job.runs = 4;
    job.input = bundled_input();
  } else {
    job.k = 4;
    job.input = bundled_input();
  }
  job.seed = rng() >> 1;
  return job;
}

std::string Workload::request_line(const ServeJob& job) const {
  // Only the fields this workload sets: engine knobs stay at their server
  // defaults, so removing a knob from the protocol cannot break the bench.
  std::string line = "{\"op\":\"submit\",\"id\":\"" + job_id(job.index) +
                     "\",\"algo\":\"" + job.algo + "\"";
  const Input& in = inputs[job.input];
  if (job.inline_hgr) {
    line += ",\"hgr\":\"" + prop::service::json_escape(in.hgr) + "\"";
  } else {
    line += ",\"circuit\":\"" + in.name + "\"";
  }
  line += ",\"runs\":" + std::to_string(job.runs) +
          ",\"seed\":" + std::to_string(job.seed);
  if (job.k != 2) line += ",\"k\":" + std::to_string(job.k);
  line += ",\"stats_timing\":false,\"return_partition\":true}";
  return line;
}

std::string Workload::group(const ServeJob& job) const {
  return inputs[job.input].name + "/" + job.algo + "/k" + std::to_string(job.k);
}

std::string Workload::group(const BatchJob& job) const {
  return inputs[job.input].name;
}

prop::Hypergraph parse_input(const Input& input) {
  std::istringstream in(input.hgr);
  return prop::read_hgr(in, input.name);
}

std::unique_ptr<prop::Bipartitioner> make_partitioner(Algo algo) {
  switch (algo) {
    case Algo::kFlatProp:
      return std::make_unique<prop::PropPartitioner>();
    case Algo::kMlProp:
      return std::make_unique<prop::MultilevelPartitioner>();
    case Algo::kMlKway8: {
      prop::MultilevelKWayConfig config;
      config.k = 8;
      return std::make_unique<prop::MultilevelKWayPartitioner>(config);
    }
  }
  return nullptr;
}

prop::BalanceConstraint batch_balance(const prop::Hypergraph& g) {
  return prop::BalanceConstraint::forty_five(g);
}

Promise batch_promise(Algo algo) {
  Promise p;
  if (algo == Algo::kMlKway8) {
    p.k = 8;
    p.connectivity = true;  // MultilevelKWayConfig's default objective
  }
  return p;
}

BatchOutput run_batch_job(prop::Bipartitioner& algo, const prop::Hypergraph& g,
                          std::uint64_t seed) {
  BatchOutput out;
  try {
    out.result = prop::run_many(algo, g, batch_balance(g), 1, seed);
    std::ostringstream json;
    prop::StatsJsonOptions options;
    options.include_timing = false;
    prop::write_stats_json(json, g.name(), algo.name(), out.result, options);
    out.stats_json = json.str();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

ServedCheck check_served(const Workload& w, const ServeJob& job,
                         const std::string& response) {
  ServedCheck c;
  const auto fail = [&](std::string message) {
    c.ok = false;
    c.message = job_id(job.index) + ": " + message;
    return c;
  };
  if (response.empty()) return fail("no response");
  const auto state = json_string_member(response, "state");
  if (state != std::optional<std::string>("done")) {
    return fail("state " + state.value_or("?") + ": " + response.substr(0, 300));
  }
  const auto result = json_member(response, "result");
  const auto partition = json_string_member(response, "partition");
  const auto best = result ? json_member(*result, "best_cut") : std::nullopt;
  if (!result || !partition || !best) return fail("response lacks result/partition");
  const auto parts = decode_parts(*partition);
  if (!parts) return fail("undecodable partition string");
  c.result = *result;
  c.partition = *partition;
  c.parts = *parts;
  c.cost = std::strtod(best->c_str(), nullptr);
  Promise promise;
  promise.k = job.k;
  promise.connectivity = job.k > 2;  // the server's k-way default objective
  const OracleVerdict v = oracle_check(w.inputs[job.input].graph, c.parts, promise, c.cost);
  if (!v.ok) return fail("oracle: " + v.message);
  c.ok = true;
  return c;
}

ServeHarness::ServeHarness()
    : server_(
          [] {
            prop::service::ServerConfig config;
            config.workers = kWorkers;
            config.queue_limit = 64;
            return config;
          }(),
          [this](const std::string& line) {
            const Clock::time_point at = Clock::now();
            std::lock_guard<std::mutex> lock(mutex_);
            arrivals_.push_back(Arrival{line, at});
            arrived_.notify_one();
          }) {}

ServeHarness::Run ServeHarness::run(const Workload& w, double seconds,
                                    std::size_t min_jobs,
                                    const std::function<void()>& pause,
                                    double pause_every_s) {
  Run out;
  std::vector<Clock::time_point> submitted_at;
  const Clock::time_point start = Clock::now();
  const prop::CpuTimer cpu;
  std::size_t outstanding = 0;
  Clock::time_point last_pause = start;
  bool pausing = false;
  double paused_s = 0.0;
  double paused_cpu_s = 0.0;

  const auto submit = [&] {
    const std::size_t i = out.jobs.size();
    const std::string line = w.request_line(w.serve_job(i));
    out.jobs.emplace_back();
    const Clock::time_point at = Clock::now();
    submitted_at.push_back(at);
    ++outstanding;
    server_.handle_line(line);
    out.jobs[i].submit_s = seconds_between(at, Clock::now());
  };
  const auto want_more = [&] {
    return out.jobs.size() < min_jobs ||
           seconds_between(start, Clock::now()) - paused_s < seconds;
  };

  for (int c = 0; c < kClients; ++c) submit();
  std::deque<Arrival> batch;
  while (outstanding > 0) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!arrived_.wait_for(lock, std::chrono::seconds(120),
                             [&] { return !arrivals_.empty(); })) {
        out.error = "no response within 120 s";
        return out;
      }
      batch.swap(arrivals_);
    }
    for (Arrival& a : batch) {
      const auto id = json_string_member(a.line, "id");
      const std::size_t i =
          id && id->size() > 1 ? std::strtoull(id->c_str() + 1, nullptr, 10) : out.jobs.size();
      if (i >= out.jobs.size() || !out.jobs[i].response.empty()) {
        out.error = "unexpected response: " + a.line.substr(0, 300);
        return out;
      }
      out.jobs[i].response = std::move(a.line);
      out.jobs[i].latency_s = seconds_between(submitted_at[i], a.at);
      --outstanding;
      if (pause && pause_every_s > 0.0 &&
          seconds_between(last_pause, a.at) >= pause_every_s) {
        pausing = true;
      }
      if (!pausing && want_more()) submit();
    }
    batch.clear();
    if (pausing && outstanding == 0) {
      const Clock::time_point t0 = Clock::now();
      const prop::CpuTimer pause_cpu;
      pause();
      last_pause = Clock::now();
      paused_s += seconds_between(t0, last_pause);
      paused_cpu_s += pause_cpu.seconds();
      pausing = false;
      for (int c = 0; c < kClients && want_more(); ++c) submit();
    }
  }
  out.wall_s = seconds_between(start, Clock::now()) - paused_s;
  out.cpu_s = cpu.seconds() - paused_cpu_s;
  server_.drain();
  for (std::size_t i = 0; i < out.jobs.size(); ++i) {
    if (const auto record = server_.store().find(job_id(i))) {
      out.jobs[i].queue_ms = record->queue_ms;
      out.jobs[i].exec_ms = record->exec_ms;
    }
  }
  return out;
}

}  // namespace e2e
