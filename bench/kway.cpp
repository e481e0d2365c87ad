// K-way pipeline benchmark (DESIGN.md Sec. 4j) — recursive bisection alone
// vs +greedy pass-based refinement vs +native k-way PROP, at k in {2, 4, 8},
// on MCNC circuits plus the 10^4-node scaled synthetic.
//
// One JSON row per (instance, k, engine) cell, engines:
//   * rb:      recursive bisection only (KWayRefinerKind::kNone)
//   * greedy:  rb + greedy k-way pass refinement
//   * prop:    rb + greedy + native k-way PROP (the shipped default)
// All three run the PROP bisector inside recursive_bisection with the same
// seeds, so the engines differ only in the refinement stack.  Objective is
// connectivity (sum c(n) * (lambda(n) - 1)); rows record the cut cost too.
//
// Every run is validated by run_many through KWayPartitioner::validate
// (exact KWayState cost recompute); any failed run exits 6.
// --assert-quality enforces the headline contract (exit 5): at k = 4 and
// k = 8 on every instance, prop matches or beats greedy on best
// connectivity.  This holds by construction — the PROP pass starts from the
// greedy result and rolls back to its best exact-gain prefix — so a
// violation means the speculative pass or its rollback broke.
//
// scripts/verify.sh runs --fast (p1 + synth10000) with --baseline against
// the committed BENCH_kway.json: exit 4 on a > --max-regress wall-time
// regression per cell, same matcher/noise policy as gain_kernels.
//
// Flags: --fast, --circuit NAME, --runs N, --seed N, --threads N,
// --out FILE, --baseline FILE, --max-regress X, --assert-quality.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hypergraph/generator.h"
#include "hypergraph/mcnc_suite.h"
#include "partition/kway_state.h"
#include "partition/runner.h"
#include "service/algo_factory.h"
#include "util/cli.h"
#include "util/timer.h"

namespace {

using prop::NodeId;

struct Row {
  std::string bench = "kway";
  std::string instance;
  int k = 0;
  std::string engine;  // rb | greedy | prop
  std::uint64_t ops = 0;
  double best_cost = 0.0;  // connectivity (the optimized objective)
  double mean_cost = 0.0;
  double best_cut = 0.0;
  double cpu_seconds_per_run = 0.0;
  double wall_seconds = 0.0;
  double impr_vs_greedy_pct = 0.0;  // prop rows only
};

// --- baseline comparison (same line-oriented reader as gain_kernels) -------
std::string extract_string(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\": \"";
  const auto at = line.find(pat);
  if (at == std::string::npos) return {};
  const auto start = at + pat.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return {};
  return line.substr(start, end - start);
}

double extract_double(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\": ";
  const auto at = line.find(pat);
  if (at == std::string::npos) return 0.0;
  return std::atof(line.c_str() + at + pat.size());
}

std::vector<Row> load_baseline(const std::string& path) {
  std::vector<Row> rows;
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.find("\"bench\"") == std::string::npos) continue;
    Row r;
    r.instance = extract_string(line, "instance");
    r.k = static_cast<int>(extract_double(line, "k"));
    r.engine = extract_string(line, "engine");
    r.ops = static_cast<std::uint64_t>(extract_double(line, "ops"));
    r.wall_seconds = extract_double(line, "wall_seconds");
    rows.push_back(r);
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const prop::CliArgs args(argc, argv);
  if (!prop::bench::check_flags(
          args,
          {"fast", "circuit", "runs", "seed", "threads", "out", "baseline",
           "max-regress", "assert-quality"},
          "[--fast] [--circuit NAME] [--runs N] [--seed N] [--threads N]\n"
          "          [--out FILE] [--baseline FILE] [--max-regress X]\n"
          "          [--assert-quality]")) {
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const int runs = static_cast<int>(args.get_int_or("runs", 3));
  const int threads = prop::bench::thread_count(args);
  const std::string out_path = args.get_or("out", "BENCH_kway.json");
  const std::string baseline_path = args.get_or("baseline", "");
  const double max_regress = args.get_double_or("max-regress", 0.25);
  const bool assert_quality = args.get_bool_or("assert-quality", false);

  std::vector<std::string> instances;
  if (const auto one = args.get("circuit")) {
    instances = {*one};
  } else if (args.get_bool_or("fast", false)) {
    instances = {"p1", "synth10000"};
  } else {
    instances = {"balu", "p1", "p2", "synth10000"};
  }
  const int ks[] = {2, 4, 8};
  const char* const engines[] = {"rb", "greedy", "prop"};

  std::optional<prop::RuntimeSession> session;
  try {
    session.emplace(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  prop::bench::OutcomeTracker outcomes;

  std::printf("k-way pipeline: rb vs +greedy vs +k-way PROP "
              "(objective connectivity, runs=%d, seed=%llu)\n\n",
              runs, static_cast<unsigned long long>(seed));
  std::printf("%-11s %3s %-7s %9s %9s %9s %11s %10s\n", "instance", "k",
              "engine", "best", "mean", "cut", "cpu s/run", "vs greedy");
  prop::bench::print_rule(78);

  std::vector<Row> rows;
  bool quality_ok = true;
  bool any_failed = false;

  for (const std::string& name : instances) {
    prop::Hypergraph g;
    try {
      g = name.rfind("synth", 0) == 0
              ? prop::generate_circuit(
                    prop::scaled_spec(
                        name, static_cast<NodeId>(
                                  std::atoll(name.c_str() + 5))),
                    prop::kSuiteSeed)
              : prop::make_mcnc_circuit(name);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error loading %s: %s\n", name.c_str(), e.what());
      return 2;
    }
    const prop::BalanceConstraint balance =
        prop::BalanceConstraint::forty_five(g);

    for (const int k : ks) {
      double greedy_best = 0.0;
      for (const char* const engine : engines) {
        const prop::KWayRefinerKind refiner =
            *prop::service::parse_kway_refiner(
                std::string(engine) == "rb" ? "none" : engine);
        const std::unique_ptr<prop::Bipartitioner> algo =
            prop::service::make_kway_algo("prop", static_cast<NodeId>(k),
                                          refiner,
                                          prop::KWayObjective::kConnectivity);
        if (session->context()) algo->attach_context(session->context());
        prop::RunnerOptions options;
        options.context = session->context();
        options.threads = threads;
        prop::WallTimer wall;
        const prop::MultiRunResult r =
            prop::run_many(*algo, g, balance, runs, seed, options);
        outcomes.observe(r);
        if (r.runs_failed() > 0) {
          any_failed = true;
          std::fprintf(stderr, "VALIDATION FAILURE: %s k=%d %s: %d runs\n",
                       name.c_str(), k, engine, r.runs_failed());
        }

        // best.cut_cost is the connectivity objective; recompute the plain
        // cut of the best partition for the informational column.
        std::vector<prop::NodeId> part(r.best.side.begin(),
                                       r.best.side.end());
        const prop::KWayState state(g, std::move(part),
                                    static_cast<NodeId>(k));

        Row row;
        row.instance = name;
        row.k = k;
        row.engine = engine;
        row.ops = static_cast<std::uint64_t>(r.runs_attempted());
        row.best_cost = r.best_cut();
        row.mean_cost = r.mean_cut();
        row.best_cut = state.cut_cost();
        row.cpu_seconds_per_run = r.cpu_seconds_per_run;
        row.wall_seconds = wall.seconds();
        if (row.engine == "greedy") greedy_best = row.best_cost;
        if (row.engine == "prop") {
          row.impr_vs_greedy_pct =
              prop::bench::improvement_pct(row.best_cost, greedy_best);
          if (k > 2 && row.best_cost > greedy_best) quality_ok = false;
          std::printf("%-11s %3d %-7s %9.0f %9.1f %9.0f %11.4f %+9.1f%%\n",
                      name.c_str(), k, engine, row.best_cost, row.mean_cost,
                      row.best_cut, row.cpu_seconds_per_run,
                      row.impr_vs_greedy_pct);
        } else {
          std::printf("%-11s %3d %-7s %9.0f %9.1f %9.0f %11.4f %10s\n",
                      name.c_str(), k, engine, row.best_cost, row.mean_cost,
                      row.best_cut, row.cpu_seconds_per_run, "-");
        }
        rows.push_back(row);
      }
    }
  }
  prop::bench::print_rule(78);

  // JSON out, one row per line (the baseline reader depends on that).
  std::ofstream f(out_path);
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  f << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "  {\"bench\": \"kway\", \"instance\": \"%s\", \"k\": %d, "
        "\"engine\": \"%s\", \"ops\": %llu, \"best_cost\": %.1f, "
        "\"mean_cost\": %.1f, \"best_cut\": %.1f, "
        "\"cpu_seconds_per_run\": %.6f, \"wall_seconds\": %.6f, "
        "\"impr_vs_greedy_pct\": %.2f}%s\n",
        r.instance.c_str(), r.k, r.engine.c_str(),
        static_cast<unsigned long long>(r.ops), r.best_cost, r.mean_cost,
        r.best_cut, r.cpu_seconds_per_run, r.wall_seconds,
        r.impr_vs_greedy_pct, i + 1 < rows.size() ? "," : "");
    f << buf;
  }
  f << "]\n";
  f.close();
  std::printf("\nwrote %s\n", out_path.c_str());

  int exit_code = outcomes.finish(*session);
  if (any_failed) {
    std::fprintf(stderr, "error: k-way validation failed on some runs\n");
    exit_code = 6;
  }

  // Perf-regression gate against the committed baseline: wall seconds
  // cell-by-cell, skipping noise-band cells (same policy as gain_kernels).
  if (!baseline_path.empty()) {
    constexpr double kAbsFloorSeconds = 0.005;
    const std::vector<Row> baseline = load_baseline(baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "error: baseline %s is empty or unreadable\n",
                   baseline_path.c_str());
      return 4;
    }
    int compared = 0;
    bool regressed = false;
    for (const Row& cur : rows) {
      for (const Row& base : baseline) {
        if (base.instance != cur.instance || base.k != cur.k ||
            base.engine != cur.engine || base.ops != cur.ops) {
          continue;
        }
        ++compared;
        const double limit =
            base.wall_seconds * (1.0 + max_regress) + kAbsFloorSeconds;
        if (cur.wall_seconds > limit &&
            cur.wall_seconds > kAbsFloorSeconds * 2) {
          regressed = true;
          std::fprintf(stderr,
                       "PERF REGRESSION: %s/k=%d/%s wall %.4fs vs baseline "
                       "%.4fs (limit %.4fs)\n",
                       cur.instance.c_str(), cur.k, cur.engine.c_str(),
                       cur.wall_seconds, base.wall_seconds, limit);
        }
      }
    }
    std::printf("baseline %s: compared %d cells, max allowed regression "
                "%.0f%%\n",
                baseline_path.c_str(), compared, max_regress * 100.0);
    if (compared == 0) {
      std::fprintf(stderr,
                   "error: no baseline cells matched this configuration\n");
      return 4;
    }
    if (regressed) {
      std::fprintf(stderr, "error: perf regression vs %s\n",
                   baseline_path.c_str());
      return 4;
    }
    std::printf("no perf regression vs baseline\n");
  }

  // Headline contract: at k > 2 the full pipeline never loses to its own
  // greedy prefix on best connectivity.
  if (assert_quality) {
    if (!quality_ok) {
      std::fprintf(stderr,
                   "QUALITY VIOLATION: k-way PROP lost to rb+greedy on best "
                   "connectivity at some k > 2 cell\n");
      exit_code = 5;
    } else {
      std::printf("quality contract satisfied\n");
    }
  }
  return exit_code;
}
