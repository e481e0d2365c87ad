// Multilevel crossover benchmark (DESIGN.md Sec. 4g) — flat PROP vs the
// multilevel V-cycle on scaled MCNC-like synthetic instances, plus the
// parallel-net merge kernel that sits on the coarsening critical path.
//
// Two benches, one JSON row per cell:
//   * partition:      run_many over {prop, ml-prop, ml-fm} per instance;
//                     records best/mean cut, cpu seconds per run and wall
//                     seconds.  ml rows carry cut_vs_flat_pct (paper-style
//                     improvement percentage) and cpu_vs_flat (flat cpu /
//                     ml cpu, > 1 means the V-cycle is also faster).
//   * contract-merge: the parallel-net merge from contract() in isolation,
//                     timed as the legacy std::map<pin-vector, cost> merge
//                     ("map") vs the shipped hash merge, prop::merge_nets
//                     ("hash"); both emit the identical lexicographically
//                     sorted (pins, cost) list, and the bench asserts that
//                     before trusting the timing.
//
// Instances: scaled_spec synthetics at 10^3 / 10^4 / 10^5 nodes (nets ~=
// 1.03x nodes, pins ~= 3.5x nodes — the Table 1 median ratios).  --fast
// keeps 10^3 + 10^4; scripts/verify.sh runs that subset as the perf gate
// against the committed BENCH_multilevel.json (--baseline, exit 4 on a
// > --max-regress wall-time regression, same cell matcher as
// gain_kernels).  --assert-crossover enforces the headline contract on the
// largest instance measured (exit 5): ml-prop strictly beats flat prop on
// best cut at equal-or-lower cpu seconds per run.
//
// Timing uses --min-of K (default 3) minima for the merge kernel; the
// partition rows are single-shot (run_many already amortizes over --runs).
//
// Flags: --fast, --nodes N (single instance), --runs N, --seed N,
// --threads N, --min-of K, --out FILE, --baseline FILE, --max-regress X,
// --assert-crossover.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/prop_partitioner.h"
#include "hypergraph/contraction.h"
#include "hypergraph/generator.h"
#include "hypergraph/mcnc_suite.h"
#include "multilevel/multilevel_driver.h"
#include "partition/runner.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using prop::NetId;
using prop::NodeId;

struct Row {
  std::string bench;     // "partition" | "contract-merge"
  std::string instance;  // "synth1000" etc.
  std::string engine;    // prop | ml-prop | ml-fm | map | hash
  std::uint64_t ops = 0;
  double best_cut = 0.0;
  double mean_cut = 0.0;
  double cpu_seconds_per_run = 0.0;
  double wall_seconds = 0.0;
  double cut_vs_flat_pct = 0.0;  // partition ml rows only
  double cpu_vs_flat = 0.0;      // partition ml rows only
  double speedup_vs_map = 0.0;   // contract-merge hash rows only
};

struct MergedNet {
  std::vector<NodeId> pins;
  double cost = 0.0;
};

/// Sorted/deduplicated coarse pin set of net `n`; empty when the net is
/// internal to one cluster (the merge loops skip those).
std::vector<NodeId> coarse_pins(const prop::Hypergraph& g, NetId n,
                                const std::vector<NodeId>& fine_to_coarse) {
  std::vector<NodeId> pins;
  for (const NodeId u : g.pins_of(n)) pins.push_back(fine_to_coarse[u]);
  std::sort(pins.begin(), pins.end());
  pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
  if (pins.size() < 2) pins.clear();
  return pins;
}

/// The pre-fix merge: an ordered map keyed by the full pin vector — every
/// insertion pays O(log nets) lexicographic vector compares.
std::vector<MergedNet> merge_with_map(const prop::Hypergraph& g,
                                      const std::vector<NodeId>& fine_to_coarse) {
  std::map<std::vector<NodeId>, double> merged;
  for (NetId n = 0; n < g.num_nets(); ++n) {
    const std::vector<NodeId> pins = coarse_pins(g, n, fine_to_coarse);
    if (pins.empty()) continue;
    merged[pins] += g.net_cost(n);
  }
  std::vector<MergedNet> out;
  out.reserve(merged.size());
  for (const auto& [pins, cost] : merged) out.push_back(MergedNet{pins, cost});
  return out;
}

/// The shipped merge, prop::merge_nets (contract()'s net step: one flat
/// pin buffer, an open-addressing hash table of net ids, one final sort
/// into lexicographic emission order), as a MergedNet list.
std::vector<MergedNet> to_merged_list(const prop::MergedNets& nets) {
  std::vector<MergedNet> out;
  out.reserve(nets.size());
  for (std::size_t j = 0; j < nets.size(); ++j) {
    const auto pins = nets.pins_of(j);
    out.push_back(MergedNet{{pins.begin(), pins.end()}, nets.costs[j]});
  }
  return out;
}

bool same_merge(const std::vector<MergedNet>& a, const std::vector<MergedNet>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].pins != b[i].pins || a[i].cost != b[i].cost) return false;
  }
  return true;
}

std::vector<Row> load_baseline(const std::string& path) {
  std::vector<Row> rows;
  for (const prop::service::JsonValue& row :
       prop::bench::load_baseline_rows(path)) {
    Row r;
    r.bench = prop::bench::row_string(row, "bench");
    r.instance = prop::bench::row_string(row, "instance");
    r.engine = prop::bench::row_string(row, "engine");
    r.ops = static_cast<std::uint64_t>(prop::bench::row_number(row, "ops"));
    r.wall_seconds = prop::bench::row_number(row, "wall_seconds");
    rows.push_back(r);
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const prop::CliArgs args(argc, argv);
  if (!prop::bench::check_flags(
          args,
          {"fast", "nodes", "runs", "seed", "threads", "min-of", "out",
           "baseline", "max-regress", "assert-crossover"},
          "[--fast] [--nodes N] [--runs N] [--seed N] [--threads N]\n"
          "          [--min-of K] [--out FILE] [--baseline FILE]\n"
          "          [--max-regress X] [--assert-crossover]")) {
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const int runs = static_cast<int>(args.get_int_or("runs", 3));
  const int min_of = static_cast<int>(args.get_int_or("min-of", 3));
  const int threads = prop::bench::thread_count(args);
  const std::string out_path = args.get_or("out", "BENCH_multilevel.json");
  const std::string baseline_path = args.get_or("baseline", "");
  const double max_regress = args.get_double_or("max-regress", 0.25);
  const bool assert_crossover = args.get_bool_or("assert-crossover", false);

  std::vector<NodeId> sizes;
  if (const auto one = args.get("nodes")) {
    sizes = {static_cast<NodeId>(args.get_int_or("nodes", 1000))};
  } else if (args.get_bool_or("fast", false)) {
    sizes = {1000, 10000};
  } else {
    sizes = {1000, 10000, 100000};
  }

  std::optional<prop::RuntimeSession> session;
  try {
    session.emplace(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  prop::bench::OutcomeTracker outcomes;

  std::printf("multilevel crossover: flat PROP vs V-cycle "
              "(runs=%d, seed=%llu)\n\n",
              runs, static_cast<unsigned long long>(seed));
  std::printf("%-12s %-11s %-8s %9s %9s %11s %10s\n", "bench", "instance",
              "engine", "best", "mean", "cpu s/run", "vs flat");
  prop::bench::print_rule(76);

  std::vector<Row> rows;
  bool crossover_ok = true;
  bool merge_mismatch = false;

  for (const NodeId n : sizes) {
    const std::string name = "synth" + std::to_string(n);
    const prop::Hypergraph g =
        prop::generate_circuit(prop::scaled_spec(name, n), prop::kSuiteSeed);
    const prop::BalanceConstraint balance =
        prop::BalanceConstraint::forty_five(g);

    // --- partition rows ----------------------------------------------------
    struct Engine {
      const char* label;
      std::unique_ptr<prop::Bipartitioner> algo;
    };
    std::vector<Engine> engines;
    engines.push_back({"prop", std::make_unique<prop::PropPartitioner>()});
    {
      prop::MultilevelConfig ml;
      ml.refiner = prop::MlRefiner::kProp;
      engines.push_back(
          {"ml-prop", std::make_unique<prop::MultilevelPartitioner>(ml)});
      ml.refiner = prop::MlRefiner::kFm;
      engines.push_back(
          {"ml-fm", std::make_unique<prop::MultilevelPartitioner>(ml)});
    }

    double flat_best = 0.0;
    double flat_cpu = 0.0;
    double ml_prop_best = 0.0;
    double ml_prop_cpu = 0.0;
    for (const Engine& e : engines) {
      if (session->context()) e.algo->attach_context(session->context());
      prop::RunnerOptions options;
      options.context = session->context();
      options.threads = threads;
      prop::WallTimer wall;
      const prop::MultiRunResult r =
          prop::run_many(*e.algo, g, balance, runs, seed, options);
      outcomes.observe(r);

      Row row;
      row.bench = "partition";
      row.instance = name;
      row.engine = e.label;
      row.ops = static_cast<std::uint64_t>(r.runs_attempted());
      row.best_cut = r.best_cut();
      row.mean_cut = r.mean_cut();
      row.cpu_seconds_per_run = r.cpu_seconds_per_run;
      row.wall_seconds = wall.seconds();
      if (row.engine == "prop") {
        flat_best = row.best_cut;
        flat_cpu = row.cpu_seconds_per_run;
        std::printf("%-12s %-11s %-8s %9.0f %9.1f %11.4f %10s\n",
                    row.bench.c_str(), name.c_str(), e.label, row.best_cut,
                    row.mean_cut, row.cpu_seconds_per_run, "-");
      } else {
        row.cut_vs_flat_pct =
            prop::bench::improvement_pct(row.best_cut, flat_best);
        row.cpu_vs_flat = row.cpu_seconds_per_run > 0.0
                              ? flat_cpu / row.cpu_seconds_per_run
                              : 0.0;
        if (row.engine == "ml-prop") {
          ml_prop_best = row.best_cut;
          ml_prop_cpu = row.cpu_seconds_per_run;
        }
        std::printf("%-12s %-11s %-8s %9.0f %9.1f %11.4f %+9.1f%%\n",
                    row.bench.c_str(), name.c_str(), e.label, row.best_cut,
                    row.mean_cut, row.cpu_seconds_per_run,
                    row.cut_vs_flat_pct);
      }
      rows.push_back(row);
    }
    if (n == sizes.back() &&
        (ml_prop_best >= flat_best || ml_prop_cpu > flat_cpu)) {
      crossover_ok = false;
    }

    // --- contract-merge rows -----------------------------------------------
    // One real coarsening clustering (the exact first-level clustering the
    // driver builds), then the isolated merge both ways.
    prop::Rng crng(prop::mix_seed(seed, 0xC0A45EULL, 0));
    const auto max_weight = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               static_cast<double>(g.total_node_size()) / 32.0));
    NodeId num_clusters = 0;
    const std::vector<NodeId> cluster_of =
        prop::attraction_clusters(g, crng, max_weight, 64, num_clusters);
    std::vector<NodeId> fine_to_coarse(g.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      fine_to_coarse[u] = cluster_of[u];
    }

    const std::vector<MergedNet> via_map = merge_with_map(g, fine_to_coarse);
    const std::vector<MergedNet> via_hash =
        to_merged_list(prop::merge_nets(g, fine_to_coarse));
    if (!same_merge(via_map, via_hash)) {
      merge_mismatch = true;
      std::fprintf(stderr,
                   "MERGE MISMATCH: %s map and hash merges disagree\n",
                   name.c_str());
    }

    double map_wall = 0.0;
    for (int variant = 0; variant < 2; ++variant) {
      double best_wall = 0.0;
      double best_cpu = 0.0;
      std::size_t sink = 0;
      for (int m = 0; m < std::max(1, min_of); ++m) {
        prop::WallTimer wall;
        prop::ThreadCpuTimer cpu;
        const std::size_t merged =
            variant == 0 ? merge_with_map(g, fine_to_coarse).size()
                         : prop::merge_nets(g, fine_to_coarse).size();
        const double w = wall.seconds();
        sink += merged;
        if (m == 0 || w < best_wall) {
          best_wall = w;
          best_cpu = cpu.seconds();
        }
      }

      Row row;
      row.bench = "contract-merge";
      row.instance = name;
      row.engine = variant == 0 ? "map" : "hash";
      row.ops = g.num_nets();
      row.best_cut = 0.0;
      row.mean_cut = 0.0;
      row.cpu_seconds_per_run = best_cpu;
      row.wall_seconds = best_wall;
      if (variant == 0) {
        map_wall = best_wall;
        std::printf("%-12s %-11s %-8s %9llu %9s %11.4f %10s\n",
                    row.bench.c_str(), name.c_str(), "map",
                    static_cast<unsigned long long>(row.ops), "-", best_wall,
                    "-");
      } else {
        row.speedup_vs_map = best_wall > 0.0 ? map_wall / best_wall : 0.0;
        std::printf("%-12s %-11s %-8s %9llu %9s %11.4f %9.2fx\n",
                    row.bench.c_str(), name.c_str(), "hash",
                    static_cast<unsigned long long>(row.ops), "-", best_wall,
                    row.speedup_vs_map);
      }
      rows.push_back(row);
      if (sink == 0) std::fprintf(stderr, "warning: empty merge on %s\n",
                                  name.c_str());
    }
  }
  prop::bench::print_rule(76);

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
        "  {\"bench\": \"%s\", \"instance\": \"%s\", \"engine\": \"%s\", "
        "\"ops\": %llu, \"best_cut\": %.1f, \"mean_cut\": %.1f, "
        "\"cpu_seconds_per_run\": %.6f, \"wall_seconds\": %.6f, "
        "\"cut_vs_flat_pct\": %.2f, \"cpu_vs_flat\": %.3f, "
        "\"speedup_vs_map\": %.3f}%s\n",
        r.bench.c_str(), r.instance.c_str(), r.engine.c_str(),
        static_cast<unsigned long long>(r.ops), r.best_cut, r.mean_cut,
        r.cpu_seconds_per_run, r.wall_seconds, r.cut_vs_flat_pct,
        r.cpu_vs_flat, r.speedup_vs_map, i + 1 < rows.size() ? "," : "");
    f << buf;
  }
  f << "]\n";
  f.close();
  std::printf("\nwrote %s\n", out_path.c_str());

  int exit_code = outcomes.finish(*session);
  if (merge_mismatch) {
    std::fprintf(stderr, "error: map/hash merge results diverged\n");
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
        if (base.bench != cur.bench || base.instance != cur.instance ||
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
                       "PERF REGRESSION: %s/%s/%s wall %.4fs vs baseline "
                       "%.4fs (limit %.4fs)\n",
                       cur.bench.c_str(), cur.instance.c_str(),
                       cur.engine.c_str(), cur.wall_seconds,
                       base.wall_seconds, limit);
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

  // Headline contract: on the largest instance measured, the V-cycle beats
  // flat PROP on cut without spending more cpu per run.
  if (assert_crossover) {
    if (!crossover_ok) {
      std::fprintf(stderr,
                   "CROSSOVER VIOLATION: ml-prop does not beat flat prop on "
                   "cut at equal-or-lower cpu on the largest instance\n");
      exit_code = 5;
    } else {
      std::printf("crossover contract satisfied\n");
    }
  }
  return exit_code;
}
