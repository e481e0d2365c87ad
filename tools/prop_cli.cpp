// prop_cli — command-line driver for the whole partitioner suite.
//
//   prop_cli --hgr netlist.hgr --algo prop --runs 20 --balance 45-55 --seed 1
//   prop_cli --hgr netlist.hgr --algo prop --out parts.txt
//   prop_cli --circuit industry2 --algo fm --runs 100
//   prop_cli --circuit p2 --algo prop --k 8            # k-way (RB + refiner)
//   prop_cli --circuit balu --algo prop --stats-json stats.json
//   prop_cli --list                                    # bundled circuits
//
// Algorithms: fm, fm-tree, la2, la3, kl, prop, eig1, melo, paraboli, window.
// Output file format: one 0/1 (or part id for k-way) per line, node order.
// --stats-json FILE records per-pass refinement telemetry (cut trajectory,
// moves, rollback depth, seconds, container ops) for every run and dumps it
// as JSON; supported by the iterative refiners (fm, fm-tree, la2, la3,
// prop).  See EXPERIMENTS.md for the schema.
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hypergraph/generator.h"
#include "hypergraph/hgr_io.h"
#include "hypergraph/mcnc_suite.h"
#include "hypergraph/stats.h"
#include "multilevel/multilevel_driver.h"
#include "multilevel/multilevel_kway.h"
#include "partition/metrics.h"
#include "partition/runner.h"
#include "runtime/runtime_cli.h"
#include "service/algo_factory.h"
#include "util/cli.h"

namespace {

constexpr const char* kUsage =
    "[--hgr FILE | --circuit NAME | --synth-nodes N] [--algo NAME]\n"
    "          [--runs N] [--balance 50-50|45-55] [--k K]\n"
    "          [--kway-refiner=prop|greedy|none]\n"
    "          [--kway-objective=cut|connectivity]\n"
    "          [--gain-engine=cached|scratch|shadow]\n"
    "          [--multilevel] [--ml-refiner=prop|fm] [--coarsest-max-nodes N]\n"
    "          [--seed N] [--threads N] [--out FILE]\n"
    "          [--stats-json FILE] [--stats-timing=0|1] [--list]\n"
    "          [--time-budget-ms N] [--on-timeout=best|fail]\n"
    "          [--inject=SPEC] [--inject-seed N]";

int usage(const char* prog) {
  return prop::usage_error(prog, kUsage,
                           "algorithms: " + prop::service::algo_names());
}

}  // namespace

int main(int argc, char** argv) {
  const prop::CliArgs args(argc, argv);

  if (!prop::check_flags(args,
                         {"hgr", "circuit", "algo", "runs", "balance", "k",
                          "kway-refiner", "kway-objective", "seed", "out",
                          "stats-json", "stats-timing", "list", "threads",
                          "gain-engine", "multilevel",
                          "ml-refiner", "coarsest-max-nodes", "synth-nodes"},
                         kUsage)) {
    return 2;
  }

  if (args.has("list")) {
    std::printf("bundled Table 1 circuits (synthetic stand-ins):\n");
    for (const auto& spec : prop::mcnc_specs()) {
      std::printf("  %-10s nodes=%-6u nets=%-6u pins=%zu\n", spec.name.c_str(),
                  spec.num_nodes, spec.num_nets, spec.num_pins);
    }
    return 0;
  }

  prop::Hypergraph g;
  try {
    if (const auto path = args.get("hgr")) {
      g = prop::read_hgr_file(*path);
    } else if (const auto name = args.get("circuit")) {
      g = prop::make_mcnc_circuit(*name);
    } else if (const auto nodes = args.get("synth-nodes")) {
      // Scaled MCNC-like synthetic instance (multilevel experiments reach
      // sizes beyond Table 1's range this way).
      const long long n = args.get_int_or("synth-nodes", 0);
      if (n < 2) {
        std::fprintf(stderr, "error: --synth-nodes must be >= 2\n");
        return usage(argv[0]);
      }
      g = prop::generate_circuit(
          prop::scaled_spec("synth" + std::to_string(n),
                            static_cast<prop::NodeId>(n)),
          prop::kSuiteSeed);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error loading circuit: %s\n", e.what());
    return 1;
  }

  const std::string engine_name = args.get_or("gain-engine", "cached");
  const auto gain_engine = prop::service::parse_gain_engine(engine_name);
  if (!gain_engine) {
    std::fprintf(stderr, "unknown gain engine '%s' (cached|scratch|shadow)\n",
                 engine_name.c_str());
    return usage(argv[0]);
  }
  const long long k_arg = args.get_int_or("k", 2);
  if (k_arg < 2 || k_arg > 256) {
    std::fprintf(stderr, "error: --k must be in [2, 256]\n");
    return usage(argv[0]);
  }
  const auto k = static_cast<prop::NodeId>(k_arg);
  const std::string kway_refiner_name = args.get_or(
      "kway-refiner", prop::to_string(prop::kDefaultKWayRefiner));
  const auto kway_refiner =
      prop::service::parse_kway_refiner(kway_refiner_name);
  if (!kway_refiner) {
    std::fprintf(stderr, "unknown --kway-refiner '%s' (prop|greedy|none)\n",
                 kway_refiner_name.c_str());
    return usage(argv[0]);
  }
  const std::string kway_objective_name =
      args.get_or("kway-objective", "connectivity");
  const auto kway_objective =
      prop::service::parse_kway_objective(kway_objective_name);
  if (!kway_objective) {
    std::fprintf(stderr, "unknown --kway-objective '%s' (cut|connectivity)\n",
                 kway_objective_name.c_str());
    return usage(argv[0]);
  }
  std::unique_ptr<prop::Bipartitioner> algo;
  if (args.has("multilevel")) {
    if (args.has("algo")) {
      std::fprintf(stderr,
                   "error: --multilevel selects its own engine; drop --algo "
                   "and pick the refiner with --ml-refiner=prop|fm\n");
      return usage(argv[0]);
    }
    const long long coarsest = args.get_int_or("coarsest-max-nodes", 200);
    if (coarsest < 2) {
      std::fprintf(stderr, "error: --coarsest-max-nodes must be >= 2\n");
      return usage(argv[0]);
    }
    if (k > 2) {
      // K-way multilevel: FM bisection at the coarsest level plus the k-way
      // refiner during uncoarsening; the refiner comes from --kway-refiner.
      if (args.has("ml-refiner")) {
        std::fprintf(stderr,
                     "error: k-way multilevel picks the refiner with "
                     "--kway-refiner; drop --ml-refiner\n");
        return usage(argv[0]);
      }
      prop::MultilevelKWayConfig config;
      config.k = k;
      config.objective = *kway_objective;
      config.refiner = *kway_refiner;
      config.prop.gain_engine = *gain_engine;
      config.coarsest_max_nodes = static_cast<prop::NodeId>(coarsest);
      algo = std::make_unique<prop::MultilevelKWayPartitioner>(config);
    } else {
      prop::MultilevelConfig config;
      const std::string refiner = args.get_or("ml-refiner", "prop");
      if (refiner == "prop") {
        config.refiner = prop::MlRefiner::kProp;
      } else if (refiner == "fm") {
        config.refiner = prop::MlRefiner::kFm;
      } else {
        std::fprintf(stderr, "unknown --ml-refiner '%s' (prop|fm)\n",
                     refiner.c_str());
        return usage(argv[0]);
      }
      config.prop.gain_engine = *gain_engine;
      config.coarsest_max_nodes = static_cast<prop::NodeId>(coarsest);
      algo = std::make_unique<prop::MultilevelPartitioner>(config);
    }
  } else {
    const std::string algo_name = args.get_or("algo", "prop");
    algo = k > 2 ? prop::service::make_kway_algo(algo_name, k, *kway_refiner,
                                                 *kway_objective, *gain_engine)
                 : prop::service::make_algo(algo_name, *gain_engine);
    if (!algo) {
      std::fprintf(stderr, "unknown algorithm '%s'\n", algo_name.c_str());
      return usage(argv[0]);
    }
  }

  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const int runs = static_cast<int>(args.get_int_or("runs", 20));
  const auto parsed_threads = prop::parse_thread_count(args);
  if (!parsed_threads) return usage(argv[0]);
  const int threads = *parsed_threads;

  std::optional<prop::RuntimeSession> session;
  try {
    session.emplace(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage(argv[0]);
  }

  std::printf("%s\n", prop::describe(g).c_str());

  try {
    const prop::BalanceConstraint balance =
        args.get_or("balance", "45-55") == "50-50"
            ? prop::BalanceConstraint::fifty_fifty(g)
            : prop::BalanceConstraint::forty_five(g);
    const auto stats_json = args.get("stats-json");
    prop::RunnerOptions options;
    options.collect_telemetry = stats_json.has_value();
    options.context = session->context();
    options.threads = threads;
    const prop::MultiRunResult r =
        prop::run_many(*algo, g, balance, runs, seed, options);

    std::printf(
        "%s x%d: best cut = %.0f  mean = %.1f  (%.4f cpu s/run, %.4f s wall",
        algo->name().c_str(), r.runs_attempted(), r.best_cut(), r.mean_cut(),
        r.cpu_seconds_per_run, r.total_wall_seconds);
    if (threads >= 1) std::printf(", %d threads", threads);
    std::printf(")\n");
    const std::string degraded =
        prop::describe_degradations(session->degradations());
    if (!degraded.empty()) std::fputs(degraded.c_str(), stderr);
    if (!r.status.ok()) {
      std::printf("outcome: %s\n", r.status.describe().c_str());
    }
    if (const int failed = r.runs_failed(); failed > 0) {
      std::fprintf(stderr, "warning: %d of %d runs failed (see --stats-json)\n",
                   failed, r.runs_attempted());
    }
    if (k == 2) {
      const prop::Partition part(g, r.best.side);
      const prop::PartitionMetrics m = prop::compute_metrics(part);
      std::printf("sizes %lld | %lld   ratio-cut %.3g   absorption %.1f\n",
                  static_cast<long long>(m.size0),
                  static_cast<long long>(m.size1), m.ratio_cut, m.absorption);
    } else {
      // K-way: ratio-cut/absorption are 2-way metrics; report the balance
      // that matters here — per-part total node sizes.
      std::vector<long long> sizes(k, 0);
      for (std::size_t i = 0; i < r.best.side.size(); ++i) {
        sizes[r.best.side[i]] +=
            g.node_size(static_cast<prop::NodeId>(i));
      }
      std::printf("part sizes");
      for (prop::NodeId p = 0; p < k; ++p) {
        std::printf("%s %lld", p == 0 ? "" : " |", sizes[p]);
      }
      std::printf("\n");
    }
    if (stats_json) {
      if (r.telemetry.empty()) {
        std::fprintf(stderr, "warning: %s records no refinement telemetry\n",
                     algo->name().c_str());
      } else {
        std::printf("telemetry: %llu passes, %llu moves, max rollback %llu\n",
                    static_cast<unsigned long long>(r.total_passes()),
                    static_cast<unsigned long long>(r.total_moves_attempted()),
                    static_cast<unsigned long long>(r.max_rollback_depth()));
      }
      std::ofstream f(*stats_json);
      if (!f) {
        std::fprintf(stderr, "error: cannot write %s\n", stats_json->c_str());
        return 1;
      }
      prop::StatsJsonOptions json_options;
      json_options.include_timing = args.get_bool_or("stats-timing", true);
      prop::write_stats_json(f, g.name(), algo->name(), r, json_options);
      f << '\n';
      std::printf("wrote %s\n", stats_json->c_str());
    }
    if (const auto out = args.get("out")) {
      std::ofstream f(*out);
      for (const auto side : r.best.side) f << static_cast<int>(side) << '\n';
      std::printf("wrote %s\n", out->c_str());
    }
    if (!r.status.ok() && session->fail_on_timeout()) {
      std::fprintf(stderr, "error: %s (--on-timeout=fail)\n",
                   r.status.describe().c_str());
      return 3;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
