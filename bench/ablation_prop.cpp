// Ablation study of PROP's design choices (DESIGN.md Sec. 5):
//   * bootstrap method (uniform pinit vs deterministic-gain, Sec. 3);
//   * number of gain/probability fixed-point iterations (paper uses 2);
//   * top-k update width after each move (paper suggests ~5, Sec. 3.4);
//   * probability window pmin/pmax and thresholds gup/glo (Sec. 3.2);
//   * the V-cycle pass bound (stale_move_limit) on flat PROP.
//
// Prints best-of-N cuts for each variant on a few mid-size circuits.
// Flags: --fast, --circuit NAME, --runs N, --seed N.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/prop_partitioner.h"
#include "hypergraph/mcnc_suite.h"
#include "partition/runner.h"
#include "util/cli.h"

namespace {

struct Variant {
  std::string label;
  prop::PropConfig config;
};

std::vector<Variant> variants() {
  std::vector<Variant> v;
  v.push_back({"paper defaults", {}});

  prop::PropConfig c;
  c.bootstrap = prop::PropBootstrap::kDeterministicGain;
  v.push_back({"bootstrap=det-gain", c});

  c = {};
  c.refine_iterations = 1;
  v.push_back({"iterations=1", c});
  c = {};
  c.refine_iterations = 4;
  v.push_back({"iterations=4", c});

  c = {};
  c.top_update_width = 0;
  v.push_back({"top-update=0", c});
  c = {};
  c.top_update_width = 20;
  v.push_back({"top-update=20", c});

  c = {};
  c.model.pmin = 0.1;
  v.push_back({"pmin=0.1", c});
  c = {};
  c.model.pmax = 1.0;
  c.model.pinit = 1.0;
  v.push_back({"pmax=1.0", c});
  c = {};
  c.model.gup = 2.0;
  c.model.glo = -2.0;
  v.push_back({"thresholds=+-2", c});

  // The V-cycle pass bound (DESIGN.md Sec. 4g) applied to flat PROP: it
  // cuts the long passes a random start needs, which is why only the
  // V-cycles turn it on.
  c = {};
  c.stale_move_limit = 1000;
  v.push_back({"stale-moves=1000", c});
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  prop::CliArgs args(argc, argv);
  if (!prop::bench::check_flags(
          args, {"fast", "circuit", "runs", "seed", "threads"},
          "[--fast] [--circuit NAME] [--runs N] [--seed N] [--threads N]\n"
          "          [--time-budget-ms N] [--on-timeout=best|fail] "
          "[--inject=SPEC] [--inject-seed N]")) {
    return 2;
  }
  prop::RuntimeSession session(args);
  prop::RunnerOptions options;
  options.context = session.context();
  options.threads = prop::bench::thread_count(args);
  prop::bench::OutcomeTracker tracker;
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const int runs = static_cast<int>(args.get_int_or("runs", 10));

  std::vector<std::string> circuits;
  if (const auto one = args.get("circuit")) {
    circuits = {*one};
  } else if (args.get_bool_or("fast", false)) {
    circuits = {"struct"};
  } else {
    circuits = {"struct", "p2", "19ks"};
  }

  std::printf("PROP ablations (best of %d runs, 50-50%% balance)\n\n", runs);
  std::printf("%-20s", "variant");
  for (const auto& name : circuits) std::printf(" %10s", name.c_str());
  std::printf(" %10s\n", "total");
  prop::bench::print_rule(24 + 11 * (static_cast<int>(circuits.size()) + 1));

  std::vector<prop::Hypergraph> graphs;
  for (const auto& name : circuits) graphs.push_back(prop::make_mcnc_circuit(name));

  for (const auto& variant : variants()) {
    std::printf("%-20s", variant.label.c_str());
    double total = 0.0;
    for (const auto& g : graphs) {
      const prop::BalanceConstraint balance =
          prop::BalanceConstraint::fifty_fifty(g);
      prop::PropPartitioner algo(variant.config);
      const prop::MultiRunResult r =
          prop::run_many(algo, g, balance, runs, prop::mix_seed(seed, 99), options);
      tracker.observe(r);
      const double cut = r.best_cut();
      total += cut;
      std::printf(" %10.0f", cut);
    }
    std::printf(" %10.0f\n", total);
  }
  return tracker.finish(session);
}
