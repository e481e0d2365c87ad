// Quickstart: generate a circuit, bipartition it with PROP, inspect the
// result.
//
//   ./quickstart [--circuit p2] [--runs 20] [--seed 1] [--balance 45-55]
//   ./quickstart --hgr my_netlist.hgr
#include <cstdio>
#include <string>

#include "core/prop_partitioner.h"
#include "hypergraph/hgr_io.h"
#include "hypergraph/mcnc_suite.h"
#include "hypergraph/stats.h"
#include "partition/runner.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  const prop::CliArgs args(argc, argv);
  if (!prop::validate_flags(
          args, {"hgr", "circuit", "runs", "seed", "balance"},
          "[--circuit NAME | --hgr FILE] [--runs N] [--seed N] "
          "[--balance 45-55|50-50]")) {
    return 2;
  }

  // 1. Get a netlist: a bundled Table 1 stand-in, or any hMETIS .hgr file.
  prop::Hypergraph circuit;
  if (const auto path = args.get("hgr")) {
    circuit = prop::read_hgr_file(*path);
  } else {
    circuit = prop::make_mcnc_circuit(args.get_or("circuit", "p2"));
  }
  std::printf("circuit  %s\n", prop::describe(circuit).c_str());

  // 2. Pick a balance criterion (the paper uses 50-50% and 45-55%).
  const std::string balance_name = args.get_or("balance", "45-55");
  const prop::BalanceConstraint balance =
      balance_name == "50-50" ? prop::BalanceConstraint::fifty_fifty(circuit)
                              : prop::BalanceConstraint::forty_five(circuit);

  // 3. Run PROP from several random starts and keep the best cut.
  prop::PropPartitioner prop_algo;  // paper defaults: pinit=0.95, pmin=0.4, ...
  const int runs = static_cast<int>(args.get_int_or("runs", 20));
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const prop::MultiRunResult result =
      prop::run_many(prop_algo, circuit, balance, runs, seed);

  // 4. Inspect.
  std::printf("balance  %s (side-0 window [%lld, %lld])\n", balance_name.c_str(),
              static_cast<long long>(balance.lo()),
              static_cast<long long>(balance.hi()));
  std::printf("runs     %d\n", runs);
  std::printf("best cut %.0f nets\n", result.best_cut());
  std::printf("mean cut %.1f nets\n", result.mean_cut());
  std::printf("time     %.3f s total, %.4f s/run (CPU)\n",
              result.total_cpu_seconds, result.cpu_seconds_per_run);

  std::int64_t side0 = 0;
  for (prop::NodeId u = 0; u < circuit.num_nodes(); ++u) {
    if (result.best.side[u] == 0) side0 += circuit.node_size(u);
  }
  std::printf("sizes    %lld | %lld\n", static_cast<long long>(side0),
              static_cast<long long>(circuit.total_node_size() - side0));
  return 0;
}
