// Head-to-head comparison of every partitioner in the suite on one circuit
// — a miniature of the paper's Tables 2-4.
//
//   ./compare_partitioners [--circuit struct] [--runs 10] [--balance 50-50]
#include <cstdio>
#include <memory>
#include <vector>

#include "cluster/window.h"
#include "core/prop_partitioner.h"
#include "fm/fm_partitioner.h"
#include "hypergraph/mcnc_suite.h"
#include "hypergraph/stats.h"
#include "kl/kl_partitioner.h"
#include "la/la_partitioner.h"
#include "partition/runner.h"
#include "placement/paraboli.h"
#include "spectral/eig1.h"
#include "spectral/melo.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  const prop::CliArgs args(argc, argv);
  if (!prop::validate_flags(
          args, {"circuit", "runs", "balance"},
          "[--circuit NAME] [--runs N] [--balance 50-50|45-55]")) {
    return 2;
  }
  const prop::Hypergraph g =
      prop::make_mcnc_circuit(args.get_or("circuit", "struct"));
  const int runs = static_cast<int>(args.get_int_or("runs", 10));
  const prop::BalanceConstraint balance =
      args.get_or("balance", "50-50") == "45-55"
          ? prop::BalanceConstraint::forty_five(g)
          : prop::BalanceConstraint::fifty_fifty(g);

  std::printf("%s\n", prop::describe(g).c_str());
  std::printf("%-10s %10s %10s %12s\n", "method", "best cut", "mean cut",
              "sec/run");

  struct Entry {
    std::unique_ptr<prop::Bipartitioner> algo;
    int runs;
  };
  std::vector<Entry> entries;
  entries.push_back({std::make_unique<prop::KlPartitioner>(), runs});
  entries.push_back({std::make_unique<prop::FmPartitioner>(), runs});
  entries.push_back({std::make_unique<prop::LaPartitioner>(prop::LaConfig{2}), runs});
  entries.push_back({std::make_unique<prop::LaPartitioner>(prop::LaConfig{3}), runs});
  entries.push_back({std::make_unique<prop::PropPartitioner>(), runs});
  entries.push_back({std::make_unique<prop::WindowPartitioner>(), 1});
  entries.push_back({std::make_unique<prop::Eig1Partitioner>(), 1});
  entries.push_back({std::make_unique<prop::MeloPartitioner>(), 1});
  entries.push_back({std::make_unique<prop::ParaboliPartitioner>(), 1});

  for (const auto& entry : entries) {
    const prop::MultiRunResult r =
        prop::run_many(*entry.algo, g, balance, entry.runs, 1);
    std::printf("%-10s %10.0f %10.1f %12.4f\n", entry.algo->name().c_str(),
                r.best_cut(), r.mean_cut(), r.cpu_seconds_per_run);
  }
  return 0;
}
