// Timing-driven partitioning — the paper's Sec. 1 motivation: "if we are
// trying to minimize timing, then a critical net is assigned more weight
// ... to ensure that the length of critical or near-critical nets are kept
// as short as possible".
//
// Pipeline: unit-delay STA over the netlist -> per-net criticality ->
// net weights 1 + alpha * criticality -> PROP (its ordered gain container
// handles weighted nets natively).  Compares how many *critical* nets are
// cut with and without the weighting.
//
//   ./timing_driven [--circuit t5] [--alpha 4] [--runs 10] [--seed 1]
#include <cstdio>

#include "core/prop_partitioner.h"
#include "hypergraph/mcnc_suite.h"
#include "hypergraph/stats.h"
#include "partition/partition.h"
#include "partition/runner.h"
#include "timing/timing_graph.h"
#include "util/cli.h"

namespace {

struct CutSummary {
  double raw_cut = 0.0;       ///< number of cut nets
  double critical_cut = 0.0;  ///< cut nets with criticality >= 0.9
};

CutSummary summarize(const prop::Hypergraph& g, const prop::TimingAnalysis& sta,
                     const std::vector<std::uint8_t>& side) {
  const prop::Partition part(g, side);
  CutSummary s;
  for (prop::NetId n = 0; n < g.num_nets(); ++n) {
    if (!part.is_cut(n)) continue;
    s.raw_cut += 1.0;
    if (sta.net_criticality(n) >= 0.9) s.critical_cut += 1.0;
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const prop::CliArgs args(argc, argv);
  if (!prop::validate_flags(
          args, {"circuit", "alpha", "runs", "seed"},
          "[--circuit NAME] [--alpha A] [--runs N] [--seed N]")) {
    return 2;
  }
  const prop::Hypergraph g =
      prop::make_mcnc_circuit(args.get_or("circuit", "t5"));
  const double alpha = args.get_double_or("alpha", 4.0);
  const int runs = static_cast<int>(args.get_int_or("runs", 10));
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));

  std::printf("%s\n", prop::describe(g).c_str());
  const prop::TimingAnalysis sta = prop::analyze_timing(g);
  std::size_t critical_nets = 0;
  for (prop::NetId n = 0; n < g.num_nets(); ++n) {
    if (sta.net_criticality(n) >= 0.9) ++critical_nets;
  }
  std::printf("critical path %.0f, %zu near-critical nets, %zu cycle edges "
              "broken\n\n",
              sta.critical_path, critical_nets, sta.back_edges);

  const prop::BalanceConstraint balance = prop::BalanceConstraint::forty_five(g);
  prop::PropPartitioner prop_algo;

  // Baseline: unit weights (pure min-cut).
  const prop::MultiRunResult plain = prop::run_many(prop_algo, g, balance, runs, seed);
  const CutSummary plain_summary = summarize(g, sta, plain.best.side);

  // Timing-driven: critical nets weighted up, then partition the weighted
  // netlist but report cuts on the original.
  const prop::Hypergraph weighted = prop::apply_timing_weights(g, sta, alpha);
  const prop::BalanceConstraint wbalance =
      prop::BalanceConstraint::forty_five(weighted);
  const prop::MultiRunResult timed =
      prop::run_many(prop_algo, weighted, wbalance, runs, seed);
  const CutSummary timed_summary = summarize(g, sta, timed.best.side);

  std::printf("%-18s %10s %16s\n", "objective", "cut nets", "critical cut");
  std::printf("%-18s %10.0f %16.0f\n", "min-cut", plain_summary.raw_cut,
              plain_summary.critical_cut);
  std::printf("%-18s %10.0f %16.0f\n", "timing-driven", timed_summary.raw_cut,
              timed_summary.critical_cut);
  std::printf("\nalpha = %.1f: the weighted objective trades a few extra cut "
              "nets for fewer critical ones.\n",
              alpha);
  return 0;
}
