// Building a netlist by hand with HypergraphBuilder, partitioning it with
// weighted nets (the paper's timing-driven motivation: critical nets get
// higher cost so the partitioner keeps them uncut), and exporting to .hgr.
#include <cstdio>
#include <sstream>

#include "core/prop_partitioner.h"
#include "fm/fm_partitioner.h"
#include "hypergraph/builder.h"
#include "hypergraph/hgr_io.h"
#include "partition/partition.h"
#include "partition/runner.h"

int main() {
  // A small datapath: two 4-cell ALU slices exchanging a critical bus.
  // Nets: local connections cost 1; the bus between slices costs 5 — a
  // timing-critical net we would rather not cut (paper Sec. 1: "a critical
  // net is assigned more weight").
  prop::HypergraphBuilder builder(8);
  builder.set_name("datapath");
  // Slice A: cells 0-3.
  builder.add_net({0, 1});
  builder.add_net({1, 2});
  builder.add_net({2, 3});
  builder.add_net({0, 2, 3});
  // Slice B: cells 4-7.
  builder.add_net({4, 5});
  builder.add_net({5, 6});
  builder.add_net({6, 7});
  builder.add_net({4, 6, 7});
  // Critical inter-slice bus and a cheap control net.
  builder.add_net({3, 4}, 5.0);
  builder.add_net({0, 7}, 1.0);
  const prop::Hypergraph g = std::move(builder).build();

  const prop::BalanceConstraint balance = prop::BalanceConstraint::fifty_fifty(g);

  // PROP (ordered-container based) handles weighted nets natively; FM falls
  // back to its tree variant — exactly the trade-off discussed in the paper's
  // Sec. 4 timing analysis.
  prop::PropPartitioner prop_algo;
  const prop::MultiRunResult result = prop::run_many(prop_algo, g, balance, 5, 3);

  std::printf("datapath: 8 cells, 10 nets (bus cost 5)\n");
  std::printf("best cut cost = %.0f\n", result.best_cut());
  std::printf("assignment   =");
  for (prop::NodeId u = 0; u < 8; ++u) {
    std::printf(" %d", static_cast<int>(result.best.side[u]));
  }
  std::printf("\n");

  // Splitting slice-vs-slice cuts the bus (cost 5) plus the control net;
  // any split keeping the bus whole must divide a slice instead.  The
  // weighted objective should steer the partitioner away from the bus.
  prop::Partition best(g, result.best.side);
  const bool bus_cut = best.is_cut(8);
  std::printf("critical bus cut? %s (cut nets = %zu)\n", bus_cut ? "yes" : "no",
              best.cut_nets());

  // Round-trip through the interchange format.
  std::ostringstream hgr;
  prop::write_hgr(g, hgr);
  std::printf("\n.hgr export:\n%s", hgr.str().c_str());
  return 0;
}
