// Walkthrough of the paper's Figure 1: why PROP's probabilistic gain
// separates nodes that FM and LA cannot.
//
// Prints the FM gains (Fig. 1a), the LA-3 gain vectors (Fig. 1a), and the
// probabilistic gains after the second gain/probability iteration
// (Fig. 1c), then shows which node each method would move first.
#include <cstdio>

#include "core/figure1_example.h"
#include "core/prob_gain.h"
#include "fm/fm_gains.h"
#include "la/la_gains.h"
#include "partition/partition.h"

int main() {
  const prop::Figure1Example ex = prop::make_figure1_example();
  const prop::Partition part(ex.graph, ex.side);

  std::printf("Figure 1 netlist: %u nodes, %u nets, cut = %.0f\n\n",
              ex.graph.num_nodes(), ex.graph.num_nets(), part.cut_cost());

  prop::LaGainCalculator la(part, 3);
  const prop::KWayState state(part);
  prop::ProbGainCalculator calc(state);
  for (prop::NodeId u = 0; u < ex.graph.num_nodes(); ++u) {
    calc.set_probability(u, ex.initial_probability[u]);
  }
  const auto prob_gain = [&](prop::NodeId u) {
    return calc.gain(u, 1 - state.part(u));
  };

  std::printf("%-6s %8s %10s %14s %8s\n", "node", "FM gain", "LA-3 gain",
              "PROP gain", "p(u)");
  int best_prop = 1;
  for (int k = 1; k <= 11; ++k) {
    const prop::NodeId u = ex.node(k);
    const double g = prob_gain(u);
    if (g > prob_gain(ex.node(best_prop))) best_prop = k;
    std::printf("%-6d %8.0f %10s %14.4f %8.2f\n", k, prop::fm_gain(part, u),
                la.gain(u).to_string().c_str(), g, ex.initial_probability[u]);
  }

  std::printf(
      "\nFM:   nodes 1, 2, 3 tie at gain 2 - FM may well move node 1 first.\n"
      "LA-3: (2,0,1) > (2,0,0) separates node 1, but nodes 2 and 3 still "
      "tie.\n"
      "PROP: gains 2.0016 < 2.04 < 2.64 - node %d is correctly preferred,\n"
      "      because its net n11 leads to nodes 10/11 whose moves free "
      "three\n"
      "      more nets (n5, n8, n11) from the cut.\n",
      best_prop);
  return best_prop == 3 ? 0 : 1;
}
