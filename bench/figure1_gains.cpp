// Figure 1 reproduction: the worked example's gains under all three gain
// models, printed as the three panels of the figure.
//
// (a) FM gains and LA-3 gain vectors for nodes 1, 2, 3;
// (b) initial probabilistic gains/probabilities (first iteration);
// (c) refined gains after the second iteration — the numbers quoted in
//     Sec. 3.3: g(1)=2.0016, g(2)=2.04, g(3)=2.64, g(10)=g(11)=1.8,
//     g(8)=g(9)=-0.3, g(4..7)=-0.49.
//
// Exits nonzero if any printed value deviates from the paper.
#include <cmath>
#include <cstdio>

#include "core/figure1_example.h"
#include "core/prob_gain.h"
#include "fm/fm_gains.h"
#include "la/la_gains.h"
#include "partition/partition.h"
#include "util/cli.h"

namespace {

bool close(double a, double b) { return std::abs(a - b) < 1e-9; }

}  // namespace

int main(int argc, char** argv) {
  const prop::CliArgs args(argc, argv);
  if (!prop::validate_flags(args, {}, "(no flags)")) return 2;
  const prop::Figure1Example ex = prop::make_figure1_example();
  const prop::Partition part(ex.graph, ex.side);
  bool ok = true;

  std::printf("Figure 1(a): FM gains and LA-3 gain vectors\n");
  prop::LaGainCalculator la(part, 3);
  for (int k = 1; k <= 11; ++k) {
    const prop::NodeId u = ex.node(k);
    std::printf("  node %2d: FM %+.0f   LA-3 %s\n", k, prop::fm_gain(part, u),
                la.gain(u).to_string().c_str());
  }
  ok &= close(prop::fm_gain(part, ex.node(1)), 2.0);
  ok &= la.gain(ex.node(2)).to_string() == "(2,0,1)";
  ok &= la.gain(ex.node(1)).to_string() == "(2,0,0)";

  std::printf("\nFigure 1(b): first-iteration probabilities (from "
              "deterministic gains)\n");
  for (int k = 1; k <= 11; ++k) {
    std::printf("  node %2d: g=%+.0f p=%.1f\n", k,
                prop::fm_gain(part, ex.node(k)),
                ex.initial_probability[ex.node(k)]);
  }

  std::printf("\nFigure 1(c): second-iteration probabilistic gains\n");
  const prop::KWayState state(part);
  prop::ProbGainCalculator calc(state);
  for (prop::NodeId u = 0; u < ex.graph.num_nodes(); ++u) {
    calc.set_probability(u, ex.initial_probability[u]);
  }
  const auto prob_gain = [&](prop::NodeId u) {
    return calc.gain(u, 1 - state.part(u));
  };
  const double expected[] = {2.0016, 2.04,  2.64,  -0.492, -0.492, -0.492,
                             -0.492, -0.3,  -0.3,  1.8,    1.8};
  for (int k = 1; k <= 11; ++k) {
    const double g = prob_gain(ex.node(k));
    const double want = expected[k - 1];
    const bool match = close(g, want);
    ok &= match;
    std::printf("  node %2d: g=%+.4f (paper %+.4f) %s\n", k, g, want,
                match ? "ok" : "MISMATCH");
  }

  const bool node3_best =
      prob_gain(ex.node(3)) > prob_gain(ex.node(2)) &&
      prob_gain(ex.node(2)) > prob_gain(ex.node(1));
  ok &= node3_best;
  std::printf("\nPROP ranks node 3 > node 2 > node 1: %s "
              "(FM ties all three; LA-3 ties 2 and 3)\n",
              node3_best ? "yes" : "NO");
  std::printf("%s\n", ok ? "figure 1 reproduced exactly" : "MISMATCH");
  return ok ? 0 : 1;
}
