// End-to-end reproduction of the paper's Figure 1 worked example — the
// strongest correctness anchor in the suite: FM gains (Fig. 1a), LA-3
// vectors (Fig. 1a), and the probabilistic gains of the second iteration
// (Fig. 1c) must come out numerically exact.
#include <gtest/gtest.h>

#include "core/figure1_example.h"
#include "core/prob_gain.h"
#include "core/probability_model.h"
#include "fm/fm_gains.h"
#include "la/la_gains.h"
#include "partition/kway_state.h"
#include "partition/partition.h"

namespace prop {
namespace {

class Figure1 : public ::testing::Test {
 protected:
  Figure1()
      : ex_(make_figure1_example()),
        part_(ex_.graph, ex_.side),
        state_(part_) {}

  /// The k = 2 calculator with the figure's first-iteration probabilities.
  ProbGainCalculator make_calc() const {
    ProbGainCalculator calc(state_);
    for (NodeId u = 0; u < ex_.graph.num_nodes(); ++u) {
      calc.set_probability(u, ex_.initial_probability[u]);
    }
    return calc;
  }

  /// Node k's (1-based) probabilistic gain for a move to the other side.
  double gain(const ProbGainCalculator& calc, int k) const {
    return calc.gain(ex_.node(k), 1 - state_.part(ex_.node(k)));
  }
  double net_gain(const ProbGainCalculator& calc, int k, int j) const {
    return calc.net_gain(ex_.node(k), ex_.net(j),
                         1 - state_.part(ex_.node(k)));
  }

  Figure1Example ex_;
  Partition part_;
  KWayState state_;
};

TEST_F(Figure1, NetlistShape) {
  EXPECT_EQ(ex_.graph.num_nets(), 17u);
  // Nets n1..n11 are cut, n12..n17 are internal to V1.
  for (int j = 1; j <= 11; ++j) EXPECT_TRUE(part_.is_cut(ex_.net(j))) << j;
  for (int j = 12; j <= 17; ++j) EXPECT_FALSE(part_.is_cut(ex_.net(j))) << j;
  EXPECT_DOUBLE_EQ(part_.cut_cost(), 11.0);
}

TEST_F(Figure1, FmCannotSeparateNodes123) {
  EXPECT_DOUBLE_EQ(fm_gain(part_, ex_.node(1)), 2.0);
  EXPECT_DOUBLE_EQ(fm_gain(part_, ex_.node(2)), 2.0);
  EXPECT_DOUBLE_EQ(fm_gain(part_, ex_.node(3)), 2.0);
}

TEST_F(Figure1, La3SeparatesNode1ButNot2From3) {
  LaGainCalculator la(part_, 3);
  const GainVector g1 = la.gain(ex_.node(1));
  const GainVector g2 = la.gain(ex_.node(2));
  const GainVector g3 = la.gain(ex_.node(3));
  EXPECT_EQ(g1.to_string(), "(2,0,0)");
  EXPECT_EQ(g2.to_string(), "(2,0,1)");
  EXPECT_EQ(g3.to_string(), "(2,0,1)");
  EXPECT_LT(g1, g2);
  EXPECT_EQ(g2, g3);  // "increasing the lookahead ... does not change this"
}

TEST_F(Figure1, La4StillCannotSeparate2From3) {
  LaGainCalculator la(part_, 4);
  EXPECT_EQ(la.gain(ex_.node(2)), la.gain(ex_.node(3)));
}

TEST_F(Figure1, PropSecondIterationGains) {
  const ProbGainCalculator calc = make_calc();
  // Per-net pieces quoted in Sec. 3.3.
  EXPECT_NEAR(net_gain(calc, 1, 1), 1.0, 1e-12);
  EXPECT_NEAR(net_gain(calc, 1, 2), 1.0, 1e-12);
  EXPECT_NEAR(net_gain(calc, 1, 9), 0.0016, 1e-12);
  EXPECT_NEAR(net_gain(calc, 2, 10), 0.04, 1e-12);
  EXPECT_NEAR(net_gain(calc, 3, 11), 0.64, 1e-12);

  // Totals of Fig. 1c.
  EXPECT_NEAR(gain(calc, 1), 2.0016, 1e-12);
  EXPECT_NEAR(gain(calc, 2), 2.04, 1e-12);
  EXPECT_NEAR(gain(calc, 3), 2.64, 1e-12);
  EXPECT_NEAR(gain(calc, 10), 1.8, 1e-12);
  EXPECT_NEAR(gain(calc, 11), 1.8, 1e-12);
  EXPECT_NEAR(gain(calc, 8), -0.3, 1e-12);
  EXPECT_NEAR(gain(calc, 9), -0.3, 1e-12);
  for (int k = 4; k <= 7; ++k) {
    EXPECT_NEAR(gain(calc, k), -0.492, 1e-12) << "node " << k;
  }
}

TEST_F(Figure1, PropRanksNode3First) {
  // The paper's punchline: PROP uniquely identifies node 3 as the best
  // move, which FM and LA cannot.
  const ProbGainCalculator calc = make_calc();
  const double g3 = gain(calc, 3);
  for (int k = 1; k <= 11; ++k) {
    if (k == 3) continue;
    EXPECT_GT(g3, gain(calc, k)) << "node " << k;
  }
}

TEST_F(Figure1, ProbabilitiesFromGainsSaturateForTopNodes) {
  // Sec. 3.3: with gup = 2 the p(u)s of nodes 1, 2, 3 are all 1 — selection
  // must then be by gain, not probability.
  ProbabilityModel model;
  model.pmax = 1.0;
  model.pinit = 1.0;
  model.gup = 2.0;
  model.glo = -1.0;
  const ProbGainCalculator calc = make_calc();
  for (int k = 1; k <= 3; ++k) {
    EXPECT_DOUBLE_EQ(model.from_gain(gain(calc, k)), 1.0);
  }
  EXPECT_LT(model.from_gain(gain(calc, 4)), 1.0);
}

}  // namespace
}  // namespace prop
