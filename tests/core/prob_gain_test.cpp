// ProbGainCalculator at k = 2 — the paper's 2-way engine (Eqns. 3-6).
#include "core/prob_gain.h"

#include <gtest/gtest.h>

#include "fm/fm_gains.h"
#include "hypergraph/builder.h"
#include "testutil.h"
#include "util/rng.h"

namespace prop {
namespace {

/// The only target of a node at k = 2: the other side.
NodeId other(const KWayState& state, NodeId u) { return 1 - state.part(u); }

KWayState random_halves(const Hypergraph& g, Rng& rng) {
  std::vector<NodeId> part(g.num_nodes());
  for (auto& p : part) p = rng.chance(0.5) ? 1 : 0;
  return KWayState(g, std::move(part), 2);
}

/// 4-node fixture: net A = {0, 1} internal to side 0; net B = {0, 2} cut;
/// net C = {1, 2, 3} cut.
struct Small {
  Small() {
    HypergraphBuilder b(4);
    b.add_net({0, 1});
    b.add_net({0, 2});
    b.add_net({1, 2, 3});
    g = std::move(b).build();
    state.emplace(g, std::vector<NodeId>{0, 0, 1, 1}, 2);
  }
  Hypergraph g;
  std::optional<KWayState> state;
};

TEST(ProbGain, CutNetEquation3) {
  Small f;
  ProbGainCalculator calc(*f.state);
  calc.set_probability(0, 0.9);
  calc.set_probability(1, 0.6);
  calc.set_probability(2, 0.7);
  calc.set_probability(3, 0.5);
  // Net B = {0, 2}: g_B(0) = 1 * (empty product - p(2)) = 1 - 0.7... the
  // A-side product excluding u is empty = 1; B-side product = p(2) = 0.7.
  EXPECT_NEAR(calc.net_gain(0, 1, 1), 1.0 - 0.7, 1e-12);
  // Net C = {1, 2, 3}, u = 1 (side 0): A-side others = {} -> 1; B-side
  // product = p(2) p(3) = 0.35.
  EXPECT_NEAR(calc.net_gain(1, 2, 1), 1.0 - 0.35, 1e-12);
}

TEST(ProbGain, UncutNetEquation4) {
  Small f;
  ProbGainCalculator calc(*f.state);
  calc.set_probability(0, 0.9);
  calc.set_probability(1, 0.6);
  calc.set_probability(2, 0.7);
  calc.set_probability(3, 0.5);
  // Net A = {0, 1} internal: g_A(0) = -(1 - p(1)) = -0.4.
  EXPECT_NEAR(calc.net_gain(0, 0, 1), -(1.0 - 0.6), 1e-12);
  EXPECT_NEAR(calc.net_gain(1, 0, 1), -(1.0 - 0.9), 1e-12);
}

TEST(ProbGain, TotalIsSumOfNetGains) {
  Small f;
  ProbGainCalculator calc(*f.state);
  calc.set_probability(0, 0.9);
  calc.set_probability(1, 0.6);
  calc.set_probability(2, 0.7);
  calc.set_probability(3, 0.5);
  EXPECT_NEAR(calc.gain(0, 1),
              calc.net_gain(0, 0, 1) + calc.net_gain(0, 1, 1), 1e-12);
  EXPECT_NEAR(calc.gain(1, 1),
              calc.net_gain(1, 0, 1) + calc.net_gain(1, 2, 1), 1e-12);
}

TEST(ProbGain, AllProbabilitiesOneReducesToFmGain) {
  // With p = 1 everywhere, Eqn. 3 gives +-1 per net exactly like Eqn. 1 and
  // Eqn. 4 gives 0 for every uncut net whose co-pins all move...  For nets
  // where u is the sole pin on its side, both agree; in general p = 1 makes
  // the probabilistic gain an upper bound.  Verify the sole-pin case.
  HypergraphBuilder b(3);
  b.add_net({0, 1});  // cut, node 0 sole on side 0
  b.add_net({0, 2});  // cut
  const Hypergraph g = std::move(b).build();
  const KWayState state(g, {0, 1, 1}, 2);
  ProbGainCalculator calc(state);
  for (NodeId u = 0; u < 3; ++u) calc.set_probability(u, 1.0);
  // Each cut net: A-side others empty -> 1; B-side product = 1 -> gain 0
  // (moving u removes the net, but not moving it would also remove it).
  EXPECT_NEAR(calc.net_gain(0, 0, 1), 0.0, 1e-12);
  // With p(other side) = 0 instead, the gain is the full +1.
  calc.set_probability(1, 0.0);
  EXPECT_NEAR(calc.net_gain(0, 0, 1), 1.0, 1e-12);
}

TEST(ProbGain, LockedSameSideBlocksPositiveTerm) {
  Small f;
  ProbGainCalculator calc(*f.state);
  for (NodeId u = 0; u < 4; ++u) calc.set_probability(u, 0.8);
  calc.lock(1);  // side 0, shares net A (internal) with 0
  // Net A = {0, 1} internal with 1 locked: moving 0 cuts it permanently.
  EXPECT_NEAR(calc.net_gain(0, 0, 1), -1.0, 1e-12);
}

TEST(ProbGain, LockedOtherSideZeroesNegativeTerm) {
  Small f;
  ProbGainCalculator calc(*f.state);
  for (NodeId u = 0; u < 4; ++u) calc.set_probability(u, 0.8);
  calc.lock(2);  // side 1, shares cut net B with 0
  // Eqn. 5 case: p(n^{2->1}) = 0, so g_B(0) = p-product of side-0 others = 1.
  EXPECT_NEAR(calc.net_gain(0, 1, 1), 1.0, 1e-12);
  // Eqn. 6 case: for node 3 (side 1) on net C locked in side 1:
  // g_C(3) = -p(n^{1->2}) = -p(1).
  EXPECT_NEAR(calc.net_gain(3, 2, 0), -0.8, 1e-12);
}

TEST(ProbGain, RemovalProbability) {
  Small f;
  ProbGainCalculator calc(*f.state);
  calc.set_probability(0, 0.9);
  calc.set_probability(1, 0.6);
  calc.set_probability(2, 0.7);
  calc.set_probability(3, 0.5);
  // Net C = {1, 2, 3}: removal toward side 1 needs side-0 pins {1} to move.
  EXPECT_NEAR(calc.removal_probability(2, 0), 0.6, 1e-12);
  EXPECT_NEAR(calc.removal_probability(2, 1), 0.7 * 0.5, 1e-12);
  calc.lock(1);
  EXPECT_NEAR(calc.removal_probability(2, 0), 0.0, 1e-12);
}

TEST(ProbGain, MoveLockedKeepsCountsConsistent) {
  const Hypergraph g = testing::small_random_circuit(83);
  Rng rng(83);
  KWayState state = random_halves(g, rng);
  ProbGainCalculator calc(state);
  for (NodeId u = 0; u < g.num_nodes(); ++u) calc.set_probability(u, 0.9);

  for (int i = 0; i < 20; ++i) {
    const NodeId u = static_cast<NodeId>(rng.bounded(g.num_nodes()));
    if (!calc.is_free(u)) continue;
    const NodeId from = state.part(u);
    calc.lock(u);
    state.move(u, 1 - from);
    calc.move_locked(u, from);
  }
  // A fresh calculator with the same lock set must agree on every gain.
  ProbGainCalculator fresh(state);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (calc.is_free(u)) {
      fresh.set_probability(u, 0.9);
    }
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!calc.is_free(u)) {
      if (fresh.is_free(u)) fresh.lock(u);
    }
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (calc.is_free(u)) {
      const NodeId to = other(state, u);
      EXPECT_NEAR(calc.gain(u, to), fresh.gain(u, to), 1e-9) << "node " << u;
    }
  }
}

/// The PROP pass relies on for_each_net_gain (side products + division)
/// agreeing with the reference per-pin net_gain (explicit iteration) — on
/// random partitions, probabilities and lock sets.
TEST(ProbGain, EmissionMatchesReferenceNetGain) {
  const Hypergraph g = testing::small_random_circuit(87);
  Rng rng(87);
  KWayState state = random_halves(g, rng);
  ProbGainCalculator calc(state);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    calc.set_probability(u, 0.4 + 0.55 * rng.uniform());
  }
  // Lock and move a handful of nodes so all lock branches are exercised.
  for (int i = 0; i < 15; ++i) {
    const NodeId u = static_cast<NodeId>(rng.bounded(g.num_nodes()));
    if (!calc.is_free(u)) continue;
    const NodeId from = state.part(u);
    calc.lock(u);
    state.move(u, 1 - from);
    calc.move_locked(u, from);
  }

  for (NetId n = 0; n < g.num_nets(); ++n) {
    calc.for_each_net_gain(n, [&](NodeId v, NodeId to, double gain) {
      ASSERT_TRUE(calc.is_free(v));
      ASSERT_EQ(to, other(state, v));
      EXPECT_NEAR(gain, calc.net_gain(v, n, to), 1e-9)
          << "net " << n << " pin " << v;
    });
  }
}

/// Summing emissions over a node's nets must reproduce gain(v).
TEST(ProbGain, EmissionSumsToTotalGain) {
  const Hypergraph g = testing::small_random_circuit(89);
  Rng rng(89);
  const KWayState state = random_halves(g, rng);
  ProbGainCalculator calc(state);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    calc.set_probability(u, 0.4 + 0.55 * rng.uniform());
  }
  std::vector<double> sum(g.num_nodes(), 0.0);
  for (NetId n = 0; n < g.num_nets(); ++n) {
    calc.for_each_net_gain(
        n, [&](NodeId v, NodeId, double gain) { sum[v] += gain; });
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(sum[u], calc.gain(u, other(state, u)), 1e-9) << "node " << u;
  }
}

TEST(ProbGain, GuardsAgainstMisuse) {
  Small f;
  ProbGainCalculator calc(*f.state);
  EXPECT_THROW(calc.set_probability(0, 1.5), std::invalid_argument);
  calc.lock(0);
  EXPECT_THROW(calc.lock(0), std::logic_error);
  EXPECT_THROW(calc.set_probability(0, 0.5), std::logic_error);
  EXPECT_THROW(calc.move_locked(1, 0), std::logic_error);
}

}  // namespace
}  // namespace prop
