// ProbGainCalculator at k > 2: the per-(net, part) generalization of the
// paper's 2-way engine (DESIGN.md §4f).  Two contracts:
//   * oracle agreement — cached gains match the per-net scratch oracle
//     within the audit tolerance, for every node and target, across a
//     locked-move sequence;
//   * shadow-mode equivalence — kShadow cross-checks the cache against
//     scratch on every query and throws past kProductAuditTol, so a clean
//     shadow run IS the cached-vs-exact equivalence statement at k > 2.
// The k = 2 case is the 2-way PROP engine itself; its outputs are pinned
// byte-for-byte by the GoldenOutput cases FlatPropFortyFive,
// FlatPropConfigVariants (scratch, shadow, deterministic-gain bootstrap,
// audit) and MultilevelPropSynthetic
// (tests/integration/golden_output_test.cpp).
#include "core/prob_gain.h"

#include <gtest/gtest.h>

#include <vector>

#include "hypergraph/builder.h"
#include "partition/kway_state.h"
#include "testutil.h"
#include "util/rng.h"

namespace prop {
namespace {

std::vector<NodeId> random_parts(const Hypergraph& g, NodeId k,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> part(g.num_nodes());
  for (auto& p : part) p = static_cast<NodeId>(rng.bounded(k));
  return part;
}

/// Random nonzero probabilities — enough structure to make products
/// nontrivial without depending on the refiner's bootstrap.
void seed_probabilities(ProbGainCalculator& calc, const Hypergraph& g,
                        Rng& rng) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    calc.set_probability(u, 0.05 + 0.9 * rng.uniform());
  }
}

TEST(KWayProbGain, CachedMatchesScratchOracle) {
  const Hypergraph g = testing::small_random_circuit(911);
  const NodeId k = 4;
  KWayState state(g, random_parts(g, k, 911), k);
  ProbGainCalculator cached(state, GainEngine::kCached);
  ProbGainCalculator scratch(state, GainEngine::kScratch);
  Rng rng(912);
  cached.reset();
  scratch.reset();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const double p = 0.05 + 0.9 * rng.uniform();
    cached.set_probability(u, p);
    scratch.set_probability(u, p);
  }

  for (int moves = 0; moves < 120; ++moves) {
    for (int probe = 0; probe < 8; ++probe) {
      const NodeId u = static_cast<NodeId>(rng.bounded(g.num_nodes()));
      if (!cached.is_free(u)) continue;
      for (NodeId to = 0; to < k; ++to) {
        if (to == state.part(u)) continue;
        const double want = scratch.gain(u, to);
        EXPECT_NEAR(cached.gain(u, to), want,
                    ProbGainCalculator::kProductAuditTol)
            << "node " << u << " -> " << to;
        EXPECT_NEAR(cached.scratch_gain(u, to), want, 1e-12);
      }
    }
    // Lock-and-move a random free node, mirroring the pass protocol.
    const NodeId u = static_cast<NodeId>(rng.bounded(g.num_nodes()));
    if (!cached.is_free(u)) continue;
    const NodeId from = state.part(u);
    const NodeId to = (from + 1 + static_cast<NodeId>(rng.bounded(k - 1))) % k;
    cached.lock(u);
    scratch.lock(u);
    state.move(u, to);
    cached.move_locked(u, from);
    scratch.move_locked(u, from);
  }
  EXPECT_LE(cached.max_product_drift(),
            ProbGainCalculator::kProductAuditTol);
  cached.audit_consistency();
}

TEST(KWayProbGain, ShadowModeRunsCleanAtK4) {
  const Hypergraph g = testing::small_random_circuit(917, 150, 200, 600);
  const NodeId k = 4;
  KWayState state(g, random_parts(g, k, 917), k);
  ProbGainCalculator shadow(state, GainEngine::kShadow);
  Rng rng(918);
  shadow.reset();
  seed_probabilities(shadow, g, rng);

  // Every query cross-checks cache vs scratch internally; a drift past
  // kProductAuditTol throws std::logic_error and fails the test.
  for (int moves = 0; moves < 150; ++moves) {
    const NodeId u = static_cast<NodeId>(rng.bounded(g.num_nodes()));
    if (!shadow.is_free(u)) continue;
    const NodeId from = state.part(u);
    NodeId best_to = (from + 1) % k;
    double best = -1e300;
    for (NodeId to = 0; to < k; ++to) {
      if (to == from) continue;
      const double gain = shadow.gain(u, to);
      if (gain > best) {
        best = gain;
        best_to = to;
      }
    }
    shadow.lock(u);
    state.move(u, best_to);
    shadow.move_locked(u, from);
  }
  shadow.audit_consistency();
}

TEST(KWayProbGain, NetGainOracleMatchesPaperCases) {
  // Figure-1-style hand case, k = 3: net {0,1,2} with parts {0,0,1},
  // uniform p = 0.5.
  HypergraphBuilder b(3);
  b.add_net({0, 1, 2}, 2.0);
  const Hypergraph g = std::move(b).build();
  KWayState state(g, {0, 0, 1}, 3);
  ProbGainCalculator calc(state, GainEngine::kScratch);
  calc.reset();
  for (NodeId u = 0; u < 3; ++u) calc.set_probability(u, 0.5);

  // Node 0 (part 0) -> part 1 (net touches 1): c * (p(1) - p(2's part-1
  // product)) = 2 * (0.5 - 0.5) = 0.
  EXPECT_DOUBLE_EQ(calc.net_gain(0, 0, 1), 0.0);
  // Node 0 -> part 2 (net has no pin in 2): -c * (1 - p(1)) = -1.
  EXPECT_DOUBLE_EQ(calc.net_gain(0, 0, 2), -1.0);
  // Node 2 (alone in part 1) -> part 0: removal product over part-1 pins
  // minus u is empty = 1; target product = 0.5 * 0.5.  2 * (1 - 0.25).
  EXPECT_DOUBLE_EQ(calc.net_gain(2, 0, 0), 2.0 * (1.0 - 0.25));

  // Locking node 1 zeroes part 0's removal product for node 0's moves.
  calc.lock(1);
  EXPECT_DOUBLE_EQ(calc.net_gain(0, 0, 1), 2.0 * (0.0 - 0.5));
}

TEST(KWayProbGain, ShortRenormEpochStaysExact) {
  // renorm_interval = 1 renormalizes every slot on every update; gains must
  // still agree with scratch exactly at the audit tolerance.
  const Hypergraph g = testing::small_random_circuit(947, 80, 110, 330);
  const NodeId k = 3;
  KWayState state(g, random_parts(g, k, 947), k);
  ProbGainCalculator calc(state, GainEngine::kCached, 1);
  Rng rng(948);
  calc.reset();
  seed_probabilities(calc, g, rng);
  for (int i = 0; i < 60; ++i) {
    const NodeId u = static_cast<NodeId>(rng.bounded(g.num_nodes()));
    if (!calc.is_free(u)) continue;
    const NodeId from = state.part(u);
    const NodeId to = (from + 1) % k;
    EXPECT_NEAR(calc.gain(u, to), calc.scratch_gain(u, to),
                ProbGainCalculator::kProductAuditTol);
    calc.lock(u);
    state.move(u, to);
    calc.move_locked(u, from);
  }
  EXPECT_EQ(calc.max_product_drift(), 0.0);  // every slot just renormalized
  calc.audit_consistency();
}

}  // namespace
}  // namespace prop
