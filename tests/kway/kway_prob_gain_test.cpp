// ProbGainCalculator at k > 2: the per-(net, part) generalization of the
// paper's 2-way engine (DESIGN.md §4f).  Two contracts:
//   * oracle agreement — cached gains match the per-net scratch oracle
//     within the audit tolerance, for every node and target, across a
//     locked-move sequence;
//   * per-query pass cross-check — a PROP-shaped pass (uniform start,
//     Jacobi sweeps, lock/move/move_locked, neighbour refresh) on the
//     cached engine checks every gains() answer against scratch_gain at
//     kProductAuditTol, at k = 2 (t4), k = 4 and k = 8 (p1).
// The k = 2 case is the 2-way PROP engine itself; its outputs are pinned
// byte-for-byte by the GoldenOutput cases FlatPropFortyFive,
// FlatPropConfigVariants (deterministic-gain bootstrap, audit) and
// MultilevelPropSynthetic
// (tests/integration/golden_output_test.cpp).
#include "core/prob_gain.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/probability_model.h"
#include "hypergraph/builder.h"
#include "hypergraph/mcnc_suite.h"
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
  ProbGainCalculator calc(state);
  Rng rng(912);
  calc.reset();
  seed_probabilities(calc, g, rng);

  for (int moves = 0; moves < 120; ++moves) {
    for (int probe = 0; probe < 8; ++probe) {
      const NodeId u = static_cast<NodeId>(rng.bounded(g.num_nodes()));
      if (!calc.is_free(u)) continue;
      for (NodeId to = 0; to < k; ++to) {
        if (to == state.part(u)) continue;
        EXPECT_NEAR(calc.gain(u, to), calc.scratch_gain(u, to),
                    ProbGainCalculator::kProductAuditTol)
            << "node " << u << " -> " << to;
      }
    }
    // Lock-and-move a random free node, mirroring the pass protocol.
    const NodeId u = static_cast<NodeId>(rng.bounded(g.num_nodes()));
    if (!calc.is_free(u)) continue;
    const NodeId from = state.part(u);
    const NodeId to = (from + 1 + static_cast<NodeId>(rng.bounded(k - 1))) % k;
    calc.lock(u);
    state.move(u, to);
    calc.move_locked(u, from);
  }
  EXPECT_LE(calc.max_product_drift(), ProbGainCalculator::kProductAuditTol);
  calc.audit_consistency();
}

/// A PROP-shaped pass with every gain read cross-checked
/// against the scratch oracle.  Each pass starts with reset_uniform(pinit)
/// and two Jacobi sweeps (all gains against the current probabilities,
/// then all probabilities rewritten), then repeatedly moves the free node
/// with the best stored gain to its best target (lock, KWayState::move,
/// move_locked) and refreshes every free neighbour of the mover: a fresh
/// gains() read and set_probability(from_gain(gain)).  No balance window,
/// so a pass moves every node once.  Every gains() answer is compared with
/// scratch_gain(u, to) at kProductAuditTol, unscaled.
class PassCrossCheck {
 public:
  explicit PassCrossCheck(KWayState& state)
      : state_(state),
        calc_(state),
        out_(state.k()),
        best_gain_(state.graph().num_nodes()),
        best_to_(state.graph().num_nodes()),
        stamp_(state.graph().num_nodes(), 0) {}

  void run_pass() {
    const Hypergraph& g = state_.graph();
    const NodeId n = g.num_nodes();
    calc_.reset_uniform(model_.pinit);
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (NodeId u = 0; u < n; ++u) query(u);
      for (NodeId u = 0; u < n; ++u) {
        calc_.set_probability(u, model_.from_gain(best_gain_[u]));
      }
    }
    for (NodeId u = 0; u < n; ++u) query(u);
    for (;;) {
      NodeId pick = kInvalidNode;
      for (NodeId u = 0; u < n; ++u) {
        if (!calc_.is_free(u)) continue;
        if (pick == kInvalidNode || best_gain_[u] > best_gain_[pick]) pick = u;
      }
      if (pick == kInvalidNode) break;
      const NodeId from = state_.part(pick);
      calc_.lock(pick);
      state_.move(pick, best_to_[pick]);
      calc_.move_locked(pick, from);
      ++stamp_value_;
      for (const NetId net : g.nets_of(pick)) {
        for (const NodeId v : g.pins_of(net)) {
          if (!calc_.is_free(v) || stamp_[v] == stamp_value_) continue;
          stamp_[v] = stamp_value_;
          query(v);
          calc_.set_probability(v, model_.from_gain(best_gain_[v]));
        }
      }
    }
    calc_.audit_consistency();
  }

  std::size_t queries() const noexcept { return queries_; }
  std::size_t mismatches() const noexcept { return mismatches_; }
  double worst_gap() const noexcept { return worst_gap_; }
  const std::string& first_mismatch() const noexcept { return first_; }

 private:
  /// One checked gains() read of u; stores u's best gain and target
  /// (lowest part id on ties).
  void query(NodeId u) {
    calc_.gains(u, out_.data());
    const NodeId from = state_.part(u);
    best_to_[u] = from;
    for (NodeId to = 0; to < state_.k(); ++to) {
      if (to == from) continue;
      ++queries_;
      const double want = calc_.scratch_gain(u, to);
      const double gap = std::abs(out_[to] - want);
      if (gap > worst_gap_) worst_gap_ = gap;
      if (!(gap <= ProbGainCalculator::kProductAuditTol)) {
        if (mismatches_++ == 0) {
          std::ostringstream msg;
          msg << "query " << queries_ << " node " << u << " -> " << to
              << ": cached " << out_[to] << " vs scratch " << want;
          first_ = msg.str();
        }
      }
      if (best_to_[u] == from || out_[to] > best_gain_[u]) {
        best_gain_[u] = out_[to];
        best_to_[u] = to;
      }
    }
  }

  KWayState& state_;
  ProbGainCalculator calc_;
  const ProbabilityModel model_{};
  std::vector<double> out_;
  std::vector<double> best_gain_;
  std::vector<NodeId> best_to_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t stamp_value_ = 0;
  std::size_t queries_ = 0;
  std::size_t mismatches_ = 0;
  double worst_gap_ = 0.0;
  std::string first_;
};

/// Two cross-checked passes per circuit from a random partition (the
/// second starts from the state the first left): a small k = 4 circuit,
/// t4 at the paper's k = 2 and p1 at k = 8.
TEST(KWayProbGain, PassCrossCheckEveryQuery) {
  struct Case {
    const char* label;
    Hypergraph g;
    NodeId k;
  };
  const Case cases[] = {
      {"k4", testing::small_random_circuit(917, 150, 200, 600), 4},
      {"t4", make_mcnc_circuit("t4"), 2},
      {"p1", make_mcnc_circuit("p1"), 8},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    KWayState state(c.g, random_parts(c.g, c.k, 917), c.k);
    PassCrossCheck check(state);
    for (int pass = 0; pass < 2; ++pass) check.run_pass();
    EXPECT_EQ(check.mismatches(), 0u) << "first: " << check.first_mismatch();
    // Three full sweeps per pass plus the neighbour refreshes.
    EXPECT_GT(check.queries(), 6u * c.g.num_nodes() * (c.k - 1));
    std::ostringstream summary;
    summary << check.queries() << " queries, worst gap "
            << check.worst_gap();
    RecordProperty(std::string("cross_check_") + c.label, summary.str());
  }
}

TEST(KWayProbGain, NetGainOracleMatchesPaperCases) {
  // Figure-1-style hand case, k = 3: net {0,1,2} with parts {0,0,1},
  // uniform p = 0.5.
  HypergraphBuilder b(3);
  b.add_net({0, 1, 2}, 2.0);
  const Hypergraph g = std::move(b).build();
  KWayState state(g, {0, 0, 1}, 3);
  ProbGainCalculator calc(state);
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
  ProbGainCalculator calc(state, 1);
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
