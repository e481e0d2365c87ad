// Native k-way PROP refiner: pass monotonicity in both objectives, balance
// window preservation (including out-of-window inputs), determinism,
// cooperative cancellation, and the shared-window contract with the greedy
// refiner and recursive bisection (partition/kway_balance.h).
#include "kway/kway_prop_refiner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "kway/kway_partitioner.h"
#include "kway/kway_refine.h"
#include "partition/kway_state.h"
#include "partition/kway_balance.h"
#include "runtime/run_context.h"
#include "telemetry/telemetry.h"
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

double objective_cost(const Hypergraph& g, const std::vector<NodeId>& part,
                      NodeId k, KWayObjective objective) {
  const KWayState state(g, part, k);
  return objective == KWayObjective::kCut ? state.cut_cost()
                                          : state.connectivity_cost();
}

TEST(KWayPropRefiner, NeverWorsensEitherObjective) {
  const Hypergraph g = testing::small_random_circuit(1201);
  const NodeId k = 4;
  const KWayBalanceWindow window =
      kway_part_window(g.total_node_size(), k, 0.1, kway_max_node_size(g));
  for (const KWayObjective objective :
       {KWayObjective::kCut, KWayObjective::kConnectivity}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      std::vector<NodeId> part = random_parts(g, k, 1201 + seed);
      const double before = objective_cost(g, part, k, objective);
      KWayPropConfig config;
      config.objective = objective;
      const KWayPropOutcome out = kway_prop_refine(g, part, k, window, config);
      const double after = objective_cost(g, part, k, objective);
      EXPECT_LE(after, before + 1e-9) << "seed " << seed;
      EXPECT_NEAR(objective == KWayObjective::kCut ? out.cut_cost
                                                   : out.connectivity_cost,
                  after, 1e-9);
    }
  }
}

TEST(KWayPropRefiner, ImprovesOrMatchesGreedyOnPlantedStructure) {
  // chain_of_blocks has an obvious k-way optimum (one block per part);
  // from a random start, greedy + PROP must match-or-beat greedy alone.
  const Hypergraph g = testing::chain_of_blocks(4, 12);
  const NodeId k = 4;
  const KWayBalanceWindow window =
      kway_part_window(g.total_node_size(), k, 0.1, kway_max_node_size(g));
  KWayRefineConfig greedy;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::vector<NodeId> greedy_part = random_parts(g, k, 7000 + seed);
    kway_refine(g, greedy_part, k, seed, greedy);
    const double greedy_cost =
        objective_cost(g, greedy_part, k, KWayObjective::kConnectivity);

    std::vector<NodeId> prop_part = greedy_part;
    const KWayPropOutcome out =
        kway_prop_refine(g, prop_part, k, window, KWayPropConfig{});
    EXPECT_LE(out.connectivity_cost, greedy_cost + 1e-9) << "seed " << seed;
  }
}

TEST(KWayPropRefiner, KeepsPartsInsideWindow) {
  const Hypergraph g = testing::small_random_circuit(1203);
  const NodeId k = 4;
  const KWayBalanceWindow window =
      kway_part_window(g.total_node_size(), k, 0.1, kway_max_node_size(g));
  // Start balanced (legalized by the greedy refiner), then PROP-refine.
  std::vector<NodeId> part = random_parts(g, k, 1203);
  kway_refine(g, part, k, 5, KWayRefineConfig{});
  KWayState before(g, part, k);
  for (NodeId p = 0; p < k; ++p) {
    ASSERT_TRUE(window.contains(before.part_size(p))) << "part " << p;
  }
  kway_prop_refine(g, part, k, window, KWayPropConfig{});
  const KWayState after(g, part, k);
  for (NodeId p = 0; p < k; ++p) {
    EXPECT_TRUE(window.contains(after.part_size(p)))
        << "part " << p << " size " << after.part_size(p) << " window ["
        << window.lo << ", " << window.hi << "]";
  }
}

TEST(KWayPropRefiner, NeverGrowsImbalanceFromOutOfWindowInput) {
  const Hypergraph g = testing::small_random_circuit(1207);
  const NodeId k = 4;
  const KWayBalanceWindow window =
      kway_part_window(g.total_node_size(), k, 0.1, kway_max_node_size(g));
  // Everything crammed into part 0: far outside the window.
  std::vector<NodeId> part(g.num_nodes(), 0);
  const KWayState before(g, part, k);
  const std::int64_t worst_before = before.part_size(0);
  kway_prop_refine(g, part, k, window, KWayPropConfig{});
  const KWayState after(g, part, k);
  for (NodeId p = 0; p < k; ++p) {
    EXPECT_LE(after.part_size(p), std::max(worst_before, window.hi));
  }
}

TEST(KWayPropRefiner, DeterministicAcrossRepeats) {
  const Hypergraph g = testing::small_random_circuit(1209);
  const NodeId k = 8;
  const KWayBalanceWindow window =
      kway_part_window(g.total_node_size(), k, 0.1, kway_max_node_size(g));
  std::vector<NodeId> a = random_parts(g, k, 1209);
  std::vector<NodeId> b = a;
  const KWayPropOutcome oa = kway_prop_refine(g, a, k, window, {});
  const KWayPropOutcome ob = kway_prop_refine(g, b, k, window, {});
  EXPECT_EQ(a, b);
  EXPECT_EQ(oa.passes, ob.passes);
  EXPECT_DOUBLE_EQ(oa.connectivity_cost, ob.connectivity_cost);
}

TEST(KWayPropRefiner, CancelledContextStopsWithValidPartition) {
  const Hypergraph g = testing::small_random_circuit(1213);
  const NodeId k = 4;
  const KWayBalanceWindow window =
      kway_part_window(g.total_node_size(), k, 0.1, kway_max_node_size(g));
  std::vector<NodeId> part = random_parts(g, k, 1213);
  const double before =
      objective_cost(g, part, k, KWayObjective::kConnectivity);

  CancelToken cancel;
  cancel.cancel();
  RunContext ctx;
  ctx.cancel = &cancel;
  KWayPropConfig config;
  config.context = &ctx;
  const KWayPropOutcome out = kway_prop_refine(g, part, k, window, config);
  EXPECT_TRUE(out.interrupted);
  // Rollback discipline: even an interrupted pass leaves a partition no
  // worse than its input.
  EXPECT_LE(objective_cost(g, part, k, KWayObjective::kConnectivity),
            before + 1e-9);
  for (const NodeId p : part) EXPECT_LT(p, k);
}

TEST(KWayPropRefiner, RecordsPerPassTelemetry) {
  const Hypergraph g = testing::small_random_circuit(1217);
  const NodeId k = 4;
  const KWayBalanceWindow window =
      kway_part_window(g.total_node_size(), k, 0.1, kway_max_node_size(g));
  std::vector<NodeId> part = random_parts(g, k, 1217);
  RefineTelemetry telemetry;
  KWayPropConfig config;
  config.telemetry = &telemetry;
  const KWayPropOutcome out = kway_prop_refine(g, part, k, window, config);
  ASSERT_EQ(static_cast<int>(telemetry.passes.size()), out.passes);
  for (const PassStats& pass : telemetry.passes) {
    EXPECT_LE(pass.cut_after, pass.cut_before + 1e-9);
    // Every pass bulk-loads all n nodes into the gain tree, like the 2-way
    // engine, FM and LA count it.
    EXPECT_EQ(pass.ops.inserts, g.num_nodes());
  }
}

// --- stale_move_limit: the V-cycle pass bound ------------------------------

/// One kway_prop_refine call at k = 4 from a greedy-polished random start;
/// returns the parts and fills `telemetry`.
std::vector<NodeId> refine_with_limit(const Hypergraph& g,
                                      KWayObjective objective,
                                      std::size_t limit,
                                      RefineTelemetry& telemetry) {
  const NodeId k = 4;
  std::vector<NodeId> part = random_parts(g, k, 1231);
  KWayRefineConfig greedy;
  greedy.objective = objective;
  kway_refine(g, part, k, 1231, greedy);
  KWayPropConfig config;
  config.objective = objective;
  config.stale_move_limit = limit;
  config.telemetry = &telemetry;
  const KWayBalanceWindow window =
      kway_part_window(g.total_node_size(), k, 0.1, kway_max_node_size(g));
  const KWayPropOutcome out = kway_prop_refine(g, part, k, window, config);
  EXPECT_NEAR(objective == KWayObjective::kCut ? out.cut_cost
                                               : out.connectivity_cost,
              objective_cost(g, part, k, objective), 1e-9);
  return part;
}

TEST(KWayPropPassBound, FlatDefaultIsOff) {
  EXPECT_EQ(KWayPropConfig{}.stale_move_limit, 0u);
  EXPECT_EQ(KWayPipelineConfig{}.prop.stale_move_limit, 0u);
}

TEST(KWayPropPassBound, StoppedPassRollsBackExactlyTheBound) {
  const Hypergraph g = testing::small_random_circuit(1229, 1500, 1950, 6000);
  for (const KWayObjective objective :
       {KWayObjective::kCut, KWayObjective::kConnectivity}) {
    for (const std::size_t limit : {std::size_t{15}, std::size_t{40}}) {
      SCOPED_TRACE(limit);
      RefineTelemetry telemetry;
      refine_with_limit(g, objective, limit, telemetry);
      int stopped = 0;
      for (const PassStats& pass : telemetry.passes) {
        EXPECT_LE(pass.rollback_depth(), limit);
        if (pass.rollback_depth() == limit) {
          ++stopped;
          EXPECT_LT(pass.moves_attempted, g.num_nodes());
        }
        // The returned gain is the exact objective drop of the kept prefix.
        EXPECT_NEAR(pass.best_prefix_gain, pass.cut_before - pass.cut_after,
                    1e-9);
      }
      EXPECT_GT(stopped, 0);
    }
  }
}

TEST(KWayPropPassBound, LimitOfAtLeastNMatchesUnboundedRun) {
  const Hypergraph g = testing::small_random_circuit(1237, 600, 780, 2400);
  const auto json = [](const RefineTelemetry& t) {
    std::ostringstream out;
    write_json(out, t, /*include_timing=*/false);
    return out.str();
  };
  for (const KWayObjective objective :
       {KWayObjective::kCut, KWayObjective::kConnectivity}) {
    RefineTelemetry off;
    const std::vector<NodeId> want = refine_with_limit(g, objective, 0, off);
    for (const std::size_t limit : {std::size_t{g.num_nodes()},
                                    std::size_t{g.num_nodes()} + 7}) {
      RefineTelemetry bounded;
      EXPECT_EQ(refine_with_limit(g, objective, limit, bounded), want);
      EXPECT_EQ(json(bounded), json(off));
    }
  }
}

TEST(KWayPropRefiner, RejectsInvalidInputs) {
  const Hypergraph g = testing::small_random_circuit(1219);
  const KWayBalanceWindow window{0, g.total_node_size()};
  std::vector<NodeId> part(g.num_nodes(), 0);
  EXPECT_THROW(kway_prop_refine(g, part, 0, window, {}),
               std::invalid_argument);
  std::vector<NodeId> short_part(3, 0);
  EXPECT_THROW(kway_prop_refine(g, short_part, 2, window, {}),
               std::invalid_argument);
  KWayPropConfig bad;
  bad.model.pinit = 1.5;  // invalid probability model
  EXPECT_THROW(kway_prop_refine(g, part, 2, window, bad),
               std::invalid_argument);
}

// --- shared balance arithmetic (partition/kway_balance.h) ------------------

TEST(KWayBalance, WindowMatchesProportionalShare) {
  const KWayBalanceWindow w = kway_part_window(1000, 4, 0.1, 1);
  EXPECT_EQ(w.lo, 225);  // 250 * 0.9
  EXPECT_EQ(w.hi, 275);  // 250 * 1.1 rounded up
  EXPECT_TRUE(w.contains(250));
  EXPECT_FALSE(w.contains(224));
  EXPECT_FALSE(w.contains(276));
}

TEST(KWayBalance, DegenerateWindowWidensByMaxNode) {
  // Window narrower than two max-size nodes: widened one max node each way.
  const KWayBalanceWindow w = kway_part_window(40, 4, 0.1, 5);
  EXPECT_LE(w.lo, 10 - 5 + 1);
  EXPECT_GE(w.hi, 10 + 5);
  EXPECT_GE(w.hi - w.lo, 10);
  EXPECT_GE(w.lo, 0);
}

TEST(KWayBalance, SplitFractionsClampAwayFromDegenerate) {
  const KWaySplitFractions even = kway_split_fractions(0.5, 0.1);
  EXPECT_DOUBLE_EQ(even.r1, 0.45);
  EXPECT_DOUBLE_EQ(even.r2, 0.55);
  const KWaySplitFractions tiny = kway_split_fractions(0.005, 0.1);
  EXPECT_DOUBLE_EQ(tiny.r1, 0.01);  // clamped floor
  const KWaySplitFractions huge = kway_split_fractions(0.995, 0.1);
  EXPECT_DOUBLE_EQ(huge.r2, 0.99);  // clamped ceiling
}

TEST(KWayBalance, GreedyAndPropAgreeOnFeasibility) {
  // The same window drives both refiners: after greedy legalization the
  // parts sit inside kway_part_window, and the PROP refiner keeps them
  // there — i.e. neither layer can hand the other an infeasible partition.
  const Hypergraph g = testing::small_random_circuit(1223);
  const NodeId k = 4;
  const double tolerance = 0.1;
  const KWayBalanceWindow window = kway_part_window(
      g.total_node_size(), k, tolerance, kway_max_node_size(g));
  std::vector<NodeId> part = random_parts(g, k, 1223);
  KWayRefineConfig greedy;
  greedy.tolerance = tolerance;
  kway_refine(g, part, k, 3, greedy);
  {
    const KWayState s(g, part, k);
    for (NodeId p = 0; p < k; ++p) {
      EXPECT_TRUE(window.contains(s.part_size(p))) << "after greedy, part "
                                                   << p;
    }
  }
  kway_prop_refine(g, part, k, window, KWayPropConfig{});
  const KWayState s(g, part, k);
  for (NodeId p = 0; p < k; ++p) {
    EXPECT_TRUE(window.contains(s.part_size(p))) << "after prop, part " << p;
  }
}

}  // namespace
}  // namespace prop
