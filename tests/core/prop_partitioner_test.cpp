#include "core/prop_partitioner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "fm/fm_partitioner.h"
#include "partition/initial.h"
#include "partition/runner.h"
#include "partition/validate.h"
#include "telemetry/telemetry.h"
#include "testutil.h"
#include "util/rng.h"

namespace prop {
namespace {

TEST(PropPartitioner, ResultIsValidAndBalanced) {
  const Hypergraph g = testing::small_random_circuit();
  for (const auto& balance : {BalanceConstraint::fifty_fifty(g),
                              BalanceConstraint::forty_five(g)}) {
    PropPartitioner prop_algo;
    const PartitionResult r = prop_algo.run(g, balance, 7);
    const ValidationReport report = validate_result(g, balance, r);
    EXPECT_TRUE(report.ok) << report.message;
  }
}

TEST(PropPartitioner, FindsPlantedCut) {
  const Hypergraph g = testing::chain_of_blocks(8, 8);
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  PropPartitioner prop_algo;
  const MultiRunResult r = run_many(prop_algo, g, balance, 10, 33);
  EXPECT_LE(r.best.cut_cost, 2.0);
}

TEST(PropPartitioner, DeterministicInSeed) {
  const Hypergraph g = testing::small_random_circuit(61);
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  PropPartitioner prop_algo;
  EXPECT_EQ(prop_algo.run(g, balance, 4).side, prop_algo.run(g, balance, 4).side);
}

TEST(PropPartitioner, NeverWorseThanInitial) {
  const Hypergraph g = testing::small_random_circuit(67);
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  Rng rng(67);
  for (int trial = 0; trial < 5; ++trial) {
    Partition part(g, random_balanced_sides(g, balance, rng));
    const double initial = part.cut_cost();
    const RefineOutcome out = prop_refine(part, balance);
    EXPECT_LE(out.cut_cost, initial);
    EXPECT_NEAR(out.cut_cost, part.recompute_cut_cost(), 1e-9);
    EXPECT_TRUE(balance.feasible(part.side_size(0)));
  }
}

TEST(PropPartitioner, BothBootstrapsWork) {
  const Hypergraph g = testing::small_random_circuit(71);
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  for (const auto bootstrap :
       {PropBootstrap::kUniform, PropBootstrap::kDeterministicGain}) {
    PropConfig config;
    config.bootstrap = bootstrap;
    PropPartitioner prop_algo(config);
    const PartitionResult r = prop_algo.run(g, balance, 2);
    const ValidationReport report = validate_result(g, balance, r);
    EXPECT_TRUE(report.ok) << report.message;
  }
}

TEST(PropPartitioner, BeatsOrMatchesFmOnClusteredCircuits) {
  // The headline claim (Table 2): PROP outperforms FM for the same number
  // of runs.  On a structured synthetic circuit, PROP's total over several
  // instances must not lose to FM by more than noise.
  const BalanceConstraint* balance_ptr = nullptr;
  double fm_total = 0.0;
  double prop_total = 0.0;
  for (std::uint64_t inst = 0; inst < 3; ++inst) {
    const Hypergraph g =
        testing::small_random_circuit(100 + inst, 400, 500, 1700);
    const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
    balance_ptr = &balance;
    FmPartitioner fm;
    PropPartitioner prop_algo;
    fm_total += run_many(fm, g, balance, 10, inst).best_cut();
    prop_total += run_many(prop_algo, g, balance, 10, inst).best_cut();
  }
  (void)balance_ptr;
  EXPECT_LE(prop_total, fm_total * 1.05 + 2.0);
}

// --- stale_move_limit: the V-cycle pass bound ------------------------------

/// One prop_refine call from a seeded random start; returns the sides and
/// fills `telemetry`.
std::vector<std::uint8_t> refine_with_limit(const Hypergraph& g,
                                            const BalanceConstraint& balance,
                                            std::size_t limit,
                                            RefineTelemetry& telemetry) {
  Rng rng(71);
  Partition part(g, random_balanced_sides(g, balance, rng));
  PropConfig config;
  config.stale_move_limit = limit;
  config.telemetry = &telemetry;
  const RefineOutcome out = prop_refine(part, balance, config);
  EXPECT_NEAR(out.cut_cost, part.recompute_cut_cost(), 1e-9);
  return part.sides();
}

TEST(PropPassBound, FlatDefaultIsOff) {
  EXPECT_EQ(PropConfig{}.stale_move_limit, 0u);
  EXPECT_EQ(stale_move_bound(0), std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(stale_move_bound(1000), 1000u);
}

TEST(PropPassBound, StoppedPassRollsBackExactlyTheBound) {
  const Hypergraph g = testing::small_random_circuit(73, 1500, 1950, 6000);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  for (const std::size_t limit : {std::size_t{15}, std::size_t{40}}) {
    SCOPED_TRACE(limit);
    RefineTelemetry telemetry;
    refine_with_limit(g, balance, limit, telemetry);
    int stopped = 0;
    for (const PassStats& pass : telemetry.passes) {
      EXPECT_LE(pass.rollback_depth(), limit);
      if (pass.rollback_depth() == limit) {
        ++stopped;
        EXPECT_LT(pass.moves_attempted, g.num_nodes());
      }
      // The returned gain is the exact cut drop of the kept prefix.
      EXPECT_NEAR(pass.best_prefix_gain, pass.cut_before - pass.cut_after,
                  1e-9);
    }
    EXPECT_GT(stopped, 0);
  }
}

TEST(PropPassBound, LimitOfAtLeastNMatchesUnboundedRun) {
  const Hypergraph g = testing::small_random_circuit(79, 600, 780, 2400);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  const auto json = [](const RefineTelemetry& t) {
    std::ostringstream out;
    write_json(out, t, /*include_timing=*/false);
    return out.str();
  };
  RefineTelemetry off;
  const std::vector<std::uint8_t> want = refine_with_limit(g, balance, 0, off);
  for (const std::size_t limit : {std::size_t{g.num_nodes()},
                                  std::size_t{g.num_nodes()} + 7}) {
    RefineTelemetry bounded;
    EXPECT_EQ(refine_with_limit(g, balance, limit, bounded), want);
    EXPECT_EQ(json(bounded), json(off));
  }
}

TEST(PropPartitioner, RejectsInvalidModel) {
  PropConfig config;
  config.model.pmin = 0.0;
  EXPECT_THROW(PropPartitioner{config}, std::invalid_argument);
}

TEST(PropPartitioner, TopUpdateWidthZeroStillValid) {
  // Ablation guard: disabling the top-k refresh must not break validity.
  const Hypergraph g = testing::small_random_circuit(73);
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  PropConfig config;
  config.top_update_width = 0;
  PropPartitioner prop_algo(config);
  const PartitionResult r = prop_algo.run(g, balance, 8);
  EXPECT_TRUE(validate_result(g, balance, r).ok);
}

TEST(PropPartitioner, MoreRefineIterationsStillValid) {
  const Hypergraph g = testing::small_random_circuit(75);
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  for (const int iters : {1, 2, 4}) {
    PropConfig config;
    config.refine_iterations = iters;
    PropPartitioner prop_algo(config);
    const PartitionResult r = prop_algo.run(g, balance, 6);
    EXPECT_TRUE(validate_result(g, balance, r).ok) << "iters=" << iters;
  }
}

}  // namespace
}  // namespace prop
