// Multilevel V-cycle driver: clustering invariants, hierarchy facts,
// partition validity under both refiners, determinism (including the
// run_many thread-count contract), and deadline robustness.
#include "multilevel/multilevel_driver.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "hypergraph/generator.h"
#include "hypergraph/mcnc_suite.h"
#include "multilevel/multilevel_kway.h"
#include "partition/runner.h"
#include "partition/validate.h"
#include "runtime/run_context.h"
#include "telemetry/telemetry.h"
#include "testutil.h"

namespace prop {
namespace {

TEST(AttractionClusters, DenseCompleteAndCoarsening) {
  const Hypergraph g = testing::small_random_circuit(21);
  Rng rng(5);
  NodeId num_clusters = 0;
  const std::vector<NodeId> cluster_of = attraction_clusters(
      g, rng, g.total_node_size() / 8, 64, num_clusters);
  ASSERT_EQ(cluster_of.size(), g.num_nodes());
  ASSERT_GT(num_clusters, 0u);
  std::vector<int> members(num_clusters, 0);
  for (const NodeId c : cluster_of) {
    ASSERT_LT(c, num_clusters);
    ++members[c];
  }
  // Dense id space: contract() sees no phantom clusters from this caller.
  for (const int m : members) EXPECT_GT(m, 0);
  // And it actually coarsens a connected circuit.
  EXPECT_LT(num_clusters, g.num_nodes());
}

TEST(AttractionClusters, RespectsWeightCap) {
  const Hypergraph g = testing::small_random_circuit(23);
  Rng rng(6);
  const std::int64_t cap = 4;  // unit node sizes: every node fits alone
  NodeId num_clusters = 0;
  const std::vector<NodeId> cluster_of =
      attraction_clusters(g, rng, cap, 64, num_clusters);
  std::vector<std::int64_t> weight(num_clusters, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    weight[cluster_of[u]] += g.node_size(u);
  }
  for (const std::int64_t w : weight) EXPECT_LE(w, cap);
}

TEST(AttractionClusters, DeterministicInRngSeed) {
  const Hypergraph g = testing::small_random_circuit(27);
  NodeId n1 = 0;
  NodeId n2 = 0;
  Rng a(99);
  Rng b(99);
  const auto c1 = attraction_clusters(g, a, 20, 64, n1);
  const auto c2 = attraction_clusters(g, b, 20, 64, n2);
  EXPECT_EQ(n1, n2);
  EXPECT_EQ(c1, c2);
}

TEST(Multilevel, BuildsHierarchyAndValidPartition) {
  const Hypergraph g = testing::small_random_circuit(25, 400, 520, 1600);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  MultilevelConfig config;
  config.coarsest_max_nodes = 50;
  const MultilevelResult r = multilevel_partition(g, balance, 3, config);
  EXPECT_GE(r.levels, 1);
  EXPECT_LE(r.coarsest_nodes, config.coarsest_max_nodes);
  EXPECT_FALSE(r.interrupted);
  const ValidationReport report = validate_result(g, balance, r.part);
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(Multilevel, RunsFlatWhenAlreadySmall) {
  const Hypergraph g = testing::chain_of_blocks(4, 6);  // 24 nodes < 200
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  const MultilevelResult r = multilevel_partition(g, balance, 1);
  EXPECT_EQ(r.levels, 0);
  EXPECT_EQ(r.coarsest_nodes, g.num_nodes());
  EXPECT_TRUE(validate_result(g, balance, r.part).ok);
}

TEST(Multilevel, RecoversPlantedChainStructure) {
  const Hypergraph g = testing::chain_of_blocks(16, 16);  // optimal cut = 1
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  MultilevelConfig config;
  config.coarsest_max_nodes = 32;
  const MultilevelResult r = multilevel_partition(g, balance, 2, config);
  EXPECT_LE(r.part.cut_cost, 2.0);
  EXPECT_TRUE(validate_result(g, balance, r.part).ok);
}

TEST(Multilevel, BothRefinersProduceValidPartitions) {
  const Hypergraph g = testing::small_random_circuit(29, 300, 390, 1200);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  for (const MlRefiner refiner : {MlRefiner::kProp, MlRefiner::kFm}) {
    MultilevelConfig config;
    config.refiner = refiner;
    config.coarsest_max_nodes = 40;
    MultilevelPartitioner algo(config);
    const PartitionResult r = algo.run(g, balance, 7);
    const ValidationReport report = validate_result(g, balance, r);
    EXPECT_TRUE(report.ok) << algo.name() << ": " << report.message;
  }
}

TEST(Multilevel, PropPassesAreBoundedByDefault) {
  EXPECT_EQ(MultilevelConfig{}.prop.stale_move_limit, kVCycleStaleMoveLimit);
  EXPECT_EQ(MultilevelKWayConfig{}.prop.stale_move_limit,
            kVCycleKWayStaleMoveLimit);
  // The finest level's passes reach the bound.
  const Hypergraph g =
      generate_circuit(scaled_spec("synth10000", 10000), kSuiteSeed);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  MultilevelPartitioner algo;
  RefineTelemetry telemetry;
  algo.attach_telemetry(&telemetry);
  const PartitionResult r = algo.run(g, balance, 1);
  EXPECT_TRUE(validate_result(g, balance, r).ok);
  int stopped = 0;
  for (const PassStats& pass : telemetry.passes) {
    EXPECT_LE(pass.rollback_depth(), kVCycleStaleMoveLimit);
    if (pass.rollback_depth() == kVCycleStaleMoveLimit) ++stopped;
  }
  EXPECT_GT(stopped, 0);
}

TEST(Multilevel, DeterministicInSeedAndUnderClone) {
  const Hypergraph g = testing::small_random_circuit(31, 300, 390, 1200);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  MultilevelPartitioner algo;
  const PartitionResult a = algo.run(g, balance, 5);
  const PartitionResult b = algo.run(g, balance, 5);
  EXPECT_EQ(a.side, b.side);
  EXPECT_EQ(a.cut_cost, b.cut_cost);
  const std::unique_ptr<Bipartitioner> copy = algo.clone();
  const PartitionResult c = copy->run(g, balance, 5);
  EXPECT_EQ(a.side, c.side);
}

TEST(Multilevel, RunManyStatsIdenticalAcrossThreadCounts) {
  const Hypergraph g = testing::small_random_circuit(33, 300, 390, 1200);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  MultilevelPartitioner algo;
  RunnerOptions sequential;
  sequential.collect_telemetry = true;
  sequential.threads = 0;
  RunnerOptions parallel = sequential;
  parallel.threads = 3;
  const MultiRunResult a = run_many(algo, g, balance, 4, 9, sequential);
  const MultiRunResult b = run_many(algo, g, balance, 4, 9, parallel);
  StatsJsonOptions json;
  json.include_timing = false;
  std::ostringstream sa;
  std::ostringstream sb;
  write_stats_json(sa, g.name(), algo.name(), a, json);
  write_stats_json(sb, g.name(), algo.name(), b, json);
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(Multilevel, ExpiredDeadlineStillReturnsValidBalancedPartition) {
  const Hypergraph g = testing::small_random_circuit(35, 400, 520, 1600);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  CancelToken cancel((Deadline::after_ms(0.0)));
  RunContext context;
  context.cancel = &cancel;
  MultilevelConfig config;
  config.coarsest_max_nodes = 50;
  MultilevelPartitioner algo(config);
  algo.attach_context(&context);
  const MultilevelResult r =
      multilevel_partition(g, balance, 4, algo.config());
  EXPECT_TRUE(r.interrupted);
  const ValidationReport report = validate_result(g, balance, r.part);
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(MultilevelKWay, ExpiredDeadlineStillReturnsValidPartition) {
  const Hypergraph g = testing::small_random_circuit(35, 400, 520, 1600);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  MultilevelKWayConfig config;
  config.k = 4;
  config.coarsest_max_nodes = 50;
  MultilevelKWayPartitioner algo(config);
  // A fresh token per run: the deadline is read every kPollStride polls,
  // so each run stops at the same poll.
  const auto run_expired = [&] {
    CancelToken cancel((Deadline::after_ms(0.0)));
    RunContext context;
    context.cancel = &cancel;
    algo.attach_context(&context);
    const PartitionResult r = algo.run(g, balance, 4);
    algo.attach_context(nullptr);
    return r;
  };
  const PartitionResult r = run_expired();
  ASSERT_EQ(r.side.size(), g.num_nodes());
  for (const std::uint8_t part : r.side) EXPECT_LT(part, config.k);
  const ValidationReport report = algo.validate(g, balance, r);
  EXPECT_TRUE(report.ok) << report.message;
  // The stop skipped refinement an unbounded run does.
  EXPECT_LT(r.passes, algo.run(g, balance, 4).passes);
  const PartitionResult again = run_expired();
  EXPECT_EQ(again.side, r.side);
  EXPECT_EQ(again.cut_cost, r.cut_cost);
  EXPECT_EQ(again.passes, r.passes);
}

TEST(Multilevel, InjectedCancellationViaRunChecked) {
  const Hypergraph g = testing::small_random_circuit(37, 300, 390, 1200);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  CancelToken cancel{Deadline::never()};
  FaultInjector injector("cancel-mid-pass@40");
  RunContext context;
  context.cancel = &cancel;
  context.injector = &injector;
  MultilevelConfig config;
  config.coarsest_max_nodes = 40;
  MultilevelPartitioner algo(config);
  const RunOutcome outcome = run_checked(algo, g, balance, 11, &context);
  ASSERT_TRUE(outcome.has_result());
  EXPECT_EQ(outcome.status.code, StatusCode::kInjectedFault);
  const ValidationReport report = validate_result(g, balance, outcome.result);
  EXPECT_TRUE(report.ok) << report.message;
}

}  // namespace
}  // namespace prop
