// K-way determinism guarantees (satellite of DESIGN.md §4j): the k-way
// pipeline inside run_many produces byte-identical part vectors and
// stats-json for ANY --threads value, and the multilevel k-way driver does
// the same — so EXPERIMENTS.md k-way sweeps are regenerable bit-for-bit no
// matter what parallelism they ran with.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/prop_partitioner.h"
#include "kway/kway_partitioner.h"
#include "multilevel/multilevel_kway.h"
#include "partition/runner.h"
#include "testutil.h"

namespace prop {
namespace {

std::unique_ptr<KWayPartitioner> make_pipeline(NodeId k) {
  KWayPipelineConfig config;
  config.k = k;
  return std::make_unique<KWayPartitioner>(
      std::make_unique<PropPartitioner>(), config);
}

/// run_many + stats-json with timing excluded — the byte-identity surface.
struct Capture {
  MultiRunResult result;
  std::string stats;
};

Capture run_capture(Bipartitioner& algo, const Hypergraph& g, int runs,
                    std::uint64_t seed, int threads) {
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  RunnerOptions options;
  options.threads = threads;
  options.collect_telemetry = true;
  Capture c;
  c.result = run_many(algo, g, balance, runs, seed, options);
  std::ostringstream out;
  StatsJsonOptions json;
  json.include_timing = false;
  write_stats_json(out, g.name(), algo.name(), c.result, json);
  c.stats = out.str();
  return c;
}

TEST(KWayDeterminism, RunManyByteIdenticalAcrossThreadCounts) {
  const Hypergraph g = testing::small_random_circuit(601);
  const auto algo = make_pipeline(4);
  const Capture sequential = run_capture(*algo, g, 6, 19, 0);
  for (const int threads : {2, 4}) {
    const auto fresh = make_pipeline(4);
    const Capture parallel = run_capture(*fresh, g, 6, 19, threads);
    EXPECT_EQ(parallel.result.best.side, sequential.result.best.side)
        << threads << " threads";
    EXPECT_EQ(parallel.result.cuts, sequential.result.cuts);
    EXPECT_EQ(parallel.stats, sequential.stats) << threads << " threads";
  }
}

TEST(KWayDeterminism, MultilevelByteIdenticalAcrossThreadCounts) {
  const Hypergraph g = testing::chain_of_blocks(16, 24);
  MultilevelKWayConfig config;
  config.k = 4;
  config.coarsest_max_nodes = 32;
  MultilevelKWayPartitioner algo(config);
  const Capture sequential = run_capture(algo, g, 4, 29, 0);
  for (const int threads : {2, 3}) {
    MultilevelKWayPartitioner fresh(config);
    const Capture parallel = run_capture(fresh, g, 4, 29, threads);
    EXPECT_EQ(parallel.result.best.side, sequential.result.best.side)
        << threads << " threads";
    EXPECT_EQ(parallel.stats, sequential.stats) << threads << " threads";
  }
}

TEST(KWayDeterminism, PipelineSeedDeterministicAndSeedSensitive) {
  const Hypergraph g = testing::small_random_circuit(613);
  const auto algo = make_pipeline(8);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  const PartitionResult a = algo->run(g, balance, 77);
  const PartitionResult b = algo->run(g, balance, 77);
  EXPECT_EQ(a.side, b.side);
  EXPECT_DOUBLE_EQ(a.cut_cost, b.cut_cost);
  // Different seeds must explore different starts on a random circuit.
  const MultiRunResult many = run_many(*algo, g, balance, 8, 7);
  bool any_diff = false;
  for (const double c : many.cuts) any_diff |= (c != many.cuts.front());
  EXPECT_TRUE(any_diff);
}

TEST(KWayDeterminism, CloneIsolatesWorkerState) {
  // run_many with threads clones the whole pipeline per worker; a clone
  // must behave exactly like its source and share no mutable state.
  const Hypergraph g = testing::small_random_circuit(617);
  const auto algo = make_pipeline(4);
  const auto copy = algo->clone();
  ASSERT_NE(copy, nullptr);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  const PartitionResult a = algo->run(g, balance, 31);
  const PartitionResult b = copy->run(g, balance, 31);
  EXPECT_EQ(a.side, b.side);
  EXPECT_EQ(copy->name(), algo->name());
}

}  // namespace
}  // namespace prop
