#include "telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>

#include "core/prop_partitioner.h"
#include "fm/fm_partitioner.h"
#include "la/la_partitioner.h"
#include "partition/initial.h"
#include "partition/runner.h"
#include "spectral/eig1.h"
#include "hypergraph/mcnc_suite.h"
#include "testutil.h"
#include "util/rng.h"
#include "util/timer.h"

namespace prop {
namespace {

TEST(RefineTelemetry, BeginPassAssignsIndicesAndAggregates) {
  RefineTelemetry t;
  PassStats& a = t.begin_pass(100.0);
  a.moves_attempted = 50;
  a.moves_accepted = 30;
  a.audits = 2;
  a.max_gain_drift = 0.25;
  a.ops = {10, 20, 30};
  PassStats& b = t.begin_pass(80.0);
  b.moves_attempted = 40;
  b.moves_accepted = 40;
  b.max_gain_drift = 0.5;
  b.ops = {1, 2, 3};

  ASSERT_EQ(t.passes.size(), 2u);
  EXPECT_EQ(t.passes[0].pass, 0);
  EXPECT_EQ(t.passes[1].pass, 1);
  EXPECT_DOUBLE_EQ(t.passes[1].cut_before, 80.0);
  EXPECT_EQ(t.total_moves_attempted(), 90u);
  EXPECT_EQ(t.total_moves_accepted(), 70u);
  EXPECT_EQ(t.max_rollback_depth(), 20u);
  EXPECT_EQ(t.total_audits(), 2u);
  EXPECT_DOUBLE_EQ(t.max_gain_drift(), 0.5);
  EXPECT_EQ(t.total_ops().inserts, 11u);
  EXPECT_EQ(t.total_ops().erases, 22u);
  EXPECT_EQ(t.total_ops().updates, 33u);
  EXPECT_EQ(t.total_ops().total(), 66u);
}

TEST(RefineTelemetry, JsonContainsEveryField) {
  RefineTelemetry t;
  PassStats& s = t.begin_pass(12.0);
  s.cut_after = 9.0;
  s.moves_attempted = 5;
  s.moves_accepted = 3;
  s.best_prefix_gain = 3.0;
  const std::string json = to_json(t);
  for (const char* key :
       {"\"pass\":0", "\"cut_before\":12", "\"cut_after\":9",
        "\"moves_attempted\":5", "\"moves_accepted\":3", "\"rollback_depth\":2",
        "\"best_prefix_gain\":3", "\"wall_seconds\":", "\"cpu_seconds\":",
        "\"container_ops\":", "\"inserts\":", "\"audits\":0",
        "\"max_gain_drift\":0"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing: " << json;
  }
  // No engine runs in rounds or resyncs gains, so neither key is written.
  for (const char* key : {"\"rounds\"", "\"resyncs\""}) {
    EXPECT_EQ(json.find(key), std::string::npos) << key << " present: " << json;
  }
}

/// Refine-level wiring: a telemetry pointer in the config records one
/// PassStats per executed pass, consistent with the refine outcome.
template <typename Refine, typename Config>
void expect_refine_records(Refine refine, Config config) {
  const Hypergraph g = testing::small_random_circuit(21);
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  Rng rng(3);
  Partition part(g, random_balanced_sides(g, balance, rng));
  const double initial = part.cut_cost();

  RefineTelemetry telemetry;
  config.telemetry = &telemetry;
  const RefineOutcome out = refine(part, balance, config);

  ASSERT_EQ(telemetry.passes.size(), static_cast<std::size_t>(out.passes));
  EXPECT_DOUBLE_EQ(telemetry.passes.front().cut_before, initial);
  EXPECT_DOUBLE_EQ(telemetry.passes.back().cut_after, out.cut_cost);
  for (const PassStats& s : telemetry.passes) {
    EXPECT_LE(s.cut_after, s.cut_before);  // a pass never accepts a loss
    EXPECT_LE(s.moves_accepted, s.moves_attempted);
    EXPECT_NEAR(s.cut_before - s.cut_after, s.best_prefix_gain, 1e-9);
    EXPECT_GE(s.wall_seconds, 0.0);
    EXPECT_GE(s.cpu_seconds, 0.0);
    EXPECT_GT(s.ops.inserts, 0u);
    EXPECT_EQ(s.ops.erases, s.moves_attempted);
  }
  // Convergence: the final pass accepted nothing.
  EXPECT_EQ(telemetry.passes.back().moves_accepted, 0u);
}

TEST(RefineTelemetry, FmPassTrajectoryIsConsistent) {
  expect_refine_records(
      [](Partition& p, const BalanceConstraint& b, const FmConfig& c) {
        return fm_refine(p, b, c);
      },
      FmConfig{});
  expect_refine_records(
      [](Partition& p, const BalanceConstraint& b, const FmConfig& c) {
        return fm_refine(p, b, c);
      },
      FmConfig{FmStructure::kTree});
}

TEST(RefineTelemetry, LaPassTrajectoryIsConsistent) {
  expect_refine_records(
      [](Partition& p, const BalanceConstraint& b, const LaConfig& c) {
        return la_refine(p, b, c);
      },
      LaConfig{});
}

TEST(RefineTelemetry, PropPassTrajectoryIsConsistent) {
  expect_refine_records(
      [](Partition& p, const BalanceConstraint& b, const PropConfig& c) {
        return prop_refine(p, b, c);
      },
      PropConfig{});
}

/// Per-pass cpu_seconds is the calling thread's CPU time: a sibling thread
/// burning CPU during the refine (as under --threads N or prop_serve
/// --workers N) must not be charged to the passes.  Their sum can then
/// never exceed the thread CPU time of the whole call.
template <typename Refine>
void expect_pass_cpu_excludes_sibling(const Refine& refine) {
  const Hypergraph g = make_mcnc_circuit("p2");
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  Rng rng(5);
  Partition part(g, random_balanced_sides(g, balance, rng));
  RefineTelemetry telemetry;

  std::atomic<bool> started{false};
  std::atomic<bool> stop{false};
  std::thread sibling([&] {
    started = true;
    volatile std::uint64_t spin = 0;
    while (!stop.load(std::memory_order_relaxed)) spin = spin + 1;
  });
  while (!started) std::this_thread::yield();
  const ThreadCpuTimer call;
  refine(part, balance, &telemetry);
  const double call_cpu = call.seconds();
  stop = true;
  sibling.join();

  ASSERT_FALSE(telemetry.passes.empty());
  double passes_cpu = 0.0;
  for (const PassStats& s : telemetry.passes) passes_cpu += s.cpu_seconds;
  EXPECT_LE(passes_cpu, call_cpu + 0.005);
}

TEST(RefineTelemetry, PassCpuSecondsExcludeSiblingThreads) {
  expect_pass_cpu_excludes_sibling(
      [](Partition& p, const BalanceConstraint& b, RefineTelemetry* t) {
        PropConfig config;
        config.telemetry = t;
        prop_refine(p, b, config);
      });
  expect_pass_cpu_excludes_sibling(
      [](Partition& p, const BalanceConstraint& b, RefineTelemetry* t) {
        FmConfig config;
        config.telemetry = t;
        fm_refine(p, b, config);
      });
  expect_pass_cpu_excludes_sibling(
      [](Partition& p, const BalanceConstraint& b, RefineTelemetry* t) {
        LaConfig config;
        config.telemetry = t;
        la_refine(p, b, config);
      });
}

TEST(RefineTelemetry, DisabledPointerRecordsNothingAndMatchesResult) {
  // The telemetry-enabled and telemetry-disabled paths must take identical
  // decisions: telemetry observes, never steers.
  const Hypergraph g = testing::small_random_circuit(23);
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  PropPartitioner plain;
  PropPartitioner instrumented;
  RefineTelemetry telemetry;
  instrumented.attach_telemetry(&telemetry);
  const PartitionResult a = plain.run(g, balance, 11);
  const PartitionResult b = instrumented.run(g, balance, 11);
  EXPECT_EQ(a.side, b.side);
  EXPECT_FALSE(telemetry.passes.empty());
}

TEST(RunMany, CollectsOneRunTelemetryPerRun) {
  const Hypergraph g = testing::small_random_circuit(25);
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  FmPartitioner fm;
  RunnerOptions options;
  options.collect_telemetry = true;
  const MultiRunResult r = run_many(fm, g, balance, 4, 9, options);

  ASSERT_EQ(r.telemetry.size(), 4u);
  for (std::size_t i = 0; i < r.telemetry.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.telemetry[i].cut, r.cuts[i]);
    EXPECT_FALSE(r.telemetry[i].refine.passes.empty());
    EXPECT_DOUBLE_EQ(r.telemetry[i].refine.passes.back().cut_after, r.cuts[i]);
  }
  EXPECT_GT(r.total_passes(), 0u);
  EXPECT_GT(r.total_moves_attempted(), 0u);
  // Seeds differ per run.
  EXPECT_NE(r.telemetry[0].seed, r.telemetry[1].seed);
}

TEST(RunMany, DefaultCollectsNothing) {
  const Hypergraph g = testing::small_random_circuit(25);
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  FmPartitioner fm;
  const MultiRunResult r = run_many(fm, g, balance, 2, 9);
  EXPECT_TRUE(r.telemetry.empty());
  EXPECT_EQ(r.total_passes(), 0u);
}

TEST(RunMany, ConstructiveMethodsRecordNoTelemetry) {
  const Hypergraph g = testing::small_random_circuit(27);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  Eig1Partitioner eig1;
  RunnerOptions options;
  options.collect_telemetry = true;
  const MultiRunResult r = run_many(eig1, g, balance, 2, 9, options);
  EXPECT_TRUE(r.telemetry.empty());
}

TEST(RunMany, StatsJsonDumpIsWellFormed) {
  const Hypergraph g = testing::small_random_circuit(29);
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  PropPartitioner prop_algo;
  RunnerOptions options;
  options.collect_telemetry = true;
  const MultiRunResult r = run_many(prop_algo, g, balance, 2, 5, options);

  std::ostringstream out;
  write_stats_json(out, g.name(), prop_algo.name(), r);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"circuit\":\"small\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"algo\":\"PROP\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\":["), std::string::npos);
  // Braces and brackets balance (cheap structural well-formedness check).
  int depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace prop
