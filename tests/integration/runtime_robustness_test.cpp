// End-to-end robustness: deadlines, fault injection and graceful
// degradation across the partitioner suite.  All deadline behaviour is
// exercised with pre-expired budgets or explicit cancellation, so nothing
// here depends on wall-clock timing.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "cluster/window.h"
#include "core/prop_partitioner.h"
#include "fm/fm_partitioner.h"
#include "hypergraph/builder.h"
#include "kl/kl_partitioner.h"
#include "la/la_partitioner.h"
#include "partition/runner.h"
#include "partition/validate.h"
#include "placement/paraboli.h"
#include "runtime/run_context.h"
#include "spectral/eig1.h"
#include "spectral/melo.h"
#include "testutil.h"

namespace prop {
namespace {

/// Bundles the objects a RunContext borrows, for one test scenario.
struct Harness {
  CancelToken cancel;
  FaultInjector injector;
  DegradationLog log;
  RunContext context;

  explicit Harness(const std::string& spec = {}, Deadline deadline = Deadline::never())
      : cancel(deadline), injector(spec) {
    context.cancel = &cancel;
    context.injector = &injector;
    context.degradations = &log;
  }
};

TEST(RuntimeRobustness, CancelledMidPassStillReturnsValidBalancedPartition) {
  const Hypergraph g = testing::small_random_circuit(31, 300, 380, 1250);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  std::vector<std::unique_ptr<Bipartitioner>> refiners;
  refiners.push_back(std::make_unique<FmPartitioner>());
  refiners.push_back(std::make_unique<LaPartitioner>(LaConfig{2}));
  refiners.push_back(std::make_unique<PropPartitioner>());
  for (const auto& p : refiners) {
    // Fire the injected cancellation a few dozen moves into the first pass.
    Harness h("cancel-mid-pass@40");
    const RunOutcome outcome = run_checked(*p, g, balance, 11, &h.context);
    ASSERT_TRUE(outcome.has_result()) << p->name();
    EXPECT_EQ(outcome.status.code, StatusCode::kInjectedFault) << p->name();
    const ValidationReport report = validate_result(g, balance, outcome.result);
    EXPECT_TRUE(report.ok) << p->name() << ": " << report.message;
  }
}

TEST(RuntimeRobustness, KlCancelledMidPassPreservesBalance) {
  // KL needs unit node sizes and equal halves; swaps preserve balance even
  // when the pass is cut short.
  const Hypergraph g = testing::chain_of_blocks(6, 10);
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  KlPartitioner kl;
  Harness h("cancel-mid-pass@5");
  const RunOutcome outcome = run_checked(kl, g, balance, 3, &h.context);
  ASSERT_TRUE(outcome.has_result());
  const ValidationReport report = validate_result(g, balance, outcome.result);
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(RuntimeRobustness, ExpiredBudgetStillYieldsOneBestEffortRun) {
  const Hypergraph g = testing::small_random_circuit(32);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  FmPartitioner fm;
  Harness h({}, Deadline::after_ms(0.0));
  RunnerOptions options;
  options.context = &h.context;
  const MultiRunResult r = run_many(fm, g, balance, 8, 5, options);
  // Run 0 is always attempted; the rest are skipped.
  EXPECT_EQ(r.runs_attempted(), 1);
  EXPECT_EQ(r.runs_requested, 8);
  EXPECT_EQ(r.status.code, StatusCode::kBudgetExhausted);
  ASSERT_TRUE(r.best.valid());
  const ValidationReport report = validate_result(g, balance, r.best);
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(RuntimeRobustness, InjectedLanczosStallDegradesToRandomOrdering) {
  const Hypergraph g = testing::small_random_circuit(33);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  for (const bool melo : {false, true}) {
    std::unique_ptr<Bipartitioner> algo;
    if (melo) {
      algo = std::make_unique<MeloPartitioner>();
    } else {
      algo = std::make_unique<Eig1Partitioner>();
    }
    Harness h("lanczos-stall");
    const RunOutcome outcome = run_checked(*algo, g, balance, 7, &h.context);
    ASSERT_TRUE(outcome.has_result()) << algo->name();
    EXPECT_TRUE(outcome.ok()) << algo->name() << ": "
                              << outcome.status.describe();
    const ValidationReport report = validate_result(g, balance, outcome.result);
    EXPECT_TRUE(report.ok) << algo->name() << ": " << report.message;
    // The fallback must be on the record.
    ASSERT_FALSE(outcome.degradations.empty()) << algo->name();
    EXPECT_EQ(outcome.degradations.front().action, "random-order-fallback");
  }
}

TEST(RuntimeRobustness, InjectedCgStallStillYieldsValidParaboli) {
  const Hypergraph g = testing::small_random_circuit(34);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  ParaboliPartitioner paraboli;
  Harness h("cg-stall");
  const RunOutcome outcome = run_checked(paraboli, g, balance, 9, &h.context);
  ASSERT_TRUE(outcome.has_result());
  const ValidationReport report = validate_result(g, balance, outcome.result);
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(RuntimeRobustness, PerRunFailureIsolation) {
  const Hypergraph g = testing::small_random_circuit(36);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  FmPartitioner fm;
  // Exactly the first run's validation fails; the remaining seeds run.
  Harness h("validate-fail@1");
  RunnerOptions options;
  options.context = &h.context;
  const MultiRunResult r = run_many(fm, g, balance, 4, 21, options);
  EXPECT_EQ(r.runs_attempted(), 4);
  EXPECT_EQ(r.runs_failed(), 1);
  EXPECT_TRUE(r.status.ok());
  ASSERT_EQ(r.records.size(), 4u);
  EXPECT_EQ(r.records[0].status.code, StatusCode::kInjectedFault);
  EXPECT_FALSE(r.records[0].produced_result());
  for (int i = 1; i < 4; ++i) {
    EXPECT_TRUE(r.records[i].status.ok()) << i;
    EXPECT_TRUE(r.records[i].produced_result()) << i;
  }
  EXPECT_EQ(r.cuts.size(), 3u);
  ASSERT_TRUE(r.best.valid());
  EXPECT_TRUE(validate_result(g, balance, r.best).ok);
}

TEST(RuntimeRobustness, AllRunsFailingThrows) {
  const Hypergraph g = testing::small_random_circuit(37);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  FmPartitioner fm;
  Harness h("validate-fail");  // every validation fails
  RunnerOptions options;
  options.context = &h.context;
  EXPECT_THROW(run_many(fm, g, balance, 3, 2, options), std::runtime_error);
}

TEST(RuntimeRobustness, ExceptionBecomesErrorStatus) {
  // KL requires unit node sizes; a weighted graph makes it throw, which
  // run_checked must convert into a kError outcome instead of propagating.
  HypergraphBuilder b(4);
  b.add_net({0, 1});
  b.add_net({2, 3});
  b.set_node_size(0, 3.0);
  const Hypergraph g = std::move(b).build();
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  KlPartitioner kl;
  const RunOutcome outcome = run_checked(kl, g, balance, 1);
  EXPECT_FALSE(outcome.has_result());
  EXPECT_EQ(outcome.status.code, StatusCode::kError);
  EXPECT_FALSE(outcome.status.message.empty());
}

TEST(RuntimeRobustness, StatsJsonCarriesOutcomeAndRecords) {
  const Hypergraph g = testing::small_random_circuit(38);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  FmPartitioner fm;
  Harness h("validate-fail@1");
  RunnerOptions options;
  options.context = &h.context;
  const MultiRunResult r = run_many(fm, g, balance, 3, 9, options);
  std::ostringstream out;
  write_stats_json(out, g.name(), fm.name(), r);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"outcome\":\"ok\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"runs_failed\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"outcome\":\"injected_fault\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"run_records\":["), std::string::npos) << json;
}

TEST(RuntimeRobustness, WindowRunsUnderInjectedMidPassCancel) {
  const Hypergraph g = testing::small_random_circuit(39);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  WindowPartitioner window;
  Harness h("cancel-mid-pass@30");
  const RunOutcome outcome = run_checked(window, g, balance, 3, &h.context);
  ASSERT_TRUE(outcome.has_result());
  EXPECT_TRUE(validate_result(g, balance, outcome.result).ok);
}

TEST(RuntimeRobustness, InertContextChangesNothing) {
  // Attaching a context with no deadline/injector must not perturb results:
  // same seed, same cut, with and without the context.
  const Hypergraph g = testing::small_random_circuit(40);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  FmPartitioner fm;
  const PartitionResult plain = fm.run(g, balance, 77);
  Harness h;
  const RunOutcome wrapped = run_checked(fm, g, balance, 77, &h.context);
  ASSERT_TRUE(wrapped.has_result());
  EXPECT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped.result.cut_cost, plain.cut_cost);
  EXPECT_EQ(wrapped.result.side, plain.side);
  EXPECT_TRUE(h.log.empty());
}

}  // namespace
}  // namespace prop
