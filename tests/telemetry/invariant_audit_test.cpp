// Debug-mode invariant auditing: every refiner's incremental state is
// checked against a from-scratch recompute while full passes execute over a
// suite of generated MCNC-like circuits (the ISSUE's "incremental gains
// match scratch recompute" acceptance), plus direct sensitivity checks that
// the auditors actually fire on corrupted state.
#include <gtest/gtest.h>

#include <vector>

#include "core/prob_gain.h"
#include "core/prop_partitioner.h"
#include "fm/fm_partitioner.h"
#include "hypergraph/builder.h"
#include "hypergraph/generator.h"
#include "la/la_gains.h"
#include "la/la_partitioner.h"
#include "partition/runner.h"
#include "testutil.h"

namespace prop {
namespace {

/// Five MCNC-like circuits of varying shape (nodes, nets, pins, seed).
std::vector<Hypergraph> audit_suite() {
  std::vector<Hypergraph> circuits;
  circuits.push_back(generate_circuit({"a150", 150, 180, 560}, 101));
  circuits.push_back(generate_circuit({"a200", 200, 260, 800}, 102));
  circuits.push_back(generate_circuit({"a250", 250, 300, 1000}, 103));
  circuits.push_back(generate_circuit({"a300", 300, 350, 1200}, 104));
  circuits.push_back(generate_circuit({"a400", 400, 500, 1700}, 105));
  return circuits;
}

TEST(InvariantAudit, FmIncrementalGainsMatchScratchOnSuite) {
  for (const FmStructure structure : {FmStructure::kBucket, FmStructure::kTree}) {
    FmConfig config;
    config.structure = structure;
    config.audit_interval = 1;  // check after every single move
    FmPartitioner fm(config);
    RunnerOptions options;
    options.collect_telemetry = true;
    for (const Hypergraph& g : audit_suite()) {
      const BalanceConstraint balance = BalanceConstraint::forty_five(g);
      MultiRunResult r;
      ASSERT_NO_THROW(r = run_many(fm, g, balance, 2, 77, options)) << g.name();
      ASSERT_FALSE(r.telemetry.empty());
      // FM's update rules are exact: unit-cost gains show zero drift.
      EXPECT_EQ(r.max_gain_drift(), 0.0) << g.name();
      EXPECT_GT(r.telemetry[0].refine.total_audits(), 0u);
    }
  }
}

TEST(InvariantAudit, FmTreeWeightedNetsStayWithinTolerance) {
  // Weighted nets accumulate doubles in the tree container; drift must stay
  // within FP noise (the audit throws beyond audit_tolerance = 1e-6).
  HypergraphBuilder b(40);
  Rng rng(5);
  for (int i = 0; i < 120; ++i) {
    const NodeId u = static_cast<NodeId>(rng.bounded(40));
    NodeId v = static_cast<NodeId>(rng.bounded(40));
    if (v == u) v = (v + 1) % 40;
    b.add_net({u, v}, 0.1 + 0.01 * static_cast<double>(rng.bounded(100)));
  }
  const Hypergraph g = std::move(b).build();
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  FmConfig config;
  config.structure = FmStructure::kTree;
  config.audit_interval = 1;
  FmPartitioner fm(config);
  EXPECT_NO_THROW(run_many(fm, g, balance, 3, 13));
}

TEST(InvariantAudit, LaIncrementalGainVectorsMatchScratchOnSuite) {
  for (const int lookahead : {2, 3}) {
    LaConfig config;
    config.lookahead = lookahead;
    config.audit_interval = 1;
    LaPartitioner la(config);
    RunnerOptions options;
    options.collect_telemetry = true;
    for (const Hypergraph& g : audit_suite()) {
      const BalanceConstraint balance = BalanceConstraint::forty_five(g);
      MultiRunResult r;
      ASSERT_NO_THROW(r = run_many(la, g, balance, 2, 78, options)) << g.name();
      // Gain vectors are integral; the incremental scheme is exact.
      EXPECT_EQ(r.max_gain_drift(), 0.0) << g.name();
    }
  }
}

TEST(InvariantAudit, PropStructuralInvariantsHoldOnSuite) {
  // The structural invariants (locked-pin counts, tree/gains sync,
  // probability bounds, cut cost) are exact; the gain gap vs. scratch is
  // recorded, not asserted (Sec. 3.4 staleness is by design).
  PropConfig config;
  config.audit_interval = 8;
  PropPartitioner prop_algo(config);
  RunnerOptions options;
  options.collect_telemetry = true;
  for (const Hypergraph& g : audit_suite()) {
    const BalanceConstraint balance = BalanceConstraint::forty_five(g);
    MultiRunResult r;
    ASSERT_NO_THROW(r = run_many(prop_algo, g, balance, 2, 79, options))
        << g.name();
    ASSERT_FALSE(r.telemetry.empty());
    EXPECT_GT(r.telemetry[0].refine.total_audits(), 0u);
    EXPECT_GE(r.max_gain_drift(), 0.0);
  }
}

TEST(InvariantAudit, ProbGainAuditorDetectsDesyncedLockCounts) {
  const Hypergraph g = testing::chain_of_blocks(3, 4);
  KWayState state{Partition(g)};
  ProbGainCalculator calc(state);
  for (NodeId u = 0; u < g.num_nodes(); ++u) calc.set_probability(u, 0.5);
  EXPECT_NO_THROW(calc.audit_consistency());
  calc.lock(0);
  EXPECT_NO_THROW(calc.audit_consistency());
  // Moving the node without telling the calculator desyncs the
  // per-(net, part) locked-pin table — the auditor must notice.
  state.move(0, 1);
  EXPECT_THROW(calc.audit_consistency(), std::logic_error);
}

TEST(InvariantAudit, LaAuditorDetectsDesyncedBindingCounts) {
  const Hypergraph g = testing::chain_of_blocks(3, 4);
  Partition part(g);
  LaGainCalculator calc(part, 2);
  EXPECT_NO_THROW(calc.audit_consistency());
  calc.lock(0);
  EXPECT_NO_THROW(calc.audit_consistency());
  part.move(0);  // free/locked recount now disagrees with the tables
  EXPECT_THROW(calc.audit_consistency(), std::logic_error);
}

}  // namespace
}  // namespace prop
