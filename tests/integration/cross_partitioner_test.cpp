// Cross-cutting integration tests: every partitioner in the suite against
// the same circuits, validating results and sanity-checking the quality
// ordering the paper's tables report.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/window.h"
#include "core/prop_partitioner.h"
#include "fm/fm_partitioner.h"
#include "hypergraph/mcnc_suite.h"
#include "la/la_partitioner.h"
#include "partition/runner.h"
#include "partition/validate.h"
#include "placement/paraboli.h"
#include "spectral/eig1.h"
#include "spectral/melo.h"
#include "testutil.h"

namespace prop {
namespace {

std::vector<std::unique_ptr<Bipartitioner>> all_partitioners() {
  std::vector<std::unique_ptr<Bipartitioner>> v;
  v.push_back(std::make_unique<FmPartitioner>(FmConfig{FmStructure::kBucket}));
  v.push_back(std::make_unique<FmPartitioner>(FmConfig{FmStructure::kTree}));
  v.push_back(std::make_unique<LaPartitioner>(LaConfig{2}));
  v.push_back(std::make_unique<LaPartitioner>(LaConfig{3}));
  v.push_back(std::make_unique<PropPartitioner>());
  v.push_back(std::make_unique<Eig1Partitioner>());
  v.push_back(std::make_unique<MeloPartitioner>());
  v.push_back(std::make_unique<ParaboliPartitioner>());
  v.push_back(std::make_unique<WindowPartitioner>());
  return v;
}

TEST(CrossPartitioner, AllValidOnGeneratedCircuit) {
  const Hypergraph g = testing::small_random_circuit(211, 300, 380, 1250);
  for (const auto& balance : {BalanceConstraint::fifty_fifty(g),
                              BalanceConstraint::forty_five(g)}) {
    for (const auto& p : all_partitioners()) {
      const PartitionResult r = p->run(g, balance, 17);
      const ValidationReport report = validate_result(g, balance, r);
      EXPECT_TRUE(report.ok) << p->name() << ": " << report.message;
    }
  }
}

TEST(CrossPartitioner, AllValidOnSmallestMcncStandIn) {
  const Hypergraph g = make_mcnc_circuit("balu");
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  for (const auto& p : all_partitioners()) {
    const PartitionResult r = p->run(g, balance, 23);
    const ValidationReport report = validate_result(g, balance, r);
    EXPECT_TRUE(report.ok) << p->name() << ": " << report.message;
    EXPECT_GT(r.cut_cost, 0.0) << p->name();
    EXPECT_LT(r.cut_cost, static_cast<double>(g.num_nets())) << p->name();
  }
}

TEST(CrossPartitioner, PropBeatsEig1OnStructuredCircuit) {
  // Table 3 shape: PROP (20 runs) clearly ahead of one-shot spectral.
  const Hypergraph g = make_mcnc_circuit("struct");
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  PropPartitioner prop_algo;
  Eig1Partitioner eig1;
  const double prop_cut = run_many(prop_algo, g, balance, 5, 3).best_cut();
  const double eig1_cut = eig1.run(g, balance, 3).cut_cost;
  EXPECT_LE(prop_cut, eig1_cut * 1.10 + 1.0);
}

TEST(CrossPartitioner, MultiStartOrderingFmFamily) {
  // Table 2 shape on one circuit: best-of-N cuts should not get worse as
  // the method gets smarter, modulo noise (allow generous slack).
  const Hypergraph g = make_mcnc_circuit("balu");
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  FmPartitioner fm;
  LaPartitioner la2({2});
  PropPartitioner prop_algo;
  const double fm_cut = run_many(fm, g, balance, 8, 7).best_cut();
  const double la_cut = run_many(la2, g, balance, 8, 7).best_cut();
  const double prop_cut = run_many(prop_algo, g, balance, 8, 7).best_cut();
  EXPECT_LE(prop_cut, fm_cut * 1.15 + 2.0);
  EXPECT_LE(la_cut, fm_cut * 1.25 + 3.0);
}

TEST(CrossPartitioner, RunnerRecordsPerRunCuts) {
  const Hypergraph g = testing::small_random_circuit(223);
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  FmPartitioner fm;
  const MultiRunResult r = run_many(fm, g, balance, 6, 1);
  EXPECT_EQ(r.cuts.size(), 6u);
  for (const double c : r.cuts) EXPECT_GE(c, r.best_cut());
  EXPECT_GE(r.mean_cut(), r.best_cut());
  EXPECT_GE(r.total_cpu_seconds, 0.0);
}

}  // namespace
}  // namespace prop
