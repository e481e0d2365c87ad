// Determinism of the cached-product gain engine (DESIGN.md Sec. 4f) across
// worker-thread counts: run_many must give identical results for every
// --threads value (DESIGN.md Sec. 4e).  The engine's agreement with the
// scratch oracle is checked per query elsewhere
// (KWayProbGain.PassCrossCheckEveryQuery, ProbGainProperty.*).
#include <gtest/gtest.h>

#include "core/prop_partitioner.h"
#include "hypergraph/mcnc_suite.h"
#include "partition/runner.h"

namespace prop {
namespace {

TEST(EngineEquivalence, CachedEngineDeterministicAcrossThreadCounts) {
  // run_many produces the identical cut vector and best seed at every
  // worker-thread count.
  const Hypergraph g = make_mcnc_circuit("struct");
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  PropPartitioner cached;
  RunnerOptions sequential;
  sequential.threads = 0;
  const MultiRunResult reference =
      run_many(cached, g, balance, 6, 9, sequential);
  for (const int threads : {1, 2, 4}) {
    RunnerOptions options;
    options.threads = threads;
    const MultiRunResult r = run_many(cached, g, balance, 6, 9, options);
    EXPECT_EQ(r.cuts, reference.cuts) << "threads=" << threads;
    EXPECT_EQ(r.best_seed, reference.best_seed) << "threads=" << threads;
    EXPECT_EQ(r.best.cut_cost, reference.best.cut_cost)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace prop
