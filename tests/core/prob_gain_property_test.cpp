// Randomized property suite for the cached-product gain engine (DESIGN.md
// Sec. 4f).  Drives thousands of random set_probability / lock / locked-move
// operations — the exact mutation alphabet of a PROP pass — against a
// ProbGainCalculator with a deliberately tiny renormalization epoch, and
// checks the cache's contract at every step:
//
//   * gain(u) under kCached agrees with the scratch_gain(u) oracle within
//     the drift bound at every sampled query;
//   * max_product_drift() never exceeds kProductAuditTol between epochs;
//   * renormalize_all() restores *bit-exact* agreement with an in-pin-order
//     scratch recompute (max_product_drift() == 0.0, not merely small);
//   * audit_consistency() (zero counters, reciprocals, locked-pin table)
//     holds at every checkpoint;
//   * kShadow sequences never trip the per-query cross-check;
//   * the full PROP pass loop stays consistent when the prop-drift fault
//     site forces emergency resyncs mid-pass.
#include "core/prob_gain.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/prop_partitioner.h"
#include "hypergraph/generator.h"
#include "partition/initial.h"
#include "partition/runner.h"
#include "partition/validate.h"
#include "runtime/run_context.h"
#include "util/rng.h"

namespace prop {
namespace {

Hypergraph property_circuit(std::uint64_t seed) {
  return generate_circuit({"gain-prop", 300, 380, 1400}, seed);
}

/// Probability palette hitting the cache's edge cases: exact zero (the
/// zero-factor counters), near-underflow tiny values (products leave
/// [kRenormMagLo, kRenormMagHi] and force magnitude renormalization), the
/// exact 1.0 fixed point, and the ordinary open interval.
double random_probability(Rng& rng) {
  const auto r = rng.bounded(100);
  if (r < 10) return 0.0;
  if (r < 18) return 1e-60 * (1.0 + rng.uniform());
  if (r < 26) return 1.0;
  return 0.01 + 0.99 * rng.uniform();
}

/// Runs `ops` random mutations with periodic consistency checkpoints.
/// Returns the number of oracle comparisons performed (so tests can assert
/// the sequence actually exercised the query path).
int run_sequence(GainEngine engine, std::uint64_t seed, int ops,
                 int renorm_interval) {
  const Hypergraph g = property_circuit(seed);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  Rng rng(mix_seed(seed, 77));
  Partition part(g, random_balanced_sides(g, balance, rng));
  ProbGainCalculator calc(part, engine, renorm_interval);

  const NodeId n = g.num_nodes();
  const auto reinit = [&] {
    calc.reset();
    for (NodeId u = 0; u < n; ++u) {
      calc.set_probability(u, random_probability(rng));
    }
  };
  reinit();

  int comparisons = 0;
  int free_count = static_cast<int>(n);
  for (int op = 0; op < ops; ++op) {
    // Pass boundary once the sequence has locked most of the circuit.
    if (free_count < static_cast<int>(n) / 5) {
      reinit();
      free_count = static_cast<int>(n);
    }
    const NodeId u = static_cast<NodeId>(rng.bounded(n));
    const auto r = rng.bounded(100);
    if (r < 55) {
      if (calc.is_free(u)) calc.set_probability(u, random_probability(rng));
    } else if (r < 80) {
      if (calc.is_free(u)) {
        // The pass engine's accepted-move protocol: lock, flip the
        // partition, tell the calculator about the locked move.
        const int from = part.side(u);
        calc.lock(u);
        part.move(u);
        calc.move_locked(u, from);
        --free_count;
      }
    } else if (r < 90) {
      if (calc.is_free(u)) {
        calc.lock(u);  // rejected-candidate lock: no side change
        --free_count;
      }
    } else {
      // Oracle comparison on a random node (locked nodes have gain too —
      // their probability is pinned at 0 but the query must still agree).
      const double fast = calc.gain(u);
      const double oracle = calc.scratch_gain(u);
      const double tol = ProbGainCalculator::kProductAuditTol *
                         static_cast<double>(g.degree(u) + 1);
      EXPECT_NEAR(fast, oracle, tol)
          << "op " << op << " node " << u << " engine "
          << to_string(engine);
      ++comparisons;
    }

    if ((op + 1) % 512 == 0) {
      EXPECT_NO_THROW(calc.audit_consistency()) << "op " << op;
      EXPECT_LE(calc.max_product_drift(),
                ProbGainCalculator::kProductAuditTol)
          << "op " << op;
    }
    if ((op + 1) % 2048 == 0) {
      calc.renormalize_all();
      // Bit-exact, not approximate: the renormalized cache must equal an
      // in-pin-order scratch recompute factor for factor.
      EXPECT_EQ(calc.max_product_drift(), 0.0) << "op " << op;
    }
  }
  EXPECT_NO_THROW(calc.audit_consistency());
  return comparisons;
}

TEST(ProbGainProperty, CachedMatchesScratchOracleUnderRandomSequences) {
  // A tiny epoch (5) exercises renormalization hundreds of times per
  // sequence instead of hiding it behind the production default of 128.
  for (const std::uint64_t seed : {11ULL, 23ULL, 47ULL}) {
    const int comparisons = run_sequence(GainEngine::kCached, seed, 3500, 5);
    EXPECT_GT(comparisons, 100) << "seed " << seed;
  }
}

TEST(ProbGainProperty, CachedHoldsAtProductionEpochLength) {
  run_sequence(GainEngine::kCached, 101, 3000,
               ProbGainCalculator::kDefaultRenormInterval);
}

TEST(ProbGainProperty, ShadowCrossCheckNeverFires) {
  // Every gain() under kShadow throws std::logic_error if the cached
  // answer drifts past kProductAuditTol from the scratch one, so simply
  // surviving the sequence is the assertion.
  EXPECT_NO_THROW(run_sequence(GainEngine::kShadow, 71, 3000, 5));
}

TEST(ProbGainProperty, RenormalizationIsBitExactAfterTinyProbabilityBursts) {
  const Hypergraph g = property_circuit(5);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  Rng rng(mix_seed(5, 13));
  Partition part(g, random_balanced_sides(g, balance, rng));
  ProbGainCalculator calc(part, GainEngine::kCached, 3);
  calc.reset();
  const NodeId n = g.num_nodes();
  // Drive every product toward the magnitude floor, then away from it:
  // each transition multiplies by ~1e±60 and must renormalize rather than
  // underflow or divide by a degenerate value.
  for (int round = 0; round < 6; ++round) {
    const bool tiny = (round % 2 == 0);
    for (NodeId u = 0; u < n; ++u) {
      calc.set_probability(u, tiny ? 1e-60 : 0.5 + 0.5 * rng.uniform());
    }
    EXPECT_NO_THROW(calc.audit_consistency()) << "round " << round;
    calc.renormalize_all();
    EXPECT_EQ(calc.max_product_drift(), 0.0) << "round " << round;
  }
}

TEST(ProbGainProperty, InjectedDriftResyncsKeepPassConsistent) {
  // The prop-drift fault site forces emergency resyncs mid-pass; with the
  // auditor armed at a tight cadence, any cache corruption those resyncs
  // exposed would throw std::logic_error out of run_checked.
  const Hypergraph g = property_circuit(9);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  for (const GainEngine engine : {GainEngine::kCached, GainEngine::kShadow}) {
    PropConfig config;
    config.gain_engine = engine;
    config.audit_interval = 16;
    config.max_emergency_resyncs = 2;
    PropPartitioner algo(config);
    FaultInjector injector("prop-drift~0.02", 99);
    DegradationLog log;
    RunContext context;
    context.injector = &injector;
    context.degradations = &log;
    const RunOutcome outcome = run_checked(algo, g, balance, 17, &context);
    ASSERT_TRUE(outcome.has_result()) << to_string(engine);
    const ValidationReport report = validate_result(g, balance, outcome.result);
    EXPECT_TRUE(report.ok) << to_string(engine) << ": " << report.message;
    EXPECT_FALSE(outcome.degradations.empty()) << to_string(engine);
  }
}

}  // namespace
}  // namespace prop
