// Randomized property suite for the cached-product gain engine (DESIGN.md
// Sec. 4f).  Drives thousands of random set_probability / lock / locked-move
// operations — the exact mutation alphabet of a PROP pass — against a
// ProbGainCalculator with a deliberately tiny renormalization epoch, at
// k = 2 (the paper's engine) and k = 4, and checks the cache's contract at
// every step:
//
//   * gain(u, to) agrees with the scratch_gain(u, to) oracle within the
//     drift bound at every sampled query;
//   * summed for_each_net_gain emissions agree with scratch_gain(v, to)
//     for every node and target;
//   * max_product_drift() never exceeds kProductAuditTol between epochs;
//   * a renormalized slot is *bit-exact* against an in-pin-order scratch
//     recompute: with renorm_interval = 1 every update renormalizes its
//     slot, so max_product_drift() == 0.0 (not merely small) after every
//     step;
//   * audit_consistency() (zero counters, reciprocals, locked-pin table)
//     holds at every checkpoint;
//   * the all-targets gains() kernel is bit-identical to gain() for every
//     node and target, and each of its answers lies within
//     kProductAuditTol of scratch_gain;
//   * a full PROP run with the auditor at a tight cadence passes every
//     audit and returns the same partition as the unaudited run;
//   * reset_uniform(p) equals reset() plus an id-order set_probability(u, p)
//     sweep bit for bit, right after the reset and after a further random
//     sequence (which makes the epoch counters show), and uniform_gains()
//     equals gains() at that state.
#include "core/prob_gain.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/prop_partitioner.h"
#include "hypergraph/builder.h"
#include "hypergraph/generator.h"
#include "partition/initial.h"
#include "partition/runner.h"
#include "partition/validate.h"
#include "telemetry/telemetry.h"
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

/// k = 2: a random 45-55 bisection; k > 2: uniformly random part ids.
KWayState random_state(const Hypergraph& g, NodeId k, Rng& rng) {
  if (k == 2) {
    return KWayState(Partition(
        g, random_balanced_sides(g, BalanceConstraint::forty_five(g), rng)));
  }
  std::vector<NodeId> part(g.num_nodes());
  for (auto& p : part) p = static_cast<NodeId>(rng.bounded(k));
  return KWayState(g, std::move(part), k);
}

/// A uniformly random target part of u other than its own.
NodeId random_target(const KWayState& state, NodeId u, Rng& rng) {
  const NodeId i = static_cast<NodeId>(rng.bounded(state.k() - 1));
  return i < state.part(u) ? i : i + 1;
}

/// The all-targets kernel against the per-target query, bitwise: for every
/// node (locked ones included) gains(u, out) must give out[to] ==
/// gain(u, to) bit for bit for every target and 0 for u's own part; and
/// each out[to] must lie within kProductAuditTol (unscaled) of the
/// scratch_gain(u, to) oracle.  Reports the first mismatch only.
void expect_kernel_matches_gain(const ProbGainCalculator& calc,
                                const KWayState& state, int op) {
  std::vector<double> out(state.k());
  for (NodeId u = 0; u < state.graph().num_nodes(); ++u) {
    calc.gains(u, out.data());
    for (NodeId to = 0; to < state.k(); ++to) {
      const bool own = to == state.part(u);
      const double want = own ? 0.0 : calc.gain(u, to);
      const auto got_bits = std::bit_cast<std::uint64_t>(out[to]);
      const auto want_bits = std::bit_cast<std::uint64_t>(want);
      EXPECT_EQ(got_bits, want_bits)
          << "op " << op << " node " << u << " -> " << to << ": " << out[to]
          << " vs " << want << " k " << state.k();
      if (got_bits != want_bits) return;
      if (own) continue;
      const double oracle = calc.scratch_gain(u, to);
      EXPECT_NEAR(out[to], oracle, ProbGainCalculator::kProductAuditTol)
          << "op " << op << " node " << u << " -> " << to << " k "
          << state.k();
      if (!(std::abs(out[to] - oracle) <=
            ProbGainCalculator::kProductAuditTol)) {
        return;
      }
    }
  }
}

/// Runs `ops` random mutations with periodic consistency checkpoints, and
/// every `kernel_every` ops (0: never) the gains() kernel check above.
/// Returns the number of oracle comparisons performed (so tests can assert
/// the sequence actually exercised the query path).
int run_sequence(std::uint64_t seed, int ops, int renorm_interval,
                 NodeId k = 2, int kernel_every = 0) {
  const Hypergraph g = property_circuit(seed);
  Rng rng(mix_seed(seed, 77));
  KWayState state = random_state(g, k, rng);
  ProbGainCalculator calc(state, renorm_interval);

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
        // The pass engine's accepted-move protocol: lock, move the node,
        // tell the calculator about the locked move.
        const NodeId from = state.part(u);
        calc.lock(u);
        state.move(u, random_target(state, u, rng));
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
      const NodeId to = random_target(state, u, rng);
      const double fast = calc.gain(u, to);
      const double oracle = calc.scratch_gain(u, to);
      const double tol = ProbGainCalculator::kProductAuditTol *
                         static_cast<double>(g.degree(u) + 1);
      EXPECT_NEAR(fast, oracle, tol)
          << "op " << op << " node " << u << " -> " << to << " k " << k;
      ++comparisons;
    }

    if (kernel_every > 0 && (op + 1) % kernel_every == 0) {
      expect_kernel_matches_gain(calc, state, op);
    }
    if ((op + 1) % 512 == 0) {
      EXPECT_NO_THROW(calc.audit_consistency()) << "op " << op;
      EXPECT_LE(calc.max_product_drift(),
                ProbGainCalculator::kProductAuditTol)
          << "op " << op;
    }
    if (renorm_interval == 1) {
      // Bit-exact, not approximate: every slot an op touched was just
      // renormalized, so the cache equals an in-pin-order scratch
      // recompute factor for factor.
      EXPECT_EQ(calc.max_product_drift(), 0.0) << "op " << op;
    }
  }
  EXPECT_NO_THROW(calc.audit_consistency());
  return comparisons;
}

TEST(ProbGainProperty, CachedMatchesScratchOracleUnderRandomSequences) {
  // A tiny epoch (5) exercises renormalization hundreds of times per
  // sequence instead of hiding it behind the production default of 128.
  // Epoch 1 renormalizes every update's slot, so run_sequence also checks
  // that the cache is bit-exact after every op.
  for (const int renorm_interval : {5, 1}) {
    for (const NodeId k : {2u, 4u}) {
      for (const std::uint64_t seed : {11ULL, 23ULL, 47ULL}) {
        const int comparisons = run_sequence(seed, 3500, renorm_interval, k);
        EXPECT_GT(comparisons, 100)
            << "seed " << seed << " k " << k << " epoch " << renorm_interval;
      }
    }
  }
}

/// Summed per-net emissions are the total gain: for every node v and
/// target to, the sum of for_each_net_gain's (v, to) emissions over v's
/// nets matches scratch_gain(v, to), on a mid-pass state with locked pins
/// in every part (so the cached engine skips fully locked nets and emits
/// frozen pairs as +0.0).
TEST(ProbGainProperty, EmissionSumsMatchScratchGainAtK4) {
  const NodeId k = 4;
  const Hypergraph g = property_circuit(61);
  Rng rng(mix_seed(61, 3));
  KWayState state = random_state(g, k, rng);
  ProbGainCalculator calc(state, 5);
  const NodeId n = g.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    calc.set_probability(u, random_probability(rng));
  }
  for (int i = 0; i < static_cast<int>(n) / 4; ++i) {
    const NodeId u = static_cast<NodeId>(rng.bounded(n));
    if (!calc.is_free(u)) continue;
    const NodeId from = state.part(u);
    calc.lock(u);
    if (rng.chance(0.5)) state.move(u, random_target(state, u, rng));
    calc.move_locked(u, from);
  }

  std::vector<double> sum(static_cast<std::size_t>(n) * k, 0.0);
  for (NetId net = 0; net < g.num_nets(); ++net) {
    NodeId last_v = kInvalidNode;
    NodeId last_to = 0;
    calc.for_each_net_gain(net, [&](NodeId v, NodeId to, double gain) {
      ASSERT_TRUE(calc.is_free(v));
      ASSERT_NE(to, state.part(v));
      // Pins in pin order, targets ascending within a pin.
      if (v == last_v) {
        ASSERT_GT(to, last_to);
      }
      last_v = v;
      last_to = to;
      sum[static_cast<std::size_t>(v) * k + to] += gain;
    });
  }
  for (NodeId v = 0; v < n; ++v) {
    if (!calc.is_free(v)) continue;
    for (NodeId to = 0; to < k; ++to) {
      if (to == state.part(v)) continue;
      EXPECT_NEAR(sum[static_cast<std::size_t>(v) * k + to],
                  calc.scratch_gain(v, to),
                  ProbGainCalculator::kProductAuditTol)
          << "node " << v << " -> " << to;
    }
  }
}

/// gains() is the one gain read of the k-way refiner, so it must not move
/// a single decision: bit-identical to gain() under random sequences, at
/// the paper's k = 2 and at k = 3, 4 and 8, and within kProductAuditTol
/// of the scratch oracle for every node and target at each check.
TEST(ProbGainProperty, GainsKernelIsBitIdenticalToGain) {
  for (const NodeId k : {2u, 3u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "k " << k);
    run_sequence(31 + k, 2000, 5, k, 100);
  }
}

TEST(ProbGainProperty, CachedHoldsAtProductionEpochLength) {
  run_sequence(101, 3000, ProbGainCalculator::kDefaultRenormInterval);
}

TEST(ProbGainProperty, RenormalizationIsBitExactAfterTinyProbabilityBursts) {
  const Hypergraph g = property_circuit(5);
  Rng rng(mix_seed(5, 13));
  const KWayState state = random_state(g, 2, rng);
  // `calc` renormalizes on its short epoch or the magnitude window;
  // `every_step` renormalizes each update's slot.
  ProbGainCalculator calc(state, 3);
  ProbGainCalculator every_step(state, 1);
  calc.reset();
  every_step.reset();
  const NodeId n = g.num_nodes();
  // Drive every product toward the magnitude floor, then away from it:
  // each transition multiplies by ~1e±60 and must renormalize rather than
  // underflow or divide by a degenerate value.
  for (int round = 0; round < 6; ++round) {
    const bool tiny = (round % 2 == 0);
    for (NodeId u = 0; u < n; ++u) {
      const double p = tiny ? 1e-60 : 0.5 + 0.5 * rng.uniform();
      calc.set_probability(u, p);
      every_step.set_probability(u, p);
      EXPECT_EQ(every_step.max_product_drift(), 0.0)
          << "round " << round << " node " << u;
    }
    EXPECT_NO_THROW(calc.audit_consistency()) << "round " << round;
    EXPECT_LE(calc.max_product_drift(), ProbGainCalculator::kProductAuditTol)
        << "round " << round;
  }
}

TEST(ProbGainProperty, AuditedPropRunMatchesUnaudited) {
  // With the auditor armed at a tight cadence, any cache corruption during
  // the pass loop throws std::logic_error out of run_checked.  The auditor
  // only reads state, so the run must equal the unaudited one.
  const Hypergraph g = property_circuit(9);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  PropConfig config;
  PropPartitioner plain(config);
  config.audit_interval = 16;
  PropPartitioner audited(config);
  RefineTelemetry telemetry;
  audited.attach_telemetry(&telemetry);
  const RunOutcome want = run_checked(plain, g, balance, 17);
  const RunOutcome got = run_checked(audited, g, balance, 17);
  ASSERT_TRUE(want.has_result());
  ASSERT_TRUE(got.has_result());
  const ValidationReport report = validate_result(g, balance, got.result);
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_GT(telemetry.total_audits(), 0u);
  EXPECT_EQ(got.result.side, want.result.side);
  EXPECT_EQ(got.result.cut_cost, want.result.cut_cost);
}

/// A generated circuit plus wide nets of 70 to 720 pins, so that at
/// p = 0.01 (net, part) products leave the magnitude window (0.01^61 <
/// kRenormMagLo) or underflow to 0, at k = 2 and at k = 8.  Some slots
/// hold just over 61 pins, where one later update can bring the product
/// back into the window and the epoch counter the reset left decides when
/// the slot next renormalizes.
Hypergraph wide_net_circuit(std::uint64_t seed) {
  const Hypergraph base = generate_circuit({"gain-uniform", 800, 900, 3300},
                                           seed);
  HypergraphBuilder b(base.num_nodes());
  for (NetId n = 0; n < base.num_nets(); ++n) {
    b.add_net(base.pins_of(n), base.net_cost(n));
  }
  Rng rng(mix_seed(seed, 5));
  for (const NodeId width :
       {70u, 90u, 118u, 124u, 130u, 200u, 480u, 500u, 520u, 720u}) {
    std::vector<NodeId> pins;
    for (NodeId i = 0; i < width; ++i) {
      pins.push_back(static_cast<NodeId>(rng.bounded(base.num_nodes())));
    }
    b.add_net(pins, 1.5);
  }
  return std::move(b).build();
}

/// Every gain the calculator answers, bit for bit: gain(u, to), gains(u)
/// and the for_each_net_gain emissions of every net, plus
/// max_product_drift().  Two calculators with the same fields give the same
/// record; the cached fields differing in one ulp would show.
std::vector<std::uint64_t> gain_record(const ProbGainCalculator& calc,
                                       const KWayState& state) {
  const Hypergraph& g = state.graph();
  std::vector<std::uint64_t> rec;
  std::vector<double> out(state.k());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    calc.gains(u, out.data());
    for (NodeId to = 0; to < state.k(); ++to) {
      rec.push_back(std::bit_cast<std::uint64_t>(out[to]));
      if (to != state.part(u)) {
        rec.push_back(std::bit_cast<std::uint64_t>(calc.gain(u, to)));
      }
    }
  }
  for (NetId n = 0; n < g.num_nets(); ++n) {
    calc.for_each_net_gain(n, [&](NodeId v, NodeId to, double gain) {
      rec.push_back(v);
      rec.push_back(to);
      rec.push_back(std::bit_cast<std::uint64_t>(gain));
    });
  }
  rec.push_back(std::bit_cast<std::uint64_t>(calc.max_product_drift()));
  return rec;
}

TEST(ProbGainProperty, ResetUniformMatchesResetPlusIdOrderSweep) {
  for (const NodeId k : {2u, 8u}) {
    const Hypergraph g = wide_net_circuit(13 + k);
    for (const double p : {0.95, 1.0, 0.01}) {
      for (const int renorm_interval : {1, 3, 128}) {
        SCOPED_TRACE(testing::Message() << "k " << k << " p " << p
                                        << " epoch " << renorm_interval);
        Rng rng(mix_seed(k, 7));
        KWayState state = random_state(g, k, rng);
        ProbGainCalculator closed(state, renorm_interval);
        ProbGainCalculator swept(state, renorm_interval);
        closed.reset_uniform(p);
        swept.reset();
        for (NodeId u = 0; u < g.num_nodes(); ++u) {
          swept.set_probability(u, p);
        }
        EXPECT_EQ(gain_record(closed, state), gain_record(swept, state));

        // The closed-form uniform gains are the cached gains at that state.
        std::vector<double> want(k);
        std::vector<double> got(k);
        for (NodeId u = 0; u < g.num_nodes(); ++u) {
          swept.gains(u, want.data());
          closed.uniform_gains(u, got.data());
          for (NodeId to = 0; to < k; ++to) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got[to]),
                      std::bit_cast<std::uint64_t>(want[to]))
                << "node " << u << " -> " << to << ": " << got[to] << " vs "
                << want[to];
          }
        }

        // The same random sequence on both: a product or epoch counter that
        // differed would renormalize at a different update and move a gain.
        for (int op = 0; op < 4000; ++op) {
          const NodeId u = static_cast<NodeId>(rng.bounded(g.num_nodes()));
          if (!closed.is_free(u)) continue;
          if (rng.bounded(100) < 70) {
            const double q = rng.chance(0.5) ? p : random_probability(rng);
            closed.set_probability(u, q);
            swept.set_probability(u, q);
          } else {
            const NodeId from = state.part(u);
            closed.lock(u);
            swept.lock(u);
            if (rng.chance(0.5)) state.move(u, random_target(state, u, rng));
            closed.move_locked(u, from);
            swept.move_locked(u, from);
          }
        }
        EXPECT_EQ(gain_record(closed, state), gain_record(swept, state));
      }
    }
  }
}

TEST(ProbGainProperty, DeferResetMatchesEagerConstructionAtPassStart) {
  // The refiners construct with DeferReset and start every pass with
  // reset_uniform or reset() plus a sweep: from that pass start on, the
  // calculator must be field-for-field the eagerly built one.
  for (const NodeId k : {2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "k " << k);
    const Hypergraph g = wide_net_circuit(29 + k);
    Rng rng(mix_seed(k, 11));
    KWayState state = random_state(g, k, rng);
    ProbGainCalculator eager(state, 3);
    ProbGainCalculator deferred(state, ProbGainCalculator::DeferReset{}, 3);
    for (const bool uniform : {true, false}) {
      if (uniform) {
        eager.reset_uniform(0.9);
        deferred.reset_uniform(0.9);
      } else {
        eager.reset();
        deferred.reset();
        for (NodeId u = 0; u < g.num_nodes(); ++u) {
          const double q = random_probability(rng);
          eager.set_probability(u, q);
          deferred.set_probability(u, q);
        }
      }
      for (int op = 0; op < 500; ++op) {
        const NodeId u = static_cast<NodeId>(rng.bounded(g.num_nodes()));
        if (!eager.is_free(u)) continue;
        if (rng.chance(0.7)) {
          const double q = random_probability(rng);
          eager.set_probability(u, q);
          deferred.set_probability(u, q);
        } else {
          const NodeId from = state.part(u);
          eager.lock(u);
          deferred.lock(u);
          state.move(u, random_target(state, u, rng));
          eager.move_locked(u, from);
          deferred.move_locked(u, from);
        }
      }
      EXPECT_EQ(gain_record(deferred, state), gain_record(eager, state));
      deferred.audit_consistency();
    }
  }
}

TEST(ProbGainProperty, ResetUniformEpochCountersAtTheMagnitudeWindow) {
  // Nets of 40..80 pins, all in part 0 but one: at p = 0.01 the products
  // cross kRenormMagLo between two adjacent widths.  The slot right past
  // the crossing renormalized at its last update, so its epoch restarted
  // there; raising its pins one by one brings it back into the window and
  // counts on from that restart.  Each step is compared bit for bit.
  const NodeId n = 100;
  HypergraphBuilder b(n);
  for (NodeId width = 40; width <= 80; ++width) {
    std::vector<NodeId> pins(width);
    for (NodeId i = 0; i < width; ++i) pins[i] = i;
    pins.push_back(n - 1);
    b.add_net(pins);
  }
  const Hypergraph g = std::move(b).build();
  std::vector<NodeId> part(n, 0);
  part[n - 1] = 1;
  for (const int renorm_interval : {1, 3, 128}) {
    SCOPED_TRACE(testing::Message() << "epoch " << renorm_interval);
    const KWayState state(g, part, 2);
    ProbGainCalculator closed(state, renorm_interval);
    ProbGainCalculator swept(state, renorm_interval);
    closed.reset_uniform(0.01);
    swept.reset();
    for (NodeId u = 0; u < n; ++u) swept.set_probability(u, 0.01);
    for (NodeId u = 0; u < 80; ++u) {
      if (u % 2 == 0) {
        closed.set_probability(u, 1.0);
        swept.set_probability(u, 1.0);
      } else {
        closed.lock(u);
        swept.lock(u);
      }
      ASSERT_EQ(gain_record(closed, state), gain_record(swept, state))
          << "after node " << u;
    }
  }
}

TEST(ProbGainProperty, ResetUniformRejectsProbabilityOutsideOpenUnitRange) {
  const Hypergraph g = property_circuit(3);
  Rng rng(3);
  const KWayState state = random_state(g, 2, rng);
  ProbGainCalculator calc(state);
  EXPECT_THROW(calc.reset_uniform(0.0), std::invalid_argument);
  EXPECT_THROW(calc.reset_uniform(1.5), std::invalid_argument);
  EXPECT_NO_THROW(calc.reset_uniform(1.0));
}

}  // namespace
}  // namespace prop
