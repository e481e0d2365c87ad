// Differential test of the cached gain kernel against the branchy kernel
// it replaced, which is kept below as the oracle.  The calculator now reads
// one effective-product row per net (eff = 1 for a part with no pin, 0 for
// a part with a locked or zero-probability pin, the cached product
// otherwise) and adds c * (excl - eff[to]) for every target.  The oracle
// computes the former SourceTerm per net — Eqn. 4's no-pin term
// -c * (1 - excl), the touched term c * (excl - prod_to) and the frozen-pair
// skip — from the same cached products (cached_slot), so the two must agree
// bit for bit:
//
//   * gains(u, out) and gain(u, to) under kCached, compared with memcmp for
//     every node, locked ones included;
//   * for_each_net_gain emissions under every engine, compared with ==.
//
// Covered: k = 2, 3 and 8; probabilities 0, ~1e-60, exactly 1.0, a
// subnormal whose reciprocal overflows, and the open interval; locks;
// locked moves that empty a part of a net; resets to the uniform start;
// renorm_interval 1, 3 and 128.  audit_consistency(), which checks the
// effective row exactly, runs at every checkpoint too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "core/prob_gain.h"
#include "hypergraph/generator.h"
#include "partition/initial.h"
#include "util/rng.h"

namespace prop {
namespace {

// --- oracle: the previous kernel ------------------------------------------

/// The previous cached kernel and emission, verbatim apart from reading the
/// calculator's fields through its public interface: the product cache
/// through cached_slot, the locked-pin table recounted from is_free, and
/// 1/p computed here (audit_consistency checks the calculator's cached
/// reciprocal is exactly that).
class OldKernel {
 public:
  OldKernel(const ProbGainCalculator& calc, const KWayState& state)
      : calc_(calc), state_(state), k_(state.k()) {
    const Hypergraph& g = state.graph();
    locked_pins_.assign(static_cast<std::size_t>(g.num_nets()) * k_, 0);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (calc.is_free(u)) continue;
      for (const NetId n : g.nets_of(u)) ++locked_pins_[slot(n, state.part(u))];
    }
  }

  double cached_gain(NodeId u, NodeId to) const {
    const NodeId a = state_.part(u);
    double total = 0.0;
    for (const NetId n : state_.graph().nets_of(u)) {
      add_cached_term(n, to, cached_source(n, a, u), total);
    }
    return total;
  }

  void cached_gains(NodeId u, double* out) const {
    const NodeId a = state_.part(u);
    std::fill_n(out, k_, 0.0);
    for (const NetId n : state_.graph().nets_of(u)) {
      const SourceTerm src = cached_source(n, a, u);
      for (NodeId i = 0; i + 1 < k_; ++i) {
        const NodeId to = target(a, i);
        add_cached_term(n, to, src, out[to]);
      }
    }
  }

  template <typename Emit>
  void for_each_net_gain(NetId n, bool cached, Emit&& emit) const {
    const Hypergraph& g = state_.graph();
    const auto pins = g.pins_of(n);
    const double c = g.net_cost(n);
    std::vector<double> emit_prod(k_);
    std::vector<std::uint32_t> emit_zeros(k_);
    if (cached) {
      NodeId p = 0;
      while (p < k_ && part_locked(n, p)) ++p;
      if (p == k_) return;
      for (NodeId q = 0; q < k_; ++q) {
        std::tie(emit_prod[q], emit_zeros[q]) = calc_.cached_slot(n, q);
      }
    } else {
      std::fill(emit_prod.begin(), emit_prod.end(), 1.0);
      std::fill(emit_zeros.begin(), emit_zeros.end(), 0u);
      for (const NodeId v : pins) {
        if (!calc_.is_free(v)) continue;
        const NodeId pv = state_.part(v);
        if (calc_.probability(v) == 0.0) {
          ++emit_zeros[pv];
        } else {
          emit_prod[pv] *= calc_.probability(v);
        }
      }
    }
    for (const NodeId v : pins) {
      if (!calc_.is_free(v)) continue;
      const NodeId a = state_.part(v);
      const bool a_blocked = part_locked(n, a);
      const SourceTerm src(c, a_blocked,
                           excl_product(a_blocked, emit_zeros[a],
                                        emit_prod[a], v, cached));
      for (NodeId i = 0; i + 1 < k_; ++i) {
        const NodeId to = target(a, i);
        const bool to_blocked = part_locked(n, to);
        if (cached && a_blocked && to_blocked) continue;
        if (state_.pins_in(n, to) == 0) {
          emit(v, to, src.no_pin);
          continue;
        }
        const double prod_to =
            (to_blocked || emit_zeros[to] > 0) ? 0.0 : emit_prod[to];
        emit(v, to, src.touched(prod_to));
      }
    }
  }

  bool part_locked(NetId n, NodeId p) const noexcept {
    return locked_pins_[slot(n, p)] > 0;
  }

 private:
  struct SourceTerm {
    SourceTerm(double cost, bool a_blocked, double prod_a_excl) noexcept
        : c(cost),
          excl(prod_a_excl),
          no_pin(-cost * (1.0 - prod_a_excl)),
          blocked(a_blocked) {}

    double touched(double prod_to) const noexcept {
      return c * (excl - prod_to);
    }

    double c;
    double excl;
    double no_pin;
    bool blocked;
  };

  std::size_t slot(NetId n, NodeId p) const noexcept {
    return static_cast<std::size_t>(n) * k_ + p;
  }

  static NodeId target(NodeId a, NodeId i) noexcept {
    return i + static_cast<NodeId>(i >= a);
  }

  double recip(NodeId v) const noexcept {
    const double p = calc_.probability(v);
    return p == 0.0 ? 0.0 : 1.0 / p;
  }

  double cached_part_product(NetId n, NodeId p) const noexcept {
    const auto [prod, zeros] = calc_.cached_slot(n, p);
    return (part_locked(n, p) || zeros > 0) ? 0.0 : prod;
  }

  double excl_product(bool blocked, std::uint32_t zeros, double prod,
                      NodeId v, bool cached) const noexcept {
    const double p_v = calc_.probability(v);
    if (blocked) return 0.0;
    if (p_v == 0.0) return zeros > 1 ? 0.0 : prod;
    if (zeros > 0) return 0.0;
    return cached ? prod * recip(v) : prod / p_v;
  }

  SourceTerm cached_source(NetId n, NodeId a, NodeId u) const noexcept {
    const bool blocked = part_locked(n, a);
    const auto [prod, zeros] = calc_.cached_slot(n, a);
    return SourceTerm(state_.graph().net_cost(n), blocked,
                      excl_product(blocked, zeros, prod, u, true));
  }

  void add_cached_term(NetId n, NodeId to, const SourceTerm& src,
                       double& total) const noexcept {
    if (state_.pins_in(n, to) == 0) {
      total += src.no_pin;
    } else if (!(src.blocked && part_locked(n, to))) {
      total += src.touched(cached_part_product(n, to));
    }
  }

  const ProbGainCalculator& calc_;
  const KWayState& state_;
  NodeId k_;
  std::vector<std::uint32_t> locked_pins_;
};

// --- harness ---------------------------------------------------------------

struct Emission {
  NodeId v;
  NodeId to;
  double gain;
};

/// Equal as doubles, or both NaN: a product that underflows to 0 times the
/// overflowed reciprocal of a subnormal probability is NaN in either
/// kernel.
bool same_value(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// Probability palette: exact zero (the zero-factor counters and the
/// branchy source term), ~1e-60 (products leave the renormalization
/// window), exactly 1.0 (an excluded product of exactly 1, where the two
/// kernels' no-pin terms differ in the sign of a zero), a subnormal whose
/// reciprocal overflows to infinity, and the open interval.
double palette_probability(Rng& rng) {
  const auto r = rng.bounded(100);
  if (r < 12) return 0.0;
  if (r < 20) return 1e-60 * (1.0 + rng.uniform());
  if (r < 32) return 1.0;
  if (r < 34) return 4e-320;
  return 0.01 + 0.99 * rng.uniform();
}

KWayState random_state(const Hypergraph& g, NodeId k, Rng& rng) {
  if (k == 2) {
    return KWayState(Partition(
        g, random_balanced_sides(g, BalanceConstraint::forty_five(g), rng)));
  }
  std::vector<NodeId> part(g.num_nodes());
  for (auto& p : part) p = static_cast<NodeId>(rng.bounded(k));
  return KWayState(g, std::move(part), k);
}

/// What a sequence exercised: checkpoints, locked moves that left their
/// source part of a net empty, frozen pairs emitted as +0.0, and zero
/// emissions whose sign differs from the oracle's.
struct Coverage {
  int checks = 0;
  int emptied = 0;
  int frozen = 0;
  int zero_signs = 0;
};

/// Every cached query and every emission against the oracle, counting the
/// cases where the two differ by design into `cov`.
void expect_matches_oracle(const ProbGainCalculator& calc,
                           const KWayState& state, const std::string& where,
                           Coverage& cov) {
  const Hypergraph& g = state.graph();
  const NodeId k = state.k();
  const OldKernel old(calc, state);
  const bool cached = calc.engine() == GainEngine::kCached;
  if (cached) {
    std::vector<double> got(k);
    std::vector<double> want(k);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      calc.gains(u, got.data());
      old.cached_gains(u, want.data());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), k * sizeof(double)), 0)
          << where << " gains(" << u << ")";
      for (NodeId to = 0; to < k; ++to) {
        if (to == state.part(u)) continue;
        const double a = calc.gain(u, to);
        const double b = old.cached_gain(u, to);
        EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
            << where << " gain(" << u << ", " << to << "): " << a << " vs "
            << b;
      }
    }
  }
  std::vector<Emission> got;
  std::vector<Emission> want;
  for (NetId n = 0; n < g.num_nets(); ++n) {
    got.clear();
    want.clear();
    calc.for_each_net_gain(n, [&](NodeId v, NodeId to, double gain) {
      got.push_back({v, to, gain});
    });
    old.for_each_net_gain(n, cached, [&](NodeId v, NodeId to, double gain) {
      want.push_back({v, to, gain});
    });
    // The old cached emission skipped a frozen pair (locked pins in both
    // parts); the new one emits it as +0.0.  Compared with ==, because
    // where v's excluded product is exactly 1 the old no-pin term
    // -c * (1 - 1) is -0.0 and the new c * (1 - 1) is +0.0.  Every sum of
    // emissions starts at +0.0, and under round-to-nearest such a sum
    // never turns into -0.0, so the two add up to the same bits.
    std::size_t j = 0;
    for (const Emission& e : got) {
      if (j < want.size() && want[j].v == e.v && want[j].to == e.to) {
        EXPECT_TRUE(same_value(e.gain, want[j].gain))
            << where << " net " << n << " (" << e.v << " -> " << e.to
            << "): " << e.gain << " vs " << want[j].gain;
        if (e.gain == 0.0 &&
            std::signbit(e.gain) != std::signbit(want[j].gain)) {
          ++cov.zero_signs;
        }
        ++j;
        continue;
      }
      const bool frozen_pair = old.part_locked(n, state.part(e.v)) &&
                               old.part_locked(n, e.to);
      EXPECT_TRUE(cached && frozen_pair &&
                  std::bit_cast<std::uint64_t>(e.gain) == 0)
          << where << " net " << n << " extra emission (" << e.v << " -> "
          << e.to << ") = " << e.gain;
      ++cov.frozen;
    }
    EXPECT_EQ(j, want.size()) << where << " net " << n << " lost emissions";
  }
  calc.audit_consistency();
  ++cov.checks;
}

Coverage run_sequence(GainEngine engine, NodeId k, int renorm_interval,
                      std::uint64_t seed) {
  const Hypergraph g = generate_circuit({"kernel-diff", 120, 150, 520}, seed);
  Rng rng(mix_seed(seed, k, static_cast<std::uint64_t>(renorm_interval)));
  KWayState state = random_state(g, k, rng);
  ProbGainCalculator calc(state, engine, renorm_interval);
  const NodeId n = g.num_nodes();
  const std::string where = std::string(to_string(engine)) + " k " +
                            std::to_string(k) + " epoch " +
                            std::to_string(renorm_interval);

  Coverage cov;
  const auto reinit = [&] {
    if (rng.chance(0.5)) {
      calc.reset();
      for (NodeId u = 0; u < n; ++u) {
        calc.set_probability(u, palette_probability(rng));
      }
    } else {
      calc.reset_uniform(rng.chance(0.5) ? 1.0 : 0.4 + 0.5 * rng.uniform());
    }
  };
  const auto other_part = [&](NodeId from) {
    const NodeId i = static_cast<NodeId>(rng.bounded(k - 1));
    return i < from ? i : i + 1;
  };
  reinit();
  constexpr int kOps = 900;
  for (int op = 0; op < kOps; ++op) {
    const NodeId u = static_cast<NodeId>(rng.bounded(n));
    const auto r = rng.bounded(100);
    if (r < 55) {
      if (calc.is_free(u)) calc.set_probability(u, palette_probability(rng));
    } else if (r < 88) {
      if (calc.is_free(u)) {
        const NodeId from = state.part(u);
        calc.lock(u);
        if (rng.chance(0.7)) {
          state.move(u, other_part(from));
          for (const NetId net : g.nets_of(u)) {
            if (state.pins_in(net, from) == 0) ++cov.emptied;
          }
        }
        calc.move_locked(u, from);
      }
    } else if (r < 96) {
      // A rollback the calculator does not see, then the reset that must
      // follow one.
      state.move(u, other_part(state.part(u)));
      reinit();
    } else {
      reinit();
    }
    if (op % 60 == 59) {
      expect_matches_oracle(calc, state, where + " op " + std::to_string(op),
                            cov);
      if (::testing::Test::HasFailure()) return cov;
    }
  }
  return cov;
}

TEST(ProbGainKernelDifferential, CachedKernelMatchesOldKernelBitForBit) {
  for (const NodeId k : {2u, 3u, 8u}) {
    for (const int renorm_interval : {1, 3, 128}) {
      for (const std::uint64_t seed : {5ULL, 23ULL}) {
        const Coverage cov =
            run_sequence(GainEngine::kCached, k, renorm_interval, seed);
        ASSERT_FALSE(HasFailure());
        EXPECT_EQ(cov.checks, 15);
        EXPECT_GT(cov.emptied, 0) << "k " << k;
        // A frozen pair needs two locked parts on a net that is not locked
        // in every part, which k = 2 cannot have.
        if (k > 2) {
          EXPECT_GT(cov.frozen, 0) << "k " << k;
        }
        EXPECT_GT(cov.zero_signs, 0) << "k " << k;
      }
    }
  }
}

TEST(ProbGainKernelDifferential, ScratchAndShadowEmissionsMatchOldEmission) {
  for (const GainEngine engine : {GainEngine::kScratch, GainEngine::kShadow}) {
    for (const NodeId k : {2u, 3u, 8u}) {
      for (const int renorm_interval : {1, 3, 128}) {
        const Coverage cov = run_sequence(engine, k, renorm_interval, 31);
        ASSERT_FALSE(HasFailure());
        EXPECT_EQ(cov.checks, 15);
        EXPECT_EQ(cov.frozen, 0);  // these engines always emitted every pair
        EXPECT_GT(cov.zero_signs, 0) << "k " << k;
      }
    }
  }
}

}  // namespace
}  // namespace prop
