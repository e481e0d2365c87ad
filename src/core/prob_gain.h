// Probabilistic node-gain computation — the heart of PROP (paper Sec. 3.1),
// for any number of parts k.  At k = 2 it is exactly the paper's engine;
// k > 2 is the Sec. 5 k-way direction (DESIGN.md §4f).
//
// Every free node u carries a probability p(u) of being actually moved in
// the current pass.  The gain contributed by net n to moving u (in part a)
// toward part b is:
//
//   net already touches b  (k = 2: "net in cut", Eqn. 3):
//     g_n(u -> b) = c(n) * [ prod_{x in free(n^a) - u} p(x)
//                            - prod_{y in free(n^b)} p(y) ]
//   net has no pin in b    (k = 2: "net entirely in a", Eqn. 4):
//     g_n(u -> b) = -c(n) * (1 - prod_{x in free(n^a) - u} p(x))
//
// with the locked-net rules of Sec. 3.4 (Eqns. 5/6) falling out naturally:
// a locked pin in a part zeroes that part's removal product, because a net
// with a locked pin in p can never be pulled out of p during this pass.
// Empty products are 1, so a cut net where u is the only a-side pin
// contributes the full +c(n), and a single-pin net contributes 0.
//
// The calculator answers every query from cached products.  It maintains
// prod[n*k+p] = product of p(v) over the free pins of net n in part p with
// p(v) != 0, plus a zero-factor counter per slot and a cached reciprocal
// 1/p(v) per node, updated in O(1) per set_probability / lock by
// multiplication (no divisions on the hot path).  Beside them it keeps the
// slot's effective removal product eff[n*k+p]: 1 for a part with no pin of
// n, 0 for a part holding a locked pin or a free pin with p == 0, prod
// otherwise.  Every gain term is then c(n) * (eff[n*k+a] / p(u) -
// eff[n*k+to]) — the Eqn. 4 case is the eff == 1 target — so gain(u, to)
// is O(degree(u)), gains(u, out) serves all k - 1 targets in one
// branch-free walk over one k-wide row per net of u, and for_each_net_gain
// is O(|n| * (k - 1)) with no per-call product pass.  Floating-point drift
// from the incremental updates is bounded by epoch renormalization: after
// renorm_interval updates of a (net, part) slot — or whenever its product
// leaves [kRenormMagLo, kRenormMagHi] or stops being finite — the product
// is recomputed exactly from the pins.
//
// The reference oracle stays beside the cache: net_gain / scratch_gain /
// removal_probability recompute from the pins, and max_product_drift /
// audit_consistency compare the cache with that recompute.  The tests
// cross-check every gain read of PROP-shaped passes against it
// (KWayProbGain.PassCrossCheckEveryQuery, DESIGN.md §4f).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "partition/kway_state.h"

namespace prop {

class ProbGainCalculator {
 public:
  /// Default epoch length: a (net, part) product is recomputed exactly
  /// after this many incremental multiply/divide updates.  Each update
  /// contributes ~1 ulp of relative error, so drift per epoch stays around
  /// 128 * 2^-52 ~ 3e-14 — orders of magnitude inside kProductAuditTol.
  static constexpr int kDefaultRenormInterval = 128;

  /// Magnitude window outside which a product is renormalized immediately
  /// (underflow toward 0 or drift above 1 would otherwise poison later
  /// divisions).  Probabilities lie in [0, 1] and zero factors are counted
  /// separately, so legitimate products essentially never leave the window.
  static constexpr double kRenormMagLo = 1e-120;
  static constexpr double kRenormMagHi = 1e120;

  /// audit_consistency's tolerance on |cached - scratch| products, and the
  /// tests' on gains.  Drift between renormalizations is ~#updates * ulp;
  /// this bound is orders of magnitude above that but far below anything
  /// gain-relevant.
  static constexpr double kProductAuditTol = 1e-9;

  /// `state` must outlive the calculator; every KWayState::move must be
  /// bracketed by lock / move_locked (or followed by reset()).  Starts in
  /// reset()'s state: every node free with p = 0.
  explicit ProbGainCalculator(const KWayState& state,
                              int renorm_interval = kDefaultRenormInterval);
  ProbGainCalculator(const KWayState&& state,
                     int = kDefaultRenormInterval) = delete;

  /// Tag for a caller that starts every pass with reset() or
  /// reset_uniform() before any other call, as the PROP refiners do.
  struct DeferReset {};
  /// Constructs without reset()'s O(nets * k) fill, which that first pass
  /// start would overwrite; no other member may be called before it.
  ProbGainCalculator(const KWayState& state, DeferReset,
                     int renorm_interval = kDefaultRenormInterval);
  ProbGainCalculator(const KWayState&& state, DeferReset,
                     int = kDefaultRenormInterval) = delete;

  /// Unlocks everything; probabilities must then be (re)initialized by the
  /// caller via set_probability.
  void reset();

  /// The paper's uniform pass start (bootstrap method 1): equal, bit for
  /// bit in every field, to reset() followed by set_probability(u, p) for
  /// u = 0..n-1, in O(nets * k + n) instead of O(pins) cache updates.  A
  /// (net, part) slot with m pins ends that sweep with the product of m
  /// factors p multiplied in one by one, and the same holds after any
  /// renormalization along the way (it recomputes the product of the pins
  /// set so far, in pin order), so the slot gets pow[m] with pow[j] =
  /// pow[j - 1] * p, no zero factors, and the epoch counter that m
  /// increments under the renorm_interval / magnitude-window rule leave.
  /// Requires p in (0, 1].
  void reset_uniform(double p);

  /// gains(u, out) at the state the last reset_uniform(p) left, from pin
  /// counts and 1/p alone: the source term of each net is pow[m_a] / p (as
  /// pow[m_a] * (1 / p)) and every target's effective product is
  /// pow[m_to] (pow[0] == 1 for a part the net has no pin in).  It does not
  /// read the probabilities set since, so a caller can interleave it with
  /// the set_probability sweep of the first Jacobi iteration.
  /// Bit-identical to gains(u, out) right after reset_uniform; valid while
  /// every node stays in its part.
  void uniform_gains(NodeId u, double* out) const;

  bool is_free(NodeId u) const noexcept { return locked_[u] == 0; }
  double probability(NodeId u) const noexcept { return p_[u]; }

  /// Sets p(u); u must be free (locked nodes stay at p = 0).  O(degree(u)).
  void set_probability(NodeId u, double p);

  /// Locks u: p(u) := 0 (paper Sec. 3.4).  Call BEFORE KWayState::move so
  /// the lock lands on u's current part.
  void lock(NodeId u);

  /// Records that locked node u moved from `from_part` to its current part
  /// (call after KWayState::move).
  void move_locked(NodeId u, NodeId from_part);

  /// Probabilistic gain of moving u to part `to` (`to` != part(u)): the sum
  /// over u's nets of g_n(u -> to).  O(degree(u)).
  double gain(NodeId u, NodeId to) const;

  /// All-targets gain kernel: fills out[to] with gain(u, to) for every
  /// to != part(u), and out[part(u)] with 0; `out` must hold k entries.
  /// Each out[to] is bit-identical to gain(u, to).  ONE walk over u's nets
  /// adds c(n) * (excl - eff[n*k+to]) to every part's total from the net's
  /// contiguous eff row, with no branch per target: O(degree(u) * k)
  /// reads instead of k - 1 separate gain() walks.
  void gains(NodeId u, double* out) const;

  /// Gain restricted to one net, always computed from scratch by explicit
  /// pin iteration — the reference oracle for tests, the Figure 1
  /// walkthrough and the property suite.
  double net_gain(NodeId u, NetId n, NodeId to) const;

  /// From-scratch total gain (sum of net_gain over u's nets) — the oracle
  /// the cached gains are checked against.
  double scratch_gain(NodeId u, NodeId to) const;

  /// Emits (v, to, g_n(v -> to)) for every FREE pin v of net n, in pin
  /// order, and every target part to != part(v), in ascending order.
  /// Summing the emissions for (v, to) over v's nets equals gain(v, to);
  /// the 2-way PROP pass uses before/after deltas of this per net touched
  /// by a move.  Each emission is c(n) * (excl - eff[to]) over the net's
  /// cached effective row.  Nothing is emitted for a net whose every part
  /// holds a locked pin (at k = 2, a frozen net); a frozen pair of any
  /// other net (locked pins in both its parts, so both products are 0) is
  /// emitted as +0.0.
  template <typename Emit>
  void for_each_net_gain(NetId n, Emit&& emit) const {
    const KWayState& state = *state_;
    const Hypergraph& g = state.graph();
    const double c = g.net_cost(n);

    NodeId p = 0;
    while (p < k_ && part_locked(n, p)) ++p;
    if (p == k_) return;
    const double* eff = eff_.data() + slot(n, 0);
    for (const NodeId v : g.pins_of(n)) {
      if (locked_[v]) continue;
      const NodeId a = state.part(v);
      const double excl = cached_excl(n, a, v);
      for (NodeId i = 0; i + 1 < k_; ++i) {
        const NodeId to = target(a, i);
        emit(v, to, c * (excl - eff[to]));
      }
    }
  }

  /// P(net n is pulled out of part `from` this pass): the product of p over
  /// n's pins in `from`, 0 if `from` holds a locked pin — the paper's
  /// p(n^{1->2}) when `from` is its side 1.  Computed from the pins.
  double removal_probability(NetId n, NodeId from) const;

  /// The product cache's slot (n, p): the product of nonzero free-pin
  /// probabilities and the count of free pins with p == 0.  Test
  /// instrument: the oracle of the kernel differential test reads these
  /// fields.
  std::pair<double, std::uint32_t> cached_slot(NetId n, NodeId p) const {
    return {prod_[slot(n, p)], zero_free_[slot(n, p)]};
  }

  /// Max |cached product - scratch recompute| over all (net, part) slots.
  /// O(pins * k); telemetry/test instrument.
  double max_product_drift() const;

  /// Debug invariant audit: recounts the per-(net, part) locked-pin table
  /// from the lock flags and the state, checks probability bounds
  /// (locked => p == 0, free => p in [0, 1]), and cross-checks every
  /// zero-factor counter and cached reciprocal exactly, every cached
  /// product against the scratch oracle within kProductAuditTol, and every
  /// effective product exactly against its definition from the other
  /// cached fields.  Throws std::logic_error on any mismatch.
  /// O(pins * k); used by PROP's audit_interval mode.
  void audit_consistency() const;

 private:
  std::size_t slot(NetId n, NodeId p) const noexcept {
    return static_cast<std::size_t>(n) * k_ + p;
  }

  bool part_locked(NetId n, NodeId p) const noexcept {
    return locked_pins_[slot(n, p)] > 0;
  }

  /// The i-th target part (ascending) of a pin in part a: every part but a,
  /// enumerated without a data-dependent branch.
  static NodeId target(NodeId a, NodeId i) noexcept {
    return i + static_cast<NodeId>(i >= a);
  }

  /// Product over the free pins of one part excluding its free pin v, given
  /// the part's blocked flag, zero-factor count and nonzero-factor product;
  /// v's factor is removed with its cached reciprocal.
  double excl_product(bool blocked, std::uint32_t zeros, double prod,
                      NodeId v) const noexcept {
    if (blocked) return 0.0;
    if (p_[v] == 0.0) return zeros > 1 ? 0.0 : prod;
    if (zeros > 0) return 0.0;
    return prod * recip_[v];
  }

  /// True when removing v's factor from an effective product is one
  /// multiply: p(v) > 0 with a finite reciprocal.  eff * (1/p(v)) is then
  /// excl_product bit for bit (a blocked or zero-factor part has eff == 0,
  /// and 0 * finite == 0); otherwise (p == 0, or a subnormal p whose
  /// reciprocal overflows) only the branchy form is exact.
  bool multiplies_out(NodeId v) const noexcept {
    return recip_[v] != 0.0 &&
           recip_[v] <= std::numeric_limits<double>::max();
  }

  /// v's excluded removal product of its part a on net n, from the cache.
  double cached_excl(NetId n, NodeId a, NodeId v) const noexcept {
    const std::size_t s = slot(n, a);
    return multiplies_out(v) ? eff_[s] * recip_[v]
                             : excl_product(locked_pins_[s] > 0,
                                            zero_free_[s], prod_[s], v);
  }

  /// eff_ of an occupied slot from its other cached fields.
  void refresh_eff(std::size_t s) noexcept {
    eff_[s] = locked_pins_[s] > 0 || zero_free_[s] > 0 ? 0.0 : prod_[s];
  }

  /// Applies one factor change old_p -> new_p to the (net, part) slot —
  /// old_r is the cached reciprocal of old_p, so the removal is a multiply
  /// — and renormalizes when the epoch expires or the product degenerates.
  void update_factor(NetId n, NodeId p, double old_p, double old_r,
                     double new_p);

  /// Exact recompute of one (net, part) product/zero counter from the pins.
  void renormalize_slot(NetId n, NodeId p);

  /// Scratch recompute of (product of nonzero free-pin p, zero count) for
  /// one part of a net, multiplying in pin order (the renormalized cache is
  /// bit-identical to this).
  void scratch_part(NetId n, NodeId p, double& prod,
                    std::uint32_t& zeros) const;

  const KWayState* state_;
  NodeId k_;
  int renorm_interval_;
  std::vector<double> p_;
  std::vector<std::uint8_t> locked_;
  std::vector<std::uint32_t> locked_pins_;  // locked pins per (net, part)

  // The product cache.  prod_, zero_free_, updates_ and eff_ have one slot
  // per (net, part); recip_ caches 1/p per node so factor removal and pin
  // exclusion are multiplies, not divides.
  std::vector<double> prod_;              // product of nonzero free-pin p
  std::vector<double> eff_;               // effective removal product
  std::vector<std::uint32_t> zero_free_;  // free pins with p == 0
  std::vector<std::uint32_t> updates_;    // incremental updates this epoch
  std::vector<double> recip_;             // 1/p, 0 where p == 0

  // reset_uniform's tables, indexed by the pin count m of a slot: the
  // product of m factors p and the epoch counter m updates leave.
  std::vector<double> uniform_pow_;
  std::vector<std::uint32_t> uniform_updates_;
  double uniform_recip_ = 0.0;  // 1 / p of the last reset_uniform
};

}  // namespace prop
