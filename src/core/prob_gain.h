// Probabilistic node-gain computation — the heart of PROP (paper Sec. 3.1).
//
// Every free node u carries a probability p(u) of being actually moved in
// the current pass.  The gain contributed to u by net n (u on side A, other
// side B) is:
//
//   net in cut (pins on both sides), Eqn. 3:
//     g_n(u) = c(n) * [ prod_{x in free(n^A) - u} p(x)
//                       - prod_{y in free(n^B)} p(y) ]
//   net entirely in A, Eqn. 4:
//     g_n(u) = -c(n) * (1 - prod_{x in free(n^A) - u} p(x))
//
// with the locked-net rules of Sec. 3.4 (Eqns. 5/6) falling out naturally:
// a locked pin on a side zeroes that side's removal product, because a net
// with a locked pin in S can never be pulled out of S during this pass.
// Empty products are 1, so a cut net where u is the only A-side pin
// contributes the full +c(n), and a single-pin net contributes 0.
//
// Three engines compute those products (DESIGN.md Sec. 4f):
//
//   * kCached (default): maintains prod[2n+s] = product of p(v) over free
//     pins of net n on side s with p(v) != 0, plus a zero-factor counter
//     and a cached reciprocal 1/p(v) per node, updated in O(1) per
//     set_probability / lock by multiplication (no divisions on the hot
//     path).  gain(u) is then O(degree(u)) and for_each_net_gain is O(|n|)
//     with no per-call product pass; nets with a locked pin on *both*
//     sides contribute exactly zero to every free pin and are skipped
//     outright.  Floating-point drift from the incremental updates is
//     bounded by epoch renormalization: after kRenormInterval updates of a
//     (net, side) slot — or whenever its product leaves
//     [kRenormMagLo, kRenormMagHi] or stops being finite — the product is
//     recomputed exactly from the pins.
//   * kScratch: recomputes every product on demand by iterating the net's
//     pins.  O(degree * netsize) per gain query and drift-free; kept
//     compiled-in as the audit oracle (audit_consistency, tests, the
//     gain-kernel benchmark baseline).
//   * kShadow: the equivalence harness.  Answers every query through the
//     scratch code path — so a kShadow run makes move-for-move identical
//     decisions to a kScratch run — while still performing the full cached
//     maintenance and cross-checking the cache against the scratch answer
//     at every gain query (throws std::logic_error past kProductAuditTol).
//     This is how "the cached engine reproduces the scratch engine's cuts
//     exactly" is made a testable statement: the cached *fast* read path
//     agrees with scratch only within the drift bound, and ulp-level
//     differences feed back through probabilities chaotically, so exact
//     trajectory equality is asserted in shadow mode (see DESIGN.md 4f).
#pragma once

#include <cstdint>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "partition/partition.h"

namespace prop {

/// Which product engine a ProbGainCalculator uses (see file comment).
enum class GainEngine {
  kCached,   ///< incremental per-(net, side) products, O(1) updates
  kScratch,  ///< on-demand pin iteration — exact, slow, the audit oracle
  kShadow,   ///< scratch answers + cached maintenance + per-query cross-check
};

const char* to_string(GainEngine engine) noexcept;

class ProbGainCalculator {
 public:
  /// Default epoch length: a (net, side) product is recomputed exactly
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

  /// audit_consistency / kShadow cross-check tolerance on
  /// |cached - scratch| products and gains.  Drift between
  /// renormalizations is ~#updates * ulp; this bound is orders of
  /// magnitude above that but far below anything gain-relevant.
  static constexpr double kProductAuditTol = 1e-9;

  explicit ProbGainCalculator(const Partition& part,
                              GainEngine engine = GainEngine::kCached,
                              int renorm_interval = kDefaultRenormInterval);

  GainEngine engine() const noexcept { return engine_; }

  /// Unlocks everything; probabilities must then be (re)initialized by the
  /// caller via set_probability.
  void reset();

  bool is_free(NodeId u) const noexcept { return locked_[u] == 0; }
  double probability(NodeId u) const noexcept { return p_[u]; }

  /// Sets p(u); u must be free (locked nodes stay at p = 0).  O(degree(u))
  /// under the cached engine, O(1) under scratch.
  void set_probability(NodeId u, double p);

  /// Locks u: p(u) := 0 (paper Sec. 3.4).
  void lock(NodeId u);

  /// Records that locked node u moved sides (call after Partition::move).
  void move_locked(NodeId u, int from_side);

  /// Probabilistic gain g(u) = sum over nets of u of g_n(u).
  /// O(degree(u)) cached, O(degree(u) * netsize) scratch.  Shadow returns
  /// the scratch answer after asserting the cached one agrees within
  /// kProductAuditTol (std::logic_error otherwise).
  double gain(NodeId u) const;

  /// Gain restricted to one net, always computed from scratch by explicit
  /// pin iteration — the reference oracle for tests, the Figure 1
  /// walkthrough and the property suite.
  double net_gain(NodeId u, NetId n) const;

  /// From-scratch total gain (sum of net_gain over u's nets) regardless of
  /// the configured engine — the oracle the cached engine is audited
  /// against.
  double scratch_gain(NodeId u) const;

  /// Emits (v, g_n(v)) for every FREE pin v of net n with a nonzero
  /// contribution, in O(|n|) total.  The cached engine reads the side
  /// products straight from the cache, excludes each pin's own probability
  /// by multiplying with its cached reciprocal, and skips frozen nets
  /// (locked pins on both sides: every free-pin contribution is exactly 0)
  /// without emitting.  The scratch/shadow engines compute the products
  /// with one pin pass and divide each pin's probability back out — the
  /// legacy cost model — and emit every free pin, zero contributions
  /// included.  Summing per-net emissions over a node's nets equals
  /// gain(v); the PROP pass uses before/after deltas of this per net
  /// touched by a move, and the net-major bootstrap sweep accumulates it
  /// over all nets.
  template <typename Emit>
  void for_each_net_gain(NetId n, Emit&& emit) const {
    const Partition& part = *part_;
    const Hypergraph& g = part.graph();
    const auto pins = g.pins_of(n);
    const double c = g.net_cost(n);
    const bool blocked[2] = {side_locked(n, 0), side_locked(n, 1)};

    if (engine_ == GainEngine::kCached) {
      // Frozen net: locked pins on both sides mean the net is pinned in the
      // cut and both removal products are 0, so g_n(v) == 0 for every free
      // pin v for the rest of the pass.
      if (blocked[0] && blocked[1]) return;
      const bool cut = part.is_cut(n);
      const double prod[2] = {prod_[2 * n], prod_[2 * n + 1]};
      const std::uint32_t zeros[2] = {zero_free_[2 * n],
                                      zero_free_[2 * n + 1]};
      const double side_prod[2] = {
          (blocked[0] || zeros[0] > 0) ? 0.0 : prod[0],
          (blocked[1] || zeros[1] > 0) ? 0.0 : prod[1]};
      for (const NodeId v : pins) {
        if (locked_[v]) continue;
        const int a = part.side(v);
        double prod_a_excl;
        if (blocked[a]) {
          prod_a_excl = 0.0;
        } else if (p_[v] == 0.0) {
          prod_a_excl = zeros[a] > 1 ? 0.0 : prod[a];
        } else {
          prod_a_excl = zeros[a] > 0 ? 0.0 : prod[a] * recip_[v];
        }
        if (cut) {
          emit(v, c * (prod_a_excl - side_prod[1 - a]));
        } else {
          // Net lies entirely on v's side (it contains v).
          emit(v, -c * (1.0 - prod_a_excl));
        }
      }
      return;
    }

    const bool cut = part.is_cut(n);
    double prod[2] = {1.0, 1.0};
    std::uint32_t zeros[2] = {0, 0};
    for (const NodeId v : pins) {
      if (locked_[v]) continue;
      if (p_[v] == 0.0) {
        ++zeros[part.side(v)];
      } else {
        prod[part.side(v)] *= p_[v];
      }
    }
    const double side_prod[2] = {
        (blocked[0] || zeros[0] > 0) ? 0.0 : prod[0],
        (blocked[1] || zeros[1] > 0) ? 0.0 : prod[1]};

    for (const NodeId v : pins) {
      if (locked_[v]) continue;
      const int a = part.side(v);
      const double prod_a_excl =
          excl_product(blocked[a], zeros[a], prod[a], p_[v]);
      if (cut) {
        emit(v, c * (prod_a_excl - side_prod[1 - a]));
      } else {
        // Net lies entirely on v's side (it contains v).
        emit(v, -c * (1.0 - prod_a_excl));
      }
    }
  }

  /// P(net n is removed from the cut toward side `to`): the product of
  /// p over free pins of n on the *other* side, 0 if that side has a locked
  /// pin.  This is the paper's p(n^{1->2}) / p(n^{2->1}).
  double removal_probability(NetId n, int to) const;

  /// Recomputes every cached (net, side) product and zero counter exactly
  /// from the pins and restarts all renormalization epochs.  Immediately
  /// afterwards the cache is bit-identical to a scratch in-pin-order
  /// recompute.  No-op under the scratch engine.  O(pins).
  void renormalize_all();

  /// Max |cached product - scratch recompute| over all (net, side) slots;
  /// 0 under the scratch engine.  O(pins); telemetry/test instrument.
  double max_product_drift() const;

  /// Debug invariant audit: recounts the per-(net, side) locked-pin table
  /// from the lock flags and the partition, checks probability bounds
  /// (locked => p == 0, free => p in [0, 1]) and — when the cache is
  /// maintained (kCached/kShadow) — cross-checks every zero-factor counter
  /// and cached reciprocal exactly and every cached product against the
  /// scratch oracle within kProductAuditTol.  Throws std::logic_error on
  /// any mismatch.  O(pins); used by PROP's audit_interval mode.
  void audit_consistency() const;

 private:
  bool side_locked(NetId n, int s) const noexcept {
    return locked_pins_[2 * n + s] > 0;
  }

  /// Both kCached and kShadow keep the incremental product state up to
  /// date; only kCached *answers* queries from it.
  bool maintains_cache() const noexcept {
    return engine_ != GainEngine::kScratch;
  }

  /// Product over free pins of one side excluding a free pin whose
  /// probability is `p_self`, given the side's blocked flag, zero-factor
  /// count and nonzero-factor product (scratch/shadow emission form).
  static double excl_product(bool blocked, std::uint32_t zeros, double prod,
                             double p_self) noexcept {
    if (blocked) return 0.0;
    if (p_self == 0.0) return zeros > 1 ? 0.0 : prod;
    return zeros > 0 ? 0.0 : prod / p_self;
  }

  /// gain(u) computed from the cached products — the kCached fast path,
  /// and the value kShadow cross-checks against the scratch answer.
  double cached_gain(NodeId u) const;

  /// Applies one factor change old_p -> new_p to the (net, side) slot —
  /// old_r is the cached reciprocal of old_p, so the removal is a multiply
  /// — and renormalizes when the epoch expires or the product degenerates.
  void update_factor(NetId n, int s, double old_p, double old_r,
                     double new_p);

  /// Exact recompute of one (net, side) product/zero counter from the pins.
  void renormalize_side(NetId n, int s);

  /// Scratch recompute of (product of nonzero free-pin p, zero count) for
  /// one side of a net, multiplying in pin order (the renormalized cache is
  /// bit-identical to this).
  void scratch_side(NetId n, int s, double& prod,
                    std::uint32_t& zeros) const;

  const Partition* part_;
  GainEngine engine_;
  int renorm_interval_;
  std::vector<double> p_;
  std::vector<std::uint8_t> locked_;
  std::vector<std::uint32_t> locked_pins_;  // locked pins per (net, side)

  // Cached-engine state; unused (empty) under kScratch.  prod_, zero_free_
  // and updates_ have one slot per (net, side); recip_ caches 1/p per node
  // so factor removal and pin exclusion are multiplies, not divides.
  std::vector<double> prod_;           // product of nonzero free-pin p
  std::vector<std::uint32_t> zero_free_;  // free pins with p == 0
  std::vector<std::uint32_t> updates_;    // incremental updates this epoch
  std::vector<double> recip_;          // 1/p, 0 where p == 0
};

}  // namespace prop
