// Probabilistic k-way node-gain computation — the per-(net, part)
// generalization of core/prob_gain.h (paper Sec. 5's k-way direction;
// DESIGN.md §4j).
//
// Every free node u carries a probability p(u) of being actually moved in
// the current pass.  The gain contributed to u (in part a) by net n for a
// move toward part b generalizes Eqns. 3/4 with "the other side" replaced
// by "the target part":
//
//   net already touches b  (k = 2: exactly "net in cut"):
//     g_n(u -> b) = c(n) * [ prod_{x in free(n^a) - u} p(x)
//                            - prod_{y in free(n^b)} p(y) ]
//   net has no pin in b    (k = 2: exactly "net entirely in a"):
//     g_n(u -> b) = -c(n) * (1 - prod_{x in free(n^a) - u} p(x))
//
// A locked pin in part p zeroes p's removal product (the net can never be
// pulled out of p this pass), empty products are 1 — the same locked-net
// rules as 2-way.  For k = 2 the branch predicate pins_in(n, b) > 0 is
// equivalent to Partition::is_cut(n) given u in a, and every product,
// counter and accumulation runs in the same order over the same slots as
// ProbGainCalculator — so the k = 2 specialization is bit-identical to the
// 2-way engine by construction (asserted in kway_gain_engine_test).
//
// The same three engines as 2-way (GainEngine in core/prob_gain.h):
// kCached answers from per-(net, part) products with zero-factor counters,
// per-node reciprocals and epoch renormalization; kScratch recomputes from
// the pins (the exact oracle); kShadow answers from scratch while
// maintaining and cross-checking the cache on every query.
#pragma once

#include <cstdint>
#include <vector>

#include "core/prob_gain.h"  // GainEngine + shared renorm/audit constants
#include "kway/kway_state.h"

namespace prop {

class KWayProbGainCalculator {
 public:
  // Shared with the 2-way engine so the two caches age and audit
  // identically (see core/prob_gain.h for the rationale).
  static constexpr int kDefaultRenormInterval =
      ProbGainCalculator::kDefaultRenormInterval;
  static constexpr double kRenormMagLo = ProbGainCalculator::kRenormMagLo;
  static constexpr double kRenormMagHi = ProbGainCalculator::kRenormMagHi;
  static constexpr double kProductAuditTol =
      ProbGainCalculator::kProductAuditTol;

  explicit KWayProbGainCalculator(const KWayState& state,
                                  GainEngine engine = GainEngine::kCached,
                                  int renorm_interval = kDefaultRenormInterval);

  GainEngine engine() const noexcept { return engine_; }

  /// Unlocks everything; probabilities must then be (re)initialized by the
  /// caller via set_probability.  Must also be called after any
  /// KWayState::move performed outside lock/move_locked bookkeeping.
  void reset();

  bool is_free(NodeId u) const noexcept { return locked_[u] == 0; }
  double probability(NodeId u) const noexcept { return p_[u]; }

  /// Sets p(u); u must be free.  O(degree(u)) cached, O(1) scratch.
  void set_probability(NodeId u, double p);

  /// Locks u: p(u) := 0 (paper Sec. 3.4).  Call BEFORE KWayState::move so
  /// the lock lands on u's current part.
  void lock(NodeId u);

  /// Records that locked node u moved from `from_part` to its current part
  /// (call after KWayState::move).
  void move_locked(NodeId u, NodeId from_part);

  /// Probabilistic gain of moving u to part `to`: sum over u's nets of the
  /// per-net gain above.  O(degree(u)) cached, O(degree(u) * netsize)
  /// scratch; shadow answers scratch after cross-checking the cache
  /// (std::logic_error past kProductAuditTol).  `to` must differ from u's
  /// part.
  double gain(NodeId u, NodeId to) const;

  /// Gain restricted to one net, always computed from scratch by explicit
  /// pin iteration — the reference oracle for tests.
  double net_gain(NodeId u, NetId n, NodeId to) const;

  /// From-scratch total gain regardless of the configured engine.
  double scratch_gain(NodeId u, NodeId to) const;

  /// Recomputes every cached (net, part) product and zero counter exactly
  /// from the pins and restarts all renormalization epochs.  No-op under
  /// the scratch engine.  O(pins * k).
  void renormalize_all();

  /// Max |cached product - scratch recompute| over all (net, part) slots;
  /// 0 under the scratch engine.
  double max_product_drift() const;

  /// Debug invariant audit mirroring ProbGainCalculator::audit_consistency:
  /// locked-pin recount, probability bounds, exact reciprocal/zero-counter
  /// checks and product cross-check within kProductAuditTol.  Throws
  /// std::logic_error on any mismatch.
  void audit_consistency() const;

 private:
  std::size_t slot(NetId n, NodeId p) const noexcept {
    return static_cast<std::size_t>(n) * k_ + p;
  }

  bool part_locked(NetId n, NodeId p) const noexcept {
    return locked_pins_[slot(n, p)] > 0;
  }

  bool maintains_cache() const noexcept {
    return engine_ != GainEngine::kScratch;
  }

  double cached_gain(NodeId u, NodeId to) const;

  /// One factor change old_p -> new_p on the (net, part) slot; renormalizes
  /// when the epoch expires or the product degenerates.  Identical update
  /// discipline to the 2-way engine.
  void update_factor(NetId n, NodeId p, double old_p, double old_r,
                     double new_p);

  void renormalize_slot(NetId n, NodeId p);

  /// Scratch recompute of (product of nonzero free-pin probabilities, zero
  /// count) for one part of a net, multiplying in pin order.
  void scratch_part(NetId n, NodeId p, double& prod,
                    std::uint32_t& zeros) const;

  const KWayState* state_;
  NodeId k_;
  GainEngine engine_;
  int renorm_interval_;
  std::vector<double> p_;
  std::vector<std::uint8_t> locked_;
  std::vector<std::uint32_t> locked_pins_;  // locked pins per (net, part)

  // Cached-engine state; unused (empty) under kScratch.  One slot per
  // (net, part); recip_ caches 1/p per node.
  std::vector<double> prod_;
  std::vector<std::uint32_t> zero_free_;
  std::vector<std::uint32_t> updates_;
  std::vector<double> recip_;
};

}  // namespace prop
