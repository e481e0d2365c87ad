#include "core/prob_gain.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace prop {

const char* to_string(GainEngine engine) noexcept {
  switch (engine) {
    case GainEngine::kCached:
      return "cached";
    case GainEngine::kScratch:
      return "scratch";
    case GainEngine::kShadow:
      return "shadow";
  }
  return "?";
}

ProbGainCalculator::ProbGainCalculator(const Partition& part, GainEngine engine,
                                       int renorm_interval)
    : part_(&part),
      engine_(engine),
      renorm_interval_(renorm_interval < 1 ? 1 : renorm_interval) {
  reset();
}

void ProbGainCalculator::reset() {
  const Hypergraph& g = part_->graph();
  p_.assign(g.num_nodes(), 0.0);
  locked_.assign(g.num_nodes(), 0);
  locked_pins_.assign(2 * g.num_nets(), 0);
  if (maintains_cache()) {
    // Everything is free with p = 0, so each side's product is an empty
    // product of nonzero factors (1) and the zero counter is the side's
    // full pin count.
    prod_.assign(2 * g.num_nets(), 1.0);
    zero_free_.resize(2 * g.num_nets());
    updates_.assign(2 * g.num_nets(), 0);
    recip_.assign(g.num_nodes(), 0.0);
    for (NetId n = 0; n < g.num_nets(); ++n) {
      zero_free_[2 * n] = part_->pins_on_side(n, 0);
      zero_free_[2 * n + 1] = part_->pins_on_side(n, 1);
    }
  }
}

void ProbGainCalculator::scratch_side(NetId n, int s, double& prod,
                                      std::uint32_t& zeros) const {
  prod = 1.0;
  zeros = 0;
  for (const NodeId v : part_->graph().pins_of(n)) {
    if (locked_[v] || part_->side(v) != s) continue;
    if (p_[v] == 0.0) {
      ++zeros;
    } else {
      prod *= p_[v];
    }
  }
}

void ProbGainCalculator::renormalize_side(NetId n, int s) {
  scratch_side(n, s, prod_[2 * n + s], zero_free_[2 * n + s]);
  updates_[2 * n + s] = 0;
}

void ProbGainCalculator::renormalize_all() {
  if (!maintains_cache()) return;
  const NetId nets = part_->graph().num_nets();
  for (NetId n = 0; n < nets; ++n) {
    renormalize_side(n, 0);
    renormalize_side(n, 1);
  }
}

void ProbGainCalculator::update_factor(NetId n, int s, double old_p,
                                       double old_r, double new_p) {
  const std::size_t slot = 2 * n + s;
  if (old_p == 0.0) {
    --zero_free_[slot];
  } else {
    prod_[slot] *= old_r;  // remove the old factor: multiply by 1/old_p
  }
  if (new_p == 0.0) {
    ++zero_free_[slot];
  } else {
    prod_[slot] *= new_p;
  }
  // Epoch renormalization: bound drift after renorm_interval_ incremental
  // updates, and rescue a product that left the sane-magnitude window (the
  // !(a && b) form also catches NaN).
  const double prod = prod_[slot];
  if (static_cast<int>(++updates_[slot]) >= renorm_interval_ ||
      !(prod >= kRenormMagLo && prod <= kRenormMagHi)) {
    renormalize_side(n, s);
  }
}

void ProbGainCalculator::set_probability(NodeId u, double p) {
  if (locked_[u]) throw std::logic_error("prob gain: node is locked");
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("prob gain: p out of [0,1]");
  const double old_p = p_[u];
  // Commit the node's new state before touching the per-net cache: an epoch
  // renormalization firing inside update_factor recomputes from p_/locked_,
  // which must already describe the post-update world.
  p_[u] = p;
  if (maintains_cache()) {
    const double old_r = recip_[u];
    recip_[u] = p == 0.0 ? 0.0 : 1.0 / p;
    if (p != old_p) {
      const int s = part_->side(u);
      for (const NetId n : part_->graph().nets_of(u)) {
        update_factor(n, s, old_p, old_r, p);
      }
    }
  }
}

void ProbGainCalculator::lock(NodeId u) {
  if (locked_[u]) throw std::logic_error("prob gain: node already locked");
  const int s = part_->side(u);
  const double old_p = p_[u];
  // As in set_probability: flag the lock first so a renormalization inside
  // update_factor already excludes u from the free products.
  locked_[u] = 1;
  p_[u] = 0.0;
  if (maintains_cache()) {
    const double old_r = recip_[u];
    recip_[u] = 0.0;
    for (const NetId n : part_->graph().nets_of(u)) {
      ++locked_pins_[2 * n + s];
      // Remove u's factor from the side's free product (a locked pin no
      // longer participates); the 1.0 "new factor" is the identity.
      update_factor(n, s, old_p, old_r, 1.0);
    }
  } else {
    for (const NetId n : part_->graph().nets_of(u)) {
      ++locked_pins_[2 * n + s];
    }
  }
}

void ProbGainCalculator::move_locked(NodeId u, int from_side) {
  if (!locked_[u]) throw std::logic_error("prob gain: moved node must be locked");
  // Locked pins are outside every free product, so only the locked-pin
  // table moves sides.
  for (const NetId n : part_->graph().nets_of(u)) {
    --locked_pins_[2 * n + from_side];
    ++locked_pins_[2 * n + (1 - from_side)];
  }
}

void ProbGainCalculator::audit_consistency() const {
  const Hypergraph& g = part_->graph();
  std::vector<std::uint32_t> recount(2 * g.num_nets(), 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (locked_[u]) {
      if (p_[u] != 0.0) {
        throw std::logic_error("prob gain audit: locked node with p != 0");
      }
      const int s = part_->side(u);
      for (const NetId n : g.nets_of(u)) ++recount[2 * n + s];
    } else if (p_[u] < 0.0 || p_[u] > 1.0) {
      throw std::logic_error("prob gain audit: free probability out of [0,1]");
    }
  }
  if (recount != locked_pins_) {
    throw std::logic_error(
        "prob gain audit: locked-pin counts diverged from scratch recount");
  }
  if (!maintains_cache()) return;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const double want = p_[u] == 0.0 ? 0.0 : 1.0 / p_[u];
    if (recip_[u] != want) {
      throw std::logic_error(
          "prob gain audit: cached reciprocal out of sync with p");
    }
  }
  for (NetId n = 0; n < g.num_nets(); ++n) {
    for (int s = 0; s < 2; ++s) {
      double prod;
      std::uint32_t zeros;
      scratch_side(n, s, prod, zeros);
      if (zeros != zero_free_[2 * n + s]) {
        std::ostringstream msg;
        msg << "prob gain audit: zero-factor counter diverged (net " << n
            << " side " << s << "): cached " << zero_free_[2 * n + s]
            << " vs recount " << zeros;
        throw std::logic_error(msg.str());
      }
      const double cached = prod_[2 * n + s];
      if (!(std::abs(cached - prod) <= kProductAuditTol)) {
        std::ostringstream msg;
        msg << "prob gain audit: cached product drifted (net " << n
            << " side " << s << "): cached " << cached << " vs scratch "
            << prod;
        throw std::logic_error(msg.str());
      }
    }
  }
}

double ProbGainCalculator::max_product_drift() const {
  if (!maintains_cache()) return 0.0;
  double max_abs = 0.0;
  const NetId nets = part_->graph().num_nets();
  for (NetId n = 0; n < nets; ++n) {
    for (int s = 0; s < 2; ++s) {
      double prod;
      std::uint32_t zeros;
      scratch_side(n, s, prod, zeros);
      const double d = std::abs(prod_[2 * n + s] - prod);
      if (d > max_abs) max_abs = d;
    }
  }
  return max_abs;
}

double ProbGainCalculator::removal_probability(NetId n, int to) const {
  const int from = 1 - to;
  if (side_locked(n, from)) return 0.0;
  const double cached =
      maintains_cache() && zero_free_[2 * n + from] == 0
          ? prod_[2 * n + from]
          : 0.0;
  if (engine_ == GainEngine::kCached) return cached;
  double prod = 1.0;
  for (const NodeId v : part_->graph().pins_of(n)) {
    if (part_->side(v) == from) prod *= p_[v];
  }
  if (engine_ == GainEngine::kShadow &&
      !(std::abs(cached - prod) <= kProductAuditTol)) {
    std::ostringstream msg;
    msg << "prob gain shadow: removal probability diverged (net " << n
        << " to " << to << "): cached " << cached << " vs scratch " << prod;
    throw std::logic_error(msg.str());
  }
  return prod;
}

double ProbGainCalculator::net_gain(NodeId u, NetId n) const {
  const Partition& part = *part_;
  const double c = part.graph().net_cost(n);
  const int a = part.side(u);
  const int b = 1 - a;

  // Product of p over free A-side pins other than u; 0 if A holds a locked
  // pin (the net then can never leave A this pass).
  double prod_a = 1.0;
  bool a_blocked = side_locked(n, a);
  double prod_b = 1.0;
  const bool b_blocked = side_locked(n, b);
  for (const NodeId v : part.graph().pins_of(n)) {
    if (v == u) continue;
    if (part.side(v) == a) {
      prod_a *= p_[v];  // locked pins have p = 0, blocking the product too
    } else {
      prod_b *= p_[v];
    }
  }
  if (a_blocked) prod_a = 0.0;
  if (b_blocked) prod_b = 0.0;

  if (part.is_cut(n)) {
    // Eqn. 3: moving u helps complete the A->B evacuation and precludes the
    // B->A one.
    return c * (prod_a - prod_b);
  }
  // Net lies entirely on u's side (it contains u).  Eqn. 4: moving u cuts
  // it; it stays cut unless everyone else follows.
  return -c * (1.0 - prod_a);
}

double ProbGainCalculator::scratch_gain(NodeId u) const {
  double total = 0.0;
  for (const NetId n : part_->graph().nets_of(u)) {
    total += net_gain(u, n);
  }
  return total;
}

double ProbGainCalculator::cached_gain(NodeId u) const {
  const Partition& part = *part_;
  const Hypergraph& g = part.graph();
  const int a = part.side(u);
  const int b = 1 - a;
  const double pu = p_[u];
  const double ru = recip_[u];
  double total = 0.0;
  for (const NetId n : g.nets_of(u)) {
    const bool a_blocked = side_locked(n, a);
    // Frozen net (locked pins on both sides): pinned in the cut with both
    // removal products 0 — contributes exactly nothing.
    if (a_blocked && side_locked(n, b)) continue;
    const double c = g.net_cost(n);
    double prod_a_excl;
    if (a_blocked) {
      prod_a_excl = 0.0;
    } else {
      const std::uint32_t zeros_a = zero_free_[2 * n + a];
      if (pu == 0.0) {
        prod_a_excl = zeros_a > 1 ? 0.0 : prod_[2 * n + a];
      } else {
        prod_a_excl = zeros_a > 0 ? 0.0 : prod_[2 * n + a] * ru;
      }
    }
    if (part.is_cut(n)) {
      const double prod_b = (side_locked(n, b) || zero_free_[2 * n + b] > 0)
                                ? 0.0
                                : prod_[2 * n + b];
      total += c * (prod_a_excl - prod_b);
    } else {
      total += -c * (1.0 - prod_a_excl);
    }
  }
  return total;
}

double ProbGainCalculator::gain(NodeId u) const {
  switch (engine_) {
    case GainEngine::kCached:
      return cached_gain(u);
    case GainEngine::kScratch:
      return scratch_gain(u);
    case GainEngine::kShadow:
      break;
  }
  // Shadow: answer from scratch so the trajectory is identical to the
  // scratch engine's, but cross-check the cache on every query.
  const double scratch = scratch_gain(u);
  const double cached = cached_gain(u);
  if (!(std::abs(cached - scratch) <= kProductAuditTol)) {
    std::ostringstream msg;
    msg << "prob gain shadow: gain diverged (node " << u << "): cached "
        << cached << " vs scratch " << scratch;
    throw std::logic_error(msg.str());
  }
  return scratch;
}

}  // namespace prop
