#include "core/prob_gain.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace prop {

ProbGainCalculator::ProbGainCalculator(const KWayState& state,
                                       int renorm_interval)
    : ProbGainCalculator(state, DeferReset{}, renorm_interval) {
  reset();
}

ProbGainCalculator::ProbGainCalculator(const KWayState& state, DeferReset,
                                       int renorm_interval)
    : state_(&state),
      k_(state.k()),
      renorm_interval_(renorm_interval < 1 ? 1 : renorm_interval) {}

void ProbGainCalculator::reset() {
  const Hypergraph& g = state_->graph();
  const std::size_t slots = static_cast<std::size_t>(g.num_nets()) * k_;
  p_.assign(g.num_nodes(), 0.0);
  locked_.assign(g.num_nodes(), 0);
  locked_pins_.assign(slots, 0);
  // Everything is free with p = 0, so each part's product is an empty
  // product of nonzero factors (1), the zero counter is the part's full pin
  // count, and the effective product is 0 unless the part is empty.
  prod_.assign(slots, 1.0);
  zero_free_.resize(slots);
  eff_.resize(slots);
  updates_.assign(slots, 0);
  recip_.assign(g.num_nodes(), 0.0);
  for (NetId n = 0; n < g.num_nets(); ++n) {
    for (NodeId p = 0; p < k_; ++p) {
      const std::uint32_t m = state_->pins_in(n, p);
      zero_free_[slot(n, p)] = m;
      eff_[slot(n, p)] = m == 0 ? 1.0 : 0.0;
    }
  }
}

void ProbGainCalculator::reset_uniform(double p) {
  if (!(p > 0.0 && p <= 1.0)) {
    throw std::invalid_argument("prob gain: uniform p out of (0,1]");
  }
  const Hypergraph& g = state_->graph();
  const std::size_t slots = static_cast<std::size_t>(g.num_nets()) * k_;
  p_.assign(g.num_nodes(), p);
  locked_.assign(g.num_nodes(), 0);
  locked_pins_.assign(slots, 0);
  uniform_recip_ = 1.0 / p;  // the reciprocal set_probability caches
  const std::size_t max_pins = g.max_net_size();
  uniform_pow_.resize(max_pins + 1);
  uniform_updates_.resize(max_pins + 1);
  uniform_pow_[0] = 1.0;
  uniform_updates_[0] = 0;
  for (std::size_t m = 1; m <= max_pins; ++m) {
    // One update_factor step: multiply the factor in, count the update,
    // restart the epoch where that step would renormalize.
    const double prod = uniform_pow_[m - 1] * p;
    std::uint32_t updates = uniform_updates_[m - 1] + 1;
    if (static_cast<int>(updates) >= renorm_interval_ ||
        !(prod >= kRenormMagLo && prod <= kRenormMagHi)) {
      updates = 0;
    }
    uniform_pow_[m] = prod;
    uniform_updates_[m] = updates;
  }
  recip_.assign(g.num_nodes(), uniform_recip_);
  prod_.resize(slots);
  eff_.resize(slots);
  zero_free_.assign(slots, 0);
  updates_.resize(slots);
  for (NetId n = 0; n < g.num_nets(); ++n) {
    for (NodeId q = 0; q < k_; ++q) {
      // Nothing is locked and no factor is zero, so the effective product
      // is the product, and pow[0] == 1 covers an empty part.
      const std::uint32_t m = state_->pins_in(n, q);
      prod_[slot(n, q)] = uniform_pow_[m];
      eff_[slot(n, q)] = uniform_pow_[m];
      updates_[slot(n, q)] = uniform_updates_[m];
    }
  }
}

void ProbGainCalculator::uniform_gains(NodeId u, double* out) const {
  const KWayState& state = *state_;
  const Hypergraph& g = state.graph();
  const NodeId a = state.part(u);
  std::fill_n(out, k_, 0.0);
  // The terms of cached_gains with nothing locked and no zero factor.
  for (const NetId n : g.nets_of(u)) {
    const double c = g.net_cost(n);
    const double excl = uniform_pow_[state.pins_in(n, a)] * uniform_recip_;
    for (NodeId p = 0; p < k_; ++p) {
      out[p] += c * (excl - uniform_pow_[state.pins_in(n, p)]);
    }
  }
  out[a] = 0.0;
}

void ProbGainCalculator::scratch_part(NetId n, NodeId p, double& prod,
                                      std::uint32_t& zeros) const {
  prod = 1.0;
  zeros = 0;
  for (const NodeId v : state_->graph().pins_of(n)) {
    if (locked_[v] || state_->part(v) != p) continue;
    if (p_[v] == 0.0) {
      ++zeros;
    } else {
      prod *= p_[v];
    }
  }
}

void ProbGainCalculator::renormalize_slot(NetId n, NodeId p) {
  scratch_part(n, p, prod_[slot(n, p)], zero_free_[slot(n, p)]);
  updates_[slot(n, p)] = 0;
}

void ProbGainCalculator::update_factor(NetId n, NodeId p, double old_p,
                                       double old_r, double new_p) {
  const std::size_t s = slot(n, p);
  if (old_p == 0.0) {
    --zero_free_[s];
  } else {
    prod_[s] *= old_r;  // remove the old factor: multiply by 1/old_p
  }
  if (new_p == 0.0) {
    ++zero_free_[s];
  } else {
    prod_[s] *= new_p;
  }
  // Epoch renormalization; the !(a && b) form also catches NaN.
  const double prod = prod_[s];
  if (static_cast<int>(++updates_[s]) >= renorm_interval_ ||
      !(prod >= kRenormMagLo && prod <= kRenormMagHi)) {
    renormalize_slot(n, p);
  }
  refresh_eff(s);
}

void ProbGainCalculator::set_probability(NodeId u, double p) {
  if (locked_[u]) throw std::logic_error("prob gain: node is locked");
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("prob gain: p out of [0,1]");
  }
  const double old_p = p_[u];
  // Commit the node's new state before touching the per-net cache: an epoch
  // renormalization firing inside update_factor recomputes from p_/locked_,
  // which must already describe the post-update world.
  p_[u] = p;
  const double old_r = recip_[u];
  recip_[u] = p == 0.0 ? 0.0 : 1.0 / p;
  if (p != old_p) {
    const NodeId a = state_->part(u);
    for (const NetId n : state_->graph().nets_of(u)) {
      update_factor(n, a, old_p, old_r, p);
    }
  }
}

void ProbGainCalculator::lock(NodeId u) {
  if (locked_[u]) {
    throw std::logic_error("prob gain: node already locked");
  }
  const NodeId a = state_->part(u);
  const double old_p = p_[u];
  // Flag the lock first so a renormalization inside update_factor already
  // excludes u from the free products.
  locked_[u] = 1;
  p_[u] = 0.0;
  const double old_r = recip_[u];
  recip_[u] = 0.0;
  for (const NetId n : state_->graph().nets_of(u)) {
    ++locked_pins_[slot(n, a)];
    // Remove u's factor from the part's free product; 1.0 is the identity.
    update_factor(n, a, old_p, old_r, 1.0);
  }
}

void ProbGainCalculator::move_locked(NodeId u, NodeId from_part) {
  if (!locked_[u]) {
    throw std::logic_error("prob gain: moved node must be locked");
  }
  const NodeId to = state_->part(u);
  // Locked pins are outside every free product, so only the locked-pin
  // table moves parts, and with it the effective products of both slots:
  // `to` now holds a locked pin, and `from` may have lost its last lock or
  // its last pin.
  for (const NetId n : state_->graph().nets_of(u)) {
    const std::size_t from_slot = slot(n, from_part);
    --locked_pins_[from_slot];
    ++locked_pins_[slot(n, to)];
    eff_[slot(n, to)] = 0.0;
    if (state_->pins_in(n, from_part) == 0) {
      eff_[from_slot] = 1.0;
    } else {
      refresh_eff(from_slot);
    }
  }
}

double ProbGainCalculator::net_gain(NodeId u, NetId n, NodeId to) const {
  const KWayState& state = *state_;
  const double c = state.graph().net_cost(n);
  const NodeId a = state.part(u);

  // Product of p over free a-part pins other than u; 0 if a holds a locked
  // pin (the net then can never leave a this pass).  Same for the target.
  double prod_a = 1.0;
  const bool a_blocked = part_locked(n, a);
  double prod_b = 1.0;
  const bool b_blocked = part_locked(n, to);
  for (const NodeId v : state.graph().pins_of(n)) {
    if (v == u) continue;
    const NodeId pv = state.part(v);
    if (pv == a) {
      prod_a *= p_[v];  // locked pins have p = 0, blocking the product too
    } else if (pv == to) {
      prod_b *= p_[v];
    }
  }
  if (a_blocked) prod_a = 0.0;
  if (b_blocked) prod_b = 0.0;

  if (state.pins_in(n, to) > 0) {
    // Generalized Eqn. 3: moving u helps complete the a -> to evacuation
    // and precludes the to -> a one.
    return c * (prod_a - prod_b);
  }
  // No pin in the target yet (k = 2: the net lies entirely in a).
  // Generalized Eqn. 4: moving u spreads the net into a new part; it stays
  // spread unless everyone else in a follows.
  return -c * (1.0 - prod_a);
}

double ProbGainCalculator::removal_probability(NetId n, NodeId from) const {
  if (part_locked(n, from)) return 0.0;
  double prod = 1.0;
  for (const NodeId v : state_->graph().pins_of(n)) {
    if (state_->part(v) == from) prod *= p_[v];
  }
  return prod;
}

double ProbGainCalculator::scratch_gain(NodeId u, NodeId to) const {
  double total = 0.0;
  for (const NetId n : state_->graph().nets_of(u)) {
    total += net_gain(u, n, to);
  }
  return total;
}

double ProbGainCalculator::gain(NodeId u, NodeId to) const {
  const Hypergraph& g = state_->graph();
  const NodeId a = state_->part(u);
  double total = 0.0;
  for (const NetId n : g.nets_of(u)) {
    total += g.net_cost(n) * (cached_excl(n, a, u) - eff_[slot(n, to)]);
  }
  return total;
}

void ProbGainCalculator::gains(NodeId u, double* out) const {
  const Hypergraph& g = state_->graph();
  const NodeId a = state_->part(u);
  std::fill_n(out, k_, 0.0);
  // Same terms in the same nets_of(u) order as gain(), per part; the
  // source part's own total is discarded.
  for (const NetId n : g.nets_of(u)) {
    const double* eff = eff_.data() + slot(n, 0);
    const double c = g.net_cost(n);
    const double excl = cached_excl(n, a, u);
    for (NodeId p = 0; p < k_; ++p) out[p] += c * (excl - eff[p]);
  }
  out[a] = 0.0;
}

double ProbGainCalculator::max_product_drift() const {
  double max_abs = 0.0;
  const NetId nets = state_->graph().num_nets();
  for (NetId n = 0; n < nets; ++n) {
    for (NodeId p = 0; p < k_; ++p) {
      double prod;
      std::uint32_t zeros;
      scratch_part(n, p, prod, zeros);
      const double d = std::abs(prod_[slot(n, p)] - prod);
      if (d > max_abs) max_abs = d;
    }
  }
  return max_abs;
}

void ProbGainCalculator::audit_consistency() const {
  const Hypergraph& g = state_->graph();
  std::vector<std::uint32_t> recount(
      static_cast<std::size_t>(g.num_nets()) * k_, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (locked_[u]) {
      if (p_[u] != 0.0) {
        throw std::logic_error("prob gain audit: locked node with p != 0");
      }
      const NodeId a = state_->part(u);
      for (const NetId n : g.nets_of(u)) ++recount[slot(n, a)];
    } else if (p_[u] < 0.0 || p_[u] > 1.0) {
      throw std::logic_error(
          "prob gain audit: free probability out of [0,1]");
    }
  }
  if (recount != locked_pins_) {
    throw std::logic_error(
        "prob gain audit: locked-pin counts diverged from recount");
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const double want = p_[u] == 0.0 ? 0.0 : 1.0 / p_[u];
    if (recip_[u] != want) {
      throw std::logic_error(
          "prob gain audit: cached reciprocal out of sync with p");
    }
  }
  for (NetId n = 0; n < g.num_nets(); ++n) {
    for (NodeId p = 0; p < k_; ++p) {
      double prod;
      std::uint32_t zeros;
      scratch_part(n, p, prod, zeros);
      if (zeros != zero_free_[slot(n, p)]) {
        std::ostringstream msg;
        msg << "prob gain audit: zero-factor counter diverged (net " << n
            << " part " << p << "): cached " << zero_free_[slot(n, p)]
            << " vs recount " << zeros;
        throw std::logic_error(msg.str());
      }
      const double cached = prod_[slot(n, p)];
      if (!(std::abs(cached - prod) <= kProductAuditTol)) {
        std::ostringstream msg;
        msg << "prob gain audit: cached product drifted (net " << n
            << " part " << p << "): cached " << cached << " vs scratch "
            << prod;
        throw std::logic_error(msg.str());
      }
      double eff = cached;
      if (state_->pins_in(n, p) == 0) {
        eff = 1.0;
      } else if (part_locked(n, p) || zero_free_[slot(n, p)] > 0) {
        eff = 0.0;
      }
      if (eff_[slot(n, p)] != eff) {
        std::ostringstream msg;
        msg << "prob gain audit: effective product out of sync (net " << n
            << " part " << p << "): cached " << eff_[slot(n, p)]
            << " vs " << eff;
        throw std::logic_error(msg.str());
      }
    }
  }
}

}  // namespace prop
