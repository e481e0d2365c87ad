#include "partition/kway_state.h"

#include <stdexcept>

namespace prop {

KWayState::KWayState(const Hypergraph& g, std::vector<NodeId> part, NodeId k)
    : g_(&g), k_(k), part_(std::move(part)) {
  if (k_ == 0) throw std::invalid_argument("kway: k must be >= 1");
  if (part_.size() != g.num_nodes()) {
    throw std::invalid_argument("kway: part vector size mismatch");
  }
  for (const NodeId p : part_) {
    if (p >= k_) throw std::invalid_argument("kway: part id out of range");
  }
  size_.assign(k_, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) size_[part_[u]] += g.node_size(u);

  pin_count_.assign(static_cast<std::size_t>(g.num_nets()) * k_, 0);
  spanned_.assign(g.num_nets(), 0);
  for (NetId n = 0; n < g.num_nets(); ++n) {
    for (const NodeId u : g.pins_of(n)) {
      auto& count = pin_count_[static_cast<std::size_t>(n) * k_ + part_[u]];
      if (count == 0) ++spanned_[n];
      ++count;
    }
    if (spanned_[n] > 1) {
      cut_cost_ += g.net_cost(n);
      connectivity_cost_ += g.net_cost(n) * (spanned_[n] - 1);
    }
  }
}

KWayState::KWayState(const Partition& part)
    : KWayState(part.graph(),
                std::vector<NodeId>(part.sides().begin(), part.sides().end()),
                2) {}

void KWayState::move(NodeId u, NodeId to) {
  const NodeId from = part_[u];
  if (from == to) return;
  for (const NetId n : g_->nets_of(u)) {
    const double c = g_->net_cost(n);
    auto& from_count = pin_count_[static_cast<std::size_t>(n) * k_ + from];
    auto& to_count = pin_count_[static_cast<std::size_t>(n) * k_ + to];
    const std::uint32_t before = spanned_[n];
    --from_count;
    if (from_count == 0) --spanned_[n];
    if (to_count == 0) ++spanned_[n];
    ++to_count;
    const std::uint32_t after = spanned_[n];
    if (after != before) {
      connectivity_cost_ +=
          c * (static_cast<double>(after) - static_cast<double>(before));
      if (before > 1 && after == 1) cut_cost_ -= c;
      if (before == 1 && after > 1) cut_cost_ += c;
    }
  }
  part_[u] = to;
  size_[from] -= g_->node_size(u);
  size_[to] += g_->node_size(u);
}

double KWayState::cut_gain(NodeId u, NodeId to) const {
  const NodeId from = part_[u];
  if (from == to) return 0.0;
  double gain = 0.0;
  for (const NetId n : g_->nets_of(u)) {
    const double c = g_->net_cost(n);
    const std::uint32_t in_from = pins_in(n, from);
    const std::uint32_t in_to = pins_in(n, to);
    const std::uint32_t span = spanned_[n];
    // After moving u: from loses one pin, to gains one.
    std::uint32_t new_span = span;
    if (in_from == 1) --new_span;
    if (in_to == 0) ++new_span;
    if (span > 1 && new_span == 1) gain += c;
    if (span == 1 && new_span > 1) gain -= c;
  }
  return gain;
}

double KWayState::connectivity_gain(NodeId u, NodeId to) const {
  const NodeId from = part_[u];
  if (from == to) return 0.0;
  double gain = 0.0;
  for (const NetId n : g_->nets_of(u)) {
    const double c = g_->net_cost(n);
    if (pins_in(n, from) == 1) gain += c;  // net leaves `from`
    if (pins_in(n, to) == 0) gain -= c;    // net enters `to`
  }
  return gain;
}

void KWayState::verify_costs(double* cut, double* connectivity) const {
  double cut_acc = 0.0;
  double conn_acc = 0.0;
  std::vector<std::uint8_t> seen(k_, 0);
  for (NetId n = 0; n < g_->num_nets(); ++n) {
    std::fill(seen.begin(), seen.end(), 0);
    std::uint32_t span = 0;
    for (const NodeId u : g_->pins_of(n)) {
      if (!seen[part_[u]]) {
        seen[part_[u]] = 1;
        ++span;
      }
    }
    if (span > 1) {
      cut_acc += g_->net_cost(n);
      conn_acc += g_->net_cost(n) * (span - 1);
    }
  }
  if (cut) *cut = cut_acc;
  if (connectivity) *connectivity = conn_acc;
}

}  // namespace prop
