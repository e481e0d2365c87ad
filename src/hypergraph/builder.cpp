#include "hypergraph/builder.h"

#include <algorithm>

namespace prop {

NetId HypergraphBuilder::add_net(std::span<const NodeId> pins, double cost) {
  if (cost <= 0.0) {
    throw std::invalid_argument("net cost must be positive");
  }
  for (const NodeId u : pins) {
    if (u >= num_nodes_) {
      throw std::out_of_range("net pin refers to nonexistent node " +
                              std::to_string(u));
    }
  }
  net_pins_.insert(net_pins_.end(), pins.begin(), pins.end());
  net_offsets_.push_back(net_pins_.size());
  net_costs_.push_back(cost);
  return static_cast<NetId>(net_costs_.size() - 1);
}

void HypergraphBuilder::set_node_size(NodeId u, std::int64_t size) {
  if (u >= num_nodes_) throw std::out_of_range("node id out of range");
  if (size <= 0) throw std::invalid_argument("node size must be positive");
  node_sizes_[u] = size;
}

Hypergraph HypergraphBuilder::build() && {
  const NetId e = num_nets();

  // Deduplicate pins within each net (a component can touch a net through
  // several terminals; for partitioning only membership matters).  The
  // dedup is stable: pin order is preserved, because the first pin carries
  // the conventional driver role used by the timing substrate.
  std::vector<std::size_t> clean_offsets{0};
  std::vector<NodeId> clean_pins;
  clean_offsets.reserve(e + 1);
  clean_pins.reserve(net_pins_.size());
  std::vector<NetId> last_net_of(num_nodes_, kInvalidNet);
  for (NetId n = 0; n < e; ++n) {
    for (std::size_t i = net_offsets_[n]; i < net_offsets_[n + 1]; ++i) {
      const NodeId u = net_pins_[i];
      if (last_net_of[u] != n) {
        last_net_of[u] = n;
        clean_pins.push_back(u);
      }
    }
    clean_offsets.push_back(clean_pins.size());
  }

  return assemble(std::move(clean_offsets), std::move(clean_pins),
                  std::move(net_costs_));
}

Hypergraph HypergraphBuilder::build_clean(std::vector<std::size_t> offsets,
                                          std::vector<NodeId> pins,
                                          std::vector<double> costs) && {
  if (!net_costs_.empty()) {
    throw std::logic_error("build_clean: builder already holds nets");
  }
  if (offsets.size() != costs.size() + 1 || offsets.front() != 0 ||
      offsets.back() != pins.size()) {
    throw std::invalid_argument("build_clean: offsets do not match nets");
  }
  return assemble(std::move(offsets), std::move(pins), std::move(costs));
}

Hypergraph HypergraphBuilder::assemble(std::vector<std::size_t> offsets,
                                       std::vector<NodeId> pins,
                                       std::vector<double> costs) {
  Hypergraph g;
  const auto e = static_cast<NetId>(costs.size());
  g.net_offsets_ = std::move(offsets);
  g.net_pins_ = std::move(pins);
  g.net_costs_ = std::move(costs);
  g.node_sizes_ = std::move(node_sizes_);
  g.name_ = std::move(name_);

  // Transpose: counting sort of pins by node to form node -> nets CSR.
  g.node_offsets_.assign(num_nodes_ + 1, 0);
  for (const NodeId u : g.net_pins_) ++g.node_offsets_[u + 1];
  for (NodeId u = 0; u < num_nodes_; ++u) {
    g.node_offsets_[u + 1] += g.node_offsets_[u];
  }
  g.node_pins_.resize(g.net_pins_.size());
  std::vector<std::size_t> cursor(g.node_offsets_.begin(),
                                  g.node_offsets_.end() - 1);
  for (NetId n = 0; n < e; ++n) {
    for (std::size_t i = g.net_offsets_[n]; i < g.net_offsets_[n + 1]; ++i) {
      g.node_pins_[cursor[g.net_pins_[i]]++] = n;
    }
  }

  g.unit_net_costs_ =
      std::all_of(g.net_costs_.begin(), g.net_costs_.end(),
                  [](double c) { return c == 1.0; });
  g.unit_node_sizes_ =
      std::all_of(g.node_sizes_.begin(), g.node_sizes_.end(),
                  [](std::int64_t s) { return s == 1; });
  g.total_node_size_ = 0;
  for (const auto s : g.node_sizes_) g.total_node_size_ += s;

  g.max_degree_ = 0;
  for (NodeId u = 0; u < num_nodes_; ++u) {
    g.max_degree_ = std::max(g.max_degree_, g.degree(u));
  }
  g.max_net_size_ = 0;
  for (NetId n = 0; n < e; ++n) {
    g.max_net_size_ = std::max(g.max_net_size_, g.net_size(n));
  }
  return g;
}

}  // namespace prop
