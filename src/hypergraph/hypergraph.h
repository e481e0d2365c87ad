// Immutable hypergraph (circuit netlist) in CSR form.
//
// The paper's model (Sec. 1): a circuit C is a hypergraph G = (V, E) where V
// are components and E are nets; a net is the set of nodes it connects.  We
// store both incidence directions — node -> nets ("pins of a node") and
// net -> nodes ("pins of a net") — as compressed sparse rows for cache-
// friendly traversal, since every partitioner here spends its time walking
// these lists.
//
// Nets carry a cost c(n) (paper Sec. 1: width for area, criticality weight
// for timing); nodes carry a size used by the balance criterion.  Both
// default to 1.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace prop {

using NodeId = std::uint32_t;
using NetId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr NetId kInvalidNet = static_cast<NetId>(-1);

class HypergraphBuilder;

class Hypergraph {
 public:
  Hypergraph() = default;

  /// Number of nodes n.
  NodeId num_nodes() const noexcept { return static_cast<NodeId>(node_offsets_.empty() ? 0 : node_offsets_.size() - 1); }
  /// Number of nets e.
  NetId num_nets() const noexcept { return static_cast<NetId>(net_offsets_.empty() ? 0 : net_offsets_.size() - 1); }
  /// Total pin count m = sum of net sizes = sum of node degrees.
  std::size_t num_pins() const noexcept { return net_pins_.size(); }

  /// Nets incident to node u (the nets u "is connected to"), strictly
  /// ascending by net id: the builder's counting-sort transpose visits nets
  /// in id order.  The PROP gain sweeps depend on this order (DESIGN.md
  /// §4f).
  std::span<const NetId> nets_of(NodeId u) const noexcept {
    return {node_pins_.data() + node_offsets_[u],
            node_offsets_[u + 1] - node_offsets_[u]};
  }

  /// Nodes connected by net n.
  std::span<const NodeId> pins_of(NetId n) const noexcept {
    return {net_pins_.data() + net_offsets_[n],
            net_offsets_[n + 1] - net_offsets_[n]};
  }

  /// Degree (number of incident nets) of node u — the paper's "pins on a
  /// node".
  std::size_t degree(NodeId u) const noexcept {
    return node_offsets_[u + 1] - node_offsets_[u];
  }

  /// Size (number of pins) of net n.
  std::size_t net_size(NetId n) const noexcept {
    return net_offsets_[n + 1] - net_offsets_[n];
  }

  /// Net cost c(n).
  double net_cost(NetId n) const noexcept { return net_costs_[n]; }

  /// Node size (weight) used by the balance criterion.
  std::int64_t node_size(NodeId u) const noexcept { return node_sizes_[u]; }

  /// Sum of all node sizes.
  std::int64_t total_node_size() const noexcept { return total_node_size_; }

  /// True when every net has cost exactly 1 (enables the FM bucket
  /// structure's integer-gain assumption).
  bool unit_net_costs() const noexcept { return unit_net_costs_; }

  /// True when every node has size exactly 1.
  bool unit_node_sizes() const noexcept { return unit_node_sizes_; }

  /// Maximum node degree (pmax in the paper's complexity discussion).
  std::size_t max_degree() const noexcept { return max_degree_; }

  /// Maximum net size.
  std::size_t max_net_size() const noexcept { return max_net_size_; }

  /// Optional human-readable name (benchmark id).
  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  friend class HypergraphBuilder;

  std::vector<std::size_t> node_offsets_;  // size n+1
  std::vector<NetId> node_pins_;           // nets of each node, concatenated
  std::vector<std::size_t> net_offsets_;   // size e+1
  std::vector<NodeId> net_pins_;           // nodes of each net, concatenated
  std::vector<double> net_costs_;          // size e
  std::vector<std::int64_t> node_sizes_;   // size n
  std::int64_t total_node_size_ = 0;
  bool unit_net_costs_ = true;
  bool unit_node_sizes_ = true;
  std::size_t max_degree_ = 0;
  std::size_t max_net_size_ = 0;
  std::string name_;
};

}  // namespace prop
