// Mutable accumulator that assembles an immutable Hypergraph.
//
// Usage:
//   HypergraphBuilder b(num_nodes);
//   b.add_net({0, 3, 7});            // unit cost
//   b.add_net({1, 2}, 2.5);          // weighted net
//   Hypergraph g = std::move(b).build();
//
// add_net() validates pin ids, build() deduplicates repeated pins within a
// net, and both construct the two CSR incidence directions; build_clean()
// takes nets that are already valid and deduplicated.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.h"

namespace prop {

class HypergraphBuilder {
 public:
  explicit HypergraphBuilder(NodeId num_nodes)
      : num_nodes_(num_nodes), node_sizes_(num_nodes, 1) {}

  NodeId num_nodes() const noexcept { return num_nodes_; }
  NetId num_nets() const noexcept { return static_cast<NetId>(net_costs_.size()); }

  /// Appends a net connecting `pins`; returns its id.  Duplicate pins within
  /// a net are removed at build() time.  Throws std::out_of_range on a bad
  /// pin id and std::invalid_argument on non-positive cost.
  NetId add_net(std::span<const NodeId> pins, double cost = 1.0);
  NetId add_net(std::initializer_list<NodeId> pins, double cost = 1.0) {
    return add_net(std::span<const NodeId>(pins.begin(), pins.size()), cost);
  }

  /// Sets the size (weight) of node u used by the balance criterion.
  void set_node_size(NodeId u, std::int64_t size);

  void set_name(std::string name) { name_ = std::move(name); }

  /// Consumes the builder and produces the immutable hypergraph.
  Hypergraph build() &&;

  /// Consumes the builder and produces the hypergraph of nets handed over
  /// in CSR form — net j has pins pins[offsets[j] .. offsets[j + 1]) and
  /// cost costs[j] — moving the buffers in without a copy.  The nets must
  /// already be clean (every pin < num_nodes(), no pin twice in a net,
  /// every cost positive); they are not checked again, only the offsets'
  /// shape is (std::invalid_argument).  contract() hands
  /// over merge_nets' sorted, deduplicated pin sets this way.  Node sizes
  /// and the name come from the builder, which must hold no add_net net
  /// (std::logic_error otherwise).
  Hypergraph build_clean(std::vector<std::size_t> offsets,
                         std::vector<NodeId> pins,
                         std::vector<double> costs) &&;

 private:
  /// Moves clean CSR nets and the builder's node data into a hypergraph
  /// and derives the node -> nets transpose and the summary fields; the
  /// shared tail of build() and build_clean().
  Hypergraph assemble(std::vector<std::size_t> offsets,
                      std::vector<NodeId> pins, std::vector<double> costs);

  NodeId num_nodes_ = 0;
  std::vector<std::size_t> net_offsets_{0};
  std::vector<NodeId> net_pins_;
  std::vector<double> net_costs_;
  std::vector<std::int64_t> node_sizes_;
  std::string name_;
};

}  // namespace prop
