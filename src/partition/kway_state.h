// Mutable k-way partition state with incremental cost maintenance — the
// substrate for the paper's "k-way partitioning" future-work direction
// (Sec. 5), used to refine recursive-bisection results directly in k-way
// space, and (at k = 2) the speculative-move state of the 2-way PROP pass
// engine: for k = 2, cut_gain(u, 1 - part(u)) performs exactly the
// operations of Partition::immediate_gain(u).
//
// Tracks per-net pin counts for every part.  Two standard objectives:
//   * cut cost: sum of c(n) over nets touching >= 2 parts (matches
//     kway_cut_cost in partition/recursive.h);
//   * connectivity cost: sum of c(n) * (lambda(n) - 1), where lambda is the
//     number of parts a net touches — the objective recursive bisection
//     implicitly accumulates.
#pragma once

#include <cstdint>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "partition/partition.h"

namespace prop {

class KWayState {
 public:
  KWayState(const Hypergraph& g, std::vector<NodeId> part, NodeId k);

  /// The k = 2 state of a 2-way partition (part id = side).
  explicit KWayState(const Partition& part);

  const Hypergraph& graph() const noexcept { return *g_; }
  NodeId k() const noexcept { return k_; }
  NodeId part(NodeId u) const noexcept { return part_[u]; }
  const std::vector<NodeId>& parts() const noexcept { return part_; }

  std::int64_t part_size(NodeId p) const noexcept { return size_[p]; }

  /// Pins of net n in part p.
  std::uint32_t pins_in(NetId n, NodeId p) const noexcept {
    return pin_count_[static_cast<std::size_t>(n) * k_ + p];
  }

  /// Number of parts net n touches.
  std::uint32_t spanned(NetId n) const noexcept { return spanned_[n]; }

  double cut_cost() const noexcept { return cut_cost_; }
  double connectivity_cost() const noexcept { return connectivity_cost_; }

  /// Moves u to part `to`, updating all incremental state.  O(degree).
  void move(NodeId u, NodeId to);

  /// Cut-cost decrease if u moved to part `to` (positive is good).
  double cut_gain(NodeId u, NodeId to) const;

  /// Connectivity-cost decrease if u moved to part `to`.
  double connectivity_gain(NodeId u, NodeId to) const;

  /// From-scratch recomputation of both costs (validation).
  void verify_costs(double* cut, double* connectivity) const;

 private:
  const Hypergraph* g_;
  NodeId k_;
  std::vector<NodeId> part_;
  std::vector<std::uint32_t> pin_count_;  // e x k
  std::vector<std::uint32_t> spanned_;    // per net
  std::vector<std::int64_t> size_;        // per part
  double cut_cost_ = 0.0;
  double connectivity_cost_ = 0.0;
};

}  // namespace prop
