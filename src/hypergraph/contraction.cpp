#include "hypergraph/contraction.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "hypergraph/builder.h"

namespace prop {
namespace {

/// FNV-1a over the pin sequence.  Pin vectors arriving here are sorted and
/// deduplicated, so equal pin *sets* hash equally and the hash map below
/// never compares two vectors that merely permute each other.
struct PinSeqHash {
  std::size_t operator()(const std::vector<NodeId>& pins) const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const NodeId p : pins) {
      h ^= p;
      h *= 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

ContractionResult contract(const Hypergraph& g,
                           const std::vector<NodeId>& cluster_of,
                           NodeId num_clusters) {
  if (cluster_of.size() != g.num_nodes()) {
    throw std::invalid_argument("contract: clustering size mismatch");
  }

  // Accumulate node sizes per cluster, then compact away cluster ids no
  // node maps to (order-preserving).  Phantom zero-member clusters would
  // otherwise need a fake nonzero size, inflating the coarse total and
  // skewing every fraction-mapped balance window on the coarse graph.
  std::vector<std::int64_t> cluster_size(num_clusters, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NodeId c = cluster_of[u];
    if (c >= num_clusters) {
      throw std::invalid_argument("contract: cluster id out of range");
    }
    cluster_size[c] += g.node_size(u);
  }
  std::vector<NodeId> compact(num_clusters, kInvalidNode);
  NodeId num_coarse = 0;
  for (NodeId c = 0; c < num_clusters; ++c) {
    if (cluster_size[c] > 0) compact[c] = num_coarse++;
  }

  HypergraphBuilder builder(num_coarse);
  builder.set_name(g.name() + ".coarse");
  for (NodeId c = 0; c < num_clusters; ++c) {
    if (compact[c] != kInvalidNode) {
      builder.set_node_size(compact[c], cluster_size[c]);
    }
  }

  std::vector<NodeId> fine_to_coarse(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    fine_to_coarse[u] = compact[cluster_of[u]];
  }

  // Map nets to cluster pin sets; merge identical parallel nets, summing
  // costs.  Contraction sits on the multilevel critical path, so the merge
  // uses a hash of the sorted pin sequence (one O(|pins|) hash per net,
  // vector compares only on genuine duplicates) instead of a std::map with
  // its O(log nets) full lexicographic compares per insertion.
  struct MergedNet {
    std::vector<NodeId> pins;
    double cost;
  };
  std::unordered_map<std::vector<NodeId>, std::size_t, PinSeqHash> index;
  index.reserve(g.num_nets());
  std::vector<MergedNet> merged;
  merged.reserve(g.num_nets());
  std::vector<NodeId> pins;
  for (NetId n = 0; n < g.num_nets(); ++n) {
    pins.clear();
    for (const NodeId u : g.pins_of(n)) pins.push_back(fine_to_coarse[u]);
    std::sort(pins.begin(), pins.end());
    pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
    if (pins.size() < 2) continue;  // internal to one cluster: never cut
    const auto [it, inserted] = index.try_emplace(pins, merged.size());
    if (inserted) {
      merged.push_back(MergedNet{pins, g.net_cost(n)});
    } else {
      merged[it->second].cost += g.net_cost(n);
    }
  }
  // Emit in lexicographic pin order — the order the old ordered-map merge
  // produced — so coarse net ids stay deterministic and platform-independent
  // (unordered_map iteration order is neither).
  std::sort(merged.begin(), merged.end(),
            [](const MergedNet& a, const MergedNet& b) { return a.pins < b.pins; });
  for (const MergedNet& net : merged) {
    builder.add_net(net.pins, net.cost);
  }

  return ContractionResult{std::move(builder).build(), std::move(fine_to_coarse)};
}

}  // namespace prop
