#include "hypergraph/contraction.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "hypergraph/builder.h"

namespace prop {
namespace {

/// FNV-1a over the pin sequence.  Pin sequences arriving here are sorted
/// and deduplicated, so equal pin *sets* hash equally and the merge table
/// never compares two sequences that merely permute each other.
std::uint64_t pin_seq_hash(std::span<const NodeId> pins) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const NodeId p : pins) {
    h ^= p;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

MergedNets merge_nets(const Hypergraph& g,
                      const std::vector<NodeId>& fine_to_coarse,
                      std::uint64_t hash_mask) {
  // Contraction sits on the multilevel critical path, so nothing here
  // allocates per net.  The coarse pin sets of the distinct nets are
  // appended, in order of first appearance, to one flat buffer, and an
  // open-addressing table of their ids keyed by the FNV hash of the pin
  // sequence finds a net's earlier copy, comparing pin sequences only when
  // the stored hashes are equal.  At most one table slot in two is used,
  // so linear probing stays short.
  MergedNets seen;
  seen.pins.reserve(g.num_pins());
  seen.offsets.reserve(static_cast<std::size_t>(g.num_nets()) + 1);
  seen.costs.reserve(g.num_nets());
  std::vector<std::uint64_t> hashes;
  hashes.reserve(g.num_nets());
  constexpr std::uint32_t kEmpty = static_cast<std::uint32_t>(-1);
  const std::size_t table_size =
      std::bit_ceil(2 * static_cast<std::size_t>(g.num_nets()) + 1);
  std::vector<std::uint32_t> table(table_size, kEmpty);
  std::vector<NodeId>& pins = seen.pins;
  for (NetId n = 0; n < g.num_nets(); ++n) {
    const auto begin = static_cast<std::ptrdiff_t>(pins.size());
    for (const NodeId u : g.pins_of(n)) pins.push_back(fine_to_coarse[u]);
    std::sort(pins.begin() + begin, pins.end());
    pins.erase(std::unique(pins.begin() + begin, pins.end()), pins.end());
    const std::span<const NodeId> net(pins.data() + begin,
                                      pins.size() - static_cast<std::size_t>(begin));
    if (net.size() < 2) {  // internal to one cluster: never cut
      pins.resize(static_cast<std::size_t>(begin));
      continue;
    }
    const std::uint64_t h = pin_seq_hash(net) & hash_mask;
    std::size_t i = static_cast<std::size_t>(h) & (table_size - 1);
    for (; table[i] != kEmpty; i = (i + 1) & (table_size - 1)) {
      const std::uint32_t j = table[i];
      if (hashes[j] == h && std::ranges::equal(seen.pins_of(j), net)) break;
    }
    if (table[i] != kEmpty) {  // a parallel net: merge, drop this copy
      seen.costs[table[i]] += g.net_cost(n);
      pins.resize(static_cast<std::size_t>(begin));
      continue;
    }
    table[i] = static_cast<std::uint32_t>(seen.size());
    seen.offsets.push_back(pins.size());
    seen.costs.push_back(g.net_cost(n));
    hashes.push_back(h);
  }

  // Emit in lexicographic pin order — the order the old ordered-map merge
  // produced — so coarse net ids stay deterministic and platform-independent
  // (hash-table order is neither).
  std::vector<std::uint32_t> order(seen.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return std::ranges::lexicographical_compare(seen.pins_of(a),
                                                seen.pins_of(b));
  });
  MergedNets out;
  out.pins.reserve(seen.pins.size());
  out.offsets.reserve(seen.offsets.size());
  out.costs.reserve(seen.size());
  for (const std::uint32_t j : order) {
    const auto net = seen.pins_of(j);
    out.pins.insert(out.pins.end(), net.begin(), net.end());
    out.offsets.push_back(out.pins.size());
    out.costs.push_back(seen.costs[j]);
  }
  return out;
}

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

  // Nets map to cluster pin sets; nets inside one cluster disappear and
  // identical parallel nets merge with summed cost.  The merged sets are
  // sorted and deduplicated, so they become the coarse CSR as they are.
  MergedNets nets = merge_nets(g, fine_to_coarse);
  Hypergraph coarse = std::move(builder).build_clean(
      std::move(nets.offsets), std::move(nets.pins), std::move(nets.costs));
  return ContractionResult{std::move(coarse), std::move(fine_to_coarse)};
}

}  // namespace prop
