// Differential test of contract() against the std::unordered_map merge it
// replaced, which is kept below, verbatim apart from its name, as the
// oracle.  contract() appends the coarse pin sets to one flat buffer
// and finds parallel nets through an open-addressing table of net ids; it
// must give the oracle's result exactly: the same fine_to_coarse map, node
// sizes, net order, pins, and costs summed in the same fine-net order (so
// equal as doubles, not merely close).  Checked on seeded random
// hypergraphs with non-unit costs and node sizes under clusterings that
// leave cluster ids unused, collapse nets into one cluster and make many
// parallel nets, and with the merge table's hash narrowed to a few bits
// so distinct pin sets collide (merge_nets' hash_mask).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "hypergraph/builder.h"
#include "hypergraph/contraction.h"
#include "hypergraph/generator.h"
#include "util/rng.h"

namespace prop {
namespace {

// --- oracle: the previous contract() -------------------------------------

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

ContractionResult oracle_contract(const Hypergraph& g,
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

// --- harness ---------------------------------------------------------------

void expect_same(const ContractionResult& got, const ContractionResult& want,
                 const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(got.fine_to_coarse, want.fine_to_coarse);
  const Hypergraph& a = got.coarse;
  const Hypergraph& b = want.coarse;
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    ASSERT_EQ(a.node_size(u), b.node_size(u)) << "node " << u;
  }
  ASSERT_EQ(a.num_nets(), b.num_nets());
  for (NetId n = 0; n < a.num_nets(); ++n) {
    const auto pa = a.pins_of(n);
    const auto pb = b.pins_of(n);
    ASSERT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()))
        << "net " << n;
    ASSERT_EQ(a.net_cost(n), b.net_cost(n)) << "net " << n;
  }
}

/// A generated circuit rebuilt with non-unit costs (multiples of 0.1, whose
/// sums depend on their order), random node sizes, and `copies` extra
/// copies of a random subset of its nets, so parallel nets are plentiful
/// before any clustering.
Hypergraph random_graph(std::uint64_t seed, NodeId nodes, int copies) {
  const Hypergraph base =
      generate_circuit({"cdiff", nodes, nodes + nodes / 10, 7 * nodes / 2},
                       seed);
  Rng rng(mix_seed(seed, 3));
  HypergraphBuilder b(base.num_nodes());
  b.set_name("cdiff");
  const auto cost = [&] { return 0.1 * static_cast<double>(1 + rng.bounded(30)); };
  for (NetId n = 0; n < base.num_nets(); ++n) {
    b.add_net(base.pins_of(n), cost());
    for (int c = 0; c < copies; ++c) {
      if (rng.chance(0.3)) b.add_net(base.pins_of(n), cost());
    }
  }
  for (NodeId u = 0; u < base.num_nodes(); ++u) {
    b.set_node_size(u, 1 + static_cast<std::int64_t>(rng.bounded(4)));
  }
  return std::move(b).build();
}

/// Cluster ids drawn from [0, num_clusters) with every `gap`-th id never
/// used, so compaction has work to do.
std::vector<NodeId> random_clustering(const Hypergraph& g, NodeId num_clusters,
                                      NodeId gap, Rng& rng) {
  std::vector<NodeId> cluster_of(g.num_nodes());
  for (auto& c : cluster_of) {
    do {
      c = static_cast<NodeId>(rng.bounded(num_clusters));
    } while (gap > 0 && c % gap == 0 && num_clusters > 1);
  }
  return cluster_of;
}

TEST(ContractionDifferential, MatchesOracleOnRandomClusterings) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const Hypergraph g = random_graph(seed, 700, 2);
    Rng rng(mix_seed(seed, 9));
    // From nearly singleton clusters (few merges) down to a handful (most
    // nets collapse into one cluster, the rest into heavy parallel groups).
    for (const NodeId clusters : {NodeId{900}, NodeId{350}, NodeId{80},
                                  NodeId{12}, NodeId{3}, NodeId{1}}) {
      for (const NodeId gap : {NodeId{0}, NodeId{5}}) {
        const auto cluster_of = random_clustering(g, clusters, gap, rng);
        expect_same(contract(g, cluster_of, clusters),
                    oracle_contract(g, cluster_of, clusters),
                    "seed " + std::to_string(seed) + " clusters " +
                        std::to_string(clusters) + " gap " +
                        std::to_string(gap));
      }
    }
  }
}

TEST(ContractionDifferential, MatchesOracleWhenHashesCollide) {
  // A mask of a few bits gives hundreds of distinct pin sets a handful of
  // hash values, so nearly every lookup walks a long probe chain and
  // compares pin sequences that are not equal.
  const Hypergraph g = random_graph(21, 400, 3);
  Rng rng(77);
  for (const std::uint64_t mask : {0ULL, 1ULL, 0x7ULL, 0xffULL}) {
    for (const NodeId clusters : {NodeId{500}, NodeId{90}, NodeId{6}}) {
      SCOPED_TRACE(testing::Message() << "mask " << mask << " clusters "
                                      << clusters);
      const auto cluster_of = random_clustering(g, clusters, 4, rng);
      const ContractionResult want = oracle_contract(g, cluster_of, clusters);
      const MergedNets got = merge_nets(g, want.fine_to_coarse, mask);
      ASSERT_EQ(got.size(), want.coarse.num_nets());
      for (NetId n = 0; n < want.coarse.num_nets(); ++n) {
        const auto pa = got.pins_of(n);
        const auto pb = want.coarse.pins_of(n);
        ASSERT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()))
            << "net " << n;
        ASSERT_EQ(got.costs[n], want.coarse.net_cost(n)) << "net " << n;
      }
    }
  }
}

TEST(ContractionDifferential, ParallelNetsSumInFineNetOrder) {
  // 0.1 + 0.2 + 0.7 and 0.7 + 0.2 + 0.1 differ in the last bit; the merged
  // cost must be the fine-net-order sum, as the oracle's is.
  HypergraphBuilder b(4);
  b.add_net({0, 2}, 0.1);
  b.add_net({1, 3}, 0.2);
  b.add_net({3, 0}, 0.7);
  b.add_net({1, 2}, 0.3);
  b.add_net({0, 1}, 5.0);  // internal: dropped
  const Hypergraph g = std::move(b).build();
  const std::vector<NodeId> cluster_of = {0, 0, 2, 2};
  const ContractionResult got = contract(g, cluster_of, 3);
  expect_same(got, oracle_contract(g, cluster_of, 3), "four parallel nets");
  ASSERT_EQ(got.coarse.num_nets(), 1u);
  EXPECT_EQ(got.coarse.net_cost(0), ((0.1 + 0.2) + 0.7) + 0.3);
}

TEST(ContractionDifferential, RejectsWhatTheOracleRejects) {
  const Hypergraph g = random_graph(5, 60, 0);
  const std::vector<NodeId> short_map(g.num_nodes() - 1, 0);
  EXPECT_THROW(contract(g, short_map, 1), std::invalid_argument);
  EXPECT_THROW(oracle_contract(g, short_map, 1), std::invalid_argument);
  std::vector<NodeId> out_of_range(g.num_nodes(), 0);
  out_of_range.back() = 4;
  EXPECT_THROW(contract(g, out_of_range, 4), std::invalid_argument);
  EXPECT_THROW(oracle_contract(g, out_of_range, 4), std::invalid_argument);
}

}  // namespace
}  // namespace prop
