#include "hypergraph/builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hypergraph/contraction.h"
#include "hypergraph/generator.h"
#include "hypergraph/stats.h"
#include "util/rng.h"

namespace prop {
namespace {

TEST(Builder, BasicConstruction) {
  HypergraphBuilder b(4);
  b.add_net({0, 1});
  b.add_net({1, 2, 3});
  b.set_name("tiny");
  const Hypergraph g = std::move(b).build();

  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_nets(), 2u);
  EXPECT_EQ(g.num_pins(), 5u);
  EXPECT_EQ(g.name(), "tiny");
  EXPECT_EQ(g.net_size(0), 2u);
  EXPECT_EQ(g.net_size(1), 3u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Builder, IncidenceIsConsistentBothWays) {
  HypergraphBuilder b(5);
  b.add_net({0, 1, 2});
  b.add_net({2, 3});
  b.add_net({0, 4});
  const Hypergraph g = std::move(b).build();

  for (NetId n = 0; n < g.num_nets(); ++n) {
    for (const NodeId u : g.pins_of(n)) {
      const auto nets = g.nets_of(u);
      EXPECT_NE(std::find(nets.begin(), nets.end(), n), nets.end());
    }
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NetId n : g.nets_of(u)) {
      const auto pins = g.pins_of(n);
      EXPECT_NE(std::find(pins.begin(), pins.end(), u), pins.end());
    }
  }
}

TEST(Builder, DeduplicatesPinsWithinNet) {
  HypergraphBuilder b(3);
  b.add_net({0, 1, 0, 1, 2});
  const Hypergraph g = std::move(b).build();
  EXPECT_EQ(g.net_size(0), 3u);
  EXPECT_EQ(g.num_pins(), 3u);
}

TEST(Builder, RejectsBadPin) {
  HypergraphBuilder b(2);
  EXPECT_THROW(b.add_net({0, 2}), std::out_of_range);
}

TEST(Builder, RejectsBadCost) {
  HypergraphBuilder b(2);
  EXPECT_THROW(b.add_net({0, 1}, 0.0), std::invalid_argument);
  EXPECT_THROW(b.add_net({0, 1}, -1.0), std::invalid_argument);
}

TEST(Builder, NodeSizes) {
  HypergraphBuilder b(3);
  b.add_net({0, 1, 2});
  b.set_node_size(1, 5);
  EXPECT_THROW(b.set_node_size(0, 0), std::invalid_argument);
  EXPECT_THROW(b.set_node_size(9, 1), std::out_of_range);
  const Hypergraph g = std::move(b).build();
  EXPECT_EQ(g.node_size(1), 5);
  EXPECT_EQ(g.total_node_size(), 7);
  EXPECT_FALSE(g.unit_node_sizes());
}

TEST(Builder, UnitFlagsDetected) {
  HypergraphBuilder b(3);
  b.add_net({0, 1});
  b.add_net({1, 2}, 2.0);
  const Hypergraph g = std::move(b).build();
  EXPECT_FALSE(g.unit_net_costs());
  EXPECT_TRUE(g.unit_node_sizes());
  EXPECT_DOUBLE_EQ(g.net_cost(1), 2.0);
}

TEST(Builder, MaxDegreeAndNetSize) {
  HypergraphBuilder b(4);
  b.add_net({0, 1, 2, 3});
  b.add_net({0, 1});
  b.add_net({0, 2});
  const Hypergraph g = std::move(b).build();
  EXPECT_EQ(g.max_degree(), 3u);  // node 0
  EXPECT_EQ(g.max_net_size(), 4u);
}

/// build_clean() on nets that are already clean builds the graph build()
/// builds from the same nets: same CSR both ways, costs, node data and
/// summary fields.
TEST(Builder, BuildCleanEqualsBuildOnCleanNets) {
  const std::vector<std::vector<NodeId>> nets = {
      {0, 1, 2, 3}, {1, 4}, {0, 2}, {3, 4, 5}};
  const std::vector<double> costs = {1.0, 2.5, 1.0, 3.0};
  HypergraphBuilder plain(6);
  HypergraphBuilder clean(6);
  std::vector<std::size_t> offsets{0};
  std::vector<NodeId> pins;
  for (std::size_t j = 0; j < nets.size(); ++j) {
    plain.add_net(nets[j], costs[j]);
    pins.insert(pins.end(), nets[j].begin(), nets[j].end());
    offsets.push_back(pins.size());
  }
  for (HypergraphBuilder* b : {&plain, &clean}) {
    b->set_node_size(2, 7);
    b->set_name("clean");
  }
  const Hypergraph want = std::move(plain).build();
  const Hypergraph got = std::move(clean).build_clean(offsets, pins, costs);

  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_nets(), want.num_nets());
  for (NetId n = 0; n < want.num_nets(); ++n) {
    EXPECT_TRUE(std::ranges::equal(got.pins_of(n), want.pins_of(n)));
    EXPECT_EQ(got.net_cost(n), want.net_cost(n));
  }
  for (NodeId u = 0; u < want.num_nodes(); ++u) {
    EXPECT_TRUE(std::ranges::equal(got.nets_of(u), want.nets_of(u)));
    EXPECT_EQ(got.node_size(u), want.node_size(u));
  }
  EXPECT_EQ(got.name(), want.name());
  EXPECT_EQ(got.total_node_size(), want.total_node_size());
  EXPECT_EQ(got.unit_net_costs(), want.unit_net_costs());
  EXPECT_EQ(got.unit_node_sizes(), want.unit_node_sizes());
  EXPECT_EQ(got.max_degree(), want.max_degree());
  EXPECT_EQ(got.max_net_size(), want.max_net_size());
}

TEST(Builder, BuildCleanRejectsMismatchedInput) {
  {
    HypergraphBuilder b(3);
    b.add_net({0, 1});
    EXPECT_THROW(std::move(b).build_clean({0, 2}, {1, 2}, {1.0}),
                 std::logic_error);
  }
  {
    HypergraphBuilder b(3);
    EXPECT_THROW(std::move(b).build_clean({0, 2}, {1, 2}, {1.0, 1.0}),
                 std::invalid_argument);
  }
  {
    HypergraphBuilder b(3);
    EXPECT_THROW(std::move(b).build_clean({0, 3}, {1, 2}, {1.0}),
                 std::invalid_argument);
  }
}

/// Every node's nets_of list is strictly ascending by net id.  The PROP
/// gain sweeps rely on it: a node-major gain sum over nets_of(u) then adds
/// its per-net terms in the order a net-major sweep would (DESIGN.md §4f).
void expect_nets_of_ascending(const Hypergraph& g, const char* what) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nets = g.nets_of(u);
    const auto bad = std::adjacent_find(nets.begin(), nets.end(),
                                        [](NetId a, NetId b) { return a >= b; });
    ASSERT_EQ(bad, nets.end()) << what << ": node " << u;
  }
}

TEST(Builder, NetsOfIsAscendingOnGeneratedAndContractedGraphs) {
  {
    // Pins given out of order and repeated.
    HypergraphBuilder b(5);
    b.add_net({4, 0, 2, 0});
    b.add_net({3, 1, 4});
    b.add_net({2, 4, 1, 2});
    b.add_net({0, 4});
    expect_nets_of_ascending(std::move(b).build(), "hand-built");
  }
  Rng rng(29);
  for (const std::uint64_t seed : {3ULL, 17ULL, 41ULL}) {
    const Hypergraph g = generate_circuit({"asc", 600, 640, 2300}, seed);
    expect_nets_of_ascending(g, "generated");
    for (const NodeId clusters : {NodeId{300}, NodeId{60}, NodeId{7}}) {
      std::vector<NodeId> cluster_of(g.num_nodes());
      for (auto& c : cluster_of) c = static_cast<NodeId>(rng.bounded(clusters));
      expect_nets_of_ascending(contract(g, cluster_of, clusters).coarse,
                               "contracted");
    }
  }
}

TEST(Stats, MatchesPaperDefinitions) {
  HypergraphBuilder b(4);
  b.add_net({0, 1});
  b.add_net({0, 1, 2, 3});
  const Hypergraph g = std::move(b).build();
  const HypergraphStats s = compute_stats(g);
  EXPECT_EQ(s.num_pins, 6u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 6.0 / 4.0);      // p
  EXPECT_DOUBLE_EQ(s.avg_net_size, 3.0);          // q
  EXPECT_DOUBLE_EQ(s.avg_neighbors, 1.5 * 2.0);   // d = p(q-1)
  EXPECT_EQ(s.single_pin_nets, 0u);
}

TEST(Stats, CountsSinglePinNets) {
  HypergraphBuilder b(2);
  b.add_net({0});
  b.add_net({0, 1});
  const Hypergraph g = std::move(b).build();
  EXPECT_EQ(compute_stats(g).single_pin_nets, 1u);
}

}  // namespace
}  // namespace prop
