#include "partition/kway_state.h"

#include <gtest/gtest.h>

#include "hypergraph/builder.h"
#include "partition/partition.h"
#include "testutil.h"
#include "util/rng.h"

namespace prop {
namespace {

Hypergraph triangle_nets() {
  HypergraphBuilder b(6);
  b.add_net({0, 1, 2});
  b.add_net({3, 4, 5});
  b.add_net({2, 3});
  b.add_net({0, 5});
  return std::move(b).build();
}

TEST(KWayState, InitialCosts) {
  const Hypergraph g = triangle_nets();
  KWayState s(g, {0, 0, 0, 1, 1, 2}, 3);
  // Net {0,1,2} in part 0; {3,4,5} spans {1,2}; {2,3} spans {0,1};
  // {0,5} spans {0,2}.
  EXPECT_DOUBLE_EQ(s.cut_cost(), 3.0);
  EXPECT_DOUBLE_EQ(s.connectivity_cost(), 3.0);
  EXPECT_EQ(s.spanned(0), 1u);
  EXPECT_EQ(s.spanned(1), 2u);
  EXPECT_EQ(s.part_size(0), 3);
  EXPECT_EQ(s.part_size(2), 1);
}

TEST(KWayState, MoveUpdatesCosts) {
  const Hypergraph g = triangle_nets();
  KWayState s(g, {0, 0, 0, 1, 1, 2}, 3);
  s.move(5, 1);  // {3,4,5} becomes internal to 1; {0,5} now spans {0,1}
  EXPECT_DOUBLE_EQ(s.cut_cost(), 2.0);
  double cut = 0.0;
  double conn = 0.0;
  s.verify_costs(&cut, &conn);
  EXPECT_DOUBLE_EQ(s.cut_cost(), cut);
  EXPECT_DOUBLE_EQ(s.connectivity_cost(), conn);
}

TEST(KWayState, GainsMatchMoveDeltas) {
  const Hypergraph g = testing::small_random_circuit(501);
  Rng rng(501);
  const NodeId k = 4;
  std::vector<NodeId> part(g.num_nodes());
  for (auto& p : part) p = static_cast<NodeId>(rng.bounded(k));
  KWayState s(g, part, k);

  for (int trial = 0; trial < 400; ++trial) {
    const NodeId u = static_cast<NodeId>(rng.bounded(g.num_nodes()));
    const NodeId to = static_cast<NodeId>(rng.bounded(k));
    const double cut_before = s.cut_cost();
    const double conn_before = s.connectivity_cost();
    const double cg = s.cut_gain(u, to);
    const double kg = s.connectivity_gain(u, to);
    s.move(u, to);
    EXPECT_NEAR(s.cut_cost(), cut_before - cg, 1e-9);
    EXPECT_NEAR(s.connectivity_cost(), conn_before - kg, 1e-9);
  }
  double cut = 0.0;
  double conn = 0.0;
  s.verify_costs(&cut, &conn);
  EXPECT_NEAR(s.cut_cost(), cut, 1e-9);
  EXPECT_NEAR(s.connectivity_cost(), conn, 1e-9);
}

TEST(KWayState, TwoWayMatchesPartition) {
  const Hypergraph g = testing::small_random_circuit(503);
  Rng rng(503);
  std::vector<NodeId> part(g.num_nodes());
  std::vector<std::uint8_t> sides(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    part[u] = rng.chance(0.5) ? 1 : 0;
    sides[u] = static_cast<std::uint8_t>(part[u]);
  }
  const KWayState s(g, part, 2);
  const Partition p(g, sides);
  EXPECT_DOUBLE_EQ(s.cut_cost(), p.cut_cost());
  EXPECT_DOUBLE_EQ(s.connectivity_cost(), p.cut_cost());  // lambda <= 2
}

TEST(KWayState, RejectsBadInput) {
  const Hypergraph g = triangle_nets();
  EXPECT_THROW(KWayState(g, {0, 0, 0}, 2), std::invalid_argument);
  EXPECT_THROW(KWayState(g, {0, 0, 0, 0, 0, 9}, 3), std::invalid_argument);
  EXPECT_THROW(KWayState(g, std::vector<NodeId>(6, 0), 0), std::invalid_argument);
}

}  // namespace
}  // namespace prop
