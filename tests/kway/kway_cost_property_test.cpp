// Randomized cost-consistency property (paper Eqn. 1 generalized): the
// standalone kway_cut_cost (partition/recursive.h), KWayState's
// incrementally-maintained cut/connectivity costs, and the from-scratch
// verify_costs recomputation must agree on weighted random hypergraphs
// through arbitrary move sequences — under both objectives' definitions.
#include <gtest/gtest.h>

#include <vector>

#include "hypergraph/builder.h"
#include "partition/kway_state.h"
#include "partition/recursive.h"
#include "testutil.h"
#include "util/rng.h"

namespace prop {
namespace {

/// Random hypergraph with non-unit net costs and node sizes.
Hypergraph weighted_random_circuit(std::uint64_t seed, NodeId nodes,
                                   NetId nets) {
  Rng rng(seed);
  HypergraphBuilder b(nodes);
  b.set_name("weighted");
  for (NodeId u = 0; u < nodes; ++u) {
    b.set_node_size(u, 1 + static_cast<std::int64_t>(rng.bounded(4)));
  }
  for (NetId n = 0; n < nets; ++n) {
    const std::size_t arity = 2 + rng.bounded(5);
    std::vector<NodeId> pins;
    for (std::size_t i = 0; i < arity; ++i) {
      pins.push_back(static_cast<NodeId>(rng.bounded(nodes)));
    }
    const double cost = 0.5 + 0.25 * static_cast<double>(rng.bounded(10));
    b.add_net(pins, cost);
  }
  return std::move(b).build();
}

TEST(KWayCostProperty, StateMatchesStandaloneAndScratchUnderRandomMoves) {
  for (const std::uint64_t seed : {101ull, 102ull, 103ull}) {
    const Hypergraph g = weighted_random_circuit(seed, 120, 170);
    Rng rng(seed * 7);
    for (const NodeId k : {NodeId{2}, NodeId{4}, NodeId{7}}) {
      std::vector<NodeId> part(g.num_nodes());
      for (auto& p : part) p = static_cast<NodeId>(rng.bounded(k));
      KWayState state(g, part, k);

      for (int moves = 0; moves < 300; ++moves) {
        const NodeId u = static_cast<NodeId>(rng.bounded(g.num_nodes()));
        const NodeId to = static_cast<NodeId>(rng.bounded(k));
        state.move(u, to);
        part[u] = to;
        if (moves % 50 != 0) continue;
        // Standalone cut (counts nets spanning >= 2 parts) vs incremental.
        EXPECT_NEAR(state.cut_cost(), kway_cut_cost(g, part), 1e-9);
        // From-scratch recompute of both objectives vs incremental.
        double cut = 0.0;
        double conn = 0.0;
        state.verify_costs(&cut, &conn);
        EXPECT_NEAR(state.cut_cost(), cut, 1e-9);
        EXPECT_NEAR(state.connectivity_cost(), conn, 1e-9);
        // Connectivity dominates cut (lambda - 1 >= 1 on every cut net)
        // and collapses to it exactly at k = 2.
        EXPECT_GE(state.connectivity_cost(), state.cut_cost() - 1e-9);
        if (k == 2) {
          EXPECT_NEAR(state.connectivity_cost(), state.cut_cost(), 1e-9);
        }
      }
    }
  }
}

TEST(KWayCostProperty, GainsPredictCostDeltasOnWeightedNets) {
  const Hypergraph g = weighted_random_circuit(109, 90, 140);
  Rng rng(110);
  const NodeId k = 5;
  std::vector<NodeId> part(g.num_nodes());
  for (auto& p : part) p = static_cast<NodeId>(rng.bounded(k));
  KWayState state(g, part, k);
  for (int trial = 0; trial < 250; ++trial) {
    const NodeId u = static_cast<NodeId>(rng.bounded(g.num_nodes()));
    const NodeId to = static_cast<NodeId>(rng.bounded(k));
    const double cut_before = state.cut_cost();
    const double conn_before = state.connectivity_cost();
    const double cg = state.cut_gain(u, to);
    const double kg = state.connectivity_gain(u, to);
    state.move(u, to);
    EXPECT_NEAR(state.cut_cost(), cut_before - cg, 1e-9);
    EXPECT_NEAR(state.connectivity_cost(), conn_before - kg, 1e-9);
  }
  double cut = 0.0;
  double conn = 0.0;
  state.verify_costs(&cut, &conn);
  EXPECT_NEAR(state.cut_cost(), cut, 1e-9);
  EXPECT_NEAR(state.connectivity_cost(), conn, 1e-9);
}

TEST(KWayCostProperty, SinglePartAndSpreadExtremes) {
  const Hypergraph g = weighted_random_circuit(113, 60, 80);
  // Everything in one part: zero cut, zero connectivity.
  const KWayState together(g, std::vector<NodeId>(g.num_nodes(), 2), 4);
  EXPECT_DOUBLE_EQ(together.cut_cost(), 0.0);
  EXPECT_DOUBLE_EQ(together.connectivity_cost(), 0.0);
  EXPECT_DOUBLE_EQ(kway_cut_cost(g, std::vector<NodeId>(g.num_nodes(), 2)),
                   0.0);
  // One part per node (k = n): every net with >= 2 distinct pins is cut
  // with lambda = its distinct-pin count.
  std::vector<NodeId> spread(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) spread[u] = u;
  const KWayState apart(g, spread, g.num_nodes());
  double cut = 0.0;
  double conn = 0.0;
  apart.verify_costs(&cut, &conn);
  EXPECT_NEAR(apart.cut_cost(), cut, 1e-9);
  EXPECT_NEAR(apart.connectivity_cost(), conn, 1e-9);
  EXPECT_NEAR(kway_cut_cost(g, spread), apart.cut_cost(), 1e-9);
}

}  // namespace
}  // namespace prop
