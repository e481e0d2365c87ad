// Parameterized property sweep over every iterative-improvement refiner:
// the invariants that make a pass engine correct, checked for each
// (algorithm, circuit) combination.
//
//   * a refine call never increases the cut;
//   * the claimed cut matches a from-scratch recomputation;
//   * balance holds afterwards;
//   * refinement is idempotent at convergence (a second call gains ~0);
//   * results are deterministic given the same starting partition.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "core/prop_partitioner.h"
#include "fm/fm_partitioner.h"
#include "hypergraph/generator.h"
#include "kl/kl_partitioner.h"
#include "la/la_partitioner.h"
#include "partition/initial.h"
#include "testutil.h"
#include "util/rng.h"

namespace prop {
namespace {

using RefineFn = std::function<RefineOutcome(Partition&, const BalanceConstraint&)>;

struct RefinerCase {
  std::string name;
  RefineFn refine;
};

RefinerCase make_case(const std::string& name) {
  if (name == "fm_bucket") {
    return {name, [](Partition& p, const BalanceConstraint& b) {
              return fm_refine(p, b, {FmStructure::kBucket});
            }};
  }
  if (name == "fm_tree") {
    return {name, [](Partition& p, const BalanceConstraint& b) {
              return fm_refine(p, b, {FmStructure::kTree});
            }};
  }
  if (name == "la2") {
    return {name, [](Partition& p, const BalanceConstraint& b) {
              return la_refine(p, b, {2});
            }};
  }
  if (name == "la3") {
    return {name, [](Partition& p, const BalanceConstraint& b) {
              return la_refine(p, b, {3});
            }};
  }
  if (name == "kl") {
    return {name, [](Partition& p, const BalanceConstraint& b) {
              return kl_refine(p, b);
            }};
  }
  return {name, [](Partition& p, const BalanceConstraint& b) {
            return prop_refine(p, b);
          }};
}

class RefinerProperties
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
 protected:
  RefinerCase refiner() const { return make_case(std::get<0>(GetParam())); }
  std::uint64_t circuit_seed() const { return std::get<1>(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    AllRefinersTimesCircuits, RefinerProperties,
    ::testing::Combine(::testing::Values("fm_bucket", "fm_tree", "la2", "la3",
                                         "kl", "prop"),
                       ::testing::Values(1001, 1002, 1003)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_c" +
             std::to_string(std::get<1>(info.param));
    });

TEST_P(RefinerProperties, NeverIncreasesCutAndStaysBalancedAndConsistent) {
  const Hypergraph g = testing::small_random_circuit(circuit_seed());
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  Rng rng(circuit_seed());
  Partition part(g, random_balanced_sides(g, balance, rng));
  const double initial = part.cut_cost();

  const RefineOutcome out = refiner().refine(part, balance);
  EXPECT_LE(out.cut_cost, initial);
  EXPECT_NEAR(out.cut_cost, part.recompute_cut_cost(), 1e-9);
  EXPECT_TRUE(balance.feasible(part.side_size(0)));
  EXPECT_GE(out.passes, 1);
}

TEST_P(RefinerProperties, IdempotentAtConvergence) {
  const Hypergraph g = testing::small_random_circuit(circuit_seed());
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  Rng rng(circuit_seed() + 7);
  Partition part(g, random_balanced_sides(g, balance, rng));
  const RefinerCase r = refiner();
  const RefineOutcome first = r.refine(part, balance);
  const RefineOutcome second = r.refine(part, balance);
  // Converged means a second invocation finds (almost) nothing: PROP's
  // probabilistic selection may occasionally shave one more net, but never
  // regress.
  EXPECT_LE(second.cut_cost, first.cut_cost);
  EXPECT_GE(second.cut_cost, first.cut_cost - 3.0);
}

TEST_P(RefinerProperties, DeterministicFromSameStart) {
  const Hypergraph g = testing::small_random_circuit(circuit_seed());
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  Rng rng(circuit_seed() + 13);
  const auto start = random_balanced_sides(g, balance, rng);
  Partition a(g, start);
  Partition b(g, start);
  const RefinerCase r = refiner();
  const RefineOutcome oa = r.refine(a, balance);
  const RefineOutcome ob = r.refine(b, balance);
  EXPECT_DOUBLE_EQ(oa.cut_cost, ob.cut_cost);
  EXPECT_EQ(a.sides(), b.sides());
}

/// Generator sweep: exact spec adherence across a grid of shapes.
class GeneratorSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeneratorSweep,
    ::testing::Values(std::make_tuple(100, 120, 400),
                      std::make_tuple(500, 400, 1400),
                      std::make_tuple(1000, 1300, 4500),
                      std::make_tuple(64, 200, 700),
                      std::make_tuple(2000, 2000, 7000)),
    [](const auto& info) {
      return std::string("n") + std::to_string(std::get<0>(info.param)) +
             "_e" + std::to_string(std::get<1>(info.param));
    });

TEST_P(GeneratorSweep, ExactCountsNoIsolatedNodes) {
  const auto [n, e, pins] = GetParam();
  const CircuitSpec spec{"sweep", static_cast<NodeId>(n),
                         static_cast<NetId>(e), static_cast<std::size_t>(pins)};
  const Hypergraph g = generate_circuit(spec, 42);
  EXPECT_EQ(g.num_nodes(), static_cast<NodeId>(n));
  EXPECT_EQ(g.num_nets(), static_cast<NetId>(e));
  EXPECT_EQ(g.num_pins(), static_cast<std::size_t>(pins));
  for (NodeId u = 0; u < g.num_nodes(); ++u) EXPECT_GE(g.degree(u), 1u);
  for (NetId net = 0; net < g.num_nets(); ++net) EXPECT_GE(g.net_size(net), 2u);
}

}  // namespace
}  // namespace prop
