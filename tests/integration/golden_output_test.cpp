// Cross-commit golden outputs: FNV-1a digests of the returned sides and of
// the timing-free stats-json bytes for a fixed set of PROP runs.  Every
// other determinism test compares two runs of the same build; this one pins
// the bytes themselves, so a refactor that claims "same partitions, same
// stats" is checked against values recorded before the refactor.  A change
// that legitimately moves a trajectory must re-record the digests below and
// say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/prop_partitioner.h"
#include "hypergraph/generator.h"
#include "hypergraph/mcnc_suite.h"
#include "kway/kway_prop_refiner.h"
#include "kway/kway_refine.h"
#include "multilevel/coarsening.h"
#include "multilevel/multilevel_driver.h"
#include "multilevel/multilevel_kway.h"
#include "partition/kway_balance.h"
#include "partition/runner.h"
#include "service/algo_factory.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"

namespace prop {
namespace {

std::uint64_t fnv1a(const void* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Golden {
  std::uint64_t sides;
  std::uint64_t stats;
};

/// One run_many call at 45-55 with telemetry; digests the best sides and
/// the timing-free stats-json.
void expect_golden(Bipartitioner& algo, const Hypergraph& g,
                   std::uint64_t seed, const Golden& want) {
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  RunnerOptions options;
  options.collect_telemetry = true;
  const MultiRunResult result = run_many(algo, g, balance, 1, seed, options);
  std::ostringstream out;
  StatsJsonOptions json;
  json.include_timing = false;
  write_stats_json(out, g.name(), algo.name(), result, json);
  const std::string stats = out.str();
  const std::vector<std::uint8_t>& side = result.best.side;
  const std::uint64_t sides = fnv1a(side.data(), side.size());
  EXPECT_EQ(hex(sides), hex(want.sides))
      << g.name() << " " << algo.name() << " seed " << seed << " cut "
      << result.best.cut_cost;
  EXPECT_EQ(hex(fnv1a(stats.data(), stats.size())), hex(want.stats))
      << g.name() << " " << algo.name() << " seed " << seed;
}

/// Sides of unaudited flat PROP on balu, seed 1.  The audited run in
/// FlatPropConfigVariants must return the same sides: the auditor only reads
/// state.
constexpr std::uint64_t kBaluSeed1Sides = 0xf01ec66084403eacULL;

TEST(GoldenOutput, FlatPropFortyFive) {
  struct Case {
    const char* circuit;
    std::uint64_t seed;
    Golden want;
  };
  const Case cases[] = {
      {"balu", 1, {kBaluSeed1Sides, 0x4d08e66e02587290ULL}},
      {"balu", 2, {0x150eabcfea90b8d4ULL, 0xa6d97e15241426a9ULL}},
      {"balu", 3, {0x62607cd36d93e065ULL, 0xbbc1c41f8ba99076ULL}},
      {"p2", 1, {0x772b54c2849d96aeULL, 0x87ee2c34055f0c2bULL}},
      {"p2", 2, {0x3ffd715c23b33e27ULL, 0x6bb36906e528b806ULL}},
      {"p2", 3, {0x4e0854bc88682c6fULL, 0x0d734eb54375238cULL}},
  };
  PropPartitioner algo;
  for (const Case& c : cases) {
    const Hypergraph g = make_mcnc_circuit(c.circuit);
    expect_golden(algo, g, c.seed, c.want);
  }
}

/// PropConfig variants that take other paths through the 2-way pass engine:
/// the scratch and shadow gain engines (node-major bootstrap, full
/// emission), the deterministic-gain bootstrap, and the invariant auditor,
/// which records drift but must leave the sides of the unaudited run.
TEST(GoldenOutput, FlatPropConfigVariants) {
  struct Case {
    const char* label;
    PropConfig config;
    Golden want;
  };
  PropConfig scratch;
  scratch.gain_engine = GainEngine::kScratch;
  PropConfig shadow;
  shadow.gain_engine = GainEngine::kShadow;
  PropConfig gain_bootstrap;
  gain_bootstrap.bootstrap = PropBootstrap::kDeterministicGain;
  PropConfig audited;
  audited.audit_interval = 40;
  const Case cases[] = {
      {"scratch", scratch, {0x1c0e0c5e6df5715dULL, 0xc225b22e6ee719c8ULL}},
      {"shadow", shadow, {0x1c0e0c5e6df5715dULL, 0xc225b22e6ee719c8ULL}},
      {"gain-bootstrap",
       gain_bootstrap,
       {0x17e3120c619dc9f4ULL, 0x57c23fa5de8ac944ULL}},
      {"audit", audited, {kBaluSeed1Sides, 0xea5ffae217eeb4a8ULL}},
  };
  const Hypergraph g = make_mcnc_circuit("balu");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    PropPartitioner algo(c.config);
    expect_golden(algo, g, 1, c.want);
  }
}

/// Flat 2-way PROP at 45-55 on a graph with non-unit node sizes (the first
/// contracted level of synth10000), where side selection walks the gain
/// trees past balance-infeasible nodes instead of taking the maximum.
TEST(GoldenOutput, FlatPropWeightedNodes) {
  const Hypergraph fine =
      generate_circuit(scaled_spec("synth10000", 10000), kSuiteSeed);
  const std::deque<CoarseLevel> levels =
      coarsen(fine, 1, CoarseningConfig{}, 2, nullptr);
  ASSERT_FALSE(levels.empty());
  const Hypergraph& g = levels.front().graph;
  ASSERT_FALSE(g.unit_node_sizes());
  PropPartitioner algo;
  expect_golden(algo, g, 1, {0x7db737cda36921aeULL, 0xae87ddc50c170e36ULL});
}

/// kway_prop_refine called directly, from a greedy-legalized random start
/// on p1: digests the returned parts and the outcome plus the timing-free
/// pass telemetry, for each gain engine at k = 3 and k = 8.
TEST(GoldenOutput, KWayPropRefineEngines) {
  struct Case {
    const char* label;
    NodeId k;
    GainEngine engine;
    KWayObjective objective;
    Golden want;
  };
  const Case cases[] = {
      {"k3-cached-cut", 3, GainEngine::kCached, KWayObjective::kCut,
       {0x96685943c5afb236ULL, 0xd0e87b22c393b3e5ULL}},
      {"k3-scratch-cut", 3, GainEngine::kScratch, KWayObjective::kCut,
       {0xe7addc99f26532e6ULL, 0xd79cdf764b7ab889ULL}},
      {"k3-shadow-cut", 3, GainEngine::kShadow, KWayObjective::kCut,
       {0xe7addc99f26532e6ULL, 0xd79cdf764b7ab889ULL}},
      {"k8-cached-connectivity", 8, GainEngine::kCached,
       KWayObjective::kConnectivity,
       {0xd4362793444b5755ULL, 0xb8cb5e801b3a3be8ULL}},
      {"k8-scratch-connectivity", 8, GainEngine::kScratch,
       KWayObjective::kConnectivity,
       {0xaf87dcdf4baccd21ULL, 0x902c3251bf88d1f2ULL}},
      {"k8-shadow-connectivity", 8, GainEngine::kShadow,
       KWayObjective::kConnectivity,
       {0xaf87dcdf4baccd21ULL, 0x902c3251bf88d1f2ULL}},
  };
  const Hypergraph g = make_mcnc_circuit("p1");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    Rng rng(mix_seed(7, c.k));
    std::vector<NodeId> part(g.num_nodes());
    for (auto& p : part) p = static_cast<NodeId>(rng.bounded(c.k));
    KWayRefineConfig greedy;
    greedy.objective = c.objective;
    kway_refine(g, part, c.k, 7, greedy);

    RefineTelemetry telemetry;
    KWayPropConfig config;
    config.gain_engine = c.engine;
    config.objective = c.objective;
    config.telemetry = &telemetry;
    const KWayBalanceWindow window = kway_part_window(
        g.total_node_size(), c.k, 0.1, kway_max_node_size(g));
    const KWayPropOutcome out = kway_prop_refine(g, part, c.k, window, config);

    std::ostringstream stats;
    char costs[96];
    std::snprintf(costs, sizeof costs, "%.17g %.17g %d ", out.cut_cost,
                  out.connectivity_cost, out.passes);
    stats << costs;
    write_json(stats, telemetry, /*include_timing=*/false);
    const std::string text = stats.str();
    EXPECT_EQ(hex(fnv1a(part.data(), part.size() * sizeof(NodeId))),
              hex(c.want.sides))
        << "cut " << out.cut_cost << " connectivity "
        << out.connectivity_cost;
    EXPECT_EQ(hex(fnv1a(text.data(), text.size())), hex(c.want.stats));
  }
}

TEST(GoldenOutput, MultilevelFmSynthetic) {
  const Hypergraph g =
      generate_circuit(scaled_spec("synth10000", 10000), kSuiteSeed);
  MultilevelConfig config;
  config.refiner = MlRefiner::kFm;
  MultilevelPartitioner algo(config);
  expect_golden(algo, g, 1, {0x4eab429c8c360c3aULL, 0x8da80d4378128147ULL});
}

TEST(GoldenOutput, MultilevelPropSynthetic) {
  const Hypergraph g =
      generate_circuit(scaled_spec("synth10000", 10000), kSuiteSeed);
  MultilevelPartitioner algo{MultilevelConfig{}};
  expect_golden(algo, g, 1, {0x41980cdeaff404dfULL, 0xc0e0c4d200caa00dULL});
}

TEST(GoldenOutput, FlatKWayPipelineK4) {
  const Hypergraph g = make_mcnc_circuit("p1");
  const auto algo = service::make_kway_algo("prop", 4);
  ASSERT_NE(algo, nullptr);
  expect_golden(*algo, g, 1, {0x9b028e056a7b520dULL, 0x339504122ba1ce6aULL});
}

TEST(GoldenOutput, MultilevelKWayPropK8) {
  const Hypergraph g = make_mcnc_circuit("p1");
  MultilevelKWayConfig config;
  config.k = 8;
  MultilevelKWayPartitioner algo(config);
  expect_golden(algo, g, 1, {0x9865f6c3454eaff7ULL, 0xbb33568303c7d298ULL});
}

/// The k-way V-cycle's other refine stages: greedy only, none (projection
/// of the coarsest solve), and PROP on the cut objective.
TEST(GoldenOutput, MultilevelKWayConfigVariants) {
  struct Case {
    const char* label;
    KWayRefinerKind refiner;
    KWayObjective objective;
    Golden want;
  };
  const Case cases[] = {
      {"greedy-connectivity", KWayRefinerKind::kGreedy,
       KWayObjective::kConnectivity,
       {0x717ca6fc72d264a2ULL, 0xba4050807a1f0398ULL}},
      {"none-connectivity", KWayRefinerKind::kNone,
       KWayObjective::kConnectivity,
       {0x5c292034d17d130dULL, 0xc80e6b26a53ff7daULL}},
      {"prop-cut", KWayRefinerKind::kProp, KWayObjective::kCut,
       {0xcfc9a02f0b104460ULL, 0xfa51c407f3a0d687ULL}},
  };
  const Hypergraph g = make_mcnc_circuit("p1");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    MultilevelKWayConfig config;
    config.k = 8;
    config.refiner = c.refiner;
    config.objective = c.objective;
    MultilevelKWayPartitioner algo(config);
    expect_golden(algo, g, 1, c.want);
  }
}

}  // namespace
}  // namespace prop
