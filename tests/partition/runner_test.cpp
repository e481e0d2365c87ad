// Multi-start runner unit tests: the pinned per-run seed derivation, the
// wall/CPU timing split and its deprecated aliases, and the stats-JSON
// serialization (round-trip double precision, timing exclusion, escaped
// names).
#include "partition/runner.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "fm/fm_partitioner.h"
#include "json_round_trip.h"
#include "service/json.h"
#include "testutil.h"
#include "util/rng.h"

namespace prop {
namespace {

// Extracts the literal token following `"key":` in a serialized JSON object.
std::string json_value(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return {};
  auto end = pos + needle.size();
  while (end < json.size() && json[end] != ',' && json[end] != '}' &&
         json[end] != ']') {
    ++end;
  }
  return json.substr(pos + needle.size(), end - pos - needle.size());
}

// The per-run seed schedule is part of the determinism contract: the i-th
// run's seed is mix_seed(base, i) on every path and thread count.  These
// literals pin the SplitMix64 derivation itself — a change to the mixer
// would silently invalidate every recorded experiment.
TEST(RunnerSeeds, SplitMixDerivationIsPinned) {
  EXPECT_EQ(mix_seed(1, 0), 0x5e41ab087439611eULL);
  EXPECT_EQ(mix_seed(1, 1), 0xe9fd6049d65af21eULL);
  EXPECT_EQ(mix_seed(1, 2), 0xbcd9dbb49673066bULL);
  EXPECT_EQ(mix_seed(1, 3), 0x86d6fd953217ae03ULL);
  EXPECT_EQ(mix_seed(0xDEADBEEF, 0), 0x1ed543473e16964cULL);
  EXPECT_EQ(mix_seed(0xDEADBEEF, 1), 0x1b7ffc89650b38b7ULL);
}

TEST(RunnerSeeds, RecordsCarryTheMixedSeedSequence) {
  const Hypergraph g = testing::chain_of_blocks(4, 8);
  FmPartitioner fm;
  const MultiRunResult r =
      run_many(fm, g, BalanceConstraint::fifty_fifty(g), 4, 1);
  ASSERT_EQ(r.records.size(), 4u);
  EXPECT_EQ(r.records[0].seed, 0x5e41ab087439611eULL);
  EXPECT_EQ(r.records[1].seed, 0xe9fd6049d65af21eULL);
  EXPECT_EQ(r.records[2].seed, 0xbcd9dbb49673066bULL);
  EXPECT_EQ(r.records[3].seed, 0x86d6fd953217ae03ULL);
  // best_seed is one of the run seeds, and it reproduces best_cut solo.
  FmPartitioner again;
  const RunOutcome solo =
      run_checked(again, g, BalanceConstraint::fifty_fifty(g), r.best_seed);
  ASSERT_TRUE(solo.has_result());
  EXPECT_EQ(solo.result.cut_cost, r.best_cut());
}

// The deprecated timing aliases (RunRecord::seconds, total_seconds,
// seconds_per_run) are gone; RunTelemetry::seconds is not an alias and stays.
template <class T>
constexpr bool kHasSeconds = requires(const T& t) { t.seconds; };
template <class T>
constexpr bool kHasTotalSeconds = requires(const T& t) { t.total_seconds; };
template <class T>
constexpr bool kHasSecondsPerRun = requires(const T& t) { t.seconds_per_run; };
static_assert(!kHasSeconds<RunRecord>);
static_assert(!kHasTotalSeconds<MultiRunResult>);
static_assert(!kHasSecondsPerRun<MultiRunResult>);
static_assert(kHasSeconds<RunTelemetry>);

TEST(RunnerTiming, WallAndCpuFieldsAreSplit) {
  const Hypergraph g = testing::chain_of_blocks(4, 8);
  FmPartitioner fm;
  const MultiRunResult r =
      run_many(fm, g, BalanceConstraint::fifty_fifty(g), 3, 1);
  EXPECT_GT(r.total_wall_seconds, 0.0);
  EXPECT_GE(r.total_cpu_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.wall_seconds_per_run, r.total_wall_seconds / 3);
  EXPECT_DOUBLE_EQ(r.cpu_seconds_per_run, r.total_cpu_seconds / 3);
  double cpu_sum = 0.0;
  for (const RunRecord& rec : r.records) {
    EXPECT_GE(rec.wall_seconds, 0.0);
    EXPECT_GE(rec.cpu_seconds, 0.0);
    cpu_sum += rec.cpu_seconds;
  }
  EXPECT_DOUBLE_EQ(r.total_cpu_seconds, cpu_sum);
}

TEST(RunnerStatsJson, DoublesRoundTripAtFullPrecision) {
  // 0.1 + 0.2 and 1/3 are classic prints that truncate at the stream
  // default of 6 significant digits; every double must survive a
  // serialize -> strtod round trip bit-for-bit.
  MultiRunResult r;
  r.best.side = {0, 1};
  r.best.cut_cost = 0.1 + 0.2;
  r.best_seed = 42;
  r.runs_requested = 1;
  RunRecord rec;
  rec.seed = 42;
  rec.cut = 1.0 / 3.0;
  rec.wall_seconds = 0.123456789012345678;
  rec.cpu_seconds = 1e-9 + 1e-18;
  r.records.push_back(rec);

  std::ostringstream out;
  write_stats_json(out, "c", "a", r);
  const std::string json = out.str();
  EXPECT_TRUE(testing::json_round_trips(json));

  EXPECT_EQ(std::strtod(json_value(json, "best_cut").c_str(), nullptr),
            0.1 + 0.2);
  EXPECT_EQ(std::strtod(json_value(json, "cut").c_str(), nullptr), 1.0 / 3.0);
  EXPECT_EQ(std::strtod(json_value(json, "wall_seconds").c_str(), nullptr),
            rec.wall_seconds);
  EXPECT_EQ(std::strtod(json_value(json, "cpu_seconds").c_str(), nullptr),
            rec.cpu_seconds);
}

TEST(RunnerStatsJson, TimingKeysAreGatedByOptions) {
  const Hypergraph g = testing::chain_of_blocks(3, 6);
  FmPartitioner fm;
  RunnerOptions options;
  options.collect_telemetry = true;
  const MultiRunResult r =
      run_many(fm, g, BalanceConstraint::fifty_fifty(g), 2, 9, options);

  std::ostringstream with_timing;
  write_stats_json(with_timing, "c", "fm", r);
  const std::string timed = with_timing.str();
  EXPECT_TRUE(testing::json_round_trips(timed));
  for (const char* key :
       {"total_wall_seconds", "total_cpu_seconds", "wall_seconds_per_run",
        "cpu_seconds_per_run", "wall_seconds", "cpu_seconds"}) {
    EXPECT_NE(timed.find(std::string("\"") + key + "\":"), std::string::npos)
        << key;
  }
  // The retired aliases are not written.  The first "seconds" key is in
  // runs[] (RunTelemetry's CPU seconds), so run_records carry none.
  for (const char* key : {"total_seconds", "seconds_per_run"}) {
    EXPECT_EQ(timed.find(std::string("\"") + key + "\""), std::string::npos)
        << key;
  }
  const std::size_t runs_at = timed.find("\"runs\":[");
  ASSERT_NE(runs_at, std::string::npos);
  const std::size_t run_seconds_at = timed.find("\"seconds\":", runs_at);
  EXPECT_NE(run_seconds_at, std::string::npos);
  EXPECT_EQ(timed.find("\"seconds\":"), run_seconds_at);

  std::ostringstream without;
  StatsJsonOptions json_options;
  json_options.include_timing = false;
  write_stats_json(without, "c", "fm", r, json_options);
  const std::string bare = without.str();
  EXPECT_TRUE(testing::json_round_trips(bare));
  for (const char* key : {"seconds", "wall_seconds", "cpu_seconds"}) {
    EXPECT_EQ(bare.find(std::string("\"") + key + "\""), std::string::npos)
        << key;
  }
  // Everything that is not timing survives.
  EXPECT_NE(bare.find("\"best_cut\":"), std::string::npos);
  EXPECT_NE(bare.find("\"best_seed\":"), std::string::npos);
  EXPECT_NE(bare.find("\"run_records\":["), std::string::npos);
  EXPECT_NE(bare.find("\"runs\":["), std::string::npos);
}

TEST(RunnerStatsJson, HostileNamesAreEscaped) {
  // The circuit name is the --hgr path, so it can hold anything a file
  // name can: a quote, a backslash and a control byte must come back out
  // of a JSON parser unchanged instead of breaking the document.
  const Hypergraph g = testing::chain_of_blocks(3, 6);
  FmPartitioner fm;
  const MultiRunResult r =
      run_many(fm, g, BalanceConstraint::fifty_fifty(g), 2, 9);
  const std::string circuit = "dir\\a\"b\x01" "c.hgr";
  const std::string algo = "fm\t\"x\"";

  std::ostringstream out;
  write_stats_json(out, circuit, algo, r);
  EXPECT_TRUE(testing::json_round_trips(out.str()));
  std::string error;
  const auto doc = service::json_parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << out.str();
  ASSERT_NE(doc->find("circuit"), nullptr);
  ASSERT_NE(doc->find("algo"), nullptr);
  EXPECT_EQ(doc->find("circuit")->as_string(), circuit);
  EXPECT_EQ(doc->find("algo")->as_string(), algo);
  ASSERT_NE(doc->find("run_records"), nullptr);
  EXPECT_EQ(doc->find("run_records")->items().size(), 2u);

  // An ordinary name is written as it is.
  std::ostringstream plain;
  write_stats_json(plain, "balu", "PROP", r);
  EXPECT_TRUE(testing::json_round_trips(plain.str()));
  EXPECT_EQ(plain.str().rfind("{\"circuit\":\"balu\",\"algo\":\"PROP\",", 0),
            0u);
}

TEST(Runner, RejectsNegativeThreadCount) {
  const Hypergraph g = testing::chain_of_blocks(2, 4);
  FmPartitioner fm;
  RunnerOptions options;
  options.threads = -1;
  EXPECT_THROW(
      run_many(fm, g, BalanceConstraint::fifty_fifty(g), 1, 1, options),
      std::invalid_argument);
}

}  // namespace
}  // namespace prop
