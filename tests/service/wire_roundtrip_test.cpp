// Satellite contract: the service wire encodings of the runtime types are
// stable — serialize -> parse -> re-serialize is byte-identical.  Anything
// that breaks these tests breaks recorded soak logs and every client.
#include "service/wire.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/run_context.h"
#include "runtime/status.h"
#include "service/json.h"

namespace prop::service {
namespace {

/// serialize -> parse -> re-serialize must reproduce the exact bytes.
void expect_stable(const JsonValue& v, const std::string& label) {
  const std::string first = v.dump();
  std::string error;
  const auto parsed = json_parse(first, &error);
  ASSERT_TRUE(parsed.has_value()) << label << ": " << error;
  EXPECT_EQ(parsed->dump(), first) << label;
}

TEST(WireRoundTrip, Status) {
  const Status cases[] = {
      Status::success(),
      Status::failure(StatusCode::kBudgetExhausted, "deadline hit"),
      Status::failure(StatusCode::kInjectedFault, "at serve-exec"),
      Status::failure(StatusCode::kShedOverload, "depth 64 at limit 64"),
      Status::failure(StatusCode::kInvalidRequest, "weird \"quoted\"\npayload"),
      Status::failure(StatusCode::kError, ""),
  };
  for (const Status& status : cases) {
    const JsonValue encoded = status_to_json(status);
    expect_stable(encoded, "status " + std::string(to_string(status.code)));

    std::string error;
    const auto decoded = status_from_json(encoded, &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    EXPECT_EQ(decoded->code, status.code);
    EXPECT_EQ(decoded->message, status.message);
    EXPECT_EQ(status_to_json(*decoded).dump(), encoded.dump());
  }
}

TEST(WireRoundTrip, StatusRejectsUnknownCode) {
  const auto doc = json_parse("{\"code\":\"not_a_code\"}");
  ASSERT_TRUE(doc.has_value());
  std::string error;
  EXPECT_FALSE(status_from_json(*doc, &error).has_value());
  EXPECT_NE(error.find("not_a_code"), std::string::npos) << error;
}

TEST(WireRoundTrip, EveryStatusCodeNameParsesBack) {
  const StatusCode codes[] = {
      StatusCode::kOk,           StatusCode::kBudgetExhausted,
      StatusCode::kCancelled,    StatusCode::kInjectedFault,
      StatusCode::kEigensolverStalled, StatusCode::kInvalidResult,
      StatusCode::kSkipped,      StatusCode::kError,
      StatusCode::kShedOverload, StatusCode::kInvalidRequest,
  };
  for (const StatusCode code : codes) {
    const auto parsed = status_code_from_name(to_string(code));
    ASSERT_TRUE(parsed.has_value()) << to_string(code);
    EXPECT_EQ(*parsed, code);
  }
  EXPECT_FALSE(status_code_from_name("bogus").has_value());
}

TEST(WireRoundTrip, DegradationEvents) {
  const DegradationEvent single{"eig1.lanczos", "random-order-fallback",
                                "eigensolver stalled; using shuffled ordering"};
  const JsonValue encoded = degradation_to_json(single);
  expect_stable(encoded, "degradation");
  std::string error;
  const auto decoded = degradation_from_json(encoded, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->site, single.site);
  EXPECT_EQ(decoded->action, single.action);
  EXPECT_EQ(decoded->detail, single.detail);

  const std::vector<DegradationEvent> log = {
      single,
      {"melo.ordering", "truncated-chain", ""},  // empty detail is omitted
  };
  const JsonValue array = degradations_to_json(log);
  expect_stable(array, "degradation array");
  const auto back = degradations_from_json(array, &error);
  ASSERT_TRUE(back.has_value()) << error;
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[1].site, "melo.ordering");
  EXPECT_TRUE((*back)[1].detail.empty());
  EXPECT_EQ(degradations_to_json(*back).dump(), array.dump());
}

TEST(WireRoundTrip, SideEncoding) {
  const std::vector<std::uint8_t> side = {0, 1, 1, 0, 1};
  EXPECT_EQ(encode_side(side), "01101");
  const auto decoded = decode_side("01101");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, side);
  // 'x' became a valid part id (33) with the base-36 extension; '!' and
  // uppercase stay invalid.
  EXPECT_FALSE(decode_side("01!01").has_value());
  EXPECT_FALSE(decode_side("01X01").has_value());
  EXPECT_TRUE(decode_side("")->empty());
}

TEST(WireRoundTrip, SideEncodingKWay) {
  // Part ids beyond 1 use base 36 ('a' = 10 ... 'z' = 35); 2-way vectors
  // stay pure 0/1 strings so recorded logs keep their exact bytes.
  const std::vector<std::uint8_t> part = {0, 1, 9, 10, 35};
  EXPECT_EQ(encode_side(part), "019az");
  const auto decoded = decode_side("019az");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, part);
  EXPECT_FALSE(decode_side("AZ").has_value());  // uppercase is not valid
  EXPECT_FALSE(decode_side("3-1").has_value());
}

TEST(WireRoundTrip, RunOutcome) {
  RunOutcome outcome;
  outcome.status = Status::failure(StatusCode::kBudgetExhausted, "mid-pass");
  outcome.result.side = {1, 0, 0, 1};
  outcome.result.cut_cost = 12.0;
  outcome.result.passes = 3;
  outcome.wall_seconds = 0.020850935000000001;
  outcome.cpu_seconds = 0.0104254675;
  outcome.degradations.push_back({"melo.ordering", "truncated-chain", ""});

  ASSERT_TRUE(outcome.has_result());
  const JsonValue encoded = run_outcome_to_json(outcome);
  expect_stable(encoded, "run outcome");

  std::string error;
  const auto decoded = run_outcome_from_json(encoded, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status.code, outcome.status.code);
  EXPECT_EQ(decoded->result.side, outcome.result.side);
  EXPECT_DOUBLE_EQ(decoded->result.cut_cost, outcome.result.cut_cost);
  EXPECT_EQ(decoded->result.passes, outcome.result.passes);
  EXPECT_DOUBLE_EQ(decoded->wall_seconds, outcome.wall_seconds);
  EXPECT_EQ(decoded->degradations.size(), 1u);
  EXPECT_EQ(run_outcome_to_json(*decoded).dump(), encoded.dump());
}

TEST(WireRoundTrip, RunOutcomeTimingGate) {
  RunOutcome outcome;
  outcome.wall_seconds = 1.5;
  RunOutcomeJsonOptions options;
  options.include_timing = false;
  const std::string dumped = run_outcome_to_json(outcome, options).dump();
  EXPECT_EQ(dumped.find("wall_seconds"), std::string::npos) << dumped;
  EXPECT_EQ(dumped.find("cpu_seconds"), std::string::npos) << dumped;
}

TEST(WireRoundTrip, JobSpec) {
  JobSpec spec;
  spec.id = "job-42";
  spec.tenant = "alpha";
  spec.priority = 3;
  spec.algo = "fm";
  spec.circuit = "balu";
  spec.runs = 7;
  spec.seed = 18446744073709551615ull;  // > 2^53: must survive verbatim
  spec.balance = "50-50";
  spec.deadline_ms = 250.5;
  spec.max_retries = 1;
  spec.stats_timing = false;
  spec.return_partition = true;
  spec.k = 8;
  spec.kway_refiner = "greedy";
  spec.kway_objective = "cut";

  const JsonValue encoded = job_spec_to_json(spec);
  expect_stable(encoded, "job spec");
  EXPECT_NE(encoded.dump().find("18446744073709551615"), std::string::npos);

  std::string error;
  const auto decoded = job_spec_from_json(encoded, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->id, spec.id);
  EXPECT_EQ(decoded->tenant, spec.tenant);
  EXPECT_EQ(decoded->priority, spec.priority);
  EXPECT_EQ(decoded->algo, spec.algo);
  EXPECT_EQ(decoded->circuit, spec.circuit);
  EXPECT_EQ(decoded->seed, spec.seed);
  EXPECT_EQ(decoded->balance, spec.balance);
  EXPECT_DOUBLE_EQ(decoded->deadline_ms, spec.deadline_ms);
  EXPECT_EQ(decoded->max_retries, spec.max_retries);
  EXPECT_FALSE(decoded->stats_timing);
  EXPECT_TRUE(decoded->return_partition);
  EXPECT_EQ(decoded->k, 8);
  EXPECT_EQ(decoded->kway_refiner, "greedy");
  EXPECT_EQ(decoded->kway_objective, "cut");
  EXPECT_EQ(job_spec_to_json(*decoded).dump(), encoded.dump());
}

TEST(WireRoundTrip, JobSpecRejectsBadInput) {
  const struct {
    const char* text;
    const char* needle;
  } corpus[] = {
      {"{\"circuit\":\"balu\"}", "id"},                      // missing id
      {"{\"id\":\"\"}", "id"},                               // empty id
      {"{\"id\":\"a\",\"deadline_Ms\":5}", "deadline_Ms"},   // typo'd field
      {"{\"id\":\"a\",\"runs\":0}", "runs"},                 // out of range
      {"{\"id\":\"a\",\"runs\":1000000}", "runs"},
      {"{\"id\":\"a\",\"priority\":\"high\"}", "priority"},  // wrong type
      {"{\"id\":\"a\",\"deadline_ms\":-1}", "deadline_ms"},
      {"{\"id\":\"a\",\"max_retries\":101}", "max_retries"},
      {"{\"id\":\"a\",\"tenant\":\"\"}", "tenant"},
      {"{\"id\":\"a\",\"k\":1}", "k"},                       // below 2-way
      {"{\"id\":\"a\",\"k\":37}", "k"},                      // > base-36 cap
      // Retired intra-pass thread knobs: rejected, never silently ignored.
      {"{\"id\":\"a\",\"pass_threads\":1}", "pass_threads"},
      {"{\"id\":\"a\",\"rounds_per_barrier\":2}", "rounds_per_barrier"},
      {"{\"id\":\"a\",\"kway_refiner\":7}", "kway_refiner"}, // wrong type
      {"[]", "object"},
  };
  for (const auto& c : corpus) {
    const auto doc = json_parse(c.text);
    ASSERT_TRUE(doc.has_value()) << c.text;
    std::string error;
    EXPECT_FALSE(job_spec_from_json(*doc, &error).has_value())
        << "accepted: " << c.text;
    EXPECT_NE(error.find(c.needle), std::string::npos)
        << c.text << " -> " << error;
  }
}

TEST(WireRoundTrip, JobSpecDefaults) {
  const auto doc = json_parse("{\"id\":\"only\"}");
  ASSERT_TRUE(doc.has_value());
  std::string error;
  const auto spec = job_spec_from_json(*doc, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->tenant, "default");
  EXPECT_EQ(spec->algo, "prop");
  EXPECT_EQ(spec->runs, 1);
  EXPECT_EQ(spec->seed, 1u);
  EXPECT_EQ(spec->balance, "45-55");
  EXPECT_DOUBLE_EQ(spec->deadline_ms, 0.0);
  EXPECT_EQ(spec->max_retries, -1);
  EXPECT_TRUE(spec->stats_timing);
  EXPECT_FALSE(spec->return_partition);
  EXPECT_EQ(spec->k, 2);
  EXPECT_EQ(spec->kway_refiner, "prop");
  EXPECT_EQ(spec->kway_objective, "connectivity");
}

/// The deepest round-trip: an actual write_stats_json document from a real
/// multi-start parses and re-serializes byte-identically through the
/// service JSON layer (the mechanism prop_serve uses to embed results).
TEST(WireRoundTrip, StatsJsonDocumentIsStable) {
  const std::string stats =
      "{\"circuit\":\"balu\",\"algo\":\"PROP\",\"outcome\":\"ok\","
      "\"best_cut\":83,\"best_seed\":13309476754707697221,"
      "\"runs_requested\":2,\"runs_attempted\":2,\"runs_failed\":0,"
      "\"run_records\":[{\"seed\":13309476754707697221,\"outcome\":\"ok\","
      "\"cut\":83,\"wall_seconds\":0.013978674000000001}],\"runs\":[]}";
  std::string error;
  const auto parsed = json_parse(stats, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->dump(), stats);
}

}  // namespace
}  // namespace prop::service
