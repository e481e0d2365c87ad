// The service's wire contract: the Status and degradation objects every
// response carries (exact bytes, and parse -> dump stability), the
// partition encoding, and the strict JobSpec parser.  Anything that breaks
// these tests breaks recorded soak logs and every client.
#include "service/wire.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "json_round_trip.h"
#include "partition/runner.h"
#include "runtime/run_context.h"
#include "runtime/status.h"
#include "service/json.h"
#include "util/json_writer.h"

namespace prop::service {
namespace {

/// `value` through its component writer.
template <typename T>
std::string written(const T& value) {
  std::ostringstream out;
  JsonWriter w(out);
  write_json(w, value);
  return out.str();
}

TEST(WireRoundTrip, Status) {
  const struct {
    Status status;
    const char* want;
  } cases[] = {
      {Status::success(), R"({"code":"ok"})"},
      {Status::failure(StatusCode::kBudgetExhausted, "deadline hit"),
       R"({"code":"budget_exhausted","message":"deadline hit"})"},
      {Status::failure(StatusCode::kInvalidRequest, "weird \"quoted\"\npayload"),
       R"({"code":"invalid_request","message":"weird \"quoted\"\npayload"})"},
      {Status::failure(StatusCode::kError, ""), R"({"code":"error"})"},
  };
  for (const auto& c : cases) {
    const std::string text = written(c.status);
    EXPECT_EQ(text, c.want);
    EXPECT_TRUE(testing::json_round_trips(text));
    const auto parsed = json_parse(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("code")->as_string(), to_string(c.status.code));
    const JsonValue* message = parsed->find("message");
    EXPECT_EQ(message ? message->as_string() : "", c.status.message);
  }
}

TEST(WireRoundTrip, DegradationEvents) {
  // The one degradation object: stats-json run_records and the server's
  // response envelope both write it through this writer.
  const DegradationEvent full{"eig1.lanczos", "random-order-fallback",
                              "eigensolver stalled; using shuffled ordering"};
  EXPECT_EQ(written(full),
            R"({"site":"eig1.lanczos","action":"random-order-fallback",)"
            R"("detail":"eigensolver stalled; using shuffled ordering"})");
  const DegradationEvent bare{"melo.ordering", "truncated-chain", ""};
  EXPECT_EQ(written(bare),
            R"({"site":"melo.ordering","action":"truncated-chain"})");
  const DegradationEvent odd{"a\"b", "c\\d", "e\nf"};
  const std::string text = written(odd);
  EXPECT_TRUE(testing::json_round_trips(text));
  const auto parsed = json_parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("site")->as_string(), odd.site);
  EXPECT_EQ(parsed->find("action")->as_string(), odd.action);
  EXPECT_EQ(parsed->find("detail")->as_string(), odd.detail);
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

TEST(WireRoundTrip, JobSpec) {
  // Every field of a submit request, the seed above 2^53.
  const auto doc = json_parse(
      R"({"op":"submit","id":"job-42","tenant":"alpha","priority":3,)"
      R"("algo":"fm","circuit":"balu","runs":7,)"
      R"("seed":18446744073709551615,"balance":"50-50","deadline_ms":250.5,)"
      R"("max_retries":1,"stats_timing":false,"return_partition":true,)"
      R"("k":8,"kway_refiner":"greedy","kway_objective":"cut"})");
  ASSERT_TRUE(doc.has_value());
  std::string error;
  const auto spec = job_spec_from_json(*doc, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->id, "job-42");
  EXPECT_EQ(spec->tenant, "alpha");
  EXPECT_EQ(spec->priority, 3);
  EXPECT_EQ(spec->algo, "fm");
  EXPECT_EQ(spec->circuit, "balu");
  EXPECT_TRUE(spec->hgr.empty());
  EXPECT_EQ(spec->runs, 7);
  EXPECT_EQ(spec->seed, 18446744073709551615ull);
  EXPECT_EQ(spec->balance, "50-50");
  EXPECT_EQ(spec->deadline_ms, 250.5);
  EXPECT_EQ(spec->max_retries, 1);
  EXPECT_FALSE(spec->stats_timing);
  EXPECT_TRUE(spec->return_partition);
  EXPECT_EQ(spec->k, 8);
  EXPECT_EQ(spec->kway_refiner, "greedy");
  EXPECT_EQ(spec->kway_objective, "cut");
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
