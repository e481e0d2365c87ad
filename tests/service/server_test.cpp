// End-to-end tests of the job server: exactly-once responses, admission
// shedding, deadline budgets, retry accounting, panic isolation and the
// load-independence determinism contract (DESIGN.md §4h).
#include "service/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "hypergraph/mcnc_suite.h"
#include "partition/balance.h"
#include "partition/runner.h"
#include "service/algo_factory.h"
#include "service/json.h"
#include "json_round_trip.h"

namespace prop::service {
namespace {

/// Captures every response line; the server serializes sink calls, so no
/// extra locking is needed as long as reads happen after drain().
class Harness {
 public:
  explicit Harness(ServerConfig config)
      : server_(std::move(config), [this](const std::string& line) {
          responses_.push_back(line);
        }) {}

  Server& server() { return server_; }

  bool line(const std::string& text) { return server_.handle_line(text); }

  /// Every response line after drain(); each new line is checked to
  /// parse and re-serialize to its own bytes.
  const std::vector<std::string>& responses() {
    server_.drain();
    for (; checked_ < responses_.size(); ++checked_) {
      EXPECT_TRUE(testing::json_round_trips(responses_[checked_]));
    }
    return responses_;
  }

  /// Parsed responses keyed by id ("" for id-less protocol errors).  Fails
  /// the test on duplicate ids — the exactly-once contract.
  std::map<std::string, JsonValue> by_id() {
    std::map<std::string, JsonValue> out;
    for (const std::string& text : responses()) {
      std::string error;
      const auto v = json_parse(text, &error);
      EXPECT_TRUE(v.has_value()) << error << ": " << text;
      if (!v) continue;
      std::string id;
      if (const JsonValue* idv = v->find("id")) id = idv->as_string();
      EXPECT_EQ(out.count(id), 0u) << "duplicate response for id '" << id
                                   << "': " << text;
      out.emplace(std::move(id), *v);
    }
    return out;
  }

 private:
  std::vector<std::string> responses_;
  std::size_t checked_ = 0;
  Server server_;  // after responses_: destroyed (and drained) first
};

std::string field(const JsonValue& v, const char* key) {
  const JsonValue* f = v.find(key);
  return f ? f->as_string() : "<missing>";
}

std::string status_code_of(const JsonValue& v) {
  const JsonValue* status = v.find("status");
  return status ? field(*status, "code") : "<missing>";
}

TEST(Server, RunsAJobAndMatchesDirectRunByteForByte) {
  ServerConfig config;
  config.workers = 2;
  Harness h(config);
  ASSERT_TRUE(h.line("{\"op\":\"submit\",\"id\":\"j1\",\"circuit\":\"balu\","
                     "\"algo\":\"prop\",\"runs\":2,\"seed\":7,"
                     "\"stats_timing\":false}"));
  const auto responses = h.by_id();
  ASSERT_EQ(responses.size(), 1u);
  const JsonValue& r = responses.at("j1");
  EXPECT_EQ(field(r, "state"), "done");
  EXPECT_EQ(status_code_of(r), "ok");
  EXPECT_EQ(r.find("attempts")->as_int64(), 1);
  EXPECT_EQ(r.find("queue_ms"), nullptr);  // stats_timing=false: no timing

  // The embedded result must be byte-identical to a direct sequential
  // run_many with the same spec — the service adds no nondeterminism.
  const Hypergraph g = make_mcnc_circuit("balu");
  const auto algo = make_algo("prop");
  const MultiRunResult direct = run_many(
      *algo, g, BalanceConstraint::forty_five(g), 2, 7, RunnerOptions{});
  std::ostringstream expected;
  StatsJsonOptions json_options;
  json_options.include_timing = false;
  write_stats_json(expected, "balu", algo->name(), direct, json_options);

  ASSERT_NE(r.find("result"), nullptr);
  EXPECT_EQ(r.find("result")->dump(), expected.str());
}

TEST(Server, MalformedRequestCorpusNeverKillsTheServer) {
  ServerConfig config;
  config.workers = 1;
  config.max_request_bytes = 256;
  Harness h(config);

  const std::string oversized =
      "{\"op\":\"submit\",\"id\":\"big\",\"hgr\":\"" +
      std::string(300, '1') + "\"}";
  const char* corpus[] = {
      "this is not json",
      "[1,2,3]",
      "{\"op\":\"frobnicate\"}",
      "{\"op\":\"submit\"}",                                  // missing id
      "{\"op\":\"submit\",\"id\":\"a\",\"bogus_field\":1}",   // unknown field
      "{\"op\":\"submit\",\"id\":\"b\"}",                     // no circuit/hgr
      "{\"op\":\"submit\",\"id\":\"c\",\"circuit\":\"balu\","
      "\"hgr\":\"1 2\\n1 2\\n\"}",                            // both sources
      "{\"op\":\"submit\",\"id\":\"d\",\"circuit\":\"nope\"}",
      "{\"op\":\"submit\",\"id\":\"e\",\"circuit\":\"balu\","
      "\"algo\":\"quantum\"}",
      "{\"op\":\"submit\",\"id\":\"f\",\"circuit\":\"balu\","
      "\"balance\":\"60-40\"}",
  };
  for (const char* text : corpus) EXPECT_TRUE(h.line(text));
  EXPECT_TRUE(h.line(oversized));

  // Every rejection is structured, and the server still takes work.
  ASSERT_TRUE(h.line("{\"op\":\"submit\",\"id\":\"ok\",\"circuit\":\"balu\","
                     "\"runs\":1,\"seed\":3,\"stats_timing\":false}"));
  h.server().drain();

  int invalid_responses = 0;
  bool ok_done = false;
  for (const std::string& text : h.responses()) {
    const auto v = json_parse(text);
    ASSERT_TRUE(v.has_value()) << text;
    if (field(*v, "id") == "ok") {
      ok_done = field(*v, "state") == "done";
      continue;
    }
    EXPECT_EQ(field(*v, "state"), "invalid") << text;
    EXPECT_EQ(status_code_of(*v), "invalid_request") << text;
    ++invalid_responses;
  }
  EXPECT_EQ(invalid_responses, 11);
  EXPECT_TRUE(ok_done);
  EXPECT_EQ(h.server().stats().invalid, 11u);
}

TEST(Server, MalformedHgrPayloadIsAStructuredFailure) {
  ServerConfig config;
  config.workers = 1;
  Harness h(config);
  // Parses as a spec, fails at ingest: truncated net list.
  ASSERT_TRUE(h.line("{\"op\":\"submit\",\"id\":\"bad\","
                     "\"hgr\":\"2 4\\n1 2\\n\",\"stats_timing\":false}"));
  // A valid inline payload right after must work: the worker survived.
  ASSERT_TRUE(h.line("{\"op\":\"submit\",\"id\":\"good\",\"algo\":\"fm\","
                     "\"hgr\":\"2 4\\n1 2\\n2 3 4\\n\",\"runs\":1,"
                     "\"stats_timing\":false}"));
  const auto responses = h.by_id();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(field(responses.at("bad"), "state"), "failed");
  EXPECT_EQ(status_code_of(responses.at("bad")), "invalid_request");
  EXPECT_EQ(field(responses.at("good"), "state"), "done");
}

TEST(Server, HgrLimitsRejectOversizedPayloads) {
  ServerConfig config;
  config.workers = 1;
  config.hgr_limits.max_nodes = 3;
  config.hgr_limits.max_bytes = 64;
  Harness h(config);
  // 4 nodes > limit 3: enforced at ingest, structured failure.
  ASSERT_TRUE(h.line("{\"op\":\"submit\",\"id\":\"nodes\","
                     "\"hgr\":\"2 4\\n1 2\\n2 3 4\\n\"}"));
  // Payload bigger than max_bytes: rejected before it even queues.
  const std::string big(100, '1');
  ASSERT_TRUE(h.line("{\"op\":\"submit\",\"id\":\"bytes\",\"hgr\":\"" + big +
                     "\"}"));
  const auto responses = h.by_id();
  const JsonValue& nodes = responses.at("nodes");
  EXPECT_EQ(field(nodes, "state"), "failed");
  EXPECT_EQ(status_code_of(nodes), "invalid_request");
  EXPECT_NE(nodes.find("status")->find("message")->as_string().find("limit"),
            std::string::npos);
  const JsonValue& bytes = responses.at("bytes");
  EXPECT_EQ(field(bytes, "state"), "invalid");
  EXPECT_EQ(status_code_of(bytes), "invalid_request");
}

TEST(Server, DuplicateIdIsRejectedWithoutDisturbingTheOriginal) {
  ServerConfig config;
  config.workers = 1;
  Harness h(config);
  const std::string submit =
      "{\"op\":\"submit\",\"id\":\"dup\",\"circuit\":\"balu\",\"runs\":1,"
      "\"seed\":5,\"stats_timing\":false}";
  ASSERT_TRUE(h.line(submit));
  ASSERT_TRUE(h.line(submit));  // same id again
  h.server().drain();

  int done = 0;
  int dup_rejections = 0;
  for (const std::string& text : h.responses()) {
    const auto v = json_parse(text);
    ASSERT_TRUE(v.has_value());
    if (field(*v, "state") == "done") ++done;
    if (field(*v, "state") == "invalid") {
      EXPECT_NE(v->find("status")->find("message")->as_string().find(
                    "duplicate"),
                std::string::npos);
      ++dup_rejections;
    }
  }
  EXPECT_EQ(done, 1);
  EXPECT_EQ(dup_rejections, 1);
}

TEST(Server, ShedsPastTheQueueLimitWithStructuredStatus) {
  ServerConfig config;
  config.workers = 1;
  config.queue_limit = 2;
  Harness h(config);
  // Job 0 occupies the single worker for a while; 2 more fit the queue; the
  // rest must shed immediately with kShedOverload.
  ASSERT_TRUE(h.line("{\"op\":\"submit\",\"id\":\"slow\","
                     "\"circuit\":\"struct\",\"runs\":40,\"seed\":1,"
                     "\"stats_timing\":false}"));
  constexpr int kExtra = 6;
  for (int i = 0; i < kExtra; ++i) {
    ASSERT_TRUE(h.line("{\"op\":\"submit\",\"id\":\"q" + std::to_string(i) +
                       "\",\"circuit\":\"balu\",\"runs\":1,\"seed\":2,"
                       "\"stats_timing\":false}"));
  }
  const auto responses = h.by_id();
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(1 + kExtra));

  int shed = 0;
  int completed = 0;
  for (const auto& [id, v] : responses) {
    const std::string state = field(v, "state");
    if (state == "shed") {
      EXPECT_EQ(status_code_of(v), "shed_overload");
      EXPECT_NE(v.find("status")->find("message")->as_string().find("limit"),
                std::string::npos);
      ++shed;
    } else {
      EXPECT_EQ(state, "done") << id;
      ++completed;
    }
  }
  // Exact split depends on how fast the worker drains, but overload is
  // guaranteed: at most 1 running + 2 queued when the burst lands.
  EXPECT_GE(shed, kExtra - 2);
  EXPECT_EQ(shed + completed, 1 + kExtra);
  EXPECT_EQ(h.server().stats().shed, static_cast<std::uint64_t>(shed));
}

TEST(Server, DeadlineReturnsBestSoFarWithBudgetExhausted) {
  ServerConfig config;
  config.workers = 1;
  Harness h(config);
  // s15850 (10470 nodes) cannot finish 5 runs in 2ms; the deadline starts
  // at execution and the engines return their best-so-far at the first
  // poll, so the response still carries a result.
  ASSERT_TRUE(h.line("{\"op\":\"submit\",\"id\":\"slow\","
                     "\"circuit\":\"s15850\",\"runs\":5,\"seed\":1,"
                     "\"deadline_ms\":2,\"stats_timing\":false}"));
  const auto responses = h.by_id();
  const JsonValue& r = responses.at("slow");
  EXPECT_EQ(field(r, "state"), "done");
  EXPECT_EQ(status_code_of(r), "budget_exhausted");
  ASSERT_NE(r.find("result"), nullptr);
  EXPECT_EQ(field(*r.find("result"), "outcome"), "budget_exhausted");
}

TEST(Server, RetriesTransientFaultsWithAccounting) {
  ServerConfig config;
  config.workers = 1;
  config.inject = "validate-fail";  // every validation fails, every attempt
  config.retry_backoff_ms = 0.0;    // keep the test fast
  Harness h(config);
  ASSERT_TRUE(h.line("{\"op\":\"submit\",\"id\":\"r\",\"circuit\":\"balu\","
                     "\"runs\":1,\"seed\":9,\"max_retries\":2,"
                     "\"stats_timing\":false}"));
  const auto responses = h.by_id();
  const JsonValue& r = responses.at("r");
  EXPECT_EQ(field(r, "state"), "failed");
  EXPECT_EQ(status_code_of(r), "injected_fault");
  EXPECT_EQ(r.find("attempts")->as_int64(), 3);  // initial + 2 retries
  EXPECT_EQ(h.server().stats().retries, 2u);
}

TEST(Server, InjectedPanicIsIsolatedAndClassifiedTransient) {
  ServerConfig config;
  config.workers = 2;
  config.inject = "serve-exec";  // every attempt throws inside the worker
  config.retry_backoff_ms = 0.0;
  Harness h(config);
  ASSERT_TRUE(h.line("{\"op\":\"submit\",\"id\":\"p0\",\"circuit\":\"balu\","
                     "\"runs\":1,\"seed\":1,\"max_retries\":0,"
                     "\"stats_timing\":false}"));
  ASSERT_TRUE(h.line("{\"op\":\"submit\",\"id\":\"p1\",\"circuit\":\"balu\","
                     "\"runs\":1,\"seed\":2,\"max_retries\":1,"
                     "\"stats_timing\":false}"));
  const auto responses = h.by_id();
  ASSERT_EQ(responses.size(), 2u);  // both jobs answered: workers survived

  const JsonValue& p0 = responses.at("p0");
  EXPECT_EQ(field(p0, "state"), "failed");
  EXPECT_EQ(status_code_of(p0), "injected_fault");
  EXPECT_EQ(p0.find("attempts")->as_int64(), 1);  // max_retries=0: no retry

  const JsonValue& p1 = responses.at("p1");
  EXPECT_EQ(field(p1, "state"), "failed");
  EXPECT_EQ(p1.find("attempts")->as_int64(), 2);
  EXPECT_NE(p1.find("status")->find("message")->as_string().find("serve-exec"),
            std::string::npos);

  // And the server still serves clean work (fresh harness shares nothing).
  EXPECT_TRUE(h.line("{\"op\":\"stats\"}"));
}

TEST(Server, ResponsesAreByteIdenticalAcrossWorkerCountsAndLoad) {
  const auto run_fleet = [](int workers) {
    ServerConfig config;
    config.workers = workers;
    config.queue_limit = 64;  // high enough that nothing sheds
    config.inject = "validate-fail~0.3,serve-exec~0.2";  // chaos on
    config.retry_backoff_ms = 0.0;
    Harness h(config);
    const char* algos[] = {"prop", "fm", "la2"};
    for (int i = 0; i < 12; ++i) {
      const std::string spec =
          "{\"op\":\"submit\",\"id\":\"job" + std::to_string(i) +
          "\",\"tenant\":\"t" + std::to_string(i % 3) +
          "\",\"priority\":" + std::to_string(i % 2) +
          ",\"circuit\":\"balu\",\"algo\":\"" + std::string(algos[i % 3]) +
          "\",\"runs\":2,\"seed\":" + std::to_string(100 + i) +
          ",\"max_retries\":1,\"stats_timing\":false}";
      EXPECT_TRUE(h.line(spec));
    }
    std::map<std::string, std::string> out;
    for (const auto& [id, v] : h.by_id()) out[id] = v.dump();
    return out;
  };
  const auto one = run_fleet(1);
  const auto four = run_fleet(4);
  ASSERT_EQ(one.size(), 12u);
  EXPECT_EQ(one, four);  // same bytes regardless of scheduling
}

TEST(Server, StatsOpReportsCounters) {
  ServerConfig config;
  config.workers = 1;
  Harness h(config);
  ASSERT_TRUE(h.line("{\"op\":\"submit\",\"id\":\"s\",\"circuit\":\"balu\","
                     "\"runs\":1,\"stats_timing\":false}"));
  h.server().drain();
  ASSERT_TRUE(h.line("{\"op\":\"stats\"}"));
  const auto responses = h.responses();
  const auto stats = json_parse(responses.back());
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(field(*stats, "op"), "stats");
  EXPECT_EQ(stats->find("submitted")->as_int64(), 1);
  EXPECT_EQ(stats->find("accepted")->as_int64(), 1);
  EXPECT_EQ(stats->find("done")->as_int64(), 1);
  EXPECT_EQ(stats->find("responses")->as_int64(), 1);
}

/// Exact bytes of every server emitter with timing off: the protocol-error
/// lines, the id-carrying rejection, the envelope of invalid, shed, done and
/// failed jobs (status, embedded stats-json, partition, degradations) and
/// the stats and shutdown ops.  A refactor of the writers must leave every
/// line unchanged.
TEST(Server, ResponseBytesArePinned) {
  ServerConfig config;
  config.workers = 1;
  config.max_request_bytes = 160;
  config.inject = "lanczos-stall";  // eig1 degrades, every run still done
  Harness h(config);
  const std::string lines[] = {
      "{\"op\":\"submit\",\"id\":\"big\",\"hgr\":\"" + std::string(150, '1') +
          "\"}",
      "not json",
      "[1]",
      "{\"op\":\"frobnicate\"}",
      "{\"op\":\"submit\",\"id\":\"q\\\"\\\\\\u0001x\",\"bogus\":1}",
      "{\"op\":\"submit\",\"id\":\"none\",\"tenant\":\"t\\tab\"}",
      "{\"op\":\"submit\",\"id\":\"odd\",\"circuit\":\"a\\\"b\\n\"}",
      "{\"op\":\"submit\",\"id\":\"fm\",\"algo\":\"fm\","
      "\"hgr\":\"2 4\\n1 2\\n2 3 4\\n\",\"seed\":3,\"runs\":2,"
      "\"stats_timing\":false,\"return_partition\":true}",
      "{\"op\":\"submit\",\"id\":\"fm\",\"circuit\":\"balu\"}",
      "{\"op\":\"submit\",\"id\":\"eig\",\"algo\":\"eig1\","
      "\"hgr\":\"3 4\\n1 2\\n2 3\\n3 4\\n\",\"stats_timing\":false}",
      "{\"op\":\"submit\",\"id\":\"bad\",\"hgr\":\"2 4\\n1 2\\n\","
      "\"stats_timing\":false}",
  };
  for (const std::string& line : lines) {
    ASSERT_TRUE(h.line(line));
    h.server().drain();  // one job at a time: a fixed response order
  }
  ASSERT_TRUE(h.line("{\"op\":\"stats\"}"));
  ASSERT_FALSE(h.line("{\"op\":\"shutdown\"}"));
  const std::vector<std::string> want = {
      R"js({"state":"invalid","status":{"code":"invalid_request","message":"request line of 185 bytes exceeds limit 160"}})js",
      R"js({"state":"invalid","status":{"code":"invalid_request","message":"json: invalid literal at offset 0"}})js",
      R"js({"state":"invalid","status":{"code":"invalid_request","message":"request must be a JSON object"}})js",
      R"js({"state":"invalid","status":{"code":"invalid_request","message":"unknown op 'frobnicate' (submit|stats|shutdown)"}})js",
      R"js({"id":"q\"\\\u0001x","state":"invalid","status":{"code":"invalid_request","message":"unknown field 'bogus'"}})js",
      R"js({"id":"none","tenant":"t\tab","state":"invalid","attempts":0,"status":{"code":"invalid_request","message":"exactly one of 'circuit' and 'hgr' must be set"}})js",
      R"js({"id":"odd","tenant":"default","state":"invalid","attempts":0,"status":{"code":"invalid_request","message":"unknown circuit 'a\"b\n'"}})js",
      R"js({"id":"fm","tenant":"default","state":"done","attempts":1,"status":{"code":"ok"},"result":{"circuit":"inline","algo":"FM-bucket","outcome":"ok","best_cut":1,"best_seed":13604808898340030615,"runs_requested":2,"runs_attempted":2,"runs_failed":0,"run_records":[{"seed":13604808898340030615,"outcome":"ok","cut":1},{"seed":17027085370592858547,"outcome":"ok","cut":1}],"runs":[]},"partition":"0111"})js",
      R"js({"id":"fm","tenant":"default","state":"invalid","attempts":0,"status":{"code":"invalid_request","message":"duplicate job id 'fm'"}})js",
      R"js({"id":"eig","tenant":"default","state":"done","attempts":1,"status":{"code":"ok"},"result":{"circuit":"inline","algo":"EIG1","outcome":"ok","best_cut":1,"best_seed":6791897765849424158,"runs_requested":1,"runs_attempted":1,"runs_failed":0,"run_records":[{"seed":6791897765849424158,"outcome":"ok","cut":1,"degradations":[{"site":"eig1.lanczos","action":"random-order-fallback","detail":"eigensolver stalled; using shuffled ordering"}]}],"runs":[]},"degradations":[{"site":"eig1.lanczos","action":"random-order-fallback","detail":"eigensolver stalled; using shuffled ordering"}]})js",
      R"js({"id":"bad","tenant":"default","state":"failed","attempts":1,"status":{"code":"invalid_request","message":"hgr: truncated net list"}})js",
      R"js({"op":"stats","lines":12,"submitted":7,"accepted":3,"shed":0,"invalid":8,"done":2,"failed":1,"retries":0,"responses":11,"queue_depth":0,"max_queue_depth":1,"jobs":5})js",
      R"js({"op":"shutdown","status":{"code":"ok"}})js",
  };
  EXPECT_EQ(h.responses(), want);
}

TEST(Server, ReturnPartitionIncludesSideVector) {
  ServerConfig config;
  config.workers = 1;
  Harness h(config);
  ASSERT_TRUE(h.line("{\"op\":\"submit\",\"id\":\"p\",\"circuit\":\"balu\","
                     "\"runs\":1,\"seed\":4,\"return_partition\":true,"
                     "\"stats_timing\":false}"));
  const auto responses = h.by_id();
  const JsonValue* partition = responses.at("p").find("partition");
  ASSERT_NE(partition, nullptr);
  const auto side = decode_side(partition->as_string());
  ASSERT_TRUE(side.has_value());
  EXPECT_EQ(side->size(), make_mcnc_circuit("balu").num_nodes());
}

}  // namespace
}  // namespace prop::service
