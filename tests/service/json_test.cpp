#include "service/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace prop::service {
namespace {

std::string reserialize(const std::string& text) {
  std::string error;
  const auto v = json_parse(text, &error);
  EXPECT_TRUE(v.has_value()) << error;
  return v ? v->dump() : "";
}

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json_parse("null")->is_null());
  EXPECT_TRUE(json_parse("true")->as_bool());
  EXPECT_FALSE(json_parse("false")->as_bool());
  EXPECT_EQ(json_parse("42")->as_int64(), 42);
  EXPECT_DOUBLE_EQ(json_parse("-2.5e3")->as_double(), -2500.0);
  EXPECT_EQ(json_parse("\"hi\"")->as_string(), "hi");
}

TEST(Json, PreservesNumberLexemes) {
  // 64-bit seeds above 2^53 and precision-17 doubles must survive a
  // parse -> dump round trip byte-for-byte; a double-based tree would
  // corrupt both.
  EXPECT_EQ(reserialize("18446744073709551615"), "18446744073709551615");
  EXPECT_EQ(reserialize("0.020850935000000001"), "0.020850935000000001");
  EXPECT_EQ(reserialize("-0.0"), "-0.0");
  EXPECT_EQ(reserialize("1e308"), "1e308");
  EXPECT_EQ(json_parse("18446744073709551615")->as_uint64(),
            18446744073709551615ull);
}

TEST(Json, PreservesObjectMemberOrder) {
  const std::string text = "{\"z\":1,\"a\":2,\"m\":[3,{\"k\":null}]}";
  EXPECT_EQ(reserialize(text), text);
}

TEST(Json, DecodesEscapes) {
  const auto v = json_parse(R"("a\"b\\c\/d\n\t\u0041\u00e9")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "a\"b\\c/d\n\tA\xc3\xa9");
}

TEST(Json, EscapeMatchesStatsJsonWriter) {
  // service::json_escape is the writer's escaper (util/json_writer.h), so
  // service output re-serializes byte-identically.
  EXPECT_EQ(json_escape("a\"b\\c\nd\te\rf"), "a\\\"b\\\\c\\nd\\te\\rf");
  EXPECT_EQ(json_escape(std::string("x\x01y", 3)), "x\\u0001y");
}

TEST(Json, EscapedStringsRoundTrip) {
  JsonValue v = JsonValue::string("quote\" slash\\ control\x02 end");
  const std::string dumped = v.dump();
  const auto back = json_parse(dumped);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->as_string(), v.as_string());
  EXPECT_EQ(back->dump(), dumped);
}

TEST(Json, RejectsMalformedCorpus) {
  const char* corpus[] = {
      "",           "{",          "[1,]",       "{\"a\":}",
      "{\"a\" 1}",  "tru",        "1.",
      "\"unterminated", "\"bad\\q\"", "\"\\ud800\"",  // lone surrogate
      "{\"a\":1}extra", "[1] [2]",  "nan",        "+1",
      "\x01",       "\"raw\ncontrol\"",
  };
  for (const char* text : corpus) {
    std::string error;
    EXPECT_FALSE(json_parse(text, &error).has_value())
        << "accepted: " << text;
    EXPECT_EQ(error.rfind("json:", 0), 0u) << error;
  }
}

TEST(Json, EnforcesDepthCap) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  std::string error;
  EXPECT_FALSE(json_parse(deep, &error).has_value());
  EXPECT_NE(error.find("deep"), std::string::npos) << error;

  std::string ok = "[[[[[[[[[[1]]]]]]]]]]";  // well under the cap
  EXPECT_TRUE(json_parse(ok).has_value());
}

TEST(Json, BuildersAndAccessors) {
  JsonValue obj = JsonValue::object();
  obj.set("n", JsonValue::number_lexeme("-7"));
  obj.set("u", JsonValue::number_lexeme("1152921504606846976"));
  obj.set("d", JsonValue::number_lexeme("0.5"));
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue::boolean(true));
  arr.push_back(JsonValue::null());
  obj.set("a", std::move(arr));

  EXPECT_EQ(obj.find("n")->as_int64(), -7);
  EXPECT_EQ(obj.find("u")->as_uint64(), std::uint64_t{1} << 60);
  EXPECT_DOUBLE_EQ(obj.find("d")->as_double(), 0.5);
  EXPECT_EQ(obj.find("a")->items().size(), 2u);
  EXPECT_EQ(obj.find("missing"), nullptr);

  const std::string dumped = obj.dump();
  EXPECT_EQ(reserialize(dumped), dumped);
}

TEST(Json, WrongTypeBuildersAreInert) {
  JsonValue num = JsonValue::number_lexeme("1");
  num.set("k", JsonValue::null());   // no-op, not UB
  num.push_back(JsonValue::null());  // no-op
  EXPECT_TRUE(num.is_number());
  EXPECT_TRUE(num.members().empty());
  EXPECT_TRUE(num.items().empty());
}

}  // namespace
}  // namespace prop::service
