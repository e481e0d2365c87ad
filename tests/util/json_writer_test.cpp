// The one JSON writer: its escaper, its number formats and its comma
// placement.  Every stats-json, telemetry array and service response is
// written through it, so these pin the bytes all of them share.
#include "util/json_writer.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "json_round_trip.h"

namespace prop {
namespace {

template <typename Write>
std::string written(Write write) {
  std::ostringstream out;
  JsonWriter w(out);
  write(w);
  return out.str();
}

std::string one_value(const auto& v) {
  return written([&](JsonWriter& w) { w.value(v); });
}

TEST(JsonWriter, EscapesEveryControlByteQuoteAndBackslash) {
  for (int c = 0; c < 0x20; ++c) {
    std::string want;
    switch (c) {
      case '\n': want = "\\n"; break;
      case '\r': want = "\\r"; break;
      case '\t': want = "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        want = buf;
      }
    }
    const std::string s(1, static_cast<char>(c));
    EXPECT_EQ(json_escape(s), want) << "byte " << c;
    EXPECT_EQ(one_value(s), "\"" + want + "\"") << "byte " << c;
    EXPECT_TRUE(testing::json_round_trips(one_value(s))) << "byte " << c;
  }
  EXPECT_EQ(json_escape("\""), "\\\"");
  EXPECT_EQ(json_escape("\\"), "\\\\");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape(""), "");
  // DEL and every byte of a multi-byte UTF-8 sequence pass through.
  const std::string utf8 = "caf\xc3\xa9 \xe2\x82\xac \x7f";
  EXPECT_EQ(json_escape(utf8), utf8);
  EXPECT_TRUE(testing::json_round_trips(one_value(utf8)));
}

TEST(JsonWriter, DoublesMatchPrecision17Streams) {
  for (const double v : {0.0, -0.0, 0.1, 1e-320, 1e300, -2.5, 83.0,
                         0.1 + 0.2, 1.0 / 3.0,
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::denorm_min()}) {
    std::ostringstream want;
    want.precision(17);
    want << v;
    EXPECT_EQ(one_value(v), want.str()) << want.str();
    EXPECT_TRUE(testing::json_round_trips(one_value(v))) << want.str();
  }
  EXPECT_EQ(one_value(-0.0), "-0");
  EXPECT_EQ(one_value(83.0), "83");
}

TEST(JsonWriter, IntegersKeepEveryDigit) {
  const std::uint64_t big = (std::uint64_t{1} << 53) + 1;
  EXPECT_EQ(one_value(big), "9007199254740993");
  EXPECT_EQ(one_value(std::numeric_limits<std::uint64_t>::max()),
            "18446744073709551615");
  EXPECT_EQ(one_value(std::numeric_limits<std::int64_t>::min()),
            "-9223372036854775808");
  EXPECT_EQ(one_value(-7), "-7");
  EXPECT_EQ(one_value(std::size_t{42}), "42");
}

TEST(JsonWriter, StringLiteralIsAStringNotABool) {
  EXPECT_EQ(one_value("literal"), "\"literal\"");
  EXPECT_EQ(one_value(std::string("s")), "\"s\"");
  EXPECT_EQ(one_value(true), "true");
  EXPECT_EQ(one_value(false), "false");
}

TEST(JsonWriter, PlacesEveryComma) {
  const std::string text = written([](JsonWriter& w) {
    w.begin_object();
    w.key("a").begin_array();
    w.value(1).value(2);
    w.begin_object().end_object();
    w.begin_array().end_array();
    w.end_array();
    w.key("b").raw("null");
    w.key("c").begin_object();
    w.key("d").value("x");
    w.end_object();
    w.key("e").value(0.5);
    w.end_object();
  });
  EXPECT_EQ(text, R"({"a":[1,2,{},[]],"b":null,"c":{"d":"x"},"e":0.5})");
  EXPECT_TRUE(testing::json_round_trips(text));
  EXPECT_EQ(written([](JsonWriter& w) { w.begin_array().end_array(); }), "[]");
}

}  // namespace
}  // namespace prop
