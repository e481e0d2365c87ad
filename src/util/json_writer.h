// The one JSON writer.  Every document the suite emits (stats-json,
// refinement telemetry, service responses, JsonValue::write) streams
// through it, so the two format decisions they share live here only:
//
//   * strings: '"' and '\\' are escaped, \n \r \t by name, every other
//     byte below 0x20 as \u00XX; all other bytes (UTF-8 included) pass
//     through unchanged;
//   * doubles: 17 significant digits (printf "%.17g"), so every value
//     parses back to the same bits.
//
// Output is compact (no whitespace).  The writer places every comma
// itself, so component writers (`write_json(JsonWriter&, const T&)`) nest
// without tracking whether they are the first item of their container.
// It does not check nesting: a caller that ends a container it never began
// gets malformed output.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

namespace prop {

/// `s` with quotes, backslashes and control bytes escaped as above,
/// without surrounding quotes.
std::string json_escape(std::string_view s);

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Member name inside an object; the next call writes its value.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  /// A string literal would otherwise convert to bool, not string_view.
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b);
  JsonWriter& value(double v);
  /// Every digit, so 64-bit seeds above 2^53 survive.
  template <std::integral T>
  JsonWriter& value(T v) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    return raw(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }

  /// A value that is already serialized JSON, written verbatim.
  JsonWriter& raw(std::string_view json);

 private:
  /// Writes the comma owed before a key or a value, if any.
  void separate();

  std::ostream& out_;
  bool need_comma_ = false;
};

}  // namespace prop
