// Minimal JSON value and parser for the service wire protocol.
//
// The service layer promises byte-identical re-serialization of everything
// the suite itself emits (stats-json, every server response), so JsonValue
// deliberately keeps the *lexeme* of every number instead of a decoded
// double: 64-bit seeds survive above 2^53, "3" stays "3", and a
// precision-17 double round-trips bit-for-bit.  Object member order is
// preserved for the same reason.  write()/dump() go through the one
// JsonWriter (util/json_writer.h), so a parsed document re-serializes with
// the escaping it was written with.
//
// Parsing is from untrusted clients: the parser never throws past its API
// (json_parse returns nullopt + a diagnostic), enforces a nesting-depth cap
// and rejects trailing junk.  Strings decode the standard escapes
// (\" \\ \/ \b \f \n \r \t \uXXXX with UTF-8 encoding of non-surrogate code
// points).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json_writer.h"

namespace prop::service {

/// The writer's escaper, also reachable under its former service name.
using prop::json_escape;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  // null

  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool b);
  /// Number from a pre-formed lexeme (must be a valid JSON number).
  static JsonValue number_lexeme(std::string lexeme);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  bool as_bool() const noexcept { return bool_; }
  /// The verbatim number token ("3", "0.5", "18446744073709551615").
  const std::string& lexeme() const noexcept { return scalar_; }
  double as_double() const noexcept;
  std::int64_t as_int64() const noexcept;
  std::uint64_t as_uint64() const noexcept;
  const std::string& as_string() const noexcept { return scalar_; }

  const std::vector<JsonValue>& items() const noexcept { return items_; }
  const std::vector<Member>& members() const noexcept { return members_; }

  /// Object lookup (first match); null for non-objects / missing keys.
  const JsonValue* find(std::string_view key) const noexcept;

  // Builders (no-ops on the wrong type, so misuse is inert, not UB).
  void push_back(JsonValue v);
  void set(std::string key, JsonValue v);

  /// Compact serialization through JsonWriter: no whitespace, members in
  /// insertion order, numbers emitted as their lexeme.
  void write(JsonWriter& w) const;
  std::string dump() const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  std::string scalar_;  // number lexeme or string payload
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

/// Parses one JSON document occupying the whole of `text` (trailing
/// whitespace allowed).  Returns nullopt and fills `*error` (when non-null)
/// with a "json: ..." diagnostic on malformed input.
std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error = nullptr);

}  // namespace prop::service
