#include "service/json.h"

#include <cstdlib>
#include <sstream>

namespace prop::service {
namespace {

/// Nesting cap for untrusted documents: deep enough for any legitimate job
/// spec or stats blob, shallow enough that a "[[[[..." bomb cannot blow the
/// parser's recursion.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    std::optional<JsonValue> value = parse_value(0);
    if (value) {
      skip_ws();
      if (pos_ != text_.size()) fail("trailing characters after document");
    }
    if (!error_.empty()) {
      if (error) *error = "json: " + error_ + " at offset " + std::to_string(pos_);
      return std::nullopt;
    }
    return value;
  }

 private:
  void fail(const std::string& why) {
    if (error_.empty()) error_ = why;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<JsonValue> parse_value(int depth) {
    if (!error_.empty()) return std::nullopt;
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return std::nullopt;
    }
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return parse_string_value();
      case 't': return parse_literal("true", JsonValue::boolean(true));
      case 'f': return parse_literal("false", JsonValue::boolean(false));
      case 'n': return parse_literal("null", JsonValue::null());
      default: return parse_number();
    }
  }

  std::optional<JsonValue> parse_literal(std::string_view word,
                                         JsonValue value) {
    if (text_.substr(pos_, word.size()) != word) {
      fail("invalid literal");
      return std::nullopt;
    }
    pos_ += word.size();
    return value;
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    if (!consume_digits()) {
      fail("invalid number");
      return std::nullopt;
    }
    if (consume('.')) {
      if (!consume_digits()) {
        fail("invalid number (no digits after '.')");
        return std::nullopt;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!consume_digits()) {
        fail("invalid number (empty exponent)");
        return std::nullopt;
      }
    }
    return JsonValue::number_lexeme(
        std::string(text_.substr(start, pos_ - start)));
  }

  bool consume_digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  std::optional<JsonValue> parse_string_value() {
    std::optional<std::string> s = parse_string();
    if (!s) return std::nullopt;
    return JsonValue::string(std::move(*s));
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) {
      fail("expected '\"'");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
        return std::nullopt;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (!append_unicode_escape(out)) return std::nullopt;
          break;
        }
        default:
          fail("unknown escape");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  bool append_unicode_escape(std::string& out) {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape");
      return false;
    }
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
        return false;
      }
    }
    if (code >= 0xd800 && code <= 0xdfff) {
      // Surrogate pairs never appear in this suite's own output; reject
      // rather than half-decode untrusted input.
      fail("surrogate \\u escapes unsupported");
      return false;
    }
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xc0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      out += static_cast<char>(0xe0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    }
    return true;
  }

  std::optional<JsonValue> parse_array(int depth) {
    consume('[');
    JsonValue out = JsonValue::array();
    skip_ws();
    if (consume(']')) return out;
    while (true) {
      std::optional<JsonValue> item = parse_value(depth + 1);
      if (!item) return std::nullopt;
      out.push_back(std::move(*item));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return out;
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<JsonValue> parse_object(int depth) {
    consume('{');
    JsonValue out = JsonValue::object();
    skip_ws();
    if (consume('}')) return out;
    while (true) {
      skip_ws();
      std::optional<std::string> key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      std::optional<JsonValue> value = parse_value(depth + 1);
      if (!value) return std::nullopt;
      out.set(std::move(*key), std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return out;
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number_lexeme(std::string lexeme) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.scalar_ = std::move(lexeme);
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.scalar_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

double JsonValue::as_double() const noexcept {
  if (type_ != Type::kNumber) return 0.0;
  return std::strtod(scalar_.c_str(), nullptr);
}

std::int64_t JsonValue::as_int64() const noexcept {
  if (type_ != Type::kNumber) return 0;
  return std::strtoll(scalar_.c_str(), nullptr, 10);
}

std::uint64_t JsonValue::as_uint64() const noexcept {
  if (type_ != Type::kNumber) return 0;
  if (!scalar_.empty() && scalar_[0] == '-') {
    return static_cast<std::uint64_t>(as_int64());
  }
  return std::strtoull(scalar_.c_str(), nullptr, 10);
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const Member& m : members_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

void JsonValue::push_back(JsonValue v) {
  if (type_ == Type::kArray) items_.push_back(std::move(v));
}

void JsonValue::set(std::string key, JsonValue v) {
  if (type_ == Type::kObject) {
    members_.emplace_back(std::move(key), std::move(v));
  }
}

void JsonValue::write(JsonWriter& w) const {
  switch (type_) {
    case Type::kNull:
      w.raw("null");
      return;
    case Type::kBool:
      w.value(bool_);
      return;
    case Type::kNumber:
      w.raw(scalar_);
      return;
    case Type::kString:
      w.value(scalar_);
      return;
    case Type::kArray:
      w.begin_array();
      for (const JsonValue& item : items_) item.write(w);
      w.end_array();
      return;
    case Type::kObject:
      w.begin_object();
      for (const Member& m : members_) {
        w.key(m.first);
        m.second.write(w);
      }
      w.end_object();
      return;
  }
}

std::string JsonValue::dump() const {
  std::ostringstream out;
  JsonWriter w(out);
  write(w);
  return out.str();
}

std::optional<JsonValue> json_parse(std::string_view text, std::string* error) {
  return Parser(text).parse(error);
}

}  // namespace prop::service
