#include "util/json_writer.h"

#include <cstdio>
#include <ostream>

namespace prop {

std::string json_escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xf];
    }
  }
  out.append(s, run, s.size() - run);
  return out;
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_.put('{');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_.put('}');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_.put('[');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_.put(']');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  value(name);
  out_.put(':');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  separate();
  out_.put('"');
  out_ << json_escape(s);
  out_.put('"');
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  return raw(b ? "true" : "false");
}

JsonWriter& JsonWriter::value(double v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
  return raw(std::string_view(buf, static_cast<std::size_t>(n)));
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  separate();
  out_.write(json.data(), static_cast<std::streamsize>(json.size()));
  return *this;
}

void JsonWriter::separate() {
  if (need_comma_) out_.put(',');
  need_comma_ = true;
}

}  // namespace prop
