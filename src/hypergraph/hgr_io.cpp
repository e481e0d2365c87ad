#include "hypergraph/hgr_io.h"

#include <charconv>
#include <climits>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "hypergraph/builder.h"

namespace prop {
namespace {

/// Line reader with a running byte budget: every consumed line (comments
/// and blanks included — an attacker controls those too) counts toward
/// HgrLimits::max_bytes before any of its content is acted on.
class LineReader {
 public:
  LineReader(std::istream& in, std::uint64_t max_bytes)
      : in_(in), max_bytes_(max_bytes) {}

  /// Reads the next non-comment, non-blank line; returns false at EOF.
  bool next(std::string& line) {
    while (std::getline(in_, line)) {
      bytes_ += line.size() + 1;  // + the consumed newline
      if (max_bytes_ != 0 && bytes_ > max_bytes_) {
        throw std::runtime_error("hgr: payload exceeds max bytes (" +
                                 std::to_string(max_bytes_) + ")");
      }
      std::size_t i = 0;
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
      if (i == line.size() || line[i] == '%') continue;
      return true;
    }
    return false;
  }

 private:
  std::istream& in_;
  std::uint64_t max_bytes_;
  std::uint64_t bytes_ = 0;
};

/// The fields of one line, split at "C"-locale whitespace.
class Fields {
 public:
  explicit Fields(std::string_view line) : rest_(line) {}

  /// The next field; empty at the end of the line.
  std::string_view next() noexcept {
    std::size_t i = 0;
    while (i < rest_.size() && is_space(rest_[i])) ++i;
    std::size_t j = i;
    while (j < rest_.size() && !is_space(rest_[j])) ++j;
    const std::string_view field = rest_.substr(i, j - i);
    rest_.remove_prefix(j);
    return field;
  }

 private:
  static bool is_space(char c) noexcept {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  std::string_view rest_;
};

/// Converts a whole field with std::from_chars: false unless every byte of
/// it is part of one in-range number (so no '+' sign, no trailing text).
template <class T>
bool parse_field(std::string_view field, T& value) noexcept {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  return ec == std::errc() && ptr == end;
}

}  // namespace

Hypergraph read_hgr(std::istream& in, std::string name,
                    const HgrLimits& limits) {
  LineReader reader(in, limits.max_bytes);
  std::string line;
  if (!reader.next(line)) {
    throw std::runtime_error("hgr: empty input");
  }
  Fields header(line);
  long long num_nets = 0;
  long long num_nodes = 0;
  if (!parse_field(header.next(), num_nets) ||
      !parse_field(header.next(), num_nodes) || num_nets < 0 ||
      num_nodes < 0) {
    throw std::runtime_error("hgr: malformed header");
  }
  int fmt = 0;  // optional fmt code
  if (const std::string_view field = header.next(); !field.empty()) {
    if (!parse_field(field, fmt)) {
      throw std::runtime_error("hgr: malformed header");
    }
    if (!header.next().empty()) {
      throw std::runtime_error("hgr: malformed header (trailing junk)");
    }
  }
  const bool weighted_nets = (fmt == 1 || fmt == 11);
  const bool weighted_nodes = (fmt == 10 || fmt == 11);
  if (fmt != 0 && !weighted_nets && !weighted_nodes) {
    throw std::runtime_error("hgr: unknown fmt code");
  }
  // All header-driven caps fire before HypergraphBuilder allocates anything:
  // a hostile "999999999999 999999999999" header must be rejected by
  // arithmetic alone.  The id-width cap holds unconditionally (NodeId/NetId
  // are 32-bit); the configurable limits only when nonzero.
  if (limits.max_nodes != 0 &&
      static_cast<std::uint64_t>(num_nodes) > limits.max_nodes) {
    throw std::runtime_error("hgr: node count " + std::to_string(num_nodes) +
                             " exceeds limit " +
                             std::to_string(limits.max_nodes));
  }
  if (limits.max_nets != 0 &&
      static_cast<std::uint64_t>(num_nets) > limits.max_nets) {
    throw std::runtime_error("hgr: net count " + std::to_string(num_nets) +
                             " exceeds limit " + std::to_string(limits.max_nets));
  }
  constexpr long long kMaxIdWidth = 0x7fffffffLL;
  if (num_nodes > kMaxIdWidth || num_nets > kMaxIdWidth) {
    throw std::runtime_error("hgr: header counts exceed 31-bit id range");
  }

  HypergraphBuilder b(static_cast<NodeId>(num_nodes));
  b.set_name(std::move(name));
  std::vector<NodeId> pins;
  std::uint64_t total_pins = 0;
  for (long long n = 0; n < num_nets; ++n) {
    if (!reader.next(line)) {
      throw std::runtime_error("hgr: truncated net list");
    }
    Fields fields(line);
    double cost = 1.0;
    // from_chars reads "inf" and "nan", which are no weights either.
    if (weighted_nets && (!parse_field(fields.next(), cost) ||
                          !std::isfinite(cost) || cost <= 0.0)) {
      throw std::runtime_error("hgr: bad net weight");
    }
    pins.clear();
    for (std::string_view field = fields.next(); !field.empty();
         field = fields.next()) {
      long long pin = 0;
      if (!parse_field(field, pin)) {
        throw std::runtime_error("hgr: junk token in net line");
      }
      if (pin < 1 || pin > num_nodes) {
        throw std::runtime_error("hgr: pin id out of range");
      }
      if (limits.max_pins != 0 && ++total_pins > limits.max_pins) {
        throw std::runtime_error("hgr: pin count exceeds limit " +
                                 std::to_string(limits.max_pins));
      }
      pins.push_back(static_cast<NodeId>(pin - 1));
    }
    if (pins.empty()) {
      throw std::runtime_error("hgr: net with no pins");
    }
    b.add_net(pins, cost);
  }
  if (weighted_nodes) {
    // The graph sums node weights into an int64 total; a sum past its range
    // would be signed overflow there, so it is rejected here.
    long long total_weight = 0;
    for (long long u = 0; u < num_nodes; ++u) {
      if (!reader.next(line)) {
        throw std::runtime_error("hgr: truncated node weights");
      }
      // Malformed and overflowing values both fail the conversion, and
      // trailing garbage is rejected instead of silently ignored.
      Fields fields(line);
      long long w = 0;
      if (!parse_field(fields.next(), w) || w <= 0) {
        throw std::runtime_error("hgr: bad node weight");
      }
      if (!fields.next().empty()) {
        throw std::runtime_error("hgr: junk token after node weight");
      }
      if (w > LLONG_MAX - total_weight) {
        throw std::runtime_error("hgr: total node weight exceeds int64 range");
      }
      total_weight += w;
      b.set_node_size(static_cast<NodeId>(u), w);
    }
  }
  return std::move(b).build();
}

Hypergraph read_hgr_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("hgr: cannot open " + path);
  return read_hgr(in, path);
}

void write_hgr(const Hypergraph& g, std::ostream& out) {
  const bool weighted_nets = !g.unit_net_costs();
  const bool weighted_nodes = !g.unit_node_sizes();
  int fmt = 0;
  if (weighted_nets) fmt += 1;
  if (weighted_nodes) fmt += 10;
  out << g.num_nets() << ' ' << g.num_nodes();
  if (fmt != 0) out << ' ' << (fmt < 10 ? "1" : (fmt == 10 ? "10" : "11"));
  out << '\n';
  for (NetId n = 0; n < g.num_nets(); ++n) {
    if (weighted_nets) out << g.net_cost(n) << ' ';
    bool first = true;
    for (const NodeId u : g.pins_of(n)) {
      if (!first) out << ' ';
      out << (u + 1);
      first = false;
    }
    out << '\n';
  }
  if (weighted_nodes) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) out << g.node_size(u) << '\n';
  }
  // A full disk or broken pipe surfaces as stream failbits, not exceptions;
  // without this check a truncated file would pass silently.
  out.flush();
  if (!out) {
    throw std::runtime_error("hgr: write failed (stream error after flush)");
  }
}

void write_hgr_file(const Hypergraph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("hgr: cannot write " + path);
  write_hgr(g, out);
  out.close();
  if (!out) throw std::runtime_error("hgr: write failed for " + path);
}

}  // namespace prop
