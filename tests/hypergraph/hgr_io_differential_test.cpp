// Differential test of the .hgr reader against the std::istringstream-per-
// line parser it replaced, which is kept below, verbatim apart from its
// name, as the oracle.  read_hgr converts each whitespace-separated field
// whole with std::from_chars, where the stream read the longest numeric
// prefix of what was left of the line.  So:
//  - when every field of the input is a plain integer (or a well-formed
//    real where a net weight goes) both build the same graph or fail with
//    the same message;
//  - read_hgr never accepts an input the oracle rejects, and builds the
//    oracle's graph from every input it accepts;
//  - the inputs on which they differ otherwise are the intended
//    divergences listed in kDivergences.
// Checked on a corpus of well-formed, malformed and edge-case inputs, under
// tight HgrLimits, and on seeded byte mutations of all of those and of two
// written generated circuits with weighted nets and nodes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "hypergraph/builder.h"
#include "hypergraph/generator.h"
#include "hypergraph/hgr_io.h"
#include "util/rng.h"

namespace prop {
namespace {

// --- oracle: the previous parser ------------------------------------------

/// Line reader with a running byte budget: every consumed line (comments
/// and blanks included — an attacker controls those too) counts toward
/// HgrLimits::max_bytes before any of its content is acted on.
class OracleLineReader {
 public:
  OracleLineReader(std::istream& in, std::uint64_t max_bytes)
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

Hypergraph oracle_read_hgr(std::istream& in, std::string name,
                           const HgrLimits& limits) {
  OracleLineReader reader(in, limits.max_bytes);
  std::string line;
  if (!reader.next(line)) {
    throw std::runtime_error("hgr: empty input");
  }
  std::istringstream header(line);
  long long num_nets = 0;
  long long num_nodes = 0;
  int fmt = 0;
  header >> num_nets >> num_nodes;
  if (header.fail() || num_nets < 0 || num_nodes < 0) {
    throw std::runtime_error("hgr: malformed header");
  }
  if (header >> fmt) {  // optional fmt code
    std::string junk;
    if (header >> junk) {
      throw std::runtime_error("hgr: malformed header (trailing junk)");
    }
  } else if (!header.eof()) {
    throw std::runtime_error("hgr: malformed header");
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
    std::istringstream net_line(line);
    double cost = 1.0;
    if (weighted_nets) {
      net_line >> cost;
      if (net_line.fail() || cost <= 0.0) {
        throw std::runtime_error("hgr: bad net weight");
      }
    }
    pins.clear();
    long long pin = 0;
    while (net_line >> pin) {
      if (pin < 1 || pin > num_nodes) {
        throw std::runtime_error("hgr: pin id out of range");
      }
      if (limits.max_pins != 0 && ++total_pins > limits.max_pins) {
        throw std::runtime_error("hgr: pin count exceeds limit " +
                                 std::to_string(limits.max_pins));
      }
      pins.push_back(static_cast<NodeId>(pin - 1));
    }
    if (!net_line.eof()) {
      throw std::runtime_error("hgr: junk token in net line");
    }
    if (pins.empty()) {
      throw std::runtime_error("hgr: net with no pins");
    }
    b.add_net(pins, cost);
  }
  if (weighted_nodes) {
    for (long long u = 0; u < num_nodes; ++u) {
      if (!reader.next(line)) {
        throw std::runtime_error("hgr: truncated node weights");
      }
      // Stream-parse like the net lines so malformed or overflowing values
      // surface as a uniform "hgr: ..." diagnostic (failbit covers both)
      // and trailing garbage is rejected instead of silently ignored.
      std::istringstream weight_line(line);
      long long w = 0;
      weight_line >> w;
      if (weight_line.fail() || w <= 0) {
        throw std::runtime_error("hgr: bad node weight");
      }
      std::string junk;
      if (weight_line >> junk) {
        throw std::runtime_error("hgr: junk token after node weight");
      }
      b.set_node_size(static_cast<NodeId>(u), w);
    }
  }
  return std::move(b).build();
}

// --- comparison -------------------------------------------------------------

/// A parse outcome: the graph's full content, or the exception message.
struct Outcome {
  std::optional<std::string> error;
  std::string graph;  // canonical dump, empty on error

  bool operator==(const Outcome&) const = default;
};

std::string dump(const Hypergraph& g) {
  std::ostringstream out;
  out << g.name() << ' ' << g.num_nodes() << ' ' << g.num_nets() << '\n';
  for (NetId n = 0; n < g.num_nets(); ++n) {
    out << std::bit_cast<std::uint64_t>(g.net_cost(n)) << ':';
    for (const NodeId u : g.pins_of(n)) out << ' ' << u;
    out << '\n';
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) out << g.node_size(u) << ' ';
  return out.str();
}

template <class Parse>
Outcome outcome_of(Parse parse, const std::string& text,
                   const HgrLimits& limits) {
  std::istringstream in(text);
  try {
    return {std::nullopt, dump(parse(in, "g", limits))};
  } catch (const std::runtime_error& e) {
    return {std::string(e.what()), ""};
  }
}

Outcome oracle_outcome(const std::string& text, const HgrLimits& limits) {
  return outcome_of(oracle_read_hgr, text, limits);
}

Outcome reader_outcome(const std::string& text, const HgrLimits& limits) {
  return outcome_of(
      [](std::istream& in, std::string name, const HgrLimits& l) {
        return read_hgr(in, std::move(name), l);
      },
      text, limits);
}

/// Requires the same graph or the same message from both parsers.
void expect_same(const std::string& text, const HgrLimits& limits = {}) {
  const Outcome want = oracle_outcome(text, limits);
  const Outcome got = reader_outcome(text, limits);
  const std::string input = ::testing::PrintToString(text);
  EXPECT_EQ(got.error, want.error) << "input: " << input;
  EXPECT_EQ(got.graph, want.graph) << "input: " << input;
}

/// Requires that read_hgr accepts only what the oracle accepts, building
/// the same graph; returns true when read_hgr accepted.
bool expect_no_more_permissive(const std::string& text,
                               const HgrLimits& limits) {
  const Outcome got = reader_outcome(text, limits);
  if (got.error) return false;
  const Outcome want = oracle_outcome(text, limits);
  const std::string input = ::testing::PrintToString(text);
  EXPECT_EQ(want.error, std::nullopt) << "input: " << input;
  EXPECT_EQ(got.graph, want.graph) << "input: " << input;
  return true;
}

/// True when every field of every line read_hgr reads (not blank, not a
/// '%' comment) is a decimal integer of at most 9 digits with an optional
/// '-': fields both parsers read alike wherever they stand.
bool plain_integer_fields(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '%') continue;
    std::string_view rest(line);
    for (;;) {
      const std::size_t begin = rest.find_first_not_of(" \t\n\v\f\r");
      if (begin == std::string_view::npos) break;
      rest.remove_prefix(begin);
      const std::string_view field =
          rest.substr(0, rest.find_first_of(" \t\n\v\f\r"));
      rest.remove_prefix(field.size());
      const std::string_view digits =
          field.front() == '-' ? field.substr(1) : field;
      if (digits.empty() || digits.size() > 9 ||
          digits.find_first_not_of("0123456789") != std::string_view::npos) {
        return false;
      }
    }
  }
  return true;
}

/// Inputs both parsers read alike: the malformed corpus of hgr_io_test.cpp,
/// the valid examples there, and field edge cases (signs, overflow, real
/// syntax in a net weight, CR/VT/FF whitespace).
const char* const kCorpus[] = {
    // valid
    "% comment\n2 4\n1 2\n2 3 4\n",
    "2 3 1\n2.5 1 2\n1 2 3\n",
    "1 3 10\n1 2 3\n4\n5\n6\n",
    "2 3 11\n0.25 1 2\n3e2 2 3\n7\n1\n2\n",
    // malformed corpus
    "", "% only a comment\n", "nets nodes\n", "-1 4\n", "2 -4\n",
    "2 4 1 extra\n1 2\n3 4\n", "2 4 x\n1 2\n3 4\n", "1 2 7\n1 2\n",
    "2 3\n1 2\n", "1 3 1\nbad 1 2\n", "1 3 1\n-2 1 2\n", "1 3 1\n0 1 2\n",
    "1 2\n1 5\n", "1 2\n0 1\n", "1 2\n-3 1\n", "1 3\n1 2 oops\n",
    "1 3 1\n2.5\n", "1 3 10\n1 2 3\n4\n5\n", "1 3 10\n1 2 3\nfour\n5\n6\n",
    "1 3 10\n1 2 3\n4\n99999999999999999999999\n6\n",
    "1 3 10\n1 2 3\n4\n0\n6\n", "1 3 10\n1 2 3\n4\n-5\n6\n",
    "1 3 10\n1 2 3\n4\n5 junk\n6\n",
    "1 1000000000000000000\n1 2\n", "1000000000000000000 4\n1 2\n",
    // integer fields
    "2 4 99999999999 5\n1 2\n3 4\n",
    "1 3\n1 2 +-3\n", "1 3\n1 2 99999999999999999999 3\n", "1 3\n1 2 3x\n",
    "1 3\n001 002\n", "1 3 10\n1 2 3\n4\n-\n6\n",
    "1 2 10\n1 2\n9223372036854775806\n1\n", "3-4\n1 2\n",
    // net weights
    "1 3 1\n.5 1 2\n", "1 3 1\n5. 1 2\n", "1 3 1\n1e 1 2\n",
    "1 3 1\n1e+ 1 2\n", "1 3 1\n1e-1 1 2\n", "1 3 1\n1E2 1 2\n",
    "1 3 1\n.e5 1 2\n", "1 3 1\n-.5 1 2\n", "1 3 1\n- 1 2\n",
    "1 3 1\n0x10 1 2\n", "1 3 1\n1e400 1 2\n", "1 3 1\n1e-400 1 2\n",
    "1 3 1\n1.7976931348623159e308 1 2\n", "1 3 1\n0002.5 1 2\n",
    "1 3 1\n2.5", "1 3 1\n2.5e",
    // whitespace
    "2 4\r\n1 2\r\n3 4\r\n", "2\t4\n1\v2\n3\f4\n", "  2 4  \n 1 2 \n3 4\n",
    "2 4\n\n%x\n1 2\n \t\n3 4\n",
};

/// An input with a NUL byte inside a net line.
const std::string kNulInLine("1 3\n1 2\0 3\n", 11);

std::string written_circuit(bool integer_costs) {
  Hypergraph g = generate_circuit({"mut", 60, 75, 220}, 5);
  HypergraphBuilder b(g.num_nodes());
  Rng rng(5);
  for (NetId n = 0; n < g.num_nets(); ++n) {
    const auto pins = g.pins_of(n);
    const double cost =
        integer_costs ? 1.0 + static_cast<double>(rng.bounded(9))
                      : 0.5 + static_cast<double>(rng.bounded(40)) / 8.0;
    b.add_net(std::vector<NodeId>(pins.begin(), pins.end()), cost);
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    b.set_node_size(u, 1 + static_cast<std::int64_t>(rng.bounded(9)));
  }
  std::ostringstream out;
  write_hgr(std::move(b).build(), out);
  return out.str();
}

/// One to three byte edits, biased toward the bytes the extraction rules
/// treat specially.
std::string mutate(std::string text, Rng& rng) {
  static const char kBytes[] = "0123456789 \t\r\n\v\f+-.eEx%\0\xff";
  const auto pick = [&] {
    return rng.bounded(4) == 0
               ? static_cast<char>(rng.bounded(256))
               : kBytes[rng.bounded(sizeof kBytes - 1)];
  };
  const int edits = 1 + static_cast<int>(rng.bounded(3));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = text.empty() ? 0 : rng.bounded(text.size());
    switch (rng.bounded(4)) {
      case 0:
        if (!text.empty()) text[at] = pick();
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), pick());
        break;
      case 2:
        if (!text.empty()) text.erase(at, 1);
        break;
      default: {  // repeat a short run of digits/bytes
        const std::size_t len = 1 + rng.bounded(20);
        text.insert(at, std::string(len, text.empty() ? '9' : text[at]));
        break;
      }
    }
  }
  return text;
}

TEST(HgrIoDifferential, CorpusMatchesStreamParser) {
  for (const char* text : kCorpus) expect_same(text);
  expect_same(kNulInLine);
  expect_same(written_circuit(false));
}

TEST(HgrIoDifferential, LimitsMatchStreamParser) {
  HgrLimits tight;
  tight.max_nodes = 50;
  tight.max_nets = 50;
  tight.max_pins = 100;
  tight.max_bytes = 300;
  for (const char* text : kCorpus) expect_same(text, tight);
  expect_same(written_circuit(false), tight);
}

/// Where the two parsers part: read_hgr rejects each of these inputs with
/// `message`; the oracle accepted it, or failed with `oracle_error`.
struct Divergence {
  const char* input;
  const char* message;
  const char* oracle_error;  // null: the oracle accepted the input
};

const Divergence kDivergences[] = {
    // A leading '+' (the stream read it as a sign).
    {"+2 +4\n+1 +2\n3 4\n", "hgr: malformed header", nullptr},
    {"1 3 1\n+2.5 1 2\n", "hgr: bad net weight", nullptr},
    {"1 3 10\n1 2 3\n+4\n5\n6\n", "hgr: bad node weight", nullptr},
    // A lone sign, or an id that overflows, at the end of a net line (the
    // stream's failed extraction at end of line ended the pin list).
    {"1 3\n1 2 -\n", "hgr: junk token in net line", nullptr},
    {"1 3\n1 2 +\n", "hgr: junk token in net line", nullptr},
    {"1 3\n1 2 99999999999999999999\n", "hgr: junk token in net line",
     nullptr},
    // An fmt field of a lone sign (the stream read fmt 0) or out of int's
    // range (the stream stored INT_MAX).
    {"2 4 -\n1 2\n3 4\n", "hgr: malformed header", nullptr},
    {"2 4 99999999999\n1 2\n3 4\n", "hgr: malformed header",
     "hgr: unknown fmt code"},
    {"2 4 -99999999999999999999\n1 2\n3 4\n", "hgr: malformed header",
     "hgr: unknown fmt code"},
    // Two numbers run together in one field (the stream split them).
    {"1 3\n1 2+3\n", "hgr: junk token in net line", nullptr},
    {"2+4\n1 2\n3 4\n", "hgr: malformed header", nullptr},
    // A field with trailing text after its number is one malformed field
    // (the stream read the number and failed on the rest).
    {"2 4 1x\n1 2\n3 4\n", "hgr: malformed header",
     "hgr: malformed header (trailing junk)"},
    {"2 4 1.5\n1 2\n3 4\n", "hgr: malformed header",
     "hgr: malformed header (trailing junk)"},
    {"1 3 1\n1.5.3 1 2\n", "hgr: bad net weight",
     "hgr: junk token in net line"},
    {"1 3 1\n1e5e 1 2\n", "hgr: bad net weight",
     "hgr: junk token in net line"},
    {"1 3 10\n1 2 3\n4.5\n5\n6\n", "hgr: bad node weight",
     "hgr: junk token after node weight"},
    {"1 3\n1 5x\n", "hgr: junk token in net line", "hgr: pin id out of range"},
    {"1 3\n1 0.5\n", "hgr: junk token in net line",
     "hgr: pin id out of range"},
    {"1 3\n1 2 0x3\n", "hgr: junk token in net line",
     "hgr: pin id out of range"},
    // from_chars reads "inf" and "nan", which read_hgr rejects as weights.
    {"1 3 1\ninf 1 2\n", "hgr: bad net weight", "hgr: bad net weight"},
    {"1 3 1\nnan 1 2\n", "hgr: bad net weight", "hgr: bad net weight"},
};

TEST(HgrIoDifferential, IntendedDivergences) {
  for (const Divergence& d : kDivergences) {
    const std::string input = ::testing::PrintToString(d.input);
    EXPECT_EQ(reader_outcome(d.input, {}).error, d.message) << input;
    const Outcome oracle = oracle_outcome(d.input, {});
    if (d.oracle_error == nullptr) {
      EXPECT_EQ(oracle.error, std::nullopt) << input;
    } else {
      EXPECT_EQ(oracle.error, d.oracle_error) << input;
    }
  }
}

TEST(HgrIoDifferential, SeededMutationsMatchStreamParser) {
  std::vector<std::string> bases(std::begin(kCorpus), std::end(kCorpus));
  for (const Divergence& d : kDivergences) bases.emplace_back(d.input);
  bases.push_back(kNulInLine);
  const std::string integer_circuit = written_circuit(true);
  const std::string real_circuit = written_circuit(false);
  // Mutated digits make huge headers; the count caps keep every case from
  // allocating more than a small graph (both parsers check them first).
  HgrLimits loose;
  loose.max_nodes = 10000;
  loose.max_nets = 10000;
  HgrLimits tight = loose;
  tight.max_pins = 150;
  tight.max_bytes = 900;
  Rng rng(0x4867721);
  int compared = 0;
  int compared_parsed = 0;
  int parsed = 0;
  int rejected = 0;
  constexpr int kMutations = 10000;
  for (int i = 0; i < kMutations; ++i) {
    // Every third mutation mutates each generated circuit.
    const std::string& base = i % 3 == 0   ? integer_circuit
                              : i % 3 == 1 ? real_circuit
                                           : bases[rng.bounded(bases.size())];
    const std::string text = mutate(base, rng);
    const HgrLimits& limits = i % 5 == 0 ? tight : loose;
    if (plain_integer_fields(text)) {
      expect_same(text, limits);
      ++compared;
    }
    if (expect_no_more_permissive(text, limits)) {
      ++parsed;
      if (plain_integer_fields(text)) ++compared_parsed;
    } else {
      ++rejected;
    }
    if (::testing::Test::HasFailure()) break;  // one input is enough to debug
  }
  // Every path must be exercised, or the comparison proves little.
  EXPECT_GT(parsed, kMutations / 20);
  EXPECT_GT(rejected, kMutations / 20);
  EXPECT_GT(compared_parsed, kMutations / 20);
  EXPECT_GT(compared - compared_parsed, kMutations / 20);
}

}  // namespace
}  // namespace prop
