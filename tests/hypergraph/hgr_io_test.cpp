#include "hypergraph/hgr_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "hypergraph/builder.h"
#include "hypergraph/generator.h"

namespace prop {
namespace {

TEST(HgrIo, ReadsPlainFormat) {
  std::istringstream in("% comment\n2 4\n1 2\n2 3 4\n");
  const Hypergraph g = read_hgr(in, "x");
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_nets(), 2u);
  EXPECT_EQ(g.net_size(1), 3u);
  EXPECT_TRUE(g.unit_net_costs());
}

TEST(HgrIo, ReadsWeightedNets) {
  std::istringstream in("2 3 1\n2.5 1 2\n1 2 3\n");
  const Hypergraph g = read_hgr(in);
  EXPECT_DOUBLE_EQ(g.net_cost(0), 2.5);
  EXPECT_DOUBLE_EQ(g.net_cost(1), 1.0);
}

TEST(HgrIo, ReadsWeightedNodes) {
  std::istringstream in("1 3 10\n1 2 3\n4\n5\n6\n");
  const Hypergraph g = read_hgr(in);
  EXPECT_EQ(g.node_size(0), 4);
  EXPECT_EQ(g.node_size(2), 6);
}

/// Every rejection must be a std::runtime_error whose message carries the
/// uniform "hgr:" prefix, so CLI users see which input file is at fault
/// rather than a raw stoll/terminate diagnostic.
void expect_hgr_error(const std::string& text, const std::string& label) {
  std::istringstream in(text);
  try {
    read_hgr(in);
    FAIL() << label << ": expected read_hgr to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("hgr:", 0), 0u)
        << label << ": message lacks 'hgr:' prefix: " << e.what();
  } catch (...) {
    FAIL() << label << ": wrong exception type (not std::runtime_error)";
  }
}

TEST(HgrIo, RejectsMalformedCorpus) {
  expect_hgr_error("", "empty input");
  expect_hgr_error("% only a comment\n", "comment-only input");
  expect_hgr_error("nets nodes\n", "non-numeric header");
  expect_hgr_error("-1 4\n", "negative net count");
  expect_hgr_error("2 -4\n", "negative node count");
  expect_hgr_error("2 4 1 extra\n1 2\n3 4\n", "header trailing junk");
  expect_hgr_error("2 4 x\n1 2\n3 4\n", "non-numeric fmt");
  expect_hgr_error("1 2 7\n1 2\n", "unknown fmt code");
  expect_hgr_error("2 3\n1 2\n", "truncated net list");
  expect_hgr_error("1 3 1\nbad 1 2\n", "non-numeric net weight");
  expect_hgr_error("1 3 1\n-2 1 2\n", "negative net weight");
  expect_hgr_error("1 3 1\n0 1 2\n", "zero net weight");
  expect_hgr_error("1 2\n1 5\n", "pin out of range (high)");
  expect_hgr_error("1 2\n0 1\n", "pin out of range (zero)");
  expect_hgr_error("1 2\n-3 1\n", "negative pin id");
  expect_hgr_error("1 3\n1 2 oops\n", "junk token in net line");
  expect_hgr_error("1 3 1\n2.5\n", "net with weight but no pins");
  expect_hgr_error("1 3 1\nnan 1 2\n", "NaN net weight");
  expect_hgr_error("1 3 1\ninf 1 2\n", "infinite net weight");
  expect_hgr_error("1 3 1\n1e400 1 2\n", "overflowing net weight");
  expect_hgr_error("1 3 1\n0x1p3 1 2\n", "hex-float net weight");
}

TEST(HgrIo, RejectsMalformedNodeWeights) {
  expect_hgr_error("1 3 10\n1 2 3\n4\n5\n", "truncated node weights");
  expect_hgr_error("1 3 10\n1 2 3\nfour\n5\n6\n", "non-numeric node weight");
  expect_hgr_error("1 3 10\n1 2 3\n4\n99999999999999999999999\n6\n",
                   "overflowing node weight");
  expect_hgr_error("1 3 10\n1 2 3\n4\n0\n6\n", "zero node weight");
  expect_hgr_error("1 3 10\n1 2 3\n4\n-5\n6\n", "negative node weight");
  expect_hgr_error("1 3 10\n1 2 3\n4\n5 junk\n6\n", "junk after node weight");
}

TEST(HgrIo, RejectsNodeWeightsWhoseTotalOverflows) {
  // Each weight is in range, but the int64 total of the graph is not.  (The
  // stream parser this reader replaced accepted this input and left the
  // overflow to HypergraphBuilder::build; the differential test therefore
  // leaves it out.)
  expect_hgr_error("1 3 10\n1 2 3\n9223372036854775807\n1\n1\n",
                   "total node weight overflow");
  std::istringstream at_limit("1 2 10\n1 2\n9223372036854775806\n1\n");
  EXPECT_EQ(read_hgr(at_limit).total_node_size(), INT64_MAX);
}

TEST(HgrIo, RoundTripPlain) {
  HypergraphBuilder b(5);
  b.add_net({0, 1, 2});
  b.add_net({3, 4});
  b.add_net({0, 4});
  const Hypergraph g = std::move(b).build();

  std::ostringstream out;
  write_hgr(g, out);
  std::istringstream in(out.str());
  const Hypergraph h = read_hgr(in);

  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_nets(), g.num_nets());
  ASSERT_EQ(h.num_pins(), g.num_pins());
  for (NetId n = 0; n < g.num_nets(); ++n) {
    ASSERT_EQ(h.net_size(n), g.net_size(n));
  }
}

TEST(HgrIo, RoundTripWeighted) {
  HypergraphBuilder b(3);
  b.add_net({0, 1}, 2.0);
  b.add_net({1, 2});
  b.set_node_size(2, 7);
  const Hypergraph g = std::move(b).build();

  std::ostringstream out;
  write_hgr(g, out);
  std::istringstream in(out.str());
  const Hypergraph h = read_hgr(in);
  EXPECT_DOUBLE_EQ(h.net_cost(0), 2.0);
  EXPECT_EQ(h.node_size(2), 7);
}

TEST(HgrIo, WriterReportsStreamFailure) {
  HypergraphBuilder b(2);
  b.add_net({0, 1});
  const Hypergraph g = std::move(b).build();

  std::ostringstream out;
  out.setstate(std::ios::failbit);
  try {
    write_hgr(g, out);
    FAIL() << "expected write_hgr to throw on a failed stream";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("hgr:", 0), 0u) << e.what();
  }
}

/// The untrusted-payload caps (service ingest).  Each limit must reject via
/// the uniform "hgr:" runtime_error *before* the corresponding allocation.
void expect_limit_error(const std::string& text, const HgrLimits& limits,
                        const std::string& needle, const std::string& label) {
  std::istringstream in(text);
  try {
    read_hgr(in, "", limits);
    FAIL() << label << ": expected read_hgr to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("hgr:", 0), 0u) << label << ": " << what;
    EXPECT_NE(what.find(needle), std::string::npos)
        << label << ": message '" << what << "' lacks '" << needle << "'";
  }
}

TEST(HgrIoLimits, EnforcesNodeAndNetCaps) {
  HgrLimits limits;
  limits.max_nodes = 3;
  expect_limit_error("1 4\n1 2\n", limits, "node", "node cap");
  limits = {};
  limits.max_nets = 1;
  expect_limit_error("2 4\n1 2\n3 4\n", limits, "net", "net cap");
}

TEST(HgrIoLimits, HeaderCapsRejectBeforeAllocation) {
  // A hostile header claiming 10^18 nodes must fail on the cap check, not
  // inside a 10^18-element reserve.  (With no limits, the 31-bit id-range
  // cap still rejects it.)
  HgrLimits limits;
  limits.max_nodes = 1000;
  expect_limit_error("1 1000000000000000000\n1 2\n", limits, "node",
                     "huge node count vs cap");
  expect_limit_error("1 1000000000000000000\n1 2\n", HgrLimits{}, "31-bit",
                     "huge node count vs id range");
  expect_limit_error("1000000000000000000 4\n1 2\n", HgrLimits{}, "31-bit",
                     "huge net count vs id range");
}

TEST(HgrIoLimits, EnforcesPinCapMidStream) {
  HgrLimits limits;
  limits.max_pins = 3;
  expect_limit_error("2 4\n1 2\n2 3 4\n", limits, "pin", "pin cap");
  limits.max_pins = 5;  // exactly at the limit is fine
  std::istringstream ok("2 4\n1 2\n2 3 4\n");
  EXPECT_EQ(read_hgr(ok, "", limits).num_pins(), 5u);
}

TEST(HgrIoLimits, EnforcesByteCapIncludingComments) {
  HgrLimits limits;
  limits.max_bytes = 16;
  expect_limit_error("% padding padding padding\n2 4\n1 2\n2 3 4\n", limits,
                     "byte", "comment bytes count");
  limits.max_bytes = 4096;
  std::istringstream ok("2 4\n1 2\n2 3 4\n");
  EXPECT_EQ(read_hgr(ok, "", limits).num_nodes(), 4u);
}

TEST(HgrIoLimits, ZeroMeansUnlimited) {
  std::istringstream in("2 4\n1 2\n2 3 4\n");
  const Hypergraph g = read_hgr(in, "x", HgrLimits{});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_nets(), 2u);
}

TEST(HgrIo, RoundTripGeneratedCircuit) {
  const Hypergraph g = generate_circuit({"rt", 120, 150, 470}, 9);
  std::ostringstream out;
  write_hgr(g, out);
  std::istringstream in(out.str());
  const Hypergraph h = read_hgr(in);
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_nets(), g.num_nets());
  EXPECT_EQ(h.num_pins(), g.num_pins());
}

}  // namespace
}  // namespace prop
