// Bench-local helpers shared by the untraced driver and the traced replay:
// option parsing, statistics, the independent output oracle, the partition
// digest, a minimal scanner for service responses, and the one-line JSON
// report every run prints last.
//
// Nothing here calls a cost, balance or validation function of the library:
// the oracle recomputes cut, connectivity and balance from the hypergraph
// alone, so a wrong cost claimed by any engine is caught by code that engine
// never ran.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Exit codes shared by both executables (run.py maps them to messages).
inline constexpr int kExitUsage = 2;
inline constexpr int kExitOracle = 3;    ///< a job failed or the oracle disagreed
inline constexpr int kExitReplay = 4;    ///< traced replay != library call
inline constexpr int kExitSelfTest = 5;  ///< --self-test found a broken check

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool smoke = false;
  bool self_test = false;
  /// Deliberately corrupts one output so --self-test can show the gate
  /// that guards it exits nonzero.
  bool corrupt = false;
  std::string trace_out;  ///< e2e_trace only: where to write the spans
};

/// Parses `--workload W --seed N --seconds S [--smoke] [--corrupt]
/// [--trace-out FILE]` or `--self-test`.  Prints usage and returns nullopt
/// on anything else.
std::optional<Options> parse_options(int argc, char** argv, bool allow_trace_out);

double seconds_between(Clock::time_point from, Clock::time_point to);
/// Peak resident set (VmHWM) in MB; 0 when /proc is unavailable.
double peak_rss_mb();

// --- statistics ---------------------------------------------------------

double mean(const std::vector<double>& v);
double median(std::vector<double> v);
/// Percentile by linear interpolation between the sorted samples at
/// position p * (n - 1), so p = 0.5 is the median.  p in [0, 1].  On a few
/// samples this is steadier than a nearest-rank value, which is the maximum.
double percentile(std::vector<double> v, double p);
/// Samples strictly above the p-percentile of `v`.
std::size_t samples_beyond(const std::vector<double>& v, double p);
/// Geometric mean of positive values; 0 for an empty input.
double geomean(const std::vector<double>& v);
double stddev(const std::vector<double>& v);

/// Objective values grouped by (input, algorithm, k).  The quality metrics
/// average within a group and take the geometric mean across groups, so a
/// large circuit does not drown the small ones.
class QualityTable {
 public:
  void add(const std::string& group, double cost) { groups_[group].push_back(cost); }
  double cut_mean() const;  ///< geomean over groups of the group mean
  double cut_best() const;  ///< geomean over groups of the group minimum
  /// geomean over groups with >= 2 samples and nonzero spread of the group
  /// standard deviation.
  double cut_sd() const;

 private:
  std::map<std::string, std::vector<double>> groups_;
};

// --- digest -------------------------------------------------------------

/// 64-bit FNV-1a over every job's partition, folded in job order.
class Digest {
 public:
  void add_job(std::uint64_t job, std::span<const std::uint8_t> parts);
  std::string hex() const;

 private:
  void add_bytes(const void* data, std::size_t n);
  std::uint64_t h_ = 14695981039346656037ULL;
};

// --- oracle ---------------------------------------------------------------

/// What a job promised: k parts, an objective, and a balance requirement.
/// k == 2 uses the (r1, r2) window on side 0 (widened by the largest node
/// when narrower than two nodes, as the paper's FM convention allows);
/// k > 2 bounds every part by total/k * (1 +- tolerance), likewise widened.
struct Promise {
  int k = 2;
  bool connectivity = false;  ///< objective: connectivity (else cut)
  double r1 = 0.45;
  double r2 = 0.55;
  double tolerance = 0.1;
};

struct OracleVerdict {
  bool ok = true;
  std::string message;
  double cut = 0.0;
  double connectivity = 0.0;
};

/// Recomputes cut, connectivity and balance of `parts` on `g` from scratch
/// and compares the objective with `claimed`.
OracleVerdict oracle_check(const prop::Hypergraph& g,
                           std::span<const std::uint8_t> parts,
                           const Promise& promise, double claimed);

// --- service responses ------------------------------------------------------

/// Raw text of member `key` of the JSON object `object` (top level only);
/// nullopt when absent or malformed.  String values keep their quotes.
std::optional<std::string> json_member(const std::string& object,
                                       const std::string& key);
/// A string member without its quotes (no unescaping: ids, states and
/// partitions never contain escapes).
std::optional<std::string> json_string_member(const std::string& object,
                                              const std::string& key);
/// Base-36 side string -> part ids; nullopt on a character outside 0-9a-z.
std::optional<std::vector<std::uint8_t>> decode_parts(const std::string& s);

// --- report -----------------------------------------------------------------

/// The last stdout line of every run: counts, metrics with units, the
/// exact (deterministic) values that --compare requires to match, and
/// informational values such as sample counts.
class Report {
 public:
  Report(std::string workload, std::uint64_t seed, std::string mode,
         bool smoke);
  void metric(const std::string& name, double value, const std::string& unit);
  void exact(const std::string& name, const std::string& text);  ///< a JSON string
  void exact(const std::string& name, double value);
  void info(const std::string& name, double value);
  void set_counts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }
  void set_correct(bool correct) { correct_ = correct; }
  void print(std::FILE* out) const;

 private:
  std::string workload_;
  std::uint64_t seed_;
  std::string mode_;
  bool smoke_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> exact_;
  std::vector<std::pair<std::string, std::string>> info_;
};

std::string format_double(double v);

/// Checks shared by both executables' --self-test: percentile rank,
/// geometric mean, the oracle against corrupted partitions, the response
/// scanner and the side decoder.  Prints each failure; returns the count.
int run_common_self_test();

}  // namespace e2e
