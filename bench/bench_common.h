// Shared helpers for the table-reproduction harnesses.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "hypergraph/mcnc_suite.h"
#include "partition/runner.h"
#include "runtime/runtime_cli.h"
#include "service/json.h"
#include "util/cli.h"
#include "util/rng.h"

namespace prop::bench {

/// Unknown-flag gate shared by every bench binary: the bench's own flags
/// plus the uniform runtime flags (--time-budget-ms etc.).  Returns false
/// (after printing the usage line) when an unrecognized flag was passed.
/// Thin alias of the shared prop::check_flags (runtime/runtime_cli.h) so
/// benches, prop_cli and prop_serve reject malformed input identically.
inline bool check_flags(const CliArgs& args, std::vector<std::string> known,
                        const std::string& usage) {
  return prop::check_flags(args, std::move(known), usage);
}

/// Collects the first non-ok multi-run status so a bench can finish its
/// table and still report (and exit on) an exhausted budget at the end.
class OutcomeTracker {
 public:
  void observe(const MultiRunResult& r) {
    if (status_.ok() && !r.status.ok()) status_ = r.status;
  }

  /// Prints degradations / the early-stop outcome; returns the process exit
  /// code (nonzero only under --on-timeout=fail).
  int finish(const RuntimeSession& session) const {
    const std::string notes = describe_degradations(session.degradations());
    if (!notes.empty()) std::fputs(notes.c_str(), stderr);
    if (!status_.ok()) {
      std::printf("outcome: %s\n", status_.describe().c_str());
      if (session.fail_on_timeout()) return 3;
    }
    return 0;
  }

 private:
  Status status_;
};

/// Paper-style improvement percentage: (cut improvement / larger cutset) * 100.
inline double improvement_pct(double ours, double theirs) {
  const double larger = ours > theirs ? ours : theirs;
  if (larger <= 0.0) return 0.0;
  return (theirs - ours) / larger * 100.0;
}

/// Circuit subset selection: full Table 1 suite by default; --fast keeps a
/// representative 4-circuit subset; --circuit NAME picks one.
inline std::vector<std::string> circuit_names(const CliArgs& args) {
  if (const auto one = args.get("circuit")) return {*one};
  if (args.get_bool_or("fast", false)) {
    return {"balu", "struct", "t3", "p2"};
  }
  std::vector<std::string> names;
  for (const auto& spec : mcnc_specs()) names.push_back(spec.name);
  return names;
}

/// Worker-thread count for run_many: 0 (the default) keeps the legacy
/// sequential path; >= 1 selects the deterministic parallel dispatcher
/// (DESIGN.md Sec. 4e).  Results are identical either way — only wall
/// clock changes — so every table harness exposes the flag uniformly.
/// Delegates to the shared parser; a negative count exits like any other
/// malformed flag instead of being silently clamped.
inline int thread_count(const CliArgs& args) {
  const auto threads = parse_thread_count(args);
  if (!threads) std::exit(2);
  return *threads;
}

/// Scales a paper run count by --runs-scale (e.g. 0.2 for smoke runs).
inline int scaled_runs(const CliArgs& args, int paper_runs) {
  const double scale = args.get_double_or("runs-scale", 1.0);
  const int runs = static_cast<int>(paper_runs * scale + 0.5);
  return runs < 1 ? 1 : runs;
}

/// The rows of a committed BENCH_*.json baseline (the items of its
/// top-level array).  Empty when the file is unreadable, is not valid JSON
/// or is not an array, so each bench keeps its "empty or unreadable" exit.
inline std::vector<service::JsonValue> load_baseline_rows(
    const std::string& path) {
  std::ifstream f(path);
  std::ostringstream text;
  text << f.rdbuf();
  const auto doc = service::json_parse(text.str());
  if (!doc || !doc->is_array()) return {};
  return doc->items();
}

/// A baseline row's string field; empty when missing or not a string.
inline std::string row_string(const service::JsonValue& row, const char* key) {
  const service::JsonValue* v = row.find(key);
  return v && v->is_string() ? v->as_string() : std::string();
}

/// A baseline row's numeric field; 0 when missing or not a number.
inline double row_number(const service::JsonValue& row, const char* key) {
  const service::JsonValue* v = row.find(key);
  return v && v->is_number() ? v->as_double() : 0.0;
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

}  // namespace prop::bench
