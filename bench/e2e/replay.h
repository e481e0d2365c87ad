// Span recorder and the traced replay of each partitioner through the
// library's public stage functions.
//
// A replay partitioner is a Bipartitioner whose run() re-executes the
// library partitioner's algorithm one stage call at a time, each inside a
// span, with a RefineTelemetry attached to every refiner.  name() and
// validate() forward to the library object, so run_many and
// write_stats_json treat the replay exactly like the real partitioner and
// their outputs can be compared byte for byte.
//
// The replays mirror the seed derivations and level loops of
// multilevel/multilevel_driver.cpp, multilevel/multilevel_kway.cpp and
// kway/kway_partitioner.cpp.  When those change, the replay stops matching
// and the traced run fails its identity gate instead of reporting per-layer
// numbers for a different program.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "partition/partitioner.h"
#include "telemetry/telemetry.h"
#include "workloads.h"

namespace e2e {

struct SpanRecord {
  std::int64_t job = -1;  ///< -1 for set-up spans
  int parent = -1;        ///< index into the span list; -1 for a root
  const char* name = "";
  const char* layer = "";
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Spans kept in memory, in open order (a parent precedes its children),
/// and written out once at the end of the run.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  void set_job(std::int64_t job) { job_ = job; }
  int open(const char* name, const char* layer);
  /// Closes the innermost open span (which must be `id`); returns seconds.
  double close(int id);
  const std::vector<SpanRecord>& spans() const { return spans_; }
  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const;

 private:
  double now_us() const;

  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  std::int64_t job_ = -1;
};

class Span {
 public:
  Span(Tracer& t, const char* name, const char* layer)
      : tracer_(t), id_(t.open(name, layer)) {}
  ~Span() {
    if (open_) tracer_.close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Ends the span early and returns its duration in seconds.
  double close() {
    open_ = false;
    return tracer_.close(id_);
  }

 private:
  Tracer& tracer_;
  int id_;
  bool open_ = true;
};

/// Calls `f` inside a span and returns its result.
template <typename F>
auto traced(Tracer& t, const char* name, const char* layer, F&& f) {
  Span span(t, name, layer);
  return f();
}

/// Work counters of one job, reset before each replay.
struct Counters {
  prop::RefineTelemetry prop2;  ///< 2-way PROP passes
  prop::RefineTelemetry kprop;  ///< k-way PROP passes
  prop::RefineTelemetry fm;     ///< FM passes
  double levels = 0.0;
  double coarsest_nodes = 0.0;
  double contract_pins = 0.0;
  /// k-way objective entering and leaving k-way PROP, summed over calls.
  double kway_before = 0.0;
  double kway_after = 0.0;
  /// Refiner seconds per uncoarsening level, finest level last.
  std::vector<double> level_refine_s;
};

struct Replay {
  Tracer tracer;
  Counters counters;

  void begin_job(std::int64_t job) {
    counters = Counters{};
    tracer.set_job(job);
  }
};

/// Replay of a batch workload's partitioner (`library` from make_partitioner).
std::unique_ptr<prop::Bipartitioner> make_batch_replay(
    Algo algo, const prop::Bipartitioner& library, Replay& replay);

/// Replay of a served job's partitioner (`library` as the server builds it).
std::unique_ptr<prop::Bipartitioner> make_served_replay(
    const ServeJob& job, const prop::Bipartitioner& library, Replay& replay);

}  // namespace e2e
