#include "telemetry/telemetry.h"

namespace prop {

PassStats& RefineTelemetry::begin_pass(double cut_before) {
  PassStats s;
  s.pass = static_cast<int>(passes.size());
  s.cut_before = cut_before;
  passes.push_back(s);
  return passes.back();
}

std::uint64_t RefineTelemetry::total_moves_attempted() const noexcept {
  std::uint64_t total = 0;
  for (const PassStats& s : passes) total += s.moves_attempted;
  return total;
}

std::uint64_t RefineTelemetry::total_moves_accepted() const noexcept {
  std::uint64_t total = 0;
  for (const PassStats& s : passes) total += s.moves_accepted;
  return total;
}

std::uint64_t RefineTelemetry::max_rollback_depth() const noexcept {
  std::uint64_t best = 0;
  for (const PassStats& s : passes) {
    if (s.rollback_depth() > best) best = s.rollback_depth();
  }
  return best;
}

std::uint64_t RefineTelemetry::total_audits() const noexcept {
  std::uint64_t total = 0;
  for (const PassStats& s : passes) total += s.audits;
  return total;
}

double RefineTelemetry::max_gain_drift() const noexcept {
  double best = 0.0;
  for (const PassStats& s : passes) {
    if (s.max_gain_drift > best) best = s.max_gain_drift;
  }
  return best;
}

GainContainerOps RefineTelemetry::total_ops() const noexcept {
  GainContainerOps total;
  for (const PassStats& s : passes) total += s.ops;
  return total;
}

void write_json(JsonWriter& w, const PassStats& s, bool include_timing) {
  w.begin_object();
  w.key("pass").value(s.pass);
  w.key("cut_before").value(s.cut_before);
  w.key("cut_after").value(s.cut_after);
  w.key("moves_attempted").value(s.moves_attempted);
  w.key("moves_accepted").value(s.moves_accepted);
  w.key("rollback_depth").value(s.rollback_depth());
  w.key("best_prefix_gain").value(s.best_prefix_gain);
  if (include_timing) {
    w.key("wall_seconds").value(s.wall_seconds);
    w.key("cpu_seconds").value(s.cpu_seconds);
  }
  w.key("container_ops").begin_object();
  w.key("inserts").value(s.ops.inserts);
  w.key("erases").value(s.ops.erases);
  w.key("updates").value(s.ops.updates);
  w.end_object();
  w.key("refresh_skips").value(s.refresh_skips);
  w.key("audits").value(s.audits);
  w.key("max_gain_drift").value(s.max_gain_drift);
  w.end_object();
}

void write_json(JsonWriter& w, const RefineTelemetry& t, bool include_timing) {
  w.begin_array();
  for (const PassStats& s : t.passes) write_json(w, s, include_timing);
  w.end_array();
}

void write_json(JsonWriter& w, const RunTelemetry& r, bool include_timing) {
  w.begin_object();
  w.key("seed").value(r.seed);
  w.key("cut").value(r.cut);
  if (include_timing) w.key("seconds").value(r.seconds);
  w.key("passes");
  write_json(w, r.refine, include_timing);
  w.end_object();
}

}  // namespace prop
