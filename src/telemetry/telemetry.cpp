#include "telemetry/telemetry.h"

#include <ostream>
#include <sstream>

namespace prop {
namespace {

/// Doubles are emitted with enough digits to round-trip (cut costs are
/// often exact integers; drift values are tiny).
void put_double(std::ostream& out, double v) {
  std::ostringstream s;
  s.precision(17);
  s << v;
  out << s.str();
}

}  // namespace

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

void write_json(std::ostream& out, const PassStats& s, bool include_timing) {
  out << "{\"pass\":" << s.pass;
  out << ",\"cut_before\":";
  put_double(out, s.cut_before);
  out << ",\"cut_after\":";
  put_double(out, s.cut_after);
  out << ",\"moves_attempted\":" << s.moves_attempted;
  out << ",\"moves_accepted\":" << s.moves_accepted;
  out << ",\"rollback_depth\":" << s.rollback_depth();
  out << ",\"best_prefix_gain\":";
  put_double(out, s.best_prefix_gain);
  if (include_timing) {
    out << ",\"wall_seconds\":";
    put_double(out, s.wall_seconds);
    out << ",\"cpu_seconds\":";
    put_double(out, s.cpu_seconds);
  }
  out << ",\"container_ops\":{\"inserts\":" << s.ops.inserts
      << ",\"erases\":" << s.ops.erases << ",\"updates\":" << s.ops.updates
      << "}";
  out << ",\"refresh_skips\":" << s.refresh_skips;
  out << ",\"audits\":" << s.audits;
  out << ",\"max_gain_drift\":";
  put_double(out, s.max_gain_drift);
  out << "}";
}

void write_json(std::ostream& out, const RefineTelemetry& t,
                bool include_timing) {
  out << "[";
  bool first = true;
  for (const PassStats& s : t.passes) {
    if (!first) out << ",";
    first = false;
    write_json(out, s, include_timing);
  }
  out << "]";
}

void write_json(std::ostream& out, const RunTelemetry& r,
                bool include_timing) {
  out << "{\"seed\":" << r.seed;
  out << ",\"cut\":";
  put_double(out, r.cut);
  if (include_timing) {
    out << ",\"seconds\":";
    put_double(out, r.seconds);
  }
  out << ",\"passes\":";
  write_json(out, r.refine, include_timing);
  out << "}";
}

std::string to_json(const RefineTelemetry& t) {
  std::ostringstream out;
  write_json(out, t);
  return out.str();
}

}  // namespace prop
