// Debug-mode invariant auditing shared by the FM / LA / PROP pass engines.
//
// When a refiner config sets audit_interval = K > 0, the pass engine calls
// its auditor every K moves.  The auditor recomputes the refiner's
// incremental state from scratch (node gains via the refiner's own scratch
// gain calculator, the partition's cut cost via recompute_cut_cost, the
// calculators' per-net lock counts) and throws std::logic_error on any
// mismatch beyond the configured tolerance.  This is a correctness
// instrument, not a production path: an audit sweep is O(m) or worse and is
// meant for tests, sanitizer runs, and drift measurements.
//
// Drift semantics per refiner:
//   * FM / LA: incremental gains are exact restatements of the scratch
//     definition, so any drift beyond FP accumulation noise (<= tolerance)
//     is a bug and the auditor throws.
//   * PROP: gains are *approximately* consistent by design — the paper's
//     Sec. 3.4 update policy deliberately leaves gains stale w.r.t. later
//     probability updates of neighboring nodes.  The PROP auditor therefore
//     asserts the exact structural invariants (tree/gain sync, lock counts,
//     probability bounds, cut cost) and only *records* the gain drift in
//     telemetry.  Every auditor reads state only, so an audited run makes
//     the same moves as an unaudited one.
#pragma once

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "partition/kway_state.h"
#include "partition/partition.h"

namespace prop::audit {

[[noreturn]] inline void fail(const std::string& what) {
  throw std::logic_error("invariant audit: " + what);
}

inline void check(bool ok, const char* what) {
  if (!ok) fail(what);
}

inline void check_node(bool ok, const char* what, NodeId u) {
  if (!ok) {
    std::ostringstream msg;
    msg << what << " (node " << u << ")";
    fail(msg.str());
  }
}

/// Asserts |incremental - scratch| <= tol, naming the node on failure.
inline void check_close(double incremental, double scratch, double tol,
                        const char* what, NodeId u) {
  if (!(std::abs(incremental - scratch) <= tol)) {
    std::ostringstream msg;
    msg << what << " (node " << u << "): incremental " << incremental
        << " vs scratch " << scratch << ", tol " << tol;
    fail(msg.str());
  }
}

/// Asserts an incrementally-maintained cut cost matches a from-scratch
/// recount.
inline void check_cut_cost(double incremental, double scratch, double tol) {
  if (!(std::abs(incremental - scratch) <= tol)) {
    std::ostringstream msg;
    msg << "incremental cut cost " << incremental << " != recomputed "
        << scratch << ", tol " << tol;
    fail(msg.str());
  }
}

inline void check_cut(const Partition& part, double tol) {
  check_cut_cost(part.cut_cost(), part.recompute_cut_cost(), tol);
}

inline void check_cut(const KWayState& state, double tol) {
  double scratch = 0.0;
  state.verify_costs(&scratch, nullptr);
  check_cut_cost(state.cut_cost(), scratch, tol);
}

/// Tracks the largest |incremental - scratch| gap seen across a sweep.
struct DriftTracker {
  double max_abs = 0.0;
  NodeId argmax = 0;

  void observe(NodeId u, double incremental, double scratch) noexcept {
    const double d = std::abs(incremental - scratch);
    if (d > max_abs) {
      max_abs = d;
      argmax = u;
    }
  }
};

}  // namespace prop::audit
