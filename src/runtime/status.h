// Execution-status vocabulary of the runtime layer.
//
// The paper's headline claim is cut quality *per unit CPU time* (Table 4),
// which makes the partitioners anytime algorithms in practice: a run that
// hits its wall-clock budget, a stalled eigensolver or an injected fault
// should surface as *data* — a Status attached to the best-so-far result —
// not as an exception that aborts a whole multi-start experiment.
#pragma once

#include <string>

namespace prop {

class JsonWriter;

enum class StatusCode {
  kOk,                 ///< run completed normally
  kBudgetExhausted,    ///< wall-clock deadline hit; best-so-far returned
  kCancelled,          ///< explicit cooperative cancellation
  kInjectedFault,      ///< a FaultInjector fired at this point
  kEigensolverStalled, ///< Lanczos/tridiagonal iteration failed to converge
  kInvalidResult,      ///< partitioner output failed validation
  kSkipped,            ///< run never started (budget spent by earlier runs)
  kError,              ///< partitioner raised an exception
  kShedOverload,       ///< service admission queue at depth limit; job shed
  kInvalidRequest,     ///< malformed/oversized job payload or protocol line
};

/// Stable snake_case identifier used in --stats-json and log lines.
const char* to_string(StatusCode code) noexcept;

struct Status {
  StatusCode code = StatusCode::kOk;
  std::string message;  ///< empty for kOk

  bool ok() const noexcept { return code == StatusCode::kOk; }

  static Status success() { return {}; }
  static Status failure(StatusCode code, std::string message) {
    return {code, std::move(message)};
  }

  /// "budget_exhausted: deadline hit after 2 of 20 runs" (or just the code
  /// name when there is no message).
  std::string describe() const;
};

/// {"code": "ok"} / {"code": "injected_fault", "message": "..."}: the status
/// object of the service's responses (message omitted when empty).
void write_json(JsonWriter& w, const Status& status);

}  // namespace prop
