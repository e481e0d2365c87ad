// The execution context threaded through partitioner entry points.
//
// A RunContext bundles the three runtime concerns — cooperative
// cancellation (CancelToken), deterministic fault injection (FaultInjector)
// and the degradation trail (DegradationLog) — behind null-safe helpers so
// pass engines and solvers can poll it unconditionally.  All members are
// optional; a default-constructed RunContext is inert and costs one branch
// per poll.
//
// Ownership: the context only borrows its pointers; the caller (typically
// run_checked / run_many) keeps them alive for the duration of the run.
#pragma once

#include <string>
#include <vector>

#include "runtime/deadline.h"
#include "runtime/fault_injection.h"
#include "runtime/status.h"

namespace prop {

/// One recorded fallback: where the failure was detected, what the runtime
/// degraded to, and optional detail ("eigensolver stalled; using shuffled
/// ordering").
struct DegradationEvent {
  std::string site;    ///< e.g. "eig1.lanczos", "melo.ordering"
  std::string action;  ///< e.g. "random-order-fallback", "truncated-chain"
  std::string detail;  ///< free-form, may be empty
};

class DegradationLog {
 public:
  void record(std::string site, std::string action, std::string detail = {}) {
    events_.push_back(
        {std::move(site), std::move(action), std::move(detail)});
  }

  const std::vector<DegradationEvent>& events() const noexcept {
    return events_;
  }
  bool empty() const noexcept { return events_.empty(); }
  void clear() noexcept { events_.clear(); }
  std::vector<DegradationEvent> take() noexcept { return std::move(events_); }

 private:
  std::vector<DegradationEvent> events_;
};

struct RunContext {
  CancelToken* cancel = nullptr;
  FaultInjector* injector = nullptr;
  DegradationLog* degradations = nullptr;

  /// Poll point for solver loops (Lanczos/CG/orderings): expired budget or
  /// requested cancellation.
  bool should_stop() const noexcept { return cancel && cancel->should_stop(); }

  /// Poll point for the refiners' move loops: additionally lets the
  /// injector force a mid-pass cancellation (which marks the token, so the
  /// outcome reports kInjectedFault rather than a clean finish).
  bool refine_should_stop() const noexcept {
    if (injector && injector->should_fail(FaultSite::kCancelMidPass)) {
      if (cancel) cancel->cancel(StatusCode::kInjectedFault);
      return true;
    }
    return should_stop();
  }

  /// Queries the injector at `site` (false when no injector is armed).
  bool inject(FaultSite site) const noexcept {
    return injector && injector->should_fail(site);
  }

  /// Records a degradation event (dropped silently without a log — the
  /// fallback itself must still happen).
  void degrade(std::string site, std::string action,
               std::string detail = {}) const {
    if (degradations) {
      degradations->record(std::move(site), std::move(action),
                           std::move(detail));
    }
  }

  /// Why the run is stopping (kOk while still running).
  StatusCode stop_code() const noexcept {
    return cancel ? cancel->stop_code() : StatusCode::kOk;
  }
};

}  // namespace prop
