// Deterministic fault injection for exercising the degradation paths.
//
// Every fallback in the runtime layer (eigensolver stall -> random-order
// init, mid-pass cancellation -> best-so-far rollback, validation failure
// -> per-run isolation in run_many, injected worker exception -> job retry)
// must be testable without waiting for the fault to occur naturally.  A
// FaultInjector is armed from a spec string and queried at fixed sites in
// the code; a query either fires (the code behaves as if the fault
// happened) or passes through.
//
// Spec grammar (comma-separated entries):
//
//   entry := site ['@' N] ['~' P]
//   site  := lanczos-stall | cancel-mid-pass | validate-fail
//          | cg-stall | serve-exec
//
// Without '@', every query of the site is eligible; with '@N' only the
// N-th query (1-based) is.  Eligible queries fire with probability P
// (default 1.0), drawn from a SplitMix64-seeded xoshiro256** stream so a
// given (spec, seed) pair always fires at the same queries.
//
// Examples:
//   --inject=lanczos-stall            every eigensolver call stalls
//   --inject=cancel-mid-pass@100      cancel exactly at the 100th poll
//   --inject=validate-fail@2          second validation fails
//   --inject=cancel-mid-pass~0.01     ~1% of polls cancel the pass
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "util/rng.h"

namespace prop {

enum class FaultSite {
  kLanczosStall,   ///< queried once per smallest_eigenpairs call
  kCancelMidPass,  ///< queried at every refiner move-loop poll
  kValidateFail,   ///< queried once per run_checked validation
  kCgStall,        ///< queried once per conjugate_gradient call
  kServeExec,      ///< queried once per service job attempt (worker throws)
};

inline constexpr int kNumFaultSites = 5;

/// Stable identifier used in specs, telemetry and error messages.
const char* to_string(FaultSite site) noexcept;

class FaultInjector {
 public:
  /// Nothing armed; every should_fail() returns false.
  FaultInjector() = default;

  /// Arms the sites named in `spec` (see grammar above).  Throws
  /// std::invalid_argument on an unknown site or malformed entry.
  explicit FaultInjector(const std::string& spec,
                         std::uint64_t seed = 0x5eedfa017ULL);

  /// Derives an independent injector with the same armed rules: query/fire
  /// counters reset to zero and the probability stream reseeded by mixing
  /// `salt` into this injector's seed.  The parallel runner forks one
  /// injector per run, so '@N' means "the run's N-th query" regardless of
  /// how runs are scheduled across workers, and '~P' streams are
  /// uncorrelated between runs but identical for a given (spec, seed, salt).
  FaultInjector fork(std::uint64_t salt) const;

  bool armed(FaultSite site) const noexcept;

  /// Advances the site's query counter and reports whether this query
  /// fires.  Unarmed sites never fire and count nothing.
  bool should_fail(FaultSite site) noexcept;

  /// Queries / fires observed so far at `site` (for tests and telemetry).
  std::uint64_t query_count(FaultSite site) const noexcept;
  std::uint64_t fire_count(FaultSite site) const noexcept;

 private:
  struct Rule {
    std::uint64_t at = 0;       ///< 0 = every query; else the 1-based query
    double probability = 1.0;   ///< chance an eligible query fires
    std::uint64_t queries = 0;
    std::uint64_t fires = 0;
  };

  std::array<std::optional<Rule>, kNumFaultSites> rules_;
  Rng rng_;
  std::uint64_t seed_ = 0x5eedfa017ULL;
};

}  // namespace prop
