// LA-k bipartitioner: FM-style passes selecting by lexicographic lookahead
// gain vector (paper Sec. 2).  Gain vectors live in an ordered container
// (datastruct/ordered_gains.h), avoiding
// the Theta(p^k) bucket memory blow-up the paper criticizes.
#pragma once

#include <cstdint>
#include <string>

#include "partition/partition.h"
#include "partition/partitioner.h"
#include "runtime/run_context.h"
#include "telemetry/telemetry.h"

namespace prop {

struct LaConfig {
  /// Lookahead depth k; the paper reports k = 2..4 as useful.
  int lookahead = 2;
  int max_passes = 64;

  /// Opt-in per-pass trajectory recording; null records nothing.
  RefineTelemetry* telemetry = nullptr;

  /// Optional runtime context: the move loop polls for deadline expiry /
  /// injected cancellation and stops mid-pass, rolling back to the best
  /// prefix as usual (the partition stays valid).  Null = inert.
  const RunContext* context = nullptr;

  /// Debug auditor cadence: every `audit_interval` moves the pass checks
  /// incremental gain vectors, binding-number counts and cut cost against
  /// a from-scratch recompute (throws std::logic_error on mismatch).
  /// Gain vectors are integral, so the comparison is exact.  0 = off.
  int audit_interval = 0;
  double audit_tolerance = 1e-6;
};

/// Improves `part` in place with LA-k passes until no positive gain.
RefineOutcome la_refine(Partition& part, const BalanceConstraint& balance,
                        const LaConfig& config = {});

class LaPartitioner final : public Bipartitioner {
 public:
  explicit LaPartitioner(LaConfig config = {}) : config_(config) {}

  std::string name() const override {
    return "LA-" + std::to_string(config_.lookahead);
  }

  bool attach_telemetry(RefineTelemetry* telemetry) noexcept override {
    config_.telemetry = telemetry;
    return true;
  }

  bool attach_context(const RunContext* context) noexcept override {
    config_.context = context;
    return true;
  }

  PartitionResult run(const Hypergraph& g, const BalanceConstraint& balance,
                      std::uint64_t seed) override;

  std::unique_ptr<Bipartitioner> clone() const override {
    auto copy = std::make_unique<LaPartitioner>(config_);
    copy->attach_telemetry(nullptr);
    copy->attach_context(nullptr);
    return copy;
  }

 private:
  LaConfig config_;
};

}  // namespace prop
