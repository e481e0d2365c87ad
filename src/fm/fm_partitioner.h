// Fiduccia–Mattheyses iterative-improvement bipartitioner.
//
// Two interchangeable gain containers, matching the paper's Table 4
// comparison:
//   * kBucket — the classic O(1) bucket array (requires unit net costs);
//   * kTree   — the ordered gain container (the paper's AVL tree order),
//               needed for weighted nets and shared with PROP.
//
// A pass virtually moves every node (highest-gain feasible node first,
// lock after move, classic neighbor updates), then rolls back to the
// maximum-prefix-gain point; passes repeat until no positive improvement
// (paper Sec. 2).
#pragma once

#include <cstdint>
#include <string>

#include "partition/partition.h"
#include "partition/partitioner.h"
#include "runtime/run_context.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"

namespace prop {

enum class FmStructure { kBucket, kTree };

struct FmConfig {
  FmStructure structure = FmStructure::kBucket;
  /// Safety bound; the paper observes convergence in 2-4 passes.
  int max_passes = 64;

  /// Opt-in per-pass trajectory recording; null records nothing.
  RefineTelemetry* telemetry = nullptr;

  /// Optional runtime context: the move loop polls for deadline expiry /
  /// injected cancellation and stops mid-pass, rolling back to the best
  /// prefix as usual (the partition stays valid).  Null = inert.
  const RunContext* context = nullptr;

  /// Debug auditor cadence: every `audit_interval` moves the pass
  /// recomputes gains and cut cost from scratch and throws
  /// std::logic_error on a mismatch beyond `audit_tolerance`.  0 = off.
  int audit_interval = 0;
  double audit_tolerance = 1e-6;
};

/// Improves `part` in place until a pass yields no gain.  Deterministic in
/// the partition's state (selection ties are broken LIFO).
RefineOutcome fm_refine(Partition& part, const BalanceConstraint& balance,
                        const FmConfig& config = {});

class FmPartitioner final : public Bipartitioner {
 public:
  explicit FmPartitioner(FmConfig config = {}) : config_(config) {}

  std::string name() const override {
    return config_.structure == FmStructure::kBucket ? "FM-bucket" : "FM-tree";
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
    auto copy = std::make_unique<FmPartitioner>(config_);
    copy->attach_telemetry(nullptr);
    copy->attach_context(nullptr);
    return copy;
  }

 private:
  FmConfig config_;
};

}  // namespace prop
