// PROP — the PRObabilistic Partitioner (paper Fig. 2).
//
// An FM-style pass engine that *selects* moves by probabilistic gain
// (prob_gain.h at k = 2) while *accepting* the maximum prefix of
// deterministic immediate gains, so every accepted pass is a true cut
// improvement.  Node gains live in ordered containers; after each move the
// mover's neighbors and the top few nodes of each side get fresh gains and
// probabilities (Sec. 3.4).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/prob_gain.h"
#include "core/prop_config.h"
#include "datastruct/ordered_gains.h"
#include "partition/kway_state.h"
#include "partition/partition.h"
#include "partition/partitioner.h"

namespace prop {

/// Improves `part` in place with PROP passes until no positive gain.
RefineOutcome prop_refine(Partition& part, const BalanceConstraint& balance,
                          const PropConfig& config = {});

/// Reusable PROP pass engine.  Owns a k = 2 KWayState mirror of `part` (the
/// speculative moves and rollbacks of a pass run on it; only the accepted
/// prefix is applied to `part`), the gain calculator, the per-side ordered
/// gain containers and every per-pass scratch vector (gains, deltas, move log, visit
/// stamps), so repeated passes allocate nothing after construction — the
/// gain-kernel microbenchmark asserts exactly that.  `part`, `balance` and
/// `config` must outlive the refiner, and `part` must not be modified
/// behind its back.  prop_refine() is the convenience wrapper that adds the
/// pass loop.
class PropRefiner {
 public:
  PropRefiner(Partition& part, const BalanceConstraint& balance,
              const PropConfig& config);

  /// Runs one PROP pass (steps 3-10 of Fig. 2): bootstrap probabilities,
  /// speculatively move every feasible node by probabilistic gain, roll
  /// back to the maximum prefix of immediate gains.  Returns the accepted
  /// improvement.
  double run_pass(PassStats* stats = nullptr);

  /// Deadline/cancellation stopped the last pass early (sticky).
  bool interrupted() const noexcept { return interrupted_; }

 private:
  using GainTree = OrderedGains<double>;

  GainTree& tree_of(NodeId v) noexcept {
    return state_.part(v) == 0 ? side0_ : side1_;
  }
  /// Probabilistic gain of moving v to the other side.
  double gain_of(NodeId v) const {
    return calc_.gain(v, 1 - state_.part(v));
  }

  void bootstrap_probabilities();
  void refresh_node(NodeId v, PassStats* stats);
  void audit(PassStats* stats) const;

  Partition* part_;
  const BalanceConstraint* balance_;
  const PropConfig* config_;
  KWayState state_;
  ProbGainCalculator calc_;
  GainTree side0_;
  GainTree side1_;

  // Per-pass workspace, cleared and reused across passes instead of
  // reallocated (perf: the bootstrap + move loop must be allocation-free).
  std::vector<double> gains_;
  std::vector<double> delta_;
  std::vector<NodeId> moved_;
  std::vector<NodeId> to_refresh_;
  std::vector<std::uint32_t> visit_stamp_;
  // Pass-start (gain, node) staging of one side for the sorted bulk load
  // of its container, and the radix sort's second buffer.
  std::vector<std::pair<double, NodeId>> staged_;
  std::vector<std::pair<double, NodeId>> radix_scratch_;
  // Every node by ascending (size, id), sorted once (non-unit sizes only):
  // a side's smallest free node bounds which moves can be feasible.
  std::vector<NodeId> by_size_;
  std::uint32_t stamp_ = 0;

  bool interrupted_ = false;
};

class PropPartitioner final : public Bipartitioner {
 public:
  explicit PropPartitioner(PropConfig config = {}) : config_(config) {
    config_.model.validate();
  }

  std::string name() const override { return "PROP"; }

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
    auto copy = std::make_unique<PropPartitioner>(config_);
    copy->attach_telemetry(nullptr);
    copy->attach_context(nullptr);
    return copy;
  }

  const PropConfig& config() const noexcept { return config_; }

 private:
  PropConfig config_;
};

}  // namespace prop
