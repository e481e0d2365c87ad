// Wire format of the partitioning service: job specs in, Status /
// RunOutcome / degradation trails out.
//
// The protocol reuses the runtime layer's failures-as-data types directly,
// which makes their JSON encodings a public contract: serialize -> parse ->
// re-serialize must be byte-identical (tests/service/wire_roundtrip_test).
// All encoders build lexeme-preserving JsonValues (json.h) with fixed member
// order; all decoders are exception-free (nullopt + diagnostic) because they
// face untrusted clients.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kway/kway_partitioner.h"
#include "partition/runner.h"
#include "runtime/run_context.h"
#include "runtime/status.h"
#include "service/json.h"

namespace prop::service {

// --- Status -----------------------------------------------------------------

/// {"code":"ok"} / {"code":"injected_fault","message":"..."}
JsonValue status_to_json(const Status& status);
std::optional<Status> status_from_json(const JsonValue& v, std::string* error);

// --- DegradationEvent / DegradationLog ---------------------------------------

/// {"site":"...","action":"...","detail":"..."} (detail omitted when empty) —
/// the exact shape write_stats_json emits inside run_records.
JsonValue degradation_to_json(const DegradationEvent& event);
std::optional<DegradationEvent> degradation_from_json(const JsonValue& v,
                                                      std::string* error);

JsonValue degradations_to_json(const std::vector<DegradationEvent>& events);
std::optional<std::vector<DegradationEvent>> degradations_from_json(
    const JsonValue& v, std::string* error);

// --- RunOutcome ---------------------------------------------------------------

/// Compact one-character-per-node encoding of a partition side / part-id
/// vector: values 0-9 as digits, 10-35 as 'a'-'z' (base 36, k <= 36 on the
/// wire).  2-way partitions still encode as pure 0/1 strings, so existing
/// clients see unchanged bytes.
std::string encode_side(const std::vector<std::uint8_t>& side);
std::optional<std::vector<std::uint8_t>> decode_side(const std::string& s);

struct RunOutcomeJsonOptions {
  /// Timing is the one schedule-dependent field; excluded for the
  /// byte-identical determinism contract.
  bool include_timing = true;
  /// The partition side vector can dominate the payload; clients opt in.
  bool include_side = true;
};

JsonValue run_outcome_to_json(const RunOutcome& outcome,
                              const RunOutcomeJsonOptions& options = {});
std::optional<RunOutcome> run_outcome_from_json(const JsonValue& v,
                                                std::string* error);

// --- Job specs ----------------------------------------------------------------

/// One partition job as submitted over the protocol.  Exactly one of
/// `circuit` (bundled Table 1 name) / `hgr` (inline payload) must be set;
/// the server validates that plus algo/balance semantics at admission.
struct JobSpec {
  std::string id;                ///< client-chosen, unique per connection
  std::string tenant = "default";
  int priority = 0;              ///< higher = more urgent
  std::string algo = "prop";
  std::string circuit;           ///< bundled circuit name
  std::string hgr;               ///< inline .hgr payload (untrusted)
  int runs = 1;
  std::uint64_t seed = 1;
  std::string balance = "45-55";  ///< "45-55" or "50-50"
  double deadline_ms = 0.0;      ///< execution budget; 0 = server default
  int max_retries = -1;          ///< transient-fault retries; -1 = server default
  bool stats_timing = true;      ///< timing fields inside the result stats
  bool return_partition = false; ///< include the best side vector
  /// Number of parts.  2 = classic bisection through `algo` directly;
  /// 3-36 = recursive bisection with `algo` plus the k-way refiner below
  /// (36 caps what encode_side can carry per character).
  int k = 2;
  /// K-way post-pass when k > 2: "prop" (native k-way PROP), "greedy", or
  /// "none" (recursive bisection only).  Ignored for k = 2.
  std::string kway_refiner = to_string(kDefaultKWayRefiner);
  /// K-way objective when k > 2: "connectivity" (sum c(n)*(lambda-1)) or
  /// "cut" (nets spanning >= 2 parts).  Ignored for k = 2.
  std::string kway_objective = "connectivity";
};

/// Parses a submit-request object.  Unknown fields are rejected (the flag
/// analogue: a typo'd "deadline_Ms" must not silently become an unbudgeted
/// job).  `op` is accepted and ignored — the server dispatches on it first.
std::optional<JobSpec> job_spec_from_json(const JsonValue& v,
                                          std::string* error);

/// Inverse of job_spec_from_json (load generators, tests).  Defaults are
/// emitted explicitly so a spec round-trips field-for-field.
JsonValue job_spec_to_json(const JobSpec& spec);

}  // namespace prop::service
