// Request side of the service wire protocol: the JobSpec a client submits
// and its strict parser, plus the compact partition encoding a response
// carries.  Responses are written by the server through JsonWriter
// (util/json_writer.h); their exact bytes are pinned by
// Server.ResponseBytesArePinned.  The parser faces untrusted clients, so it
// is exception-free (nullopt + diagnostic) and rejects unknown fields.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kway/kway_partitioner.h"
#include "service/json.h"

namespace prop::service {

/// Compact one-character-per-node encoding of a partition side / part-id
/// vector: values 0-9 as digits, 10-35 as 'a'-'z' (base 36, k <= 36 on the
/// wire).  2-way partitions still encode as pure 0/1 strings, so existing
/// clients see unchanged bytes.
std::string encode_side(const std::vector<std::uint8_t>& side);
std::optional<std::vector<std::uint8_t>> decode_side(const std::string& s);

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

}  // namespace prop::service
