#include "service/wire.h"

#include <limits>

namespace prop::service {
namespace {

bool set_error(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

/// Fetches an object member of the given type; missing vs wrong-type are
/// separate failures so diagnostics stay actionable.
const JsonValue* expect(const JsonValue& v, const char* key,
                        JsonValue::Type type, bool required,
                        std::string* error, bool* ok) {
  const JsonValue* member = v.find(key);
  if (!member) {
    if (required) {
      *ok = set_error(error, std::string("missing field '") + key + "'");
    }
    return nullptr;
  }
  if (member->type() != type) {
    *ok = set_error(error, std::string("field '") + key + "' has wrong type");
    return nullptr;
  }
  return member;
}

}  // namespace

JsonValue status_to_json(const Status& status) {
  JsonValue out = JsonValue::object();
  out.set("code", JsonValue::string(to_string(status.code)));
  if (!status.message.empty()) {
    out.set("message", JsonValue::string(status.message));
  }
  return out;
}

std::optional<Status> status_from_json(const JsonValue& v, std::string* error) {
  if (!v.is_object()) {
    set_error(error, "status must be an object");
    return std::nullopt;
  }
  bool ok = true;
  const JsonValue* code =
      expect(v, "code", JsonValue::Type::kString, true, error, &ok);
  if (!code) return std::nullopt;
  const auto parsed = status_code_from_name(code->as_string());
  if (!parsed) {
    set_error(error, "unknown status code '" + code->as_string() + "'");
    return std::nullopt;
  }
  Status out;
  out.code = *parsed;
  if (const JsonValue* message =
          expect(v, "message", JsonValue::Type::kString, false, error, &ok)) {
    out.message = message->as_string();
  } else if (!ok) {
    return std::nullopt;
  }
  return out;
}

JsonValue degradation_to_json(const DegradationEvent& event) {
  JsonValue out = JsonValue::object();
  out.set("site", JsonValue::string(event.site));
  out.set("action", JsonValue::string(event.action));
  if (!event.detail.empty()) out.set("detail", JsonValue::string(event.detail));
  return out;
}

std::optional<DegradationEvent> degradation_from_json(const JsonValue& v,
                                                      std::string* error) {
  if (!v.is_object()) {
    set_error(error, "degradation must be an object");
    return std::nullopt;
  }
  bool ok = true;
  const JsonValue* site =
      expect(v, "site", JsonValue::Type::kString, true, error, &ok);
  const JsonValue* action =
      expect(v, "action", JsonValue::Type::kString, true, error, &ok);
  if (!site || !action) return std::nullopt;
  DegradationEvent out;
  out.site = site->as_string();
  out.action = action->as_string();
  if (const JsonValue* detail =
          expect(v, "detail", JsonValue::Type::kString, false, error, &ok)) {
    out.detail = detail->as_string();
  } else if (!ok) {
    return std::nullopt;
  }
  return out;
}

JsonValue degradations_to_json(const std::vector<DegradationEvent>& events) {
  JsonValue out = JsonValue::array();
  for (const DegradationEvent& e : events) out.push_back(degradation_to_json(e));
  return out;
}

std::optional<std::vector<DegradationEvent>> degradations_from_json(
    const JsonValue& v, std::string* error) {
  if (!v.is_array()) {
    set_error(error, "degradations must be an array");
    return std::nullopt;
  }
  std::vector<DegradationEvent> out;
  out.reserve(v.items().size());
  for (const JsonValue& item : v.items()) {
    auto event = degradation_from_json(item, error);
    if (!event) return std::nullopt;
    out.push_back(std::move(*event));
  }
  return out;
}

std::string encode_side(const std::vector<std::uint8_t>& side) {
  std::string out;
  out.reserve(side.size());
  for (const std::uint8_t s : side) {
    // Base 36: part ids 0-9 as digits, 10-35 as 'a'-'z'.  2-way vectors
    // stay pure 0/1 strings, byte-identical to the old encoding.
    out += s < 10 ? static_cast<char>('0' + s)
                  : static_cast<char>('a' + (s - 10));
  }
  return out;
}

std::optional<std::vector<std::uint8_t>> decode_side(const std::string& s) {
  std::vector<std::uint8_t> out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c >= '0' && c <= '9') {
      out.push_back(static_cast<std::uint8_t>(c - '0'));
    } else if (c >= 'a' && c <= 'z') {
      out.push_back(static_cast<std::uint8_t>(c - 'a' + 10));
    } else {
      return std::nullopt;
    }
  }
  return out;
}

JsonValue run_outcome_to_json(const RunOutcome& outcome,
                              const RunOutcomeJsonOptions& options) {
  JsonValue out = JsonValue::object();
  out.set("status", status_to_json(outcome.status));
  if (outcome.has_result()) {
    out.set("cut", JsonValue::number(outcome.result.cut_cost));
    out.set("passes",
            JsonValue::number(static_cast<std::int64_t>(outcome.result.passes)));
    if (options.include_side) {
      out.set("side", JsonValue::string(encode_side(outcome.result.side)));
    }
  }
  if (options.include_timing) {
    out.set("wall_seconds", JsonValue::number(outcome.wall_seconds));
    out.set("cpu_seconds", JsonValue::number(outcome.cpu_seconds));
  }
  if (!outcome.degradations.empty()) {
    out.set("degradations", degradations_to_json(outcome.degradations));
  }
  return out;
}

std::optional<RunOutcome> run_outcome_from_json(const JsonValue& v,
                                                std::string* error) {
  if (!v.is_object()) {
    set_error(error, "run outcome must be an object");
    return std::nullopt;
  }
  bool ok = true;
  const JsonValue* status =
      expect(v, "status", JsonValue::Type::kObject, true, error, &ok);
  if (!status) return std::nullopt;
  auto parsed_status = status_from_json(*status, error);
  if (!parsed_status) return std::nullopt;

  RunOutcome out;
  out.status = std::move(*parsed_status);
  if (const JsonValue* side =
          expect(v, "side", JsonValue::Type::kString, false, error, &ok)) {
    auto decoded = decode_side(side->as_string());
    if (!decoded) {
      set_error(error, "field 'side' must be a 0/1 string");
      return std::nullopt;
    }
    out.result.side = std::move(*decoded);
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* cut =
          expect(v, "cut", JsonValue::Type::kNumber, false, error, &ok)) {
    out.result.cut_cost = cut->as_double();
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* passes =
          expect(v, "passes", JsonValue::Type::kNumber, false, error, &ok)) {
    out.result.passes = static_cast<int>(passes->as_int64());
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* wall = expect(v, "wall_seconds",
                                     JsonValue::Type::kNumber, false, error,
                                     &ok)) {
    out.wall_seconds = wall->as_double();
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* cpu = expect(v, "cpu_seconds", JsonValue::Type::kNumber,
                                    false, error, &ok)) {
    out.cpu_seconds = cpu->as_double();
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* degradations = expect(
          v, "degradations", JsonValue::Type::kArray, false, error, &ok)) {
    auto events = degradations_from_json(*degradations, error);
    if (!events) return std::nullopt;
    out.degradations = std::move(*events);
  } else if (!ok) {
    return std::nullopt;
  }
  return out;
}

std::optional<JobSpec> job_spec_from_json(const JsonValue& v,
                                          std::string* error) {
  if (!v.is_object()) {
    set_error(error, "job must be an object");
    return std::nullopt;
  }
  // Unknown-field rejection, the protocol analogue of validate_flags: a
  // misspelled "deadline_Ms" must fail loudly, not run unbudgeted.
  static constexpr const char* kKnown[] = {
      "op",       "id",          "tenant",     "priority",
      "algo",     "circuit",     "hgr",        "runs",
      "seed",     "balance",     "deadline_ms", "max_retries",
      "stats_timing", "return_partition",
      "k",        "kway_refiner", "kway_objective"};
  for (const JsonValue::Member& m : v.members()) {
    bool known = false;
    for (const char* k : kKnown) {
      if (m.first == k) {
        known = true;
        break;
      }
    }
    if (!known) {
      set_error(error, "unknown field '" + m.first + "'");
      return std::nullopt;
    }
  }

  bool ok = true;
  JobSpec spec;
  const JsonValue* id =
      expect(v, "id", JsonValue::Type::kString, true, error, &ok);
  if (!id) return std::nullopt;
  spec.id = id->as_string();
  if (spec.id.empty()) {
    set_error(error, "field 'id' must be non-empty");
    return std::nullopt;
  }

  if (const JsonValue* tenant =
          expect(v, "tenant", JsonValue::Type::kString, false, error, &ok)) {
    spec.tenant = tenant->as_string();
    if (spec.tenant.empty()) {
      set_error(error, "field 'tenant' must be non-empty");
      return std::nullopt;
    }
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* priority =
          expect(v, "priority", JsonValue::Type::kNumber, false, error, &ok)) {
    const std::int64_t p = priority->as_int64();
    if (p < -1000000 || p > 1000000) {
      set_error(error, "field 'priority' out of range");
      return std::nullopt;
    }
    spec.priority = static_cast<int>(p);
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* algo =
          expect(v, "algo", JsonValue::Type::kString, false, error, &ok)) {
    spec.algo = algo->as_string();
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* circuit =
          expect(v, "circuit", JsonValue::Type::kString, false, error, &ok)) {
    spec.circuit = circuit->as_string();
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* hgr =
          expect(v, "hgr", JsonValue::Type::kString, false, error, &ok)) {
    spec.hgr = hgr->as_string();
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* runs =
          expect(v, "runs", JsonValue::Type::kNumber, false, error, &ok)) {
    const std::int64_t r = runs->as_int64();
    if (r < 1 || r > 100000) {
      set_error(error, "field 'runs' must be in [1, 100000]");
      return std::nullopt;
    }
    spec.runs = static_cast<int>(r);
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* seed =
          expect(v, "seed", JsonValue::Type::kNumber, false, error, &ok)) {
    spec.seed = seed->as_uint64();
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* balance =
          expect(v, "balance", JsonValue::Type::kString, false, error, &ok)) {
    spec.balance = balance->as_string();
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* deadline = expect(v, "deadline_ms",
                                         JsonValue::Type::kNumber, false,
                                         error, &ok)) {
    spec.deadline_ms = deadline->as_double();
    if (!(spec.deadline_ms >= 0.0) ||
        spec.deadline_ms > 1e12) {  // also rejects NaN
      set_error(error, "field 'deadline_ms' must be in [0, 1e12]");
      return std::nullopt;
    }
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* retries = expect(v, "max_retries",
                                        JsonValue::Type::kNumber, false, error,
                                        &ok)) {
    const std::int64_t r = retries->as_int64();
    if (r < -1 || r > 100) {
      set_error(error, "field 'max_retries' must be in [-1, 100]");
      return std::nullopt;
    }
    spec.max_retries = static_cast<int>(r);
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* timing = expect(v, "stats_timing",
                                       JsonValue::Type::kBool, false, error,
                                       &ok)) {
    spec.stats_timing = timing->as_bool();
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* side = expect(v, "return_partition",
                                     JsonValue::Type::kBool, false, error,
                                     &ok)) {
    spec.return_partition = side->as_bool();
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* k =
          expect(v, "k", JsonValue::Type::kNumber, false, error, &ok)) {
    const std::int64_t parts = k->as_int64();
    if (parts < 2 || parts > 36) {
      // 36 parts is what one base-36 character of encode_side can carry.
      set_error(error, "field 'k' must be in [2, 36]");
      return std::nullopt;
    }
    spec.k = static_cast<int>(parts);
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* refiner = expect(v, "kway_refiner",
                                        JsonValue::Type::kString, false, error,
                                        &ok)) {
    spec.kway_refiner = refiner->as_string();
  } else if (!ok) {
    return std::nullopt;
  }
  if (const JsonValue* objective = expect(v, "kway_objective",
                                          JsonValue::Type::kString, false,
                                          error, &ok)) {
    spec.kway_objective = objective->as_string();
  } else if (!ok) {
    return std::nullopt;
  }
  return spec;
}

JsonValue job_spec_to_json(const JobSpec& spec) {
  JsonValue out = JsonValue::object();
  out.set("id", JsonValue::string(spec.id));
  out.set("tenant", JsonValue::string(spec.tenant));
  out.set("priority", JsonValue::number(static_cast<std::int64_t>(spec.priority)));
  out.set("algo", JsonValue::string(spec.algo));
  if (!spec.circuit.empty()) out.set("circuit", JsonValue::string(spec.circuit));
  if (!spec.hgr.empty()) out.set("hgr", JsonValue::string(spec.hgr));
  out.set("runs", JsonValue::number(static_cast<std::int64_t>(spec.runs)));
  out.set("seed", JsonValue::number(spec.seed));
  out.set("balance", JsonValue::string(spec.balance));
  out.set("deadline_ms", JsonValue::number(spec.deadline_ms));
  out.set("max_retries",
          JsonValue::number(static_cast<std::int64_t>(spec.max_retries)));
  out.set("stats_timing", JsonValue::boolean(spec.stats_timing));
  out.set("return_partition", JsonValue::boolean(spec.return_partition));
  out.set("k", JsonValue::number(static_cast<std::int64_t>(spec.k)));
  out.set("kway_refiner", JsonValue::string(spec.kway_refiner));
  out.set("kway_objective", JsonValue::string(spec.kway_objective));
  return out;
}

}  // namespace prop::service
