#include "service/wire.h"

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

}  // namespace prop::service
