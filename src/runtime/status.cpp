#include "runtime/status.h"

#include "util/json_writer.h"

namespace prop {

const char* to_string(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kBudgetExhausted: return "budget_exhausted";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kInjectedFault: return "injected_fault";
    case StatusCode::kEigensolverStalled: return "eigensolver_stalled";
    case StatusCode::kInvalidResult: return "invalid_result";
    case StatusCode::kSkipped: return "skipped";
    case StatusCode::kError: return "error";
    case StatusCode::kShedOverload: return "shed_overload";
    case StatusCode::kInvalidRequest: return "invalid_request";
  }
  return "unknown";
}

std::string Status::describe() const {
  std::string out = to_string(code);
  if (!message.empty()) {
    out += ": ";
    out += message;
  }
  return out;
}

void write_json(JsonWriter& w, const Status& status) {
  w.begin_object();
  w.key("code").value(to_string(status.code));
  if (!status.message.empty()) w.key("message").value(status.message);
  w.end_object();
}

}  // namespace prop
