#include "runtime/fault_injection.h"

#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace prop {
namespace {

std::optional<FaultSite> site_from_name(std::string_view name) noexcept {
  if (name == "lanczos-stall") return FaultSite::kLanczosStall;
  if (name == "cancel-mid-pass") return FaultSite::kCancelMidPass;
  if (name == "validate-fail") return FaultSite::kValidateFail;
  if (name == "cg-stall") return FaultSite::kCgStall;
  if (name == "serve-exec") return FaultSite::kServeExec;
  return std::nullopt;
}

[[noreturn]] void bad_spec(std::string_view entry, const char* why) {
  throw std::invalid_argument("fault spec '" + std::string(entry) + "': " + why);
}

}  // namespace

const char* to_string(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::kLanczosStall: return "lanczos-stall";
    case FaultSite::kCancelMidPass: return "cancel-mid-pass";
    case FaultSite::kValidateFail: return "validate-fail";
    case FaultSite::kCgStall: return "cg-stall";
    case FaultSite::kServeExec: return "serve-exec";
  }
  return "unknown";
}

FaultInjector FaultInjector::fork(std::uint64_t salt) const {
  FaultInjector out(*this);
  out.rng_ = Rng(mix_seed(seed_, salt));
  for (auto& slot : out.rules_) {
    if (slot) {
      slot->queries = 0;
      slot->fires = 0;
    }
  }
  return out;
}

FaultInjector::FaultInjector(const std::string& spec, std::uint64_t seed)
    : rng_(seed), seed_(seed) {
  std::string_view rest = spec;
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    std::string_view entry = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (entry.empty()) continue;

    Rule rule;
    // Probability suffix first ('~P'), then occurrence ('@N').
    if (const auto tilde = entry.find('~'); tilde != std::string_view::npos) {
      const std::string p(entry.substr(tilde + 1));
      char* end = nullptr;
      rule.probability = std::strtod(p.c_str(), &end);
      if (p.empty() || end != p.c_str() + p.size() || rule.probability < 0.0 ||
          rule.probability > 1.0) {
        bad_spec(entry, "probability must be in [0, 1]");
      }
      entry = entry.substr(0, tilde);
    }
    if (const auto at = entry.find('@'); at != std::string_view::npos) {
      const std::string n(entry.substr(at + 1));
      char* end = nullptr;
      const long long v = std::strtoll(n.c_str(), &end, 10);
      if (n.empty() || end != n.c_str() + n.size() || v < 1) {
        bad_spec(entry, "occurrence must be a positive integer");
      }
      rule.at = static_cast<std::uint64_t>(v);
      entry = entry.substr(0, at);
    }
    const auto site = site_from_name(entry);
    if (!site) bad_spec(entry, "unknown site");
    rules_[static_cast<int>(*site)] = rule;
  }
}

bool FaultInjector::armed(FaultSite site) const noexcept {
  return rules_[static_cast<int>(site)].has_value();
}

bool FaultInjector::should_fail(FaultSite site) noexcept {
  auto& slot = rules_[static_cast<int>(site)];
  if (!slot) return false;
  Rule& rule = *slot;
  ++rule.queries;
  if (rule.at != 0 && rule.queries != rule.at) return false;
  if (rule.probability < 1.0 && !rng_.chance(rule.probability)) return false;
  ++rule.fires;
  return true;
}

std::uint64_t FaultInjector::query_count(FaultSite site) const noexcept {
  const auto& slot = rules_[static_cast<int>(site)];
  return slot ? slot->queries : 0;
}

std::uint64_t FaultInjector::fire_count(FaultSite site) const noexcept {
  const auto& slot = rules_[static_cast<int>(site)];
  return slot ? slot->fires : 0;
}

}  // namespace prop
