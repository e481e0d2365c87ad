#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string_view>

#include "hypergraph/builder.h"

namespace e2e {

std::optional<Options> parse_options(int argc, char** argv,
                                     bool allow_trace_out) {
  Options o;
  bool have_workload = false;
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S [--smoke] "
                 "[--corrupt]%s\n       %s --self-test\n",
                 argv[0], allow_trace_out ? " [--trace-out FILE]" : "", argv[0]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      o.self_test = true;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--corrupt") {
      o.corrupt = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      o.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') {
        usage();
        return std::nullopt;
      }
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      o.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(o.seconds >= 0.0)) {
        usage();
        return std::nullopt;
      }
    } else if (arg == "--trace-out" && has_value && allow_trace_out) {
      o.trace_out = argv[++i];
    } else {
      usage();
      return std::nullopt;
    }
  }
  if (!o.self_test && !have_workload) {
    usage();
    return std::nullopt;
  }
  return o;
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// --- statistics ---------------------------------------------------------

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

std::size_t samples_beyond(const std::vector<double>& v, double p) {
  const double x = percentile(v, p);
  return static_cast<std::size_t>(std::count_if(v.begin(), v.end(),
                                                [&](double s) { return s > x; }));
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double stddev(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double ss = 0.0;
  for (const double x : v) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(v.size() - 1));
}

double QualityTable::cut_mean() const {
  std::vector<double> means;
  for (const auto& [group, costs] : groups_) means.push_back(mean(costs));
  return geomean(means);
}

double QualityTable::cut_best() const {
  std::vector<double> bests;
  for (const auto& [group, costs] : groups_) {
    bests.push_back(*std::min_element(costs.begin(), costs.end()));
  }
  return geomean(bests);
}

double QualityTable::cut_sd() const {
  std::vector<double> sds;
  for (const auto& [group, costs] : groups_) {
    const double sd = stddev(costs);
    if (sd > 0.0) sds.push_back(sd);
  }
  return geomean(sds);
}

// --- digest -------------------------------------------------------------

void Digest::add_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

void Digest::add_job(std::uint64_t job, std::span<const std::uint8_t> parts) {
  unsigned char le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<unsigned char>(job >> (8 * i));
  add_bytes(le, sizeof(le));
  add_bytes(parts.data(), parts.size());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

// --- oracle ---------------------------------------------------------------

OracleVerdict oracle_check(const prop::Hypergraph& g,
                           std::span<const std::uint8_t> parts,
                           const Promise& promise, double claimed) {
  OracleVerdict v;
  const auto fail = [&](std::string message) {
    v.ok = false;
    v.message = std::move(message);
    return v;
  };
  const std::size_t n = g.num_nodes();
  const auto k = static_cast<std::size_t>(promise.k);
  if (parts.size() != n) {
    return fail("partition has " + std::to_string(parts.size()) +
                " entries for " + std::to_string(n) + " nodes");
  }
  std::vector<std::int64_t> size(k, 0);
  std::int64_t total = 0;
  std::int64_t max_node = 1;
  for (std::size_t u = 0; u < n; ++u) {
    if (parts[u] >= k) {
      return fail("node " + std::to_string(u) + " in part " +
                  std::to_string(parts[u]) + " >= k");
    }
    const std::int64_t s = g.node_size(static_cast<prop::NodeId>(u));
    size[parts[u]] += s;
    total += s;
    max_node = std::max(max_node, s);
  }

  std::vector<char> touched(k, 0);
  for (prop::NetId e = 0; e < g.num_nets(); ++e) {
    std::fill(touched.begin(), touched.end(), 0);
    int spanned = 0;
    for (const prop::NodeId u : g.pins_of(e)) {
      if (!touched[parts[u]]) {
        touched[parts[u]] = 1;
        ++spanned;
      }
    }
    if (spanned >= 2) {
      v.cut += g.net_cost(e);
      v.connectivity += g.net_cost(e) * (spanned - 1);
    }
  }

  const double want = promise.connectivity ? v.connectivity : v.cut;
  if (!(std::abs(claimed - want) <= 1e-6 * std::max(1.0, std::abs(want)))) {
    return fail("claimed cost " + format_double(claimed) + " != recomputed " +
                format_double(want));
  }

  const auto widen = [&](std::int64_t& lo, std::int64_t& hi) {
    if (hi - lo < 2 * max_node) {
      lo -= max_node;
      hi += max_node;
    }
  };
  const auto t = static_cast<double>(total);
  if (k == 2) {
    std::int64_t lo = static_cast<std::int64_t>(std::ceil(promise.r1 * t - 1e-9));
    std::int64_t hi = static_cast<std::int64_t>(std::floor(promise.r2 * t + 1e-9));
    widen(lo, hi);
    if (size[0] < lo || size[0] > hi) {
      return fail("side 0 size " + std::to_string(size[0]) + " outside [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
  } else {
    const double share = t / static_cast<double>(k);
    std::int64_t lo = static_cast<std::int64_t>(std::floor(share * (1.0 - promise.tolerance)));
    std::int64_t hi = static_cast<std::int64_t>(std::ceil(share * (1.0 + promise.tolerance)));
    widen(lo, hi);
    for (std::size_t p = 0; p < k; ++p) {
      if (size[p] < lo || size[p] > hi) {
        return fail("part " + std::to_string(p) + " size " +
                    std::to_string(size[p]) + " outside [" + std::to_string(lo) +
                    ", " + std::to_string(hi) + "]");
      }
    }
  }
  return v;
}

// --- service responses ------------------------------------------------------

namespace {

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) ++i;
}

/// Advances past a string starting at s[i] == '"'; false when unterminated.
bool skip_string(const std::string& s, std::size_t& i) {
  for (++i; i < s.size(); ++i) {
    if (s[i] == '\\') {
      ++i;
    } else if (s[i] == '"') {
      ++i;
      return true;
    }
  }
  return false;
}

bool skip_value(const std::string& s, std::size_t& i) {
  if (i >= s.size()) return false;
  if (s[i] == '"') return skip_string(s, i);
  if (s[i] == '{' || s[i] == '[') {
    int depth = 0;
    while (i < s.size()) {
      const char c = s[i];
      if (c == '"') {
        if (!skip_string(s, i)) return false;
        continue;
      }
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') --depth;
      ++i;
      if (depth == 0) return true;
    }
    return false;
  }
  const std::size_t start = i;
  while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']' &&
         s[i] != ' ' && s[i] != '\n') {
    ++i;
  }
  return i > start;
}

}  // namespace

std::optional<std::string> json_member(const std::string& object,
                                       const std::string& key) {
  std::size_t i = 0;
  skip_ws(object, i);
  if (i >= object.size() || object[i] != '{') return std::nullopt;
  ++i;
  for (;;) {
    skip_ws(object, i);
    if (i >= object.size() || object[i] != '"') return std::nullopt;
    const std::size_t key_start = i + 1;
    if (!skip_string(object, i)) return std::nullopt;
    const std::string_view name(object.data() + key_start, i - key_start - 1);
    skip_ws(object, i);
    if (i >= object.size() || object[i] != ':') return std::nullopt;
    ++i;
    skip_ws(object, i);
    const std::size_t value_start = i;
    if (!skip_value(object, i)) return std::nullopt;
    if (name == key) return object.substr(value_start, i - value_start);
    skip_ws(object, i);
    if (i >= object.size() || object[i] != ',') return std::nullopt;
    ++i;
  }
}

std::optional<std::string> json_string_member(const std::string& object,
                                              const std::string& key) {
  const auto raw = json_member(object, key);
  if (!raw || raw->size() < 2 || raw->front() != '"') return std::nullopt;
  return raw->substr(1, raw->size() - 2);
}

std::optional<std::vector<std::uint8_t>> decode_parts(const std::string& s) {
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

// --- report -----------------------------------------------------------------

std::string format_double(double v) {
  if (!std::isfinite(v)) return "null";  // run.py rejects a non-number
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Report::Report(std::string workload, std::uint64_t seed, std::string mode,
               bool smoke)
    : workload_(std::move(workload)), seed_(seed), mode_(std::move(mode)),
      smoke_(smoke) {}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.emplace_back(name, "{\"value\":" + format_double(value) +
                                  ",\"unit\":\"" + unit + "\"}");
}

void Report::exact(const std::string& name, const std::string& text) {
  std::string quoted(1, '"');
  quoted += text;
  quoted += '"';
  exact_.emplace_back(name, std::move(quoted));
}

void Report::exact(const std::string& name, double value) {
  exact_.emplace_back(name, format_double(value));
}

void Report::info(const std::string& name, double value) {
  info_.emplace_back(name, format_double(value));
}

void Report::print(std::FILE* out) const {
  const auto object = [](const std::vector<std::pair<std::string, std::string>>& kv) {
    std::string s = "{";
    for (std::size_t i = 0; i < kv.size(); ++i) {
      if (i > 0) s += ",";
      s += "\"" + kv[i].first + "\":" + kv[i].second;
    }
    return s + "}";
  };
  std::fprintf(out,
               "{\"workload\":\"%s\",\"seed\":%llu,\"mode\":\"%s\","
               "\"profile\":\"%s\",\"correct\":%s,\"attempted\":%llu,"
               "\"failed\":%llu,\"metrics\":%s,\"exact\":%s,\"info\":%s}\n",
               workload_.c_str(), static_cast<unsigned long long>(seed_),
               mode_.c_str(), smoke_ ? "smoke" : "full",
               correct_ ? "true" : "false",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_),
               object(metrics_).c_str(), object(exact_).c_str(),
               object(info_).c_str());
  std::fflush(out);
}

// --- self-test --------------------------------------------------------------

int run_common_self_test() {
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(std::abs(percentile(hundred, 0.9) - 90.1) < 1e-9, "p90 of 1..100 is 90.1");
  check(samples_beyond(hundred, 0.9) == 10, "p90 of 100 samples has 10 beyond");
  const std::vector<double> ninety_one(hundred.begin(), hundred.begin() + 91);
  check(samples_beyond(ninety_one, 0.9) == 9, "p90 of 91 samples has only 9 beyond");
  check(percentile(hundred, 0.5) == median(hundred), "p50 is the median");
  check(percentile({5.0}, 0.9) == 5.0, "percentile of one sample");
  check(median({3, 1, 2}) == 2.0 && median({4, 1, 3, 2}) == 2.5, "median");
  check(std::abs(geomean({1, 4, 16}) - 4.0) < 1e-12, "geomean(1,4,16) = 4");
  check(std::abs(geomean({2, 8}) - 4.0) < 1e-12, "geomean(2,8) = 4");
  QualityTable q;
  q.add("a", 10);
  q.add("a", 30);
  q.add("b", 40);
  check(std::abs(q.cut_mean() - std::sqrt(20.0 * 40.0)) < 1e-9,
        "quality mean is the geomean of group means");
  check(std::abs(q.cut_best() - std::sqrt(10.0 * 40.0)) < 1e-9,
        "quality best is the geomean of group minima");

  // Six nodes on a ring plus one 3-pin net.
  prop::HypergraphBuilder b(6);
  for (prop::NodeId u = 0; u < 6; ++u) b.add_net({u, static_cast<prop::NodeId>((u + 1) % 6)});
  b.add_net({0, 2, 4});
  const prop::Hypergraph g = std::move(b).build();
  const std::vector<std::uint8_t> halves = {0, 0, 0, 1, 1, 1};
  Promise two;
  two.r1 = 0.5;
  two.r2 = 0.5;
  check(oracle_check(g, halves, two, 3.0).ok, "oracle accepts a correct cut");
  check(!oracle_check(g, halves, two, 2.0).ok, "oracle rejects a wrong claimed cut");
  std::vector<std::uint8_t> flipped = halves;
  flipped[1] = 1;
  check(!oracle_check(g, flipped, two, 3.0).ok,
        "oracle rejects a corrupted partition");
  const std::vector<std::uint8_t> lopsided = {0, 0, 0, 0, 0, 1};
  check(!oracle_check(g, lopsided, two, 2.0).ok, "oracle rejects imbalance");
  const std::vector<std::uint8_t> bad_id = {0, 0, 2, 1, 1, 1};
  check(!oracle_check(g, bad_id, two, 3.0).ok, "oracle rejects part id >= k");
  Promise three;
  three.k = 3;
  three.connectivity = true;
  const std::vector<std::uint8_t> thirds = {0, 0, 1, 1, 2, 2};
  check(oracle_check(g, thirds, three, 5.0).ok, "oracle connectivity = 5");
  three.connectivity = false;
  check(oracle_check(g, thirds, three, 4.0).ok, "oracle k-way cut = 4");
  check(!oracle_check(g, std::vector<std::uint8_t>{0, 0, 0, 0, 1, 2}, three, 4.0).ok,
        "oracle rejects a k-way part outside its window");

  const std::string response =
      "{\"id\":\"j1\",\"state\":\"done\",\"status\":{\"code\":\"ok\"},"
      "\"result\":{\"a\":\"x}{\\\"\",\"best_cut\":12.5},\"partition\":\"01az\"}";
  const auto result = json_member(response, "result");
  check(result && *result == "{\"a\":\"x}{\\\"\",\"best_cut\":12.5}",
        "scanner extracts a nested object with braces inside strings");
  check(result && json_member(*result, "best_cut") == std::optional<std::string>("12.5"),
        "scanner extracts a number");
  check(json_string_member(response, "state") == std::optional<std::string>("done"),
        "scanner extracts a string");
  check(!json_member(response, "missing"), "scanner reports a missing key");
  const auto parts = decode_parts("01az");
  check(parts && *parts == std::vector<std::uint8_t>({0, 1, 10, 35}),
        "base-36 side decoding");
  check(!decode_parts("0-1"), "side decoding rejects junk");

  Digest d1, d2;
  d1.add_job(0, halves);
  d2.add_job(0, flipped);
  check(d1.hex() != d2.hex(), "digest changes with one flipped side");
  return failures;
}

}  // namespace e2e
