// Gain-engine kernel benchmark (DESIGN.md Sec. 4f) — the perf contract of
// the cached-product gain engine, measured against the compiled-in scratch
// oracle on the synthetic MCNC-like suite.
//
// Four kernels, each timed per {circuit, engine}:
//   * bootstrap:   reset + pinit assignment + 2 gain/probability fixed-point
//                  iterations, as the pass engine runs them (closed-form
//                  uniform start for cached, two plain sweeps for scratch).
//   * gain-query:  random gain(u) queries on a mixed free/locked state —
//                  the pure read path (O(deg) cached vs O(deg*netsize)
//                  scratch).
//   * move-update: full PropRefiner passes — the production move loop with
//                  its lock/move/set_probability cache maintenance, tree
//                  updates and rollback.
//   * end-to-end:  PropPartitioner via run_many, wall time per run.
//
// Plus one k = 8 row, always on industry2 whatever circuits are selected:
//   * gains-k8:    random fused gains(u, out) reads — all seven targets of
//                  a node in one call, the k-way refiner's neighbour
//                  re-evaluation — on a mixed 8-way state (O(deg * k)
//                  cached vs O((k - 1) * deg * netsize) scratch).
//
// The steady-state timed regions of the first three kernels must allocate
// nothing (global operator new is counted; a nonzero count is a hard
// failure, exit 6) — that is the "per-pass workspace is hoisted" invariant
// of PropRefiner made executable.
//
// Output: one JSON row per {kernel, circuit, engine} cell with wall/cpu
// seconds and, on cached rows, speedup_vs_scratch.  --baseline FILE
// compares wall times cell-by-cell against a previously committed JSON and
// fails (exit 4) when any cell regresses by more than --max-regress
// (default 0.25) beyond a small absolute floor; scripts/verify.sh runs this
// as the perf-regression gate against BENCH_gain_kernels.json.
// --assert-speedup additionally enforces the PR's headline contract (exit
// 5): aggregate cached-vs-scratch >= 3x on gain-query and >= 1.3x in-binary
// on end-to-end (the >= 2x end-to-end claim is measured against the
// pre-cache seed build, which also lacked this PR's shared pass/tree
// optimizations — see EXPERIMENTS.md).
//
// Every cell is measured --min-of K times (default 3) and the minimum
// wall time kept: host noise (preemption, cache eviction) is one-sided,
// so the min is the stable estimator a 25% gate can sit on.
//
// Flags: --fast / --circuit NAME, --reps N, --queries N, --runs N,
// --seed N, --threads N, --out FILE, --baseline FILE, --max-regress X,
// --assert-speedup, --min-of K.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/prob_gain.h"
#include "core/prop_partitioner.h"
#include "hypergraph/mcnc_suite.h"
#include "partition/initial.h"
#include "partition/runner.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/timer.h"

// ---------------------------------------------------------------------------
// Allocation counter: every global operator new bumps g_allocations, so a
// timed region can assert it performed no heap allocation at all.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using prop::GainEngine;
using prop::NetId;
using prop::NodeId;

struct Row {
  std::string kernel;
  std::string circuit;
  std::string engine;
  std::uint64_t ops = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double speedup_vs_scratch = 0.0;  // 0 on scratch rows
};

// Shared sink so the compiler cannot discard kernel work.
double g_sink = 0.0;

bool g_alloc_failure = false;

void assert_no_allocs(const char* kernel, const char* circuit,
                      std::uint64_t count) {
  if (count == 0) return;
  g_alloc_failure = true;
  std::fprintf(stderr,
               "ALLOCATION VIOLATION: %s/%s performed %llu heap "
               "allocations in its steady-state timed region\n",
               kernel, circuit, static_cast<unsigned long long>(count));
}

// One timed measurement: wall + calling-thread CPU seconds.
struct Timed {
  double wall = 0.0;
  double cpu = 0.0;
};

// --- bootstrap kernel ------------------------------------------------------
// reset + blind pinit + 2 gain/probability fixed-point rounds, exactly the
// sweep structure PropRefiner::bootstrap_probabilities uses per engine:
// node-major gain(u) sweeps for both, with the cached engine's closed-form
// uniform start (reset_uniform, then the first round's gains from
// uniform_gains in the same loop as its set_probability calls).
Timed run_bootstrap(const prop::Hypergraph& g, const prop::KWayState& state,
                    GainEngine engine, int reps, const char* circuit) {
  const prop::ProbabilityModel model;
  prop::ProbGainCalculator calc(state, engine);
  const auto n = static_cast<NodeId>(g.num_nodes());
  std::vector<double> gains(n, 0.0);
  const bool closed_form = engine == GainEngine::kCached;

  const auto one_rep = [&] {
    if (closed_form) {
      calc.reset_uniform(model.pinit);
    } else {
      calc.reset();
      for (NodeId u = 0; u < n; ++u) calc.set_probability(u, model.pinit);
    }
    for (int iter = 0; iter < 2; ++iter) {
      if (iter == 0 && closed_form) {
        double out[2];
        for (NodeId u = 0; u < n; ++u) {
          calc.uniform_gains(u, out);
          gains[u] = out[1 - state.part(u)];
          calc.set_probability(u, model.from_gain(gains[u]));
        }
        continue;
      }
      for (NodeId u = 0; u < n; ++u) {
        gains[u] = calc.gain(u, 1 - state.part(u));
      }
      for (NodeId u = 0; u < n; ++u) {
        calc.set_probability(u, model.from_gain(gains[u]));
      }
    }
    g_sink += gains[n / 2];
  };

  one_rep();  // warmup: first-touch paging, no further allocations allowed
  const std::uint64_t allocs_before = g_allocations.load();
  prop::WallTimer wall;
  prop::ThreadCpuTimer cpu;
  for (int r = 0; r < reps; ++r) one_rep();
  const Timed t{wall.seconds(), cpu.seconds()};
  assert_no_allocs("bootstrap", circuit, g_allocations.load() - allocs_before);
  return t;
}

// --- gain-query kernel -----------------------------------------------------
// Mixed state: randomized probabilities (seed stream 11), ~10% of nodes
// locked (stream 13, every other locked node also moved sides), then
// `queries` random gain(u) reads over the free nodes (stream 17).
Timed run_gain_query(const prop::Hypergraph& g, prop::KWayState& state,
                     GainEngine engine, std::uint64_t queries,
                     std::uint64_t seed, const char* circuit) {
  prop::ProbGainCalculator calc(state, engine);
  calc.reset();
  const auto n = static_cast<NodeId>(g.num_nodes());

  prop::Rng prng(prop::mix_seed(seed, 11));
  for (NodeId u = 0; u < n; ++u) {
    calc.set_probability(u, 0.4 + 0.55 * prng.uniform());
  }
  prop::Rng lrng(prop::mix_seed(seed, 13));
  bool move_this = false;
  std::vector<NodeId> free_nodes;
  free_nodes.reserve(n);
  for (NodeId u = 0; u < n; ++u) {
    if (lrng.chance(0.1)) {
      const NodeId from = state.part(u);
      calc.lock(u);
      if (move_this) {
        state.move(u, 1 - from);
        calc.move_locked(u, from);
      }
      move_this = !move_this;
    } else {
      free_nodes.push_back(u);
    }
  }

  prop::Rng qrng(prop::mix_seed(seed, 17));
  const auto pool = static_cast<std::int64_t>(free_nodes.size());
  const auto query = [&] {
    const auto i = static_cast<std::size_t>(qrng.range(0, pool - 1));
    const NodeId u = free_nodes[i];
    return calc.gain(u, 1 - state.part(u));
  };
  double acc = 0.0;
  for (int w = 0; w < 1000; ++w) acc += query();  // warmup
  const std::uint64_t allocs_before = g_allocations.load();
  prop::WallTimer wall;
  prop::ThreadCpuTimer cpu;
  for (std::uint64_t q = 0; q < queries; ++q) {
    acc += query();
  }
  const Timed t{wall.seconds(), cpu.seconds()};
  assert_no_allocs("gain-query", circuit, g_allocations.load() - allocs_before);
  g_sink += acc;
  return t;
}

// --- gains-k8 kernel -------------------------------------------------------
// The gain-query state at k = 8: uniformly random parts (stream 19),
// randomized probabilities (stream 11), ~10% of nodes locked (stream 13,
// every other locked node also moved to a random other part), then
// `queries` random gains(u, out) reads over the free nodes (stream 17).
constexpr NodeId kGainsK = 8;

Timed run_gains_k8(const prop::Hypergraph& g, GainEngine engine,
                   std::uint64_t queries, std::uint64_t seed) {
  const auto n = static_cast<NodeId>(g.num_nodes());
  prop::Rng part_rng(prop::mix_seed(seed, 19));
  std::vector<NodeId> parts(n);
  for (auto& p : parts) p = static_cast<NodeId>(part_rng.bounded(kGainsK));
  prop::KWayState state(g, std::move(parts), kGainsK);
  prop::ProbGainCalculator calc(state, engine);
  calc.reset();

  prop::Rng prng(prop::mix_seed(seed, 11));
  for (NodeId u = 0; u < n; ++u) {
    calc.set_probability(u, 0.4 + 0.55 * prng.uniform());
  }
  prop::Rng lrng(prop::mix_seed(seed, 13));
  bool move_this = false;
  std::vector<NodeId> free_nodes;
  free_nodes.reserve(n);
  for (NodeId u = 0; u < n; ++u) {
    if (lrng.chance(0.1)) {
      const NodeId from = state.part(u);
      calc.lock(u);
      if (move_this) {
        const auto i = static_cast<NodeId>(lrng.bounded(kGainsK - 1));
        state.move(u, i < from ? i : i + 1);
        calc.move_locked(u, from);
      }
      move_this = !move_this;
    } else {
      free_nodes.push_back(u);
    }
  }

  prop::Rng qrng(prop::mix_seed(seed, 17));
  const auto pool = static_cast<std::int64_t>(free_nodes.size());
  double out[kGainsK];
  const auto query = [&] {
    const auto i = static_cast<std::size_t>(qrng.range(0, pool - 1));
    calc.gains(free_nodes[i], out);
    double sum = 0.0;
    for (const double x : out) sum += x;
    return sum;
  };
  double acc = 0.0;
  for (int w = 0; w < 1000; ++w) acc += query();  // warmup
  const std::uint64_t allocs_before = g_allocations.load();
  prop::WallTimer wall;
  prop::ThreadCpuTimer cpu;
  for (std::uint64_t q = 0; q < queries; ++q) {
    acc += query();
  }
  const Timed t{wall.seconds(), cpu.seconds()};
  assert_no_allocs("gains-k8", "industry2",
                   g_allocations.load() - allocs_before);
  g_sink += acc;
  return t;
}

// --- move-update kernel ----------------------------------------------------
// Repeated PropRefiner passes: the production move loop (speculative move of
// every feasible node with lock / move_locked / neighbor set_probability
// cache maintenance, gain-container bulk load + updates, best-prefix
// rollback).  The first pass is the untimed warmup; every later pass must
// allocate nothing.
Timed run_move_update(const prop::Hypergraph& g,
                      const std::vector<std::uint8_t>& sides,
                      const prop::BalanceConstraint& balance,
                      GainEngine engine, int reps, const char* circuit) {
  prop::PropConfig config;
  config.gain_engine = engine;
  prop::Partition part(g, sides);
  prop::PropRefiner refiner(part, balance, config);

  g_sink += refiner.run_pass();  // warmup pass
  const std::uint64_t allocs_before = g_allocations.load();
  prop::WallTimer wall;
  prop::ThreadCpuTimer cpu;
  for (int r = 0; r < reps; ++r) g_sink += refiner.run_pass();
  const Timed t{wall.seconds(), cpu.seconds()};
  assert_no_allocs("move-update", circuit, g_allocations.load() - allocs_before);
  return t;
}

// --- end-to-end kernel -----------------------------------------------------
Timed run_end_to_end(const prop::Hypergraph& g,
                     const prop::BalanceConstraint& balance, GainEngine engine,
                     int runs, std::uint64_t seed, int threads) {
  prop::PropConfig config;
  config.gain_engine = engine;
  prop::PropPartitioner algo(config);
  prop::RunnerOptions options;
  options.threads = threads;
  prop::WallTimer wall;
  const prop::MultiRunResult r =
      prop::run_many(algo, g, balance, runs, prop::mix_seed(seed, 7), options);
  g_sink += r.best_cut();
  return Timed{wall.seconds(), r.total_cpu_seconds};
}

// --- baseline comparison ---------------------------------------------------
// The JSON we emit keeps one row per line, so the baseline reader is a
// line-oriented field extractor rather than a general JSON parser.
std::string extract_string(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\": \"";
  const auto at = line.find(pat);
  if (at == std::string::npos) return {};
  const auto start = at + pat.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return {};
  return line.substr(start, end - start);
}

double extract_double(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\": ";
  const auto at = line.find(pat);
  if (at == std::string::npos) return 0.0;
  return std::atof(line.c_str() + at + pat.size());
}

std::vector<Row> load_baseline(const std::string& path) {
  std::vector<Row> rows;
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.find("\"kernel\"") == std::string::npos) continue;
    Row r;
    r.kernel = extract_string(line, "kernel");
    r.circuit = extract_string(line, "circuit");
    r.engine = extract_string(line, "engine");
    r.ops = static_cast<std::uint64_t>(extract_double(line, "ops"));
    r.wall_seconds = extract_double(line, "wall_seconds");
    rows.push_back(r);
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const prop::CliArgs args(argc, argv);
  if (!prop::bench::check_flags(
          args,
          {"fast", "circuit", "reps", "queries", "runs", "seed", "threads",
           "out", "baseline", "max-regress", "assert-speedup", "min-of"},
          "[--fast] [--circuit NAME] [--reps N] [--queries N] [--runs N]\n"
          "          [--seed N] [--threads N] [--out FILE] [--baseline FILE]\n"
          "          [--max-regress X] [--assert-speedup] [--min-of K]")) {
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const int reps = static_cast<int>(args.get_int_or("reps", 10));
  const auto queries =
      static_cast<std::uint64_t>(args.get_int_or("queries", 500000));
  const int runs = static_cast<int>(args.get_int_or("runs", 3));
  const int min_of = static_cast<int>(args.get_int_or("min-of", 3));
  const int threads = prop::bench::thread_count(args);
  const std::string out_path = args.get_or("out", "BENCH_gain_kernels.json");
  const std::string baseline_path = args.get_or("baseline", "");
  const double max_regress = args.get_double_or("max-regress", 0.25);
  const bool assert_speedup = args.get_bool_or("assert-speedup", false);
  const std::vector<std::string> circuits = prop::bench::circuit_names(args);

  std::printf("gain-engine kernels: cached vs scratch "
              "(reps=%d, queries=%llu, runs=%d)\n\n",
              reps, static_cast<unsigned long long>(queries), runs);
  std::printf("%-12s %-10s %-8s %12s %12s %9s\n", "kernel", "circuit",
              "engine", "ops", "wall (s)", "speedup");
  prop::bench::print_rule(68);

  const GainEngine engines[2] = {GainEngine::kScratch, GainEngine::kCached};
  std::vector<Row> rows;
  // kernel name -> [scratch total wall, cached total wall]
  struct Aggregate {
    double wall[2] = {0.0, 0.0};
  };
  std::vector<std::pair<std::string, Aggregate>> totals = {
      {"bootstrap", {}}, {"gain-query", {}}, {"move-update", {}},
      {"end-to-end", {}}, {"gains-k8", {}}};
  const auto add_total = [&](const std::string& kernel, int engine_idx,
                             double wall) {
    for (auto& [name, agg] : totals) {
      if (name == kernel) agg.wall[engine_idx] += wall;
    }
  };

  // Measures one {kernel, circuit, engine} cell and records its row; the
  // scratch cell (e == 0) comes first and leaves its wall time for the
  // cached cell's speedup.
  const auto record = [&](const char* kernel, const std::string& circuit,
                          std::uint64_t ops, int e, double& scratch_wall,
                          const auto& measure) {
    // Min-of-K: wall time on a shared host is one-sided noise (cache
    // evictions, scheduler preemption only ever slow a run down), so the
    // minimum is the stable estimator the regression gate needs.
    Timed t = measure();
    for (int m = 1; m < min_of; ++m) {
      const Timed s = measure();
      if (s.wall < t.wall) t = s;
    }

    Row row;
    row.kernel = kernel;
    row.circuit = circuit;
    row.engine = prop::to_string(engines[e]);
    row.ops = ops;
    row.wall_seconds = t.wall;
    row.cpu_seconds = t.cpu;
    if (e == 0) {
      scratch_wall = t.wall;
    } else if (t.wall > 0.0) {
      row.speedup_vs_scratch = scratch_wall / t.wall;
    }
    rows.push_back(row);
    add_total(kernel, e, t.wall);

    if (e == 1) {
      std::printf("%-12s %-10s %-8s %12llu %12.4f %8.2fx\n", kernel,
                  circuit.c_str(), row.engine.c_str(),
                  static_cast<unsigned long long>(row.ops), t.wall,
                  row.speedup_vs_scratch);
    } else {
      std::printf("%-12s %-10s %-8s %12llu %12.4f %9s\n", kernel,
                  circuit.c_str(), row.engine.c_str(),
                  static_cast<unsigned long long>(row.ops), t.wall, "-");
    }
  };

  for (const auto& name : circuits) {
    const prop::Hypergraph g = prop::make_mcnc_circuit(name);
    const prop::BalanceConstraint balance =
        prop::BalanceConstraint::forty_five(g);
    prop::Rng init_rng(prop::mix_seed(seed, 41));
    const std::vector<std::uint8_t> sides =
        prop::random_balanced_sides(g, balance, init_rng);

    const struct Kernel {
      const char* kernel;
      std::uint64_t ops;
    } kernels[4] = {{"bootstrap", static_cast<std::uint64_t>(reps)},
                    {"gain-query", queries},
                    {"move-update", static_cast<std::uint64_t>(reps)},
                    {"end-to-end", static_cast<std::uint64_t>(runs)}};

    for (const Kernel& k : kernels) {
      double scratch_wall = 0.0;
      for (int e = 0; e < 2; ++e) {
        const GainEngine engine = engines[e];
        const auto measure = [&]() -> Timed {
          if (std::strcmp(k.kernel, "bootstrap") == 0) {
            const prop::KWayState state{prop::Partition(g, sides)};
            return run_bootstrap(g, state, engine, reps, name.c_str());
          }
          if (std::strcmp(k.kernel, "gain-query") == 0) {
            prop::KWayState state{prop::Partition(g, sides)};
            return run_gain_query(g, state, engine, queries, seed,
                                  name.c_str());
          }
          if (std::strcmp(k.kernel, "move-update") == 0) {
            return run_move_update(g, sides, balance, engine, reps,
                                   name.c_str());
          }
          return run_end_to_end(g, balance, engine, runs, seed, threads);
        };
        record(k.kernel, name, k.ops, e, scratch_wall, measure);
      }
    }
  }

  {
    const prop::Hypergraph g = prop::make_mcnc_circuit("industry2");
    double scratch_wall = 0.0;
    for (int e = 0; e < 2; ++e) {
      record("gains-k8", "industry2", queries, e, scratch_wall,
             [&] { return run_gains_k8(g, engines[e], queries, seed); });
    }
  }

  prop::bench::print_rule(68);
  std::printf("\naggregate cached speedup (total scratch wall / total cached "
              "wall):\n");
  for (const auto& [kernel, agg] : totals) {
    const double speedup =
        agg.wall[1] > 0.0 ? agg.wall[0] / agg.wall[1] : 0.0;
    std::printf("  %-12s %6.2fx  (scratch %8.3fs, cached %8.3fs)\n",
                kernel.c_str(), speedup, agg.wall[0], agg.wall[1]);
  }

  // JSON out, one row per line (the baseline reader depends on that).
  std::ofstream f(out_path);
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  f << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  {\"kernel\": \"%s\", \"circuit\": \"%s\", "
                  "\"engine\": \"%s\", \"ops\": %llu, "
                  "\"wall_seconds\": %.6f, \"cpu_seconds\": %.6f, "
                  "\"speedup_vs_scratch\": %.3f}%s\n",
                  r.kernel.c_str(), r.circuit.c_str(), r.engine.c_str(),
                  static_cast<unsigned long long>(r.ops), r.wall_seconds,
                  r.cpu_seconds, r.speedup_vs_scratch,
                  i + 1 < rows.size() ? "," : "");
    f << buf;
  }
  f << "]\n";
  f.close();
  std::printf("\nwrote %s  (sink %.3g)\n", out_path.c_str(), g_sink);

  int exit_code = 0;
  if (g_alloc_failure) {
    std::fprintf(stderr,
                 "error: steady-state kernel regions performed heap "
                 "allocations\n");
    exit_code = 6;
  }

  // Perf-regression gate: compare wall seconds cell-by-cell against the
  // committed baseline.  Cells below the absolute floor are skipped — they
  // time in the noise band of the host.
  if (!baseline_path.empty()) {
    constexpr double kAbsFloorSeconds = 0.005;
    const std::vector<Row> baseline = load_baseline(baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "error: baseline %s is empty or unreadable\n",
                   baseline_path.c_str());
      return 4;
    }
    int compared = 0;
    bool regressed = false;
    for (const Row& cur : rows) {
      for (const Row& base : baseline) {
        if (base.kernel != cur.kernel || base.circuit != cur.circuit ||
            base.engine != cur.engine || base.ops != cur.ops) {
          continue;
        }
        ++compared;
        const double limit =
            base.wall_seconds * (1.0 + max_regress) + kAbsFloorSeconds;
        if (cur.wall_seconds > limit &&
            cur.wall_seconds > kAbsFloorSeconds * 2) {
          regressed = true;
          std::fprintf(stderr,
                       "PERF REGRESSION: %s/%s/%s wall %.4fs vs baseline "
                       "%.4fs (limit %.4fs)\n",
                       cur.kernel.c_str(), cur.circuit.c_str(),
                       cur.engine.c_str(), cur.wall_seconds,
                       base.wall_seconds, limit);
        }
      }
    }
    std::printf("baseline %s: compared %d cells, max allowed regression "
                "%.0f%%\n",
                baseline_path.c_str(), compared, max_regress * 100.0);
    if (compared == 0) {
      std::fprintf(stderr,
                   "error: no baseline cells matched this configuration\n");
      return 4;
    }
    if (regressed) {
      std::fprintf(stderr, "error: perf regression vs %s\n",
                   baseline_path.c_str());
      return 4;
    }
    std::printf("no perf regression vs baseline\n");
  }

  // Headline speedup contract (in-binary; the vs-seed end-to-end claim is
  // documented in EXPERIMENTS.md and cannot be asserted from one binary).
  if (assert_speedup) {
    const struct {
      const char* kernel;
      double floor;
    } gates[] = {{"gain-query", 3.0}, {"end-to-end", 1.3}};
    for (const auto& gate : gates) {
      for (const auto& [kernel, agg] : totals) {
        if (kernel != gate.kernel) continue;
        const double speedup =
            agg.wall[1] > 0.0 ? agg.wall[0] / agg.wall[1] : 0.0;
        if (speedup < gate.floor) {
          std::fprintf(stderr,
                       "SPEEDUP VIOLATION: %s aggregate %.2fx < required "
                       "%.2fx\n",
                       gate.kernel, speedup, gate.floor);
          exit_code = 5;
        }
      }
    }
    if (exit_code != 5) std::printf("speedup contract satisfied\n");
  }
  return exit_code;
}
