// Gain kernel benchmark (DESIGN.md Sec. 4f) — the perf contract of the
// cached-product gain calculator on the synthetic MCNC-like suite.
//
// Four kernels per circuit:
//   * bootstrap:   closed-form uniform start (reset_uniform) + 2
//                  gain/probability fixed-point iterations, as
//                  PropRefiner::bootstrap_probabilities runs them.
//   * gain-query:  random gain(u) reads on a mixed free/locked state — the
//                  pure read path, O(deg).
//   * move-update: full PropRefiner passes — the production move loop with
//                  its lock/move/set_probability cache maintenance, tree
//                  updates and rollback.
//   * end-to-end:  PropPartitioner via run_many, wall time per run.
//
// Plus one k = 8 row, always on industry2 whatever circuits are selected:
//   * gains-k8:    random fused gains(u, out) reads — all seven targets of
//                  a node in one call, the k-way refiner's neighbour
//                  re-evaluation — on a mixed 8-way state, O(deg * k).
//
// The two read kernels also time the scratch oracle answering the same
// reads on the same state (scratch_gain per read, per target for
// gains-k8: O(deg * netsize) per target), with speedup_vs_scratch on the
// cached row; their set-up is untimed.  The other kernels have cached rows
// only.
//
// The steady-state timed regions of every kernel but end-to-end must
// allocate nothing (global operator new is counted; a nonzero count is a
// hard failure, exit 6) — that is the "per-pass workspace is hoisted"
// invariant of PropRefiner made executable.
//
// Output: one JSON row per {kernel, circuit, engine} cell with wall/cpu
// seconds, where engine is "cached" or "scratch" (the oracle).  --baseline
// FILE is read before anything runs and compared, before --out is written,
// wall time cell by cell; a cell that regresses by more than --max-regress
// (default 0.25) beyond a small absolute floor fails the run (exit 4).
// --baseline and --out naming the same file is a usage error (exit 2): the
// run would compare against what it is about to overwrite.
// scripts/verify.sh runs this as the perf-regression gate against
// BENCH_gain_kernels.json.  --assert-speedup additionally requires the
// aggregate gain-query speedup over the scratch oracle to be >= 3x
// (exit 5).
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
#include <filesystem>
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

using prop::NetId;
using prop::NodeId;

struct Row {
  std::string kernel;
  std::string circuit;
  std::string engine;  // "cached", or "scratch" for the oracle
  std::uint64_t ops = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double speedup_vs_scratch = 0.0;  // 0 where no scratch row pairs it
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
// Closed-form uniform start + 2 gain/probability fixed-point rounds, exactly
// the sweep structure of PropRefiner::bootstrap_probabilities: reset_uniform,
// then the first round's gains from uniform_gains in the same loop as its
// set_probability calls, then one node-major gain(u) sweep.
Timed run_bootstrap(const prop::Hypergraph& g, const prop::KWayState& state,
                    int reps, const char* circuit) {
  const prop::ProbabilityModel model;
  prop::ProbGainCalculator calc(state);
  const auto n = static_cast<NodeId>(g.num_nodes());
  std::vector<double> gains(n, 0.0);

  const auto one_rep = [&] {
    calc.reset_uniform(model.pinit);
    double out[2];
    for (NodeId u = 0; u < n; ++u) {
      calc.uniform_gains(u, out);
      gains[u] = out[1 - state.part(u)];
      calc.set_probability(u, model.from_gain(gains[u]));
    }
    for (NodeId u = 0; u < n; ++u) {
      gains[u] = calc.gain(u, 1 - state.part(u));
    }
    for (NodeId u = 0; u < n; ++u) {
      calc.set_probability(u, model.from_gain(gains[u]));
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

// --- read kernels (gain-query, gains-k8) -----------------------------------
// Mixed state: randomized probabilities (seed stream 11), ~10% of nodes
// locked (stream 13), every other locked node also moved — to the other
// side at k = 2, to a random other part (same stream) at k > 2.  Returns
// the free nodes.
std::vector<NodeId> mix_state(prop::KWayState& state,
                              prop::ProbGainCalculator& calc,
                              std::uint64_t seed) {
  const auto n = static_cast<NodeId>(state.graph().num_nodes());
  const NodeId k = state.k();
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
        NodeId to = 1 - from;
        if (k > 2) {
          const auto i = static_cast<NodeId>(lrng.bounded(k - 1));
          to = i < from ? i : i + 1;
        }
        state.move(u, to);
        calc.move_locked(u, from);
      }
      move_this = !move_this;
    } else {
      free_nodes.push_back(u);
    }
  }
  return free_nodes;
}

// `queries` reads of random free nodes (stream 17) after 1000 untimed
// warm-up reads; the timed region must allocate nothing.
template <typename Read>
Timed time_reads(const std::vector<NodeId>& free_nodes, std::uint64_t queries,
                 std::uint64_t seed, const char* kernel, const char* circuit,
                 const Read& read) {
  prop::Rng qrng(prop::mix_seed(seed, 17));
  const auto pool = static_cast<std::int64_t>(free_nodes.size());
  const auto next = [&] {
    return free_nodes[static_cast<std::size_t>(qrng.range(0, pool - 1))];
  };
  double acc = 0.0;
  for (int w = 0; w < 1000; ++w) acc += read(next());  // warmup
  const std::uint64_t allocs_before = g_allocations.load();
  prop::WallTimer wall;
  prop::ThreadCpuTimer cpu;
  for (std::uint64_t q = 0; q < queries; ++q) {
    acc += read(next());
  }
  const Timed t{wall.seconds(), cpu.seconds()};
  assert_no_allocs(kernel, circuit, g_allocations.load() - allocs_before);
  g_sink += acc;
  return t;
}

constexpr NodeId kGainsK = 8;

// --- move-update kernel ----------------------------------------------------
// Repeated PropRefiner passes: the production move loop (speculative move of
// every feasible node with lock / move_locked / neighbor set_probability
// cache maintenance, gain-container bulk load + updates, best-prefix
// rollback).  The first pass is the untimed warmup; every later pass must
// allocate nothing.
Timed run_move_update(const prop::Hypergraph& g,
                      const std::vector<std::uint8_t>& sides,
                      const prop::BalanceConstraint& balance, int reps,
                      const char* circuit) {
  const prop::PropConfig config;
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
                     const prop::BalanceConstraint& balance, int runs,
                     std::uint64_t seed, int threads) {
  prop::PropPartitioner algo;
  prop::RunnerOptions options;
  options.threads = threads;
  prop::WallTimer wall;
  const prop::MultiRunResult r =
      prop::run_many(algo, g, balance, runs, prop::mix_seed(seed, 7), options);
  g_sink += r.best_cut();
  return Timed{wall.seconds(), r.total_cpu_seconds};
}

/// True when the two paths name one file (existing or not).
bool same_file(const std::string& a, const std::string& b) {
  std::error_code ec;
  if (std::filesystem::equivalent(a, b, ec)) return true;
  const auto ca = std::filesystem::weakly_canonical(a, ec);
  if (ec) return a == b;
  const auto cb = std::filesystem::weakly_canonical(b, ec);
  if (ec) return a == b;
  return ca == cb;
}

std::vector<Row> load_baseline(const std::string& path) {
  std::vector<Row> rows;
  for (const prop::service::JsonValue& row :
       prop::bench::load_baseline_rows(path)) {
    Row r;
    r.kernel = prop::bench::row_string(row, "kernel");
    r.circuit = prop::bench::row_string(row, "circuit");
    r.engine = prop::bench::row_string(row, "engine");
    r.ops = static_cast<std::uint64_t>(prop::bench::row_number(row, "ops"));
    r.wall_seconds = prop::bench::row_number(row, "wall_seconds");
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

  std::vector<Row> baseline;
  if (!baseline_path.empty()) {
    if (same_file(baseline_path, out_path)) {
      std::fprintf(stderr,
                   "error: --baseline and --out name the same file (%s); "
                   "pass --out elsewhere\n",
                   out_path.c_str());
      return 2;
    }
    baseline = load_baseline(baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "error: baseline %s is empty or unreadable\n",
                   baseline_path.c_str());
      return 4;
    }
  }

  std::printf("gain kernels: cached products, scratch oracle on the read "
              "kernels (reps=%d, queries=%llu, runs=%d)\n\n",
              reps, static_cast<unsigned long long>(queries), runs);
  std::printf("%-12s %-10s %-8s %12s %12s %9s\n", "kernel", "circuit",
              "engine", "ops", "wall (s)", "speedup");
  prop::bench::print_rule(68);

  std::vector<Row> rows;
  // kernel name -> total wall of its [scratch, cached] rows
  struct Aggregate {
    double wall[2] = {0.0, 0.0};
  };
  std::vector<std::pair<std::string, Aggregate>> totals = {
      {"bootstrap", {}}, {"gain-query", {}}, {"move-update", {}},
      {"end-to-end", {}}, {"gains-k8", {}}};

  // Measures one {kernel, circuit, engine} cell, records its row and
  // returns its wall time.  A cached cell paired with a scratch cell gets
  // that cell's wall time as `scratch_wall` (0: unpaired).
  const auto record = [&](const char* kernel, const std::string& circuit,
                          std::uint64_t ops, const char* engine,
                          double scratch_wall, const auto& measure) {
    // Min-of-K: wall time on a shared host is one-sided noise (cache
    // evictions, scheduler preemption only ever slow a run down), so the
    // minimum is the stable estimator the regression gate needs.
    Timed t = measure();
    for (int m = 1; m < min_of; ++m) {
      const Timed s = measure();
      if (s.wall < t.wall) t = s;
    }

    const bool scratch = std::string(engine) == "scratch";
    Row row;
    row.kernel = kernel;
    row.circuit = circuit;
    row.engine = engine;
    row.ops = ops;
    row.wall_seconds = t.wall;
    row.cpu_seconds = t.cpu;
    if (scratch_wall > 0.0 && t.wall > 0.0) {
      row.speedup_vs_scratch = scratch_wall / t.wall;
    }
    rows.push_back(row);
    for (auto& [name, agg] : totals) {
      if (name == kernel) agg.wall[scratch ? 0 : 1] += t.wall;
    }

    if (row.speedup_vs_scratch > 0.0) {
      std::printf("%-12s %-10s %-8s %12llu %12.4f %8.2fx\n", kernel,
                  circuit.c_str(), engine,
                  static_cast<unsigned long long>(ops), t.wall,
                  row.speedup_vs_scratch);
    } else {
      std::printf("%-12s %-10s %-8s %12llu %12.4f %9s\n", kernel,
                  circuit.c_str(), engine,
                  static_cast<unsigned long long>(ops), t.wall, "-");
    }
    return t.wall;
  };

  for (const auto& name : circuits) {
    const prop::Hypergraph g = prop::make_mcnc_circuit(name);
    const prop::BalanceConstraint balance =
        prop::BalanceConstraint::forty_five(g);
    prop::Rng init_rng(prop::mix_seed(seed, 41));
    const std::vector<std::uint8_t> sides =
        prop::random_balanced_sides(g, balance, init_rng);
    const char* circuit = name.c_str();
    const auto n_reps = static_cast<std::uint64_t>(reps);

    record("bootstrap", name, n_reps, "cached", 0.0, [&] {
      const prop::KWayState state{prop::Partition(g, sides)};
      return run_bootstrap(g, state, reps, circuit);
    });

    {
      prop::KWayState state{prop::Partition(g, sides)};
      prop::ProbGainCalculator calc(state);
      const std::vector<NodeId> free_nodes = mix_state(state, calc, seed);
      const double scratch_wall =
          record("gain-query", name, queries, "scratch", 0.0, [&] {
            return time_reads(free_nodes, queries, seed, "gain-query",
                              circuit, [&](NodeId u) {
                                return calc.scratch_gain(u, 1 - state.part(u));
                              });
          });
      record("gain-query", name, queries, "cached", scratch_wall, [&] {
        return time_reads(
            free_nodes, queries, seed, "gain-query", circuit,
            [&](NodeId u) { return calc.gain(u, 1 - state.part(u)); });
      });
    }

    record("move-update", name, n_reps, "cached", 0.0, [&] {
      return run_move_update(g, sides, balance, reps, circuit);
    });
    record("end-to-end", name, static_cast<std::uint64_t>(runs), "cached",
           0.0,
           [&] { return run_end_to_end(g, balance, runs, seed, threads); });
  }

  {
    // The read state at k = 8 on uniformly random parts (stream 19).
    const prop::Hypergraph g = prop::make_mcnc_circuit("industry2");
    prop::Rng part_rng(prop::mix_seed(seed, 19));
    std::vector<NodeId> parts(g.num_nodes());
    for (auto& p : parts) p = static_cast<NodeId>(part_rng.bounded(kGainsK));
    prop::KWayState state(g, std::move(parts), kGainsK);
    prop::ProbGainCalculator calc(state);
    const std::vector<NodeId> free_nodes = mix_state(state, calc, seed);
    const double scratch_wall =
        record("gains-k8", "industry2", queries, "scratch", 0.0, [&] {
          return time_reads(free_nodes, queries, seed, "gains-k8",
                            "industry2", [&](NodeId u) {
                              double sum = 0.0;
                              for (NodeId to = 0; to < kGainsK; ++to) {
                                if (to != state.part(u)) {
                                  sum += calc.scratch_gain(u, to);
                                }
                              }
                              return sum;
                            });
        });
    record("gains-k8", "industry2", queries, "cached", scratch_wall, [&] {
      return time_reads(free_nodes, queries, seed, "gains-k8", "industry2",
                        [&](NodeId u) {
                          double out[kGainsK];
                          calc.gains(u, out);
                          double sum = 0.0;
                          for (const double x : out) sum += x;
                          return sum;
                        });
    });
  }

  prop::bench::print_rule(68);
  std::printf("\naggregate wall per kernel (speedup = total scratch wall / "
              "total cached wall):\n");
  for (const auto& [kernel, agg] : totals) {
    if (agg.wall[0] > 0.0 && agg.wall[1] > 0.0) {
      std::printf("  %-12s %6.2fx  (scratch %8.3fs, cached %8.3fs)\n",
                  kernel.c_str(), agg.wall[0] / agg.wall[1], agg.wall[0],
                  agg.wall[1]);
    } else {
      std::printf("  %-12s %7s  (cached %8.3fs)\n", kernel.c_str(), "",
                  agg.wall[1]);
    }
  }

  int exit_code = 0;
  if (g_alloc_failure) {
    std::fprintf(stderr,
                 "error: steady-state kernel regions performed heap "
                 "allocations\n");
    exit_code = 6;
  }

  // Perf-regression gate: compare wall seconds cell-by-cell against the
  // baseline read at start-up, before --out is written.  Cells below the
  // absolute floor are skipped — they time in the noise band of the host.
  bool regressed = false;
  int compared = 0;
  if (!baseline.empty()) {
    constexpr double kAbsFloorSeconds = 0.005;
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

  if (!baseline.empty()) {
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

  // Read-path speedup contract: the cached gain() against the scratch
  // oracle on the same reads.
  if (assert_speedup) {
    constexpr double kGainQueryFloor = 3.0;
    for (const auto& [kernel, agg] : totals) {
      if (kernel != "gain-query") continue;
      const double speedup =
          agg.wall[1] > 0.0 ? agg.wall[0] / agg.wall[1] : 0.0;
      if (speedup < kGainQueryFloor) {
        std::fprintf(stderr,
                     "SPEEDUP VIOLATION: gain-query aggregate %.2fx < "
                     "required %.2fx\n",
                     speedup, kGainQueryFloor);
        exit_code = 5;
      }
    }
    if (exit_code != 5) std::printf("speedup contract satisfied\n");
  }
  return exit_code;
}
