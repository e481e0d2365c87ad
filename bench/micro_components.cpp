// google-benchmark micro suite: the container and kernel costs behind the
// complexity analysis of paper Sec. 3.5 (bucket vs ordered-container
// operations, gain recomputation, incremental cut maintenance, Lanczos/CG
// steps, circuit generation).
#include <benchmark/benchmark.h>

#include <vector>

#include "core/prob_gain.h"
#include "datastruct/bucket_list.h"
#include "datastruct/ordered_gains.h"
#include "fm/fm_gains.h"
#include "hypergraph/generator.h"
#include "hypergraph/mcnc_suite.h"
#include "linalg/cg.h"
#include "linalg/lanczos.h"
#include "partition/partition.h"
#include "spectral/laplacian.h"
#include "util/rng.h"

namespace {

prop::Hypergraph bench_circuit() {
  static prop::Hypergraph g = prop::make_mcnc_circuit("struct");
  return g;
}

prop::Partition bench_partition(const prop::Hypergraph& g) {
  std::vector<std::uint8_t> sides(g.num_nodes());
  prop::Rng rng(5);
  for (auto& s : sides) s = rng.chance(0.5) ? 1 : 0;
  return prop::Partition(g, sides);
}

void BM_BucketListUpdate(benchmark::State& state) {
  const auto n = static_cast<prop::BucketList::Handle>(state.range(0));
  prop::BucketList bucket(n, 64);
  prop::Rng rng(1);
  for (prop::BucketList::Handle h = 0; h < n; ++h) {
    bucket.insert(h, static_cast<int>(rng.range(-64, 64)));
  }
  for (auto _ : state) {
    const auto h = static_cast<prop::BucketList::Handle>(rng.bounded(n));
    bucket.update(h, static_cast<int>(rng.range(-64, 64)));
    benchmark::DoNotOptimize(bucket.best());
  }
}
BENCHMARK(BM_BucketListUpdate)->Arg(1 << 10)->Arg(1 << 14);

void BM_OrderedGainsUpdate(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  prop::OrderedGains<double> gains(n);
  prop::Rng rng(2);
  for (std::uint32_t h = 0; h < n; ++h) gains.insert(h, rng.uniform());
  for (auto _ : state) {
    const auto h = static_cast<std::uint32_t>(rng.bounded(n));
    gains.update(h, rng.uniform());
    benchmark::DoNotOptimize(gains.max());
  }
}
BENCHMARK(BM_OrderedGainsUpdate)->Arg(1 << 10)->Arg(1 << 14);

// PROP-shaped churn: keys on a coarse grid (many exact ties, as at a pass
// start), each update nudging a node's key by a small step — the in-place
// rewrite, same-block shift and tie re-insert paths in realistic shares —
// plus the max() read of every selection step.
void BM_OrderedGainsChurn(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  prop::OrderedGains<double> gains(n);
  prop::Rng rng(8);
  for (std::uint32_t h = 0; h < n; ++h) {
    gains.insert(h, 0.25 * static_cast<double>(rng.range(-16, 16)));
  }
  for (auto _ : state) {
    const auto h = static_cast<std::uint32_t>(rng.bounded(n));
    const double step = rng.chance(0.5)
                            ? 0.25 * static_cast<double>(rng.range(-1, 1))
                            : 0.01 * (rng.uniform() - 0.5);
    gains.update(h, gains.key(h) + step);
    benchmark::DoNotOptimize(gains.max());
  }
}
BENCHMARK(BM_OrderedGainsChurn)->Arg(1 << 10)->Arg(1 << 14);

void BM_FmGainRecompute(benchmark::State& state) {
  const prop::Hypergraph g = bench_circuit();
  const prop::Partition part = bench_partition(g);
  prop::Rng rng(3);
  for (auto _ : state) {
    const auto u = static_cast<prop::NodeId>(rng.bounded(g.num_nodes()));
    benchmark::DoNotOptimize(prop::fm_gain(part, u));
  }
}
BENCHMARK(BM_FmGainRecompute);

void BM_ProbGainRecompute(benchmark::State& state) {
  const prop::Hypergraph g = bench_circuit();
  const prop::KWayState halves(bench_partition(g));
  prop::ProbGainCalculator calc(halves);
  for (prop::NodeId u = 0; u < g.num_nodes(); ++u) calc.set_probability(u, 0.9);
  prop::Rng rng(4);
  for (auto _ : state) {
    const auto u = static_cast<prop::NodeId>(rng.bounded(g.num_nodes()));
    benchmark::DoNotOptimize(calc.gain(u, 1 - halves.part(u)));
  }
}
BENCHMARK(BM_ProbGainRecompute);

void BM_PartitionMove(benchmark::State& state) {
  const prop::Hypergraph g = bench_circuit();
  prop::Partition part = bench_partition(g);
  prop::Rng rng(6);
  for (auto _ : state) {
    part.move(static_cast<prop::NodeId>(rng.bounded(g.num_nodes())));
    benchmark::DoNotOptimize(part.cut_cost());
  }
}
BENCHMARK(BM_PartitionMove);

void BM_GenerateCircuit(benchmark::State& state) {
  const prop::CircuitSpec spec{"bench", 2000, 2400, 8000};
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prop::generate_circuit(spec, ++seed));
  }
}
BENCHMARK(BM_GenerateCircuit);

void BM_LaplacianBuild(benchmark::State& state) {
  const prop::Hypergraph g = bench_circuit();
  for (auto _ : state) {
    benchmark::DoNotOptimize(prop::clique_laplacian(g));
  }
}
BENCHMARK(BM_LaplacianBuild);

void BM_LanczosFiedler(benchmark::State& state) {
  const prop::Hypergraph g = bench_circuit();
  const prop::CsrMatrix laplacian = prop::clique_laplacian(g);
  prop::LanczosOptions options;
  options.max_iterations = 60;
  for (auto _ : state) {
    prop::Rng rng(7);
    benchmark::DoNotOptimize(
        prop::smallest_eigenpairs(laplacian, 1, rng, options));
  }
}
BENCHMARK(BM_LanczosFiedler);

void BM_CgSolve(benchmark::State& state) {
  const prop::Hypergraph g = bench_circuit();
  prop::CsrMatrix laplacian = prop::clique_laplacian(g);
  // Regularized system (L + I) x = b: SPD.
  std::vector<prop::Triplet> t;
  for (std::uint32_t r = 0; r < laplacian.size(); ++r) {
    const auto cols = laplacian.row_cols(r);
    const auto vals = laplacian.row_values(r);
    for (std::size_t i = 0; i < cols.size(); ++i) t.push_back({r, cols[i], vals[i]});
    t.push_back({r, r, 1.0});
  }
  const prop::CsrMatrix a = prop::CsrMatrix::from_triplets(laplacian.size(), t);
  std::vector<double> b(a.size(), 1.0);
  for (auto _ : state) {
    std::vector<double> x(a.size(), 0.0);
    benchmark::DoNotOptimize(prop::conjugate_gradient(a, b, x));
  }
}
BENCHMARK(BM_CgSolve);

}  // namespace
