#!/usr/bin/env bash
# Repo verification loop: plain Release build + tests, the same test suite
# under AddressSanitizer + UndefinedBehaviorSanitizer, and the concurrency
# suites under ThreadSanitizer.
#
#   scripts/verify.sh           # release tests + sanitizer tests
#   scripts/verify.sh --fast    # release tests only
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

# The release build treats warnings as errors (PROP_WERROR), so a new
# warning fails verification instead of scrolling past.
echo "== release build + tests =="
cmake --preset release -DPROP_WERROR=ON
cmake --build --preset release -j "$jobs"
ctest --preset release -j "$jobs"

# Perf-regression smoke (Release only — sanitizer builds time nothing
# meaningful): the gain-kernel microbench on the fast circuit subset must
# stay within --max-regress of the committed BENCH_gain_kernels.json
# baseline (exit 4 on regression, exit 6 on a steady-state allocation).
echo "== gain-kernel perf gate (release) =="
./build/bench/gain_kernels --fast --baseline BENCH_gain_kernels.json \
  --out build/BENCH_gain_kernels.json > /dev/null

# Multilevel crossover gate: the 10^3+10^4 subset of bench/multilevel
# against the committed BENCH_multilevel.json (same >25% wall-regression
# policy; also re-asserts map/hash merge equivalence in-binary, exit 6).
echo "== multilevel perf gate (release) =="
./build/bench/multilevel --fast --baseline BENCH_multilevel.json \
  --out build/BENCH_multilevel.json > /dev/null

# K-way pipeline gate: rb / rb+greedy / rb+k-way-PROP on the fast subset
# against the committed BENCH_kway.json.  In-binary asserts: every run's
# claimed cost is revalidated exactly (exit 6) and the full pipeline must
# match-or-beat its own greedy prefix on best connectivity at k > 2
# (exit 5); same >25% wall-regression policy (exit 4).
echo "== k-way quality + perf gate (release) =="
./build/bench/kway --fast --baseline BENCH_kway.json --assert-quality \
  --out build/BENCH_kway.json > /dev/null

# Build-flag independence: the library compiles with -ffp-contract=off
# (src/CMakeLists.txt), so a target with FMA instructions must give the
# same golden bytes and bit-identical gains as the default x86-64 target.
# Only meaningful (and only run) where the host CPU has FMA.
if grep -qw fma /proc/cpuinfo 2>/dev/null; then
  echo "== -march=native build: goldens + gain bit-identity =="
  cmake -S . -B build-native -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-march=native > /dev/null
  cmake --build build-native -j "$jobs" --target integration_test core_test
  ctest --test-dir build-native -j "$jobs" -R 'GoldenOutput|ProbGain'
fi

if [[ "${1:-}" == "--fast" ]]; then
  echo "== skipped sanitizer pass (--fast) =="
  exit 0
fi

echo "== asan+ubsan build + tests =="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$jobs"
ctest --preset asan-ubsan -j "$jobs"

# The fault-injection suite gets a dedicated sanitizer pass: degradation
# paths (eigensolver stalls, mid-pass cancellation, per-run validation
# failures) are exactly where stale pointers and half-updated state would
# hide, so run them under ASan+UBSan explicitly even though the full pass
# above includes them.
echo "== fault-injection suite (asan+ubsan) =="
ctest --preset asan-ubsan -j "$jobs" \
  -R 'RuntimeRobustness|FaultInjector|Deadline|CancelToken|Status'

# Per-query gain cross-check under the sanitizers: the filter matches
# KWayProbGain.PassCrossCheckEveryQuery (cached PROP-shaped passes on t4 at
# k = 2, a k = 4 circuit and p1 at k = 8, every gains() answer compared
# with the scratch oracle) and the other ProbGain* suites, which drive the
# calculator's cache, kernel and emission paths against their oracles.
echo "== gain cross-check suites (asan+ubsan) =="
ctest --preset asan-ubsan -j "$jobs" -R 'ProbGain'

# Auditor guard: PROP with the invariant auditor on must give the same cuts
# as without it (the auditor only reads state); prop_drift exits 1 when a
# cut differs.
echo "== PROP auditor smoke (asan+ubsan) =="
./build-asan/bench/prop_drift --fast --runs 1 > /dev/null

echo "== budgeted-run smoke (asan+ubsan) =="
./build-asan/tools/prop_cli --circuit t4 --algo prop --runs 3 \
  --time-budget-ms 1 --on-timeout=best > /dev/null
./build-asan/tools/prop_cli --circuit t4 --algo eig1 --runs 1 \
  --inject=lanczos-stall > /dev/null

# Multilevel V-cycle smoke on a 10^4-node circuit under ASan: both
# refiners drive the full coarsen/contract/project/refine path, which is
# exactly where stale fine-to-coarse indices or builder misuse would hide.
echo "== multilevel smoke (asan+ubsan) =="
./build-asan/tools/prop_cli --circuit s15850 --multilevel \
  --ml-refiner=prop --runs 1 > /dev/null
./build-asan/tools/prop_cli --circuit s15850 --multilevel \
  --ml-refiner=fm --runs 1 > /dev/null

# K-way smoke under ASan: the flat pipeline (recursive bisection + greedy +
# native k-way PROP with its per-(net,part) product cache) and the k-way
# V-cycle — the cache epochs, rollback path and projection indices are the
# new stale-state surface.
echo "== k-way smoke (asan+ubsan) =="
./build-asan/tools/prop_cli --circuit p1 --algo prop --k 4 --runs 1 \
  > /dev/null
./build-asan/tools/prop_cli --circuit p1 --k 8 --multilevel --runs 1 \
  > /dev/null

# V-cycle pass-bound smoke under ASan, one run per PROP engine: each must
# end some pass at its bound (rollback_depth == kVCycleStaleMoveLimit, 1000,
# or kVCycleKWayStaleMoveLimit, 2000), so the early stop and its rollback to
# the best prefix run under the sanitizers.
echo "== V-cycle pass-bound smoke (asan+ubsan) =="
expect_bounded_pass() {
  python3 - "$1" "$2" <<'PY'
import json, sys
runs = json.load(open(sys.argv[1]))["runs"]
bound = int(sys.argv[2])
if not any(p["rollback_depth"] == bound for r in runs for p in r["passes"]):
    sys.exit(sys.argv[1] + ": no pass stopped at the V-cycle bound")
PY
}
./build-asan/tools/prop_cli --synth-nodes 20000 --multilevel \
  --ml-refiner=prop --runs 1 --stats-json build-asan/bound-2way.json \
  --stats-timing=0 > /dev/null
expect_bounded_pass build-asan/bound-2way.json 1000
./build-asan/tools/prop_cli --circuit industry2 --k 8 --multilevel \
  --runs 1 --stats-json build-asan/bound-kway.json --stats-timing=0 \
  > /dev/null
expect_bounded_pass build-asan/bound-kway.json 2000

# Service chaos soak under ASan+UBSan: a short fault-injected soak that
# drives the admission queue past its limit.  The binary itself is the gate —
# it exits nonzero on any lost or duplicated response, any shed without a
# structured status, or any cross-worker-count byte divergence.
echo "== service chaos soak (asan+ubsan) =="
./build-asan/bench/service_throughput --fast --queue-limit 8 \
  --out build-asan/BENCH_service_throughput.json > /dev/null
printf '%s\n%s\n' \
  '{"op":"submit","id":"v1","circuit":"balu","runs":2,"max_retries":3}' \
  '{"op":"shutdown"}' | \
  ./build-asan/tools/prop_serve --workers 2 --inject validate-fail~0.5 \
  > /dev/null

# ThreadSanitizer over everything that touches the thread pool or the
# cross-thread stop latch: the parallel runner suites, the pool itself, the
# socket front end (SocketServer/LineFramer, matched by 'Server'), and the
# runtime suites whose objects the workers share.  The whole test suite is
# single-threaded apart from these, so the targeted run is the honest TSan
# surface, not a shortcut.
echo "== tsan build + concurrency suites =="
cmake --preset tsan
cmake --build --preset tsan -j "$jobs"
ctest --preset tsan -j "$jobs" \
  -R 'ParallelRunner|ThreadPool|Runner|RuntimeRobustness|Deadline|CancelToken|FaultInjector|EngineEquivalence|ProbGainProperty|JobStore|Admission|Server|KWay'

echo "== tsan service smoke =="
./build-tsan/bench/service_throughput --fast --jobs 40 --queue-limit 6 \
  --workers-list 2,4 --out build-tsan/BENCH_service_throughput.json > /dev/null

echo "== tsan parallel smoke =="
./build-tsan/tools/prop_cli --circuit t4 --algo fm --runs 8 --threads 4 \
  > /dev/null
./build-tsan/tools/prop_cli --circuit t4 --algo prop --runs 4 --threads 2 \
  --time-budget-ms 1 --on-timeout=best > /dev/null
# K-way jobs across the parallel runner: each worker clones the whole
# KWayPartitioner pipeline, so this exercises clone isolation under TSan.
./build-tsan/tools/prop_cli --circuit t4 --algo prop --k 4 --runs 4 \
  --threads 2 > /dev/null

echo "== verify OK =="
