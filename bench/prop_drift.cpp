// PROP gain-drift measurement harness.
//
// PROP's incremental gains[] are approximately consistent with a
// from-scratch recompute by design: updating p(v) after a move stales the
// neighbours' previously computed gains (Sec. 3.4 of the paper).  This
// harness quantifies that staleness: it runs PROP with the invariant
// auditor enabled on generated MCNC-like circuits and reports the maximum
// |gains[v] - scratch_gain(v)| observed across all audit sweeps.  Each
// circuit is also run without the auditor; the auditor only reads state,
// so the two runs must give the same cuts, and the harness exits 1 when
// they do not.
//
// Flags: --fast (smaller circuit list), --runs N, --seed N,
// --audit-interval N.
#include <cstdio>

#include "bench_common.h"
#include "core/prop_partitioner.h"
#include "hypergraph/generator.h"
#include "partition/runner.h"

int main(int argc, char** argv) {
  const prop::CliArgs args(argc, argv);
  if (!prop::bench::check_flags(
          args, {"fast", "runs", "seed", "audit-interval", "threads"},
          "[--fast] [--runs N] [--seed N] [--audit-interval N] "
          "[--threads N]\n"
          "          [--time-budget-ms N] [--on-timeout=best|fail] "
          "[--inject=SPEC] [--inject-seed N]")) {
    return 2;
  }
  prop::RuntimeSession session(args);
  prop::bench::OutcomeTracker tracker;
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const int runs = static_cast<int>(args.get_int_or("runs", 5));
  const int audit = static_cast<int>(args.get_int_or("audit-interval", 4));

  struct Shape {
    const char* name;
    prop::NodeId nodes;
    prop::NetId nets;
    std::size_t pins;
  };
  const Shape shapes[] = {
      {"g300", 300, 380, 1300},   {"g600", 600, 750, 2600},
      {"g1000", 1000, 1300, 4500}, {"g1500", 1500, 1900, 6600},
      {"g2000", 2000, 2600, 9000},
  };
  const int limit = args.get_bool_or("fast", false) ? 3 : 5;

  std::printf("PROP incremental-gain drift vs from-scratch recompute\n");
  std::printf("(audit every %d moves; %d runs each)\n\n", audit, runs);
  std::printf("%-8s %8s %8s | %14s | %17s | %s\n", "circuit", "nodes", "nets",
              "max drift", "best cut off/on", "cuts equal");
  prop::bench::print_rule(78);

  bool all_equal = true;
  for (int i = 0; i < limit; ++i) {
    const Shape& s = shapes[i];
    const prop::Hypergraph g = prop::generate_circuit(
        {s.name, s.nodes, s.nets, s.pins}, prop::mix_seed(seed, 11 + i));
    const prop::BalanceConstraint balance =
        prop::BalanceConstraint::forty_five(g);
    prop::RunnerOptions options;
    options.collect_telemetry = true;
    options.context = session.context();
    options.threads = prop::bench::thread_count(args);

    prop::PropPartitioner plain;
    const prop::MultiRunResult off =
        prop::run_many(plain, g, balance, runs, seed, options);
    tracker.observe(off);

    prop::PropConfig audited_config;
    audited_config.audit_interval = audit;
    prop::PropPartitioner audited(audited_config);
    const prop::MultiRunResult on =
        prop::run_many(audited, g, balance, runs, seed, options);
    tracker.observe(on);

    // A run stopped by a deadline or an injected fault proves nothing
    // either way.
    const bool comparable = off.status.ok() && on.status.ok();
    const bool equal = off.cuts == on.cuts;
    if (comparable && !equal) all_equal = false;
    std::printf("%-8s %8u %8u | %14.6g | %7.0f /%7.0f | %s\n", s.name,
                g.num_nodes(), g.num_nets(), on.max_gain_drift(),
                off.best_cut(), on.best_cut(),
                !comparable ? "n/a" : equal ? "yes" : "NO");
  }

  std::printf(
      "\nmax drift: max |incremental - scratch| gain gap over all audit\n"
      "sweeps — the paper-design staleness in practice.  cuts equal: every\n"
      "run's cut with the auditor matches the run without it.\n");
  const int code = tracker.finish(session);
  if (!all_equal) {
    std::fprintf(stderr, "prop_drift: the auditor changed a PROP result\n");
    return 1;
  }
  return code;
}
