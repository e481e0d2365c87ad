// The four workloads of the end-to-end benchmark and the library calls
// that run them.  Everything here uses only the library's stable public
// surface (read_hgr/write_hgr, the generators, the three partitioners via
// run_many, write_stats_json and service::Server::handle_line), so a
// refactor of engine internals cannot break the end-to-end numbers.
//
// Inputs are a pure function of the workload seed.  The program under test
// receives only .hgr text (batch) or request lines (served); the bench keeps
// its own generated Hypergraph of every input for the oracle, so a parser
// bug shows up as an oracle mismatch rather than being graded by itself.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "hypergraph/hypergraph.h"
#include "partition/partitioner.h"
#include "partition/runner.h"
#include "service/server.h"

namespace e2e {

/// Batch partitioner of a workload (served jobs pick theirs per request).
enum class Algo { kFlatProp, kMlProp, kMlKway8 };

struct Input {
  std::string name;
  std::string hgr;         ///< what the program parses; empty for bundled circuits a server regenerates
  prop::Hypergraph graph;  ///< the bench's own copy, graded by the oracle
  double generate_s = 0.0;  ///< time the library's generator took for it
};

struct BatchJob {
  std::size_t index = 0;
  std::size_t input = 0;
  std::uint64_t seed = 0;
};

struct ServeJob {
  std::size_t index = 0;
  std::string algo;  ///< "prop" or "fm"
  int runs = 1;
  int k = 2;
  std::uint64_t seed = 0;
  std::size_t input = 0;  ///< index into Workload::inputs
  bool inline_hgr = false;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  bool served = false;
  Algo algo = Algo::kFlatProp;
  std::vector<Input> inputs;
  /// Batch only: job i partitions inputs[rotation[i % rotation.size()]].
  /// Runs end on a whole rotation so every run has the same input mix.
  std::vector<std::size_t> rotation;
  /// Jobs whose outputs define the deterministic results (cuts, digest,
  /// counters).  A run always completes them, then keeps going until its
  /// time is up; timing metrics use every job.
  std::size_t quality_jobs = 0;
  /// The same floor for the traced replay, which does each job twice.
  std::size_t trace_jobs = 0;

  BatchJob batch_job(std::size_t i) const;
  ServeJob serve_job(std::size_t i) const;
  std::string request_line(const ServeJob& job) const;
  /// Quality group: input x algorithm x k.
  std::string group(const ServeJob& job) const;
  std::string group(const BatchJob& job) const;
};

/// Builds the inputs of `name` from `seed`; throws std::invalid_argument for
/// an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke);

/// The program's ingest of one input (read_hgr on the in-memory text).
prop::Hypergraph parse_input(const Input& input);

// --- batch jobs ---------------------------------------------------------

std::unique_ptr<prop::Bipartitioner> make_partitioner(Algo algo);
prop::BalanceConstraint batch_balance(const prop::Hypergraph& g);
Promise batch_promise(Algo algo);

struct BatchOutput {
  prop::MultiRunResult result;
  std::string stats_json;
  std::string error;  ///< non-empty when run_many threw
};

/// One job as a user runs it: run_many (one run, sequential) followed by
/// write_stats_json without timing fields.
BatchOutput run_batch_job(prop::Bipartitioner& algo, const prop::Hypergraph& g,
                          std::uint64_t seed);

// --- served jobs --------------------------------------------------------

/// Request id of served job `index` ("j<index>").
std::string job_id(std::size_t index);

struct ServedJob {
  std::string response;
  double latency_s = 0.0;  ///< handle_line call -> response line
  double submit_s = 0.0;   ///< the handle_line call itself
  double queue_ms = 0.0;   ///< server-reported admission wait
  double exec_ms = 0.0;    ///< server-reported execution time
};

struct ServedCheck {
  bool ok = false;
  std::string message;
  std::vector<std::uint8_t> parts;
  double cost = 0.0;
  std::string result;     ///< raw "result" member
  std::string partition;  ///< raw side string
};

/// Grades one response: state done, result present, side string decodes,
/// and the oracle agrees with the claimed best cut.
ServedCheck check_served(const Workload& w, const ServeJob& job,
                         const std::string& response);

/// An in-process Server (2 workers, queue limit 64) driven by a closed loop
/// of four clients from the calling thread: each client submits its next job
/// only after its previous response arrived.
class ServeHarness {
 public:
  static constexpr int kWorkers = 2;
  static constexpr int kClients = 4;

  ServeHarness();
  ServeHarness(const ServeHarness&) = delete;
  ServeHarness& operator=(const ServeHarness&) = delete;

  struct Run {
    std::vector<ServedJob> jobs;  ///< indexed by job
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::string error;  ///< non-empty when the loop could not finish
  };

  /// Submits jobs 0, 1, ... until `seconds` have passed and at least
  /// `min_jobs` were submitted, then waits for every response.  When
  /// `pause` is set, every `pause_every_s` the clients stop submitting, the
  /// server drains, and `pause` runs on the idle server; its time is left
  /// out of wall_s and cpu_s.
  Run run(const Workload& w, double seconds, std::size_t min_jobs,
          const std::function<void()>& pause = {}, double pause_every_s = 0.0);

 private:
  struct Arrival {
    std::string line;
    Clock::time_point at;
  };

  std::mutex mutex_;
  std::condition_variable arrived_;
  std::deque<Arrival> arrivals_;
  /// Last member: destroyed (and drained) before the queue it writes to.
  prop::service::Server server_;
};

}  // namespace e2e
