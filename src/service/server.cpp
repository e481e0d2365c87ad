#include "service/server.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "hypergraph/mcnc_suite.h"
#include "partition/balance.h"
#include "partition/runner.h"
#include "runtime/deadline.h"
#include "runtime/run_context.h"
#include "service/algo_factory.h"
#include "util/rng.h"

namespace prop::service {
namespace {

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Pre-admission checks beyond JSON shape: the request must name work the
/// server can actually execute, and an inline payload must fit the ingest
/// byte cap *before* it sits in the queue.
Status validate_spec(const JobSpec& spec, const HgrLimits& limits) {
  const bool has_circuit = !spec.circuit.empty();
  const bool has_hgr = !spec.hgr.empty();
  if (has_circuit == has_hgr) {
    return Status::failure(StatusCode::kInvalidRequest,
                           "exactly one of 'circuit' and 'hgr' must be set");
  }
  if (has_circuit) {
    try {
      (void)mcnc_spec(spec.circuit);
    } catch (const std::out_of_range&) {
      return Status::failure(StatusCode::kInvalidRequest,
                             "unknown circuit '" + spec.circuit + "'");
    }
  }
  if (has_hgr && limits.max_bytes != 0 && spec.hgr.size() > limits.max_bytes) {
    return Status::failure(
        StatusCode::kInvalidRequest,
        "hgr payload of " + std::to_string(spec.hgr.size()) +
            " bytes exceeds limit " + std::to_string(limits.max_bytes));
  }
  if (spec.balance != "45-55" && spec.balance != "50-50") {
    return Status::failure(StatusCode::kInvalidRequest,
                           "unknown balance '" + spec.balance +
                               "' (45-55|50-50)");
  }
  if (!make_algo(spec.algo)) {
    return Status::failure(StatusCode::kInvalidRequest,
                           "unknown algorithm '" + spec.algo + "' (" +
                               algo_names() + ")");
  }
  // k is range-checked by the wire parser; the refiner/objective names are
  // free strings there, so reject unknowns at admission rather than at exec.
  if (!parse_kway_refiner(spec.kway_refiner)) {
    return Status::failure(StatusCode::kInvalidRequest,
                           "unknown kway_refiner '" + spec.kway_refiner +
                               "' (prop|greedy|none)");
  }
  if (!parse_kway_objective(spec.kway_objective)) {
    return Status::failure(StatusCode::kInvalidRequest,
                           "unknown kway_objective '" + spec.kway_objective +
                               "' (cut|connectivity)");
  }
  return Status::success();
}

/// A protocol-level rejection: {"id":...,"state":"invalid","status":{...}},
/// the id only when the request carried a string one.
std::string invalid_line(const Status& status,
                         const std::string* id = nullptr) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  if (id) w.key("id").value(*id);
  w.key("state").value("invalid");
  w.key("status");
  write_json(w, status);
  w.end_object();
  return out.str();
}

}  // namespace

Server::Server(ServerConfig config, ResponseSink sink)
    : config_(std::move(config)),
      sink_(std::move(sink)),
      queue_(AdmissionConfig{config_.queue_limit, config_.aging_interval}) {
  if (!config_.inject.empty()) {
    chaos_ = FaultInjector(config_.inject, config_.inject_seed);
    chaos_armed_ = true;
  }
  pool_ = std::make_unique<ThreadPool>(std::max(1, config_.workers));
}

Server::~Server() {
  drain();
  pool_.reset();
}

void Server::drain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drained_.wait(lock, [&] { return outstanding_ == 0; });
}

ServerStats Server::stats() const {
  ServerStats s;
  s.lines = lines_.load(std::memory_order_relaxed);
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.shed = queue_.shed_count();
  s.invalid = invalid_.load(std::memory_order_relaxed);
  s.done = done_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.max_queue_depth = queue_.max_depth_seen();
  return s;
}

void Server::emit(const std::string& line) {
  responses_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(sink_mutex_);
  if (sink_) sink_(line);
}

void Server::respond(const std::string& id, const std::string& line,
                     JobState state) {
  // The exactly-once gate: the first responder for an id wins; a second
  // attempt to respond (which would be a server bug) is suppressed, never
  // emitted.
  if (store_.mark_responded(id) != 1) return;
  // done/failed count only jobs that executed; shed and invalid rejections
  // are counted where they happen (queue_.shed_count(), invalid_).
  if (state == JobState::kDone) {
    done_.fetch_add(1, std::memory_order_relaxed);
  } else if (state == JobState::kFailed) {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  emit(line);
}

std::string Server::envelope(
    const JobSpec& spec, JobState state, int attempts, const Status& status,
    const std::string& result_json, const std::string& partition,
    const std::vector<DegradationEvent>& degradations, double queue_ms,
    double exec_ms) const {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.key("id").value(spec.id);
  w.key("tenant").value(spec.tenant);
  w.key("state").value(to_string(state));
  w.key("attempts").value(attempts);
  w.key("status");
  write_json(w, status);
  if (!result_json.empty()) w.key("result").raw(result_json);
  if (!partition.empty()) w.key("partition").value(partition);
  if (!degradations.empty()) {
    w.key("degradations").begin_array();
    for (const DegradationEvent& e : degradations) write_json(w, e);
    w.end_array();
  }
  // Timing is the one schedule-dependent part of a response; it rides on the
  // same opt-out as the result's timing fields so stats_timing=false yields
  // fully load-independent bytes.
  if (attempts > 0 && spec.stats_timing) {
    w.key("queue_ms").value(queue_ms);
    w.key("exec_ms").value(exec_ms);
  }
  w.end_object();
  return out.str();
}

bool Server::handle_line(const std::string& line) {
  lines_.fetch_add(1, std::memory_order_relaxed);
  if (line.find_first_not_of(" \t\r\n") == std::string::npos) return true;

  if (line.size() > config_.max_request_bytes) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    const Status status = Status::failure(
        StatusCode::kInvalidRequest,
        "request line of " + std::to_string(line.size()) +
            " bytes exceeds limit " + std::to_string(config_.max_request_bytes));
    emit(invalid_line(status));
    return true;
  }

  std::string error;
  const auto doc = json_parse(line, &error);
  if (!doc || !doc->is_object()) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    const Status status = Status::failure(
        StatusCode::kInvalidRequest,
        doc ? "request must be a JSON object" : error);
    emit(invalid_line(status));
    return true;
  }

  std::string op = "submit";
  if (const JsonValue* opv = doc->find("op")) {
    op = opv->is_string() ? opv->as_string() : std::string();
  }

  if (op == "stats") {
    const ServerStats s = stats();
    std::ostringstream out;
    JsonWriter w(out);
    w.begin_object();
    w.key("op").value("stats");
    w.key("lines").value(s.lines);
    w.key("submitted").value(s.submitted);
    w.key("accepted").value(s.accepted);
    w.key("shed").value(s.shed);
    w.key("invalid").value(s.invalid);
    w.key("done").value(s.done);
    w.key("failed").value(s.failed);
    w.key("retries").value(s.retries);
    w.key("responses").value(s.responses);
    w.key("queue_depth").value(queue_.depth());
    w.key("max_queue_depth").value(s.max_queue_depth);
    w.key("jobs").value(store_.size());
    w.end_object();
    emit(out.str());
    return true;
  }

  if (op == "shutdown") {
    drain();
    emit("{\"op\":\"shutdown\",\"status\":{\"code\":\"ok\"}}");
    return false;
  }

  if (op != "submit") {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    const Status status =
        Status::failure(StatusCode::kInvalidRequest,
                        "unknown op '" + op + "' (submit|stats|shutdown)");
    emit(invalid_line(status));
    return true;
  }

  submitted_.fetch_add(1, std::memory_order_relaxed);
  auto spec = job_spec_from_json(*doc, &error);
  if (!spec) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    const Status status = Status::failure(StatusCode::kInvalidRequest, error);
    const JsonValue* id = doc->find("id");
    emit(invalid_line(status, id && id->is_string() ? &id->as_string()
                                                    : nullptr));
    return true;
  }
  submit(std::move(*spec));
  return true;
}

void Server::submit(JobSpec spec) {
  // Duplicate-id gate.  The rejection is emitted directly (not via
  // respond()): the id's exactly-once response still belongs to its first
  // submission.
  if (!store_.try_insert(spec.id)) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    const Status status = Status::failure(
        StatusCode::kInvalidRequest, "duplicate job id '" + spec.id + "'");
    emit(envelope(spec, JobState::kInvalid, 0, status, "", "", {}, 0.0, 0.0));
    return;
  }

  const Status valid = validate_spec(spec, config_.hgr_limits);
  if (!valid.ok()) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    store_.update(spec.id, [&](JobRecord& r) {
      r.state = JobState::kInvalid;
      r.final_status = valid;
    });
    respond(spec.id,
            envelope(spec, JobState::kInvalid, 0, valid, "", "", {}, 0.0, 0.0),
            JobState::kInvalid);
    return;
  }

  const Status admitted = queue_.push(spec);
  if (!admitted.ok()) {
    store_.update(spec.id, [&](JobRecord& r) {
      r.state = JobState::kShed;
      r.final_status = admitted;
    });
    respond(
        spec.id,
        envelope(spec, JobState::kShed, 0, admitted, "", "", {}, 0.0, 0.0),
        JobState::kShed);
    return;
  }

  accepted_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(timing_mutex_);
    timings_[spec.id] = JobTiming{std::chrono::steady_clock::now()};
  }
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    ++outstanding_;
  }
  // Task-per-job: exactly one executor task per admitted job, so pop() in
  // execute_one() always finds work (AdmissionQueue documents the
  // invariant).
  pool_->submit([this] { execute_one(); });
}

void Server::execute_one() {
  struct OutstandingGuard {
    Server& server;
    ~OutstandingGuard() {
      std::lock_guard<std::mutex> lock(server.drain_mutex_);
      if (--server.outstanding_ == 0) server.drained_.notify_all();
    }
  } guard{*this};

  const JobSpec spec = queue_.pop();
  try {
    run_job(spec);
  } catch (const std::exception& e) {
    // Panic isolation of last resort: run_job converts job failures to data
    // itself, so reaching here means a bug in the response path — still
    // answer the client and keep the worker alive.
    const Status status = Status::failure(
        StatusCode::kError, std::string("internal error: ") + e.what());
    store_.update(spec.id, [&](JobRecord& r) {
      r.state = JobState::kFailed;
      r.final_status = status;
      if (r.attempts == 0) r.attempts = 1;
    });
    respond(spec.id,
            envelope(spec, JobState::kFailed, 1, status, "", "", {}, 0.0, 0.0),
            JobState::kFailed);
  } catch (...) {
    const Status status =
        Status::failure(StatusCode::kError, "internal non-standard exception");
    store_.update(spec.id, [&](JobRecord& r) {
      r.state = JobState::kFailed;
      r.final_status = status;
      if (r.attempts == 0) r.attempts = 1;
    });
    respond(spec.id,
            envelope(spec, JobState::kFailed, 1, status, "", "", {}, 0.0, 0.0),
            JobState::kFailed);
  }
}

void Server::run_job(const JobSpec& spec) {
  const auto exec_start = std::chrono::steady_clock::now();
  double queue_ms = 0.0;
  {
    std::lock_guard<std::mutex> lock(timing_mutex_);
    if (const auto it = timings_.find(spec.id); it != timings_.end()) {
      queue_ms = ms_between(it->second.admitted, exec_start);
      timings_.erase(it);
    }
  }
  store_.update(spec.id, [&](JobRecord& r) {
    r.state = JobState::kRunning;
    r.queue_ms = queue_ms;
  });

  // Ingest under the configured limits.  An oversized or malformed payload
  // is a structured failure for *this* job, never an exception escaping the
  // worker.
  Hypergraph g;
  try {
    if (!spec.circuit.empty()) {
      g = make_mcnc_circuit(spec.circuit);
    } else {
      std::istringstream in(spec.hgr);
      g = read_hgr(in, "inline", config_.hgr_limits);
    }
  } catch (const std::exception& e) {
    const Status status =
        Status::failure(StatusCode::kInvalidRequest, e.what());
    const double exec_ms =
        ms_between(exec_start, std::chrono::steady_clock::now());
    store_.update(spec.id, [&](JobRecord& r) {
      r.state = JobState::kFailed;
      r.final_status = status;
      r.attempts = 1;
      r.exec_ms = exec_ms;
    });
    respond(spec.id,
            envelope(spec, JobState::kFailed, 1, status, "", "", {}, queue_ms,
                     exec_ms),
            JobState::kFailed);
    return;
  }

  // k = 2 keeps the classic bisection path byte-for-byte; k > 2 wraps the
  // same base algorithm in the recursive-bisection + k-way-refiner pipeline
  // (refiner/objective names were validated at admission).
  const auto algo =
      spec.k > 2
          ? make_kway_algo(spec.algo, static_cast<NodeId>(spec.k),
                           *parse_kway_refiner(spec.kway_refiner),
                           *parse_kway_objective(spec.kway_objective))
          : make_algo(spec.algo);
  const BalanceConstraint balance = spec.balance == "50-50"
                                        ? BalanceConstraint::fifty_fifty(g)
                                        : BalanceConstraint::forty_five(g);
  const double budget_ms =
      spec.deadline_ms > 0.0 ? spec.deadline_ms : config_.default_deadline_ms;
  // The budget starts at execution, not admission: a job must not pay for
  // queueing delay caused by other tenants' load.
  const Deadline deadline =
      budget_ms > 0.0 ? Deadline::after_ms(budget_ms) : Deadline::never();
  const int max_retries =
      spec.max_retries >= 0 ? spec.max_retries : config_.max_retries;

  int attempts = 0;
  Status status;
  MultiRunResult result;
  bool have_run = false;
  std::vector<DegradationEvent> degradations;
  double backoff_ms = config_.retry_backoff_ms;

  for (int attempt = 0;; ++attempt) {
    attempts = attempt + 1;
    // Chaos is forked per (job seed, attempt): which attempt of which job a
    // fault hits never depends on scheduling, so the whole soak is
    // replayable and the retry ladder is spec-deterministic.
    FaultInjector injector =
        chaos_.fork(mix_seed(spec.seed, static_cast<std::uint64_t>(attempt)));
    CancelToken cancel(deadline);
    DegradationLog log;
    RunContext ctx;
    ctx.cancel = &cancel;
    ctx.injector = chaos_armed_ ? &injector : nullptr;
    ctx.degradations = &log;

    bool attempt_threw = false;
    bool injected_throw = false;
    std::string what;
    MultiRunResult r;
    try {
      if (chaos_armed_ && injector.should_fail(FaultSite::kServeExec)) {
        // The injected "panic": an exception from inside the job body.  The
        // catch below classifies it as transient because the injection is
        // known to have fired; a real (unexpected) exception is terminal.
        injected_throw = true;
        throw std::runtime_error("injected fault at serve-exec");
      }
      RunnerOptions options;
      options.context = &ctx;
      options.threads = 0;  // in-worker sequential: load-independent results
      options.allow_all_failed = true;
      r = run_many(*algo, g, balance, spec.runs, spec.seed, options);
    } catch (const std::exception& e) {
      attempt_threw = true;
      what = e.what();
    } catch (...) {
      attempt_threw = true;
      what = "non-standard exception";
    }

    degradations = log.take();
    if (attempt_threw) {
      have_run = false;
      status = Status::failure(
          injected_throw ? StatusCode::kInjectedFault : StatusCode::kError,
          what);
    } else {
      have_run = true;
      result = std::move(r);
      status = result.status;
    }

    const bool produced = have_run && result.best.valid();
    const bool transient =
        !produced && status.code == StatusCode::kInjectedFault;
    if (transient && attempt < max_retries) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      store_.update(spec.id, [&](JobRecord& r2) { r2.attempts = attempts; });
      if (backoff_ms > 0.0) {
        const double delay =
            std::min(backoff_ms, config_.retry_backoff_max_ms);
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay));
        backoff_ms = std::min(backoff_ms * 2.0, config_.retry_backoff_max_ms);
      }
      continue;
    }
    break;
  }

  const bool produced = have_run && result.best.valid();
  std::string result_json;
  if (produced) {
    std::ostringstream ss;
    StatsJsonOptions json_options;
    json_options.include_timing = spec.stats_timing;
    write_stats_json(ss, g.name(), algo->name(), result, json_options);
    result_json = ss.str();
  }
  const std::string partition =
      produced && spec.return_partition ? encode_side(result.best.side) : "";

  const JobState state = produced ? JobState::kDone : JobState::kFailed;
  const double exec_ms =
      ms_between(exec_start, std::chrono::steady_clock::now());
  store_.update(spec.id, [&](JobRecord& r) {
    r.state = state;
    r.attempts = attempts;
    r.final_status = status;
    r.exec_ms = exec_ms;
  });
  respond(spec.id,
          envelope(spec, state, attempts, status, result_json, partition,
                   degradations, queue_ms, exec_ms),
          state);
}

}  // namespace prop::service
