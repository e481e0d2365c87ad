#include "replay.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <stdexcept>

#include "core/prop_partitioner.h"
#include "fm/fm_partitioner.h"
#include "hypergraph/contraction.h"
#include "kway/kway_partitioner.h"
#include "kway/kway_state.h"
#include "multilevel/multilevel_driver.h"
#include "multilevel/multilevel_kway.h"
#include "partition/initial.h"
#include "partition/partition.h"
#include "partition/recursive.h"
#include "util/rng.h"

namespace e2e {

int Tracer::open(const char* name, const char* layer) {
  SpanRecord s;
  s.job = job_;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.name = name;
  s.layer = layer;
  s.start_us = now_us();
  spans_.push_back(s);
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

double Tracer::close(int id) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("tracer: span closed out of order");
  }
  stack_.pop_back();
  SpanRecord& s = spans_[static_cast<std::size_t>(id)];
  s.end_us = now_us();
  return (s.end_us - s.start_us) * 1e-6;
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

bool Tracer::write(const std::string& path, const std::string& workload,
                   std::uint64_t seed) const {
  std::ofstream out(path);
  out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"job\":" << s.job << ",\"workload\":\"" << workload
        << "\",\"name\":\"" << s.name << "\",\"layer\":\"" << s.layer
        << "\",\"start_us\":" << format_double(s.start_us)
        << ",\"end_us\":" << format_double(s.end_us) << "}";
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

namespace {

prop::PartitionResult to_result(const prop::Partition& part,
                                const prop::RefineOutcome& outcome) {
  prop::PartitionResult r;
  r.side = part.sides();
  r.cut_cost = outcome.cut_cost;
  r.passes = outcome.passes;
  return r;
}

/// The k-way adapters' PartitionResult: part ids in `side`, objective cost.
prop::PartitionResult kway_result(const std::vector<prop::NodeId>& part,
                                  double cost, int passes) {
  prop::PartitionResult r;
  r.side.resize(part.size());
  for (std::size_t i = 0; i < part.size(); ++i) {
    r.side[i] = static_cast<std::uint8_t>(part[i]);
  }
  r.cut_cost = cost;
  r.passes = passes;
  return r;
}

double objective(prop::KWayObjective o, double cut, double connectivity) {
  return o == prop::KWayObjective::kCut ? cut : connectivity;
}

class ReplayAlgo : public prop::Bipartitioner {
 public:
  ReplayAlgo(Replay& replay, const prop::Bipartitioner& library)
      : replay_(replay), library_(library) {}

  std::string name() const override { return library_.name(); }

  prop::ValidationReport validate(const prop::Hypergraph& g,
                                  const prop::BalanceConstraint& balance,
                                  const prop::PartitionResult& result) const override {
    Span span(replay_.tracer, "validate", "partition");
    return library_.validate(g, balance, result);
  }

 protected:
  Replay& replay_;
  const prop::Bipartitioner& library_;
};

/// PropPartitioner::run.
class ReplayProp final : public ReplayAlgo {
 public:
  ReplayProp(Replay& replay, const prop::PropPartitioner& library)
      : ReplayAlgo(replay, library), config_(library.config()) {
    config_.telemetry = &replay.counters.prop2;
  }

  prop::PartitionResult run(const prop::Hypergraph& g,
                            const prop::BalanceConstraint& balance,
                            std::uint64_t seed) override {
    Tracer& t = replay_.tracer;
    Span span(t, "prop_run", "core");
    prop::Rng rng(seed);
    prop::Partition part(g, traced(t, "random_balanced_sides", "partition", [&] {
                           return prop::random_balanced_sides(g, balance, rng);
                         }));
    const prop::RefineOutcome outcome = traced(
        t, "prop_refine", "core", [&] { return prop::prop_refine(part, balance, config_); });
    return to_result(part, outcome);
  }

 private:
  prop::PropConfig config_;
};

/// FmPartitioner::run.
class ReplayFm final : public ReplayAlgo {
 public:
  ReplayFm(Replay& replay, const prop::Bipartitioner& library, prop::FmConfig config)
      : ReplayAlgo(replay, library), config_(config) {
    config_.telemetry = &replay.counters.fm;
  }

  prop::PartitionResult run(const prop::Hypergraph& g,
                            const prop::BalanceConstraint& balance,
                            std::uint64_t seed) override {
    Tracer& t = replay_.tracer;
    Span span(t, "fm_run", "fm");
    prop::Rng rng(seed);
    prop::Partition part(g, traced(t, "random_balanced_sides", "partition", [&] {
                           return prop::random_balanced_sides(g, balance, rng);
                         }));
    const prop::RefineOutcome outcome = traced(
        t, "fm_refine", "fm", [&] { return prop::fm_refine(part, balance, config_); });
    return to_result(part, outcome);
  }

 private:
  prop::FmConfig config_;
};

struct Level {
  prop::Hypergraph graph;
  std::vector<prop::NodeId> fine_to_coarse;
};

struct CoarsenKnobs {
  prop::NodeId floor_nodes = 0;
  prop::NodeId min_clusters = 0;  ///< k-way: never coarsen below k nodes
  int max_levels = 0;
  double min_reduction = 0.0;
  double max_cluster_fraction = 0.0;
  std::size_t rating_max_net_size = 0;
};

/// The coarsening loop shared by both V-cycle drivers.
std::deque<Level> coarsen(Replay& r, const prop::Hypergraph& g,
                          std::uint64_t seed, const CoarsenKnobs& knobs) {
  Tracer& t = r.tracer;
  std::deque<Level> levels;
  const prop::Hypergraph* current = &g;
  for (int level = 0;
       level < knobs.max_levels && current->num_nodes() > knobs.floor_nodes; ++level) {
    prop::Rng rng(prop::mix_seed(seed, 0xC0A45EULL, static_cast<std::uint64_t>(level)));
    const std::int64_t max_weight = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(static_cast<double>(current->total_node_size()) *
                                     knobs.max_cluster_fraction));
    prop::NodeId num_clusters = 0;
    const std::vector<prop::NodeId> cluster_of =
        traced(t, "attraction_clusters", "multilevel", [&] {
          return prop::attraction_clusters(*current, rng, max_weight,
                                           knobs.rating_max_net_size, num_clusters);
        });
    if (num_clusters < knobs.min_clusters ||
        static_cast<double>(num_clusters) >
            knobs.min_reduction * static_cast<double>(current->num_nodes())) {
      break;
    }
    prop::ContractionResult c = traced(t, "contract", "hypergraph", [&] {
      return prop::contract(*current, cluster_of, num_clusters);
    });
    r.counters.contract_pins += static_cast<double>(c.coarse.num_pins());
    levels.push_back(Level{std::move(c.coarse), std::move(c.fine_to_coarse)});
    current = &levels.back().graph;
  }
  r.counters.levels = static_cast<double>(levels.size());
  r.counters.coarsest_nodes = current->num_nodes();
  return levels;
}

/// level_balance() of multilevel_driver.cpp.
prop::BalanceConstraint level_balance(const prop::Hypergraph& coarse,
                                      const prop::BalanceConstraint& flat) {
  const double total = static_cast<double>(std::max<std::int64_t>(flat.total(), 1));
  return prop::BalanceConstraint::fraction(
      coarse, std::max(0.01, static_cast<double>(flat.lo()) / total),
      std::min(0.99, static_cast<double>(flat.hi()) / total));
}

/// MultilevelPartitioner::run (multilevel_partition with a PROP refiner).
class ReplayMl final : public ReplayAlgo {
 public:
  ReplayMl(Replay& replay, const prop::MultilevelPartitioner& library)
      : ReplayAlgo(replay, library), config_(library.config()) {
    if (config_.refiner != prop::MlRefiner::kProp) {
      throw std::logic_error("replay covers the ML-PROP V-cycle only");
    }
    config_.prop.telemetry = &replay.counters.prop2;
    config_.fm.telemetry = &replay.counters.fm;
  }

  prop::PartitionResult run(const prop::Hypergraph& g,
                            const prop::BalanceConstraint& balance,
                            std::uint64_t seed) override;

 private:
  prop::MultilevelConfig config_;
};

prop::PartitionResult ReplayMl::run(const prop::Hypergraph& g,
                                    const prop::BalanceConstraint& balance,
                                    std::uint64_t seed) {
  Tracer& t = replay_.tracer;
  Span span(t, "ml_run", "multilevel");
  const std::deque<Level> levels =
      coarsen(replay_, g, seed,
              {config_.coarsest_max_nodes, 0, config_.max_levels, config_.min_reduction,
               config_.max_cluster_fraction, config_.rating_max_net_size});
  const prop::Hypergraph& coarsest = levels.empty() ? g : levels.back().graph;
  const prop::BalanceConstraint coarsest_balance =
      levels.empty() ? balance : level_balance(coarsest, balance);

  std::vector<std::uint8_t> sides;
  double best_cut = 0.0;
  int passes = 0;
  {
    Span initial(t, "initial", "multilevel");
    for (int run = 0; run < std::max(1, config_.initial_runs); ++run) {
      prop::Rng rng(prop::mix_seed(seed, 0x141714ULL, static_cast<std::uint64_t>(run)));
      prop::Partition part(coarsest, traced(t, "random_balanced_sides", "partition", [&] {
                             return prop::random_balanced_sides(coarsest, coarsest_balance, rng);
                           }));
      const prop::RefineOutcome o = traced(t, "fm_refine", "fm", [&] {
        return prop::fm_refine(part, coarsest_balance, config_.fm);
      });
      if (sides.empty() || o.cut_cost < best_cut) {
        sides = part.sides();
        best_cut = o.cut_cost;
        passes = o.passes;
      }
    }
  }

  const auto refine_level = [&](const prop::Hypergraph& lg,
                                const prop::BalanceConstraint& lb) {
    prop::Partition part(lg, sides);
    traced(t, "repair_balance", "partition", [&] { prop::repair_balance(part, lb); });
    Span refine(t, "prop_refine", "core");
    passes += prop::prop_refine(part, lb, config_.prop).passes;
    replay_.counters.level_refine_s.push_back(refine.close());
    sides = part.sides();
    return part.cut_cost();
  };
  for (std::size_t i = levels.size(); i-- > 0;) {
    const prop::Hypergraph& lg = levels[i].graph;
    refine_level(lg, level_balance(lg, balance));
    sides = traced(t, "project_partition", "hypergraph", [&] {
      return prop::project_partition(levels[i].fine_to_coarse, sides);
    });
  }
  const double cut = refine_level(g, balance);

  prop::PartitionResult out;
  out.side = std::move(sides);
  out.cut_cost = cut;
  out.passes = passes;
  return out;
}

void note_kway_gain(Replay& r, prop::KWayObjective o,
                    const prop::KWayRefineOutcome& greedy,
                    const prop::KWayPropOutcome& refined) {
  r.counters.kway_before += objective(o, greedy.cut_cost, greedy.connectivity_cost);
  r.counters.kway_after += objective(o, refined.cut_cost, refined.connectivity_cost);
}

/// kway_partition: recursive bisection, greedy legalization, k-way PROP.
prop::KWayPipelineResult replay_kway_partition(Replay& r, prop::Bipartitioner& bisector,
                                               const prop::Hypergraph& g,
                                               std::uint64_t seed,
                                               const prop::KWayPipelineConfig& config) {
  if (config.refiner != prop::KWayRefinerKind::kProp || config.k < 2) {
    throw std::logic_error("replay covers the k-way PROP pipeline only");
  }
  Tracer& t = r.tracer;
  prop::KWayOptions rb_options;
  rb_options.tolerance = config.tolerance;
  prop::KWayPipelineResult out;
  out.k = config.k;
  out.part = traced(t, "recursive_bisection", "partition", [&] {
    return prop::recursive_bisection(bisector, g, config.k, seed, rb_options).part;
  });

  prop::KWayRefineConfig greedy;
  greedy.objective = config.objective;
  greedy.tolerance = config.tolerance;
  greedy.max_passes = config.greedy_max_passes;
  const prop::KWayRefineOutcome gr = traced(t, "kway_refine", "kway", [&] {
    return prop::kway_refine(g, out.part, config.k, seed, greedy);
  });

  prop::KWayPropConfig prop_config = config.prop;
  prop_config.objective = config.objective;
  prop_config.telemetry = &r.counters.kprop;
  prop_config.context = nullptr;
  const prop::KWayBalanceWindow window = prop::kway_part_window(
      g.total_node_size(), config.k, config.tolerance, prop::kway_max_node_size(g));
  const prop::KWayPropOutcome pr = traced(t, "kway_prop_refine", "core", [&] {
    return prop::kway_prop_refine(g, out.part, config.k, window, prop_config);
  });
  note_kway_gain(r, config.objective, gr, pr);
  out.passes = gr.passes + pr.passes;
  out.interrupted = pr.interrupted;
  out.cut_cost = pr.cut_cost;
  out.connectivity_cost = pr.connectivity_cost;
  return out;
}

/// KWayPartitioner::run with a PROP bisector (make_kway_algo("prop", k)).
class ReplayKway final : public ReplayAlgo {
 public:
  ReplayKway(Replay& replay, const prop::Bipartitioner& library,
             prop::KWayPipelineConfig config)
      : ReplayAlgo(replay, library), config_(config), bisector_(replay, bisector_library_) {}

  prop::PartitionResult run(const prop::Hypergraph& g, const prop::BalanceConstraint&,
                            std::uint64_t seed) override {
    Span span(replay_.tracer, "kway_run", "kway");
    const prop::KWayPipelineResult p = replay_kway_partition(replay_, bisector_, g, seed, config_);
    return kway_result(p.part, objective(config_.objective, p.cut_cost, p.connectivity_cost),
                       p.passes);
  }

 private:
  prop::KWayPipelineConfig config_;
  prop::PropPartitioner bisector_library_;  // make_algo("prop"): default config
  ReplayProp bisector_;
};

/// MultilevelKWayPartitioner::run (multilevel_kway_partition).
class ReplayMlKway final : public ReplayAlgo {
 public:
  ReplayMlKway(Replay& replay, const prop::MultilevelKWayPartitioner& library)
      : ReplayAlgo(replay, library),
        config_(library.config()),
        bisector_library_(config_.fm),
        bisector_(replay, bisector_library_, config_.fm) {
    if (config_.refiner != prop::KWayRefinerKind::kProp) {
      throw std::logic_error("replay covers the k-way PROP V-cycle only");
    }
  }

  prop::PartitionResult run(const prop::Hypergraph& g, const prop::BalanceConstraint&,
                            std::uint64_t seed) override;

 private:
  int refine_level(const prop::Hypergraph& lg, std::vector<prop::NodeId>& part,
                   std::uint64_t seed);

  prop::MultilevelKWayConfig config_;
  prop::FmPartitioner bisector_library_;
  ReplayFm bisector_;
};

prop::PartitionResult ReplayMlKway::run(const prop::Hypergraph& g,
                                        const prop::BalanceConstraint&,
                                        std::uint64_t seed) {
  Tracer& t = replay_.tracer;
  Span span(t, "ml_kway_run", "multilevel");
  const std::deque<Level> levels =
      coarsen(replay_, g, seed,
              {std::max(config_.coarsest_max_nodes, config_.k), config_.k,
               config_.max_levels, config_.min_reduction, config_.max_cluster_fraction,
               config_.rating_max_net_size});
  const prop::Hypergraph& coarsest = levels.empty() ? g : levels.back().graph;

  prop::KWayPipelineConfig pipeline;
  pipeline.k = config_.k;
  pipeline.tolerance = config_.tolerance;
  pipeline.objective = config_.objective;
  pipeline.refiner = config_.refiner;
  pipeline.prop = config_.prop;
  pipeline.greedy_max_passes = config_.greedy_max_passes;
  std::vector<prop::NodeId> part;
  double best = 0.0;
  int passes = 0;
  {
    Span initial(t, "initial", "multilevel");
    for (int run = 0; run < std::max(1, config_.initial_runs); ++run) {
      const prop::KWayPipelineResult p = replay_kway_partition(
          replay_, bisector_, coarsest,
          prop::mix_seed(seed, 0x141714ULL, static_cast<std::uint64_t>(run)), pipeline);
      const double cost = objective(config_.objective, p.cut_cost, p.connectivity_cost);
      if (part.empty() || cost < best) {
        part = p.part;
        best = cost;
        passes = p.passes;
      }
    }
  }

  for (std::size_t i = levels.size(); i-- > 0;) {
    part = traced(t, "project_parts", "multilevel", [&] {
      const std::vector<prop::NodeId>& map = levels[i].fine_to_coarse;
      std::vector<prop::NodeId> fine(map.size());
      for (std::size_t u = 0; u < fine.size(); ++u) fine[u] = part[map[u]];
      return fine;
    });
    const prop::Hypergraph& lg = i == 0 ? g : levels[i - 1].graph;
    passes += refine_level(lg, part,
                           prop::mix_seed(seed, 0x57A9EULL, static_cast<std::uint64_t>(i)));
  }

  const prop::KWayState state =
      traced(t, "kway_state", "kway", [&] { return prop::KWayState(g, part, config_.k); });
  return kway_result(part,
                     objective(config_.objective, state.cut_cost(), state.connectivity_cost()),
                     passes);
}

int ReplayMlKway::refine_level(const prop::Hypergraph& lg,
                               std::vector<prop::NodeId>& part, std::uint64_t seed) {
  Tracer& t = replay_.tracer;
  const Clock::time_point start = Clock::now();
  prop::KWayRefineConfig greedy;
  greedy.objective = config_.objective;
  greedy.tolerance = config_.tolerance;
  greedy.max_passes = config_.greedy_max_passes;
  const prop::KWayRefineOutcome gr = traced(t, "kway_refine", "kway", [&] {
    return prop::kway_refine(lg, part, config_.k, seed, greedy);
  });
  prop::KWayPropConfig prop_config = config_.prop;
  prop_config.objective = config_.objective;
  prop_config.telemetry = &replay_.counters.kprop;
  prop_config.context = nullptr;
  const prop::KWayBalanceWindow window = prop::kway_part_window(
      lg.total_node_size(), config_.k, config_.tolerance, prop::kway_max_node_size(lg));
  const prop::KWayPropOutcome pr = traced(t, "kway_prop_refine", "core", [&] {
    return prop::kway_prop_refine(lg, part, config_.k, window, prop_config);
  });
  replay_.counters.level_refine_s.push_back(seconds_between(start, Clock::now()));
  note_kway_gain(replay_, config_.objective, gr, pr);
  return gr.passes + pr.passes;
}

}  // namespace

std::unique_ptr<prop::Bipartitioner> make_batch_replay(
    Algo algo, const prop::Bipartitioner& library, Replay& replay) {
  switch (algo) {
    case Algo::kFlatProp:
      return std::make_unique<ReplayProp>(
          replay, dynamic_cast<const prop::PropPartitioner&>(library));
    case Algo::kMlProp:
      return std::make_unique<ReplayMl>(
          replay, dynamic_cast<const prop::MultilevelPartitioner&>(library));
    case Algo::kMlKway8:
      return std::make_unique<ReplayMlKway>(
          replay, dynamic_cast<const prop::MultilevelKWayPartitioner&>(library));
  }
  return nullptr;
}

std::unique_ptr<prop::Bipartitioner> make_served_replay(
    const ServeJob& job, const prop::Bipartitioner& library, Replay& replay) {
  if (job.k > 2) {
    // make_kway_algo(job.algo, k) with the server's default refiner/objective.
    prop::KWayPipelineConfig config;
    config.k = static_cast<prop::NodeId>(job.k);
    config.refiner = prop::KWayRefinerKind::kProp;
    config.objective = prop::KWayObjective::kConnectivity;
    return std::make_unique<ReplayKway>(replay, library, config);
  }
  if (job.algo == "prop") {
    return std::make_unique<ReplayProp>(
        replay, dynamic_cast<const prop::PropPartitioner&>(library));
  }
  return std::make_unique<ReplayFm>(replay, library, prop::FmConfig{});
}

}  // namespace e2e
