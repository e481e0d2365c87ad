#include "service/algo_factory.h"

#include "cluster/window.h"
#include "fm/fm_partitioner.h"
#include "kl/kl_partitioner.h"
#include "la/la_partitioner.h"
#include "placement/paraboli.h"
#include "spectral/eig1.h"
#include "spectral/melo.h"

namespace prop::service {

std::optional<KWayRefinerKind> parse_kway_refiner(const std::string& name) {
  if (name == "prop") return KWayRefinerKind::kProp;
  if (name == "greedy") return KWayRefinerKind::kGreedy;
  if (name == "none") return KWayRefinerKind::kNone;
  return std::nullopt;
}

std::optional<KWayObjective> parse_kway_objective(const std::string& name) {
  if (name == "cut") return KWayObjective::kCut;
  if (name == "connectivity") return KWayObjective::kConnectivity;
  return std::nullopt;
}

std::unique_ptr<Bipartitioner> make_algo(const std::string& name) {
  if (name == "fm") return std::make_unique<FmPartitioner>();
  if (name == "fm-tree") {
    return std::make_unique<FmPartitioner>(FmConfig{FmStructure::kTree});
  }
  if (name == "la2") return std::make_unique<LaPartitioner>(LaConfig{2});
  if (name == "la3") return std::make_unique<LaPartitioner>(LaConfig{3});
  if (name == "kl") return std::make_unique<KlPartitioner>();
  if (name == "prop") return std::make_unique<PropPartitioner>();
  if (name == "eig1") return std::make_unique<Eig1Partitioner>();
  if (name == "melo") return std::make_unique<MeloPartitioner>();
  if (name == "paraboli") return std::make_unique<ParaboliPartitioner>();
  if (name == "window") return std::make_unique<WindowPartitioner>();
  return nullptr;
}

const std::string& algo_names() {
  static const std::string names =
      "fm fm-tree la2 la3 kl prop eig1 melo paraboli window";
  return names;
}

std::unique_ptr<Bipartitioner> make_kway_algo(const std::string& base,
                                              NodeId k,
                                              KWayRefinerKind refiner,
                                              KWayObjective objective) {
  std::unique_ptr<Bipartitioner> bisector = make_algo(base);
  if (!bisector) return nullptr;
  KWayPipelineConfig config;
  config.k = k;
  config.refiner = refiner;
  config.objective = objective;
  return std::make_unique<KWayPartitioner>(std::move(bisector), config);
}

}  // namespace prop::service
