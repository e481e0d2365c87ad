// Name -> Bipartitioner factory shared by prop_cli, prop_serve and the
// service benches, so "which strings name which algorithms" lives in exactly
// one place.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/prop_partitioner.h"
#include "kway/kway_partitioner.h"
#include "partition/partitioner.h"

namespace prop::service {

/// Parses a --gain-engine value; nullopt for unknown names.
std::optional<GainEngine> parse_gain_engine(const std::string& name);

/// Parses a --kway-refiner value (prop, greedy, none); nullopt for unknown.
std::optional<KWayRefinerKind> parse_kway_refiner(const std::string& name);

/// Parses a --kway-objective value (cut, connectivity); nullopt for unknown.
std::optional<KWayObjective> parse_kway_objective(const std::string& name);

/// Builds the partitioner registered under `name` (fm, fm-tree, la2, la3,
/// kl, prop, eig1, melo, paraboli, window); nullptr for unknown names.
/// `gain_engine` applies to the PROP family only.
std::unique_ptr<Bipartitioner> make_algo(
    const std::string& name, GainEngine gain_engine = GainEngine::kCached);

/// Space-separated list of the registered names, for usage/error messages.
const std::string& algo_names();

/// Builds the k-way pipeline (recursive bisection with the `base` 2-way
/// algorithm + the selected k-way refiner) wrapped as a Bipartitioner, so
/// run_many / the service drive k-way jobs through the normal interface.
/// nullptr when `base` is unknown.  k must be in [2, 256].
std::unique_ptr<Bipartitioner> make_kway_algo(
    const std::string& base, NodeId k,
    KWayRefinerKind refiner = kDefaultKWayRefiner,
    KWayObjective objective = KWayObjective::kConnectivity,
    GainEngine gain_engine = GainEngine::kCached);

}  // namespace prop::service
