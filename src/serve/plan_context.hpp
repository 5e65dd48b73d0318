// PlanContext — the analysis stack for one (program, device) pair.
//
// The paper's search (§III–IV) runs over one stack per pair: the expanded
// program, the legality checker (the execution-order and sharing graphs
// behind the Fig. 4 constraints), the timing simulator that stands in for
// profiling the originals, the codeless projection model and the memoised
// objective. PlanContext is the one place that stack is built, together
// with the plan-store key of the pair, so the server's per-key contexts,
// the CLI's searches, the benches and the examples all price plans through
// the same construction.
//
// Members are declared in construction order and each borrows the ones
// above it, so a context is neither copyable nor movable; hold it by value
// in a scope or behind a std::unique_ptr. Apart from internally
// synchronised state (the objective's counters and group-cost cache, the
// checker's resource-verdict memo), a built context is immutable, so
// concurrent requests share one freely.
#pragma once

#include <memory>
#include <string_view>

#include "fusion/fusion_plan.hpp"
#include "fusion/legality.hpp"
#include "gpu/device_spec.hpp"
#include "gpu/timing_simulator.hpp"
#include "graph/array_expansion.hpp"
#include "model/projection.hpp"
#include "search/objective.hpp"
#include "store/plan_store.hpp"

namespace kf {

struct PlanContext {
  /// Expands `program` under a redundant-array budget of `mem_budget`
  /// bytes (negative: unlimited; 0: no expansion) and builds the stack for
  /// `device` around the projection model `objective` names (see
  /// make_projection_model).
  PlanContext(const Program& program, DeviceSpec device, double mem_budget = -1.0,
              std::string_view objective = "proposed");
  PlanContext(const PlanContext&) = delete;
  PlanContext& operator=(const PlanContext&) = delete;

  /// Simulated runtime of the expanded program under `plan`: the sum of
  /// the timing simulator's times for the plan's launches.
  double simulated_time(const FusionPlan& plan) const;

  ExpansionResult expansion;
  DeviceSpec device;
  TimingSimulator simulator;
  LegalityChecker checker;
  std::unique_ptr<ProjectionModel> model;
  Objective objective;
  /// Store key: the expanded program's and the device's fingerprints.
  PlanKey key;
};

}  // namespace kf
