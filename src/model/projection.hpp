// Projection model interface.
//
// A ProjectionModel estimates the runtime of a (possibly fused) kernel
// launch *without any code representation* — from metadata only. Three
// implementations reproduce the paper's §IV comparison: RooflineModel,
// SimpleModel (empirical original-sum minus saved-traffic time) and
// ProposedModel (the upper-bound projection of Eqs. 2-10). The search
// heuristic uses one of these as its objective; the benches compare all
// three against the timing simulator's "measured" values (Fig. 6).
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "gpu/device_spec.hpp"
#include "gpu/launch_descriptor.hpp"
#include "ir/program.hpp"

namespace kf {

class TimingSimulator;  // gpu/timing_simulator.hpp

struct Projection {
  double time_s = 0.0;
  bool feasible = true;           ///< false: the model proves the fusion cannot launch
  std::string infeasible_reason;  ///< empty when feasible

  // Diagnostics (filled by models that compute them).
  double p_membound_gflops = 0.0;  ///< Eq. 9 performance bound
  int blocks_per_smx = 0;
  int regs_estimate = 0;
  long smem_estimate = 0;
};

class ProjectionModel {
 public:
  virtual ~ProjectionModel() = default;

  virtual const std::string& name() const noexcept = 0;

  /// Projects the runtime of `launch` over `program`'s grid. Non-virtual:
  /// runs the FaultSite::Projection injection hook (keyed by the launch's
  /// member set) before dispatching to the implementation, so every model
  /// shares the same resilience-testing surface.
  Projection project(const Program& program, const LaunchDescriptor& launch) const;

 protected:
  /// Model-specific projection; implementations override this.
  virtual Projection project_impl(const Program& program,
                                  const LaunchDescriptor& launch) const = 0;
};

/// The model a search's objective uses, by name: "proposed" (Eqs. 2-10),
/// "literal" (the paper-literal formulation), "roofline" or "simple" (which
/// measures `program`'s originals with `simulator`; both must outlive the
/// model). Throws PreconditionError on any other name.
std::unique_ptr<ProjectionModel> make_projection_model(
    std::string_view name, const Program& program, const TimingSimulator& simulator);

/// Dominant element width of the program's arrays (8 for DP programs);
/// the divisor in Eq. 9.
int dominant_elem_bytes(const Program& program) noexcept;

}  // namespace kf
