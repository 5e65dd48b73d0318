#include "model/projection.hpp"

#include <algorithm>

#include "model/proposed_model.hpp"
#include "model/roofline_model.hpp"
#include "model/simple_model.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace kf {

Projection ProjectionModel::project(const Program& program,
                                    const LaunchDescriptor& launch) const {
  FaultInjector::instance().maybe_throw(FaultSite::Projection,
                                        fault_key(launch.members),
                                        "projection model evaluation failed");
  return project_impl(program, launch);
}

std::unique_ptr<ProjectionModel> make_projection_model(
    std::string_view name, const Program& program, const TimingSimulator& simulator) {
  const DeviceSpec& device = simulator.device();
  if (name == "proposed") return std::make_unique<ProposedModel>(device);
  if (name == "literal") {
    return std::make_unique<ProposedModel>(
        device, ProposedModel::Params{
                    .formulation = ProposedModel::Formulation::PaperLiteral});
  }
  if (name == "roofline") return std::make_unique<RooflineModel>(device);
  if (name == "simple") return std::make_unique<SimpleModel>(program, simulator);
  throw PreconditionError("unknown objective '" + std::string(name) + "'");
}

int dominant_elem_bytes(const Program& program) noexcept {
  int widest = 4;
  for (const ArrayInfo& a : program.arrays()) {
    widest = std::max(widest, a.elem_bytes);
  }
  return widest;
}

}  // namespace kf
