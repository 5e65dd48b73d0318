#include "serve/plan_context.hpp"

#include <utility>

#include "fusion/transformer.hpp"
#include "store/fingerprint.hpp"

namespace kf {

PlanContext::PlanContext(const Program& program, DeviceSpec dev, double mem_budget,
                         std::string_view objective_name)
    : expansion(expand_arrays(program, mem_budget)),
      device(std::move(dev)),
      simulator(device),
      checker(expansion.program, device),
      model(make_projection_model(objective_name, expansion.program, simulator)),
      objective(checker, *model, simulator),
      key{program_fingerprint(expansion.program), device_fingerprint(device)} {}

double PlanContext::simulated_time(const FusionPlan& plan) const {
  double total = 0.0;
  for (const LaunchDescriptor& d : apply_fusion(checker, plan).launches) {
    total += simulator.run(expansion.program, d).time_s;
  }
  return total;
}

}  // namespace kf
