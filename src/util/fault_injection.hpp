// Deterministic fault injection for resilience testing.
//
// A process-wide injector with a small set of named sites (the objective,
// the projection model, the timing simulator, the .kf parser). Disarmed
// sites cost one relaxed atomic load, so the hooks stay in production
// builds. An armed site decides each draw as a pure function of
// (seed, site, context key) — NOT of a shared counter — so the decision
// for a given candidate is identical across thread interleavings, resumed
// runs and repeated evaluations. That is what makes robustness claims
// testable: with a fixed seed, the same groups fault every time, in CI and
// locally.
//
// Context keys are site-specific fingerprints: the member-set fingerprint
// for objective/model/simulator sites, the line number for the parser.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace kf {

enum class FaultSite : int {
  Objective = 0,  ///< Objective::group_cost (fused-group evaluation)
  Projection,     ///< ProjectionModel::project
  Simulator,      ///< TimingSimulator::run
  Parser,         ///< read_program, per input line
  Store,          ///< PlanStore journal appends (torn mid-record writes)
};
inline constexpr int kNumFaultSites = 5;

const char* to_string(FaultSite site) noexcept;

/// Parses "objective" | "projection" | "simulator" | "parser".
/// Throws kf::PreconditionError on anything else.
FaultSite fault_site_from_string(const std::string& text);

/// One armed injection site: fault with probability `rate` per draw,
/// decided deterministically from `seed` and the draw's context key.
struct FaultPlan {
  FaultSite site = FaultSite::Objective;
  double rate = 0.0;  ///< in [0, 1]
  std::uint64_t seed = 0;
};

/// Parses the kfc --inject spec "kind:rate:seed" (seed optional, default 0),
/// e.g. "objective:0.2:42". Throws kf::PreconditionError on malformed specs.
FaultPlan parse_fault_plan(const std::string& text);

/// Order-insensitive context key for a member set (kernel ids): the same
/// group maps to the same key regardless of member order.
std::uint64_t fault_key(std::span<const std::int32_t> members) noexcept;

class FaultInjector {
 public:
  /// The process-wide injector all sites consult.
  static FaultInjector& instance() noexcept;

  void arm(const FaultPlan& plan);
  void disarm(FaultSite site) noexcept;
  bool armed(FaultSite site) const noexcept;

  /// Deterministic decision for this (site, key) draw; counts the draw.
  bool should_inject(FaultSite site, std::uint64_t key) noexcept;

  /// Throws kf::RuntimeError("<what> [injected]") when the draw fires.
  void maybe_throw(FaultSite site, std::uint64_t key, const char* what);

  long draws(FaultSite site) const noexcept;
  long injected(FaultSite site) const noexcept;
  void reset_counters() noexcept;

 private:
  FaultInjector() = default;

  struct Site {
    std::atomic<bool> armed{false};
    std::atomic<double> rate{0.0};
    std::atomic<std::uint64_t> seed{0};
    std::atomic<long> draws{0};
    std::atomic<long> injected{0};
  };
  std::array<Site, kNumFaultSites> sites_;
};

/// RAII arming for tests and kfc: arms the given plans on construction and
/// disarms exactly those sites (restoring nothing else) on destruction.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultPlan& plan);
  explicit ScopedFaultInjection(const std::vector<FaultPlan>& plans);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  std::vector<FaultSite> sites_;
};

}  // namespace kf
