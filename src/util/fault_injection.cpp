#include "util/fault_injection.hpp"

#include <cstdlib>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace kf {
namespace {

std::size_t site_index(FaultSite site) {
  const int i = static_cast<int>(site);
  KF_REQUIRE(i >= 0 && i < kNumFaultSites, "fault site out of range");
  return static_cast<std::size_t>(i);
}

}  // namespace

const char* to_string(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::Objective: return "objective";
    case FaultSite::Projection: return "projection";
    case FaultSite::Simulator: return "simulator";
    case FaultSite::Parser: return "parser";
    case FaultSite::Store: return "store";
  }
  return "?";
}

FaultSite fault_site_from_string(const std::string& text) {
  if (text == "objective") return FaultSite::Objective;
  if (text == "projection") return FaultSite::Projection;
  if (text == "simulator") return FaultSite::Simulator;
  if (text == "parser") return FaultSite::Parser;
  if (text == "store") return FaultSite::Store;
  throw PreconditionError(
      "unknown fault site '" + text +
      "' (expected objective|projection|simulator|parser|store)");
}

FaultPlan parse_fault_plan(const std::string& text) {
  const std::vector<std::string> parts = split(text, ':');
  KF_REQUIRE(parts.size() == 2 || parts.size() == 3,
             "fault spec must be kind:rate[:seed], got '" << text << "'");
  FaultPlan plan;
  plan.site = fault_site_from_string(parts[0]);
  try {
    std::size_t used = 0;
    plan.rate = std::stod(parts[1], &used);
    KF_REQUIRE(used == parts[1].size(), "trailing junk");
  } catch (const PreconditionError&) {
    throw PreconditionError("bad fault rate '" + parts[1] + "' in '" + text + "'");
  } catch (const std::exception&) {
    throw PreconditionError("bad fault rate '" + parts[1] + "' in '" + text + "'");
  }
  KF_REQUIRE(plan.rate >= 0.0 && plan.rate <= 1.0,
             "fault rate must be in [0, 1], got " << plan.rate);
  if (parts.size() == 3) {
    try {
      std::size_t used = 0;
      plan.seed = std::stoull(parts[2], &used, 0);
      KF_REQUIRE(used == parts[2].size(), "trailing junk");
    } catch (const PreconditionError&) {
      throw PreconditionError("bad fault seed '" + parts[2] + "' in '" + text + "'");
    } catch (const std::exception&) {
      throw PreconditionError("bad fault seed '" + parts[2] + "' in '" + text + "'");
    }
  }
  return plan;
}

std::uint64_t fault_key(std::span<const std::int32_t> members) noexcept {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (std::int32_t id : members) {
    h += mix64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(id)) + 0x9e37);
  }
  return mix64(h);
}

FaultInjector& FaultInjector::instance() noexcept {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::arm(const FaultPlan& plan) {
  KF_REQUIRE(plan.rate >= 0.0 && plan.rate <= 1.0,
             "fault rate must be in [0, 1], got " << plan.rate);
  Site& s = sites_[site_index(plan.site)];
  s.rate.store(plan.rate, std::memory_order_relaxed);
  s.seed.store(plan.seed, std::memory_order_relaxed);
  s.armed.store(true, std::memory_order_release);
}

void FaultInjector::disarm(FaultSite site) noexcept {
  sites_[static_cast<std::size_t>(site)].armed.store(false, std::memory_order_release);
}

bool FaultInjector::armed(FaultSite site) const noexcept {
  return sites_[static_cast<std::size_t>(site)].armed.load(std::memory_order_acquire);
}

bool FaultInjector::should_inject(FaultSite site, std::uint64_t key) noexcept {
  Site& s = sites_[static_cast<std::size_t>(site)];
  if (!s.armed.load(std::memory_order_acquire)) return false;
  s.draws.fetch_add(1, std::memory_order_relaxed);
  // Pure function of (seed, site, key): the same candidate faults in every
  // run, thread schedule and resumed continuation.
  const std::uint64_t salt =
      0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(site) + 1);
  const std::uint64_t h =
      mix64(s.seed.load(std::memory_order_relaxed) ^ mix64(key ^ salt));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  const bool fire = u < s.rate.load(std::memory_order_relaxed);
  if (fire) s.injected.fetch_add(1, std::memory_order_relaxed);
  return fire;
}

void FaultInjector::maybe_throw(FaultSite site, std::uint64_t key, const char* what) {
  if (should_inject(site, key)) {
    throw RuntimeError(std::string(what) + " [injected " + to_string(site) +
                       " fault]");
  }
}

long FaultInjector::draws(FaultSite site) const noexcept {
  return sites_[static_cast<std::size_t>(site)].draws.load(std::memory_order_relaxed);
}

long FaultInjector::injected(FaultSite site) const noexcept {
  return sites_[static_cast<std::size_t>(site)].injected.load(std::memory_order_relaxed);
}

void FaultInjector::reset_counters() noexcept {
  for (Site& s : sites_) {
    s.draws.store(0, std::memory_order_relaxed);
    s.injected.store(0, std::memory_order_relaxed);
  }
}

ScopedFaultInjection::ScopedFaultInjection(const FaultPlan& plan)
    : ScopedFaultInjection(std::vector<FaultPlan>{plan}) {}

ScopedFaultInjection::ScopedFaultInjection(const std::vector<FaultPlan>& plans) {
  for (const FaultPlan& plan : plans) {
    FaultInjector::instance().arm(plan);
    sites_.push_back(plan.site);
  }
}

ScopedFaultInjection::~ScopedFaultInjection() {
  for (FaultSite site : sites_) FaultInjector::instance().disarm(site);
}

}  // namespace kf
