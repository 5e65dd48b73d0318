#include "telemetry/slo.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace kf {

namespace {

double burn(long bad, long total, double budget) {
  if (total == 0 || budget <= 0.0) return 0.0;
  const double rate = static_cast<double>(bad) / static_cast<double>(total);
  return rate / budget;
}

}  // namespace

SloTracker::SloTracker() : SloTracker(Config()) {}

SloTracker::SloTracker(Config config) : config_(std::move(config)) {
  KF_REQUIRE(config_.capacity > 0, "SloTracker capacity must be positive");
  KF_REQUIRE(!config_.windows_s.empty(), "SloTracker needs >= 1 window");
  for (double w : config_.windows_s)
    KF_REQUIRE(w > 0.0, "SloTracker windows must be positive");
  std::sort(config_.windows_s.begin(), config_.windows_s.end());
  ring_.reserve(std::min<std::size_t>(config_.capacity, 4096));
}

void SloTracker::record(const RequestContext& request, double t_s) {
  const Sample sample{t_s, request.latency_s, request.deadline_met,
                      request.degraded, request.rung};
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < config_.capacity) {
    ring_.push_back(sample);
  } else {
    ring_[static_cast<std::size_t>(recorded_) % config_.capacity] = sample;
  }
  ++recorded_;
  if (!sample.deadline_met) ++total_misses_;
  if (sample.degraded) ++total_degraded_;
  if (config_.latency_target_s > 0.0 &&
      sample.latency_s > config_.latency_target_s)
    ++total_slow_;
  ++rung_count_[static_cast<int>(sample.rung)];
}

long SloTracker::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

SloTracker::Report SloTracker::report(double now_s) const {
  Report out;
  std::lock_guard<std::mutex> lock(mu_);
  out.config = config_;
  out.total_requests = recorded_;
  out.total_deadline_misses = total_misses_;
  out.total_degraded = total_degraded_;
  out.total_slow = total_slow_;
  for (int r = 0; r < kNumServeRungs; ++r) out.rung_count[r] = rung_count_[r];
  out.evicted = std::max<long>(
      0, recorded_ - static_cast<long>(std::min<std::size_t>(
             static_cast<std::size_t>(recorded_), config_.capacity)));

  for (double window_s : config_.windows_s) {
    WindowReport w;
    w.window_s = window_s;
    const double cutoff = now_s - window_s;
    for (const Sample& s : ring_) {
      if (s.t_s < cutoff || s.t_s > now_s) continue;
      ++w.requests;
      if (!s.deadline_met) ++w.deadline_misses;
      if (s.degraded) ++w.degraded;
      if (config_.latency_target_s > 0.0 &&
          s.latency_s > config_.latency_target_s)
        ++w.slow;
      ++w.rung_count[static_cast<int>(s.rung)];
    }
    w.deadline_burn =
        burn(w.deadline_misses, w.requests, config_.deadline_miss_budget);
    w.degraded_burn = burn(w.degraded, w.requests, config_.degraded_budget);
    w.latency_burn = config_.latency_target_s > 0.0
                         ? burn(w.slow, w.requests, config_.slow_budget)
                         : 0.0;
    w.worst_burn =
        std::max({w.deadline_burn, w.degraded_burn, w.latency_burn});
    out.worst_burn = std::max(out.worst_burn, w.worst_burn);
    out.windows.push_back(w);
  }
  return out;
}

JsonValue SloTracker::Report::to_json() const {
  JsonValue root = JsonValue::object();
  JsonValue cfg = JsonValue::object();
  cfg.set("deadline_miss_budget", config.deadline_miss_budget);
  cfg.set("degraded_budget", config.degraded_budget);
  cfg.set("latency_target_s", config.latency_target_s);
  cfg.set("slow_budget", config.slow_budget);
  JsonValue windows_s = JsonValue::array();
  for (double w : config.windows_s) windows_s.push_back(w);
  cfg.set("windows_s", std::move(windows_s));
  root.set("config", std::move(cfg));

  root.set("total_requests", static_cast<double>(total_requests));
  root.set("total_deadline_misses", static_cast<double>(total_deadline_misses));
  root.set("total_degraded", static_cast<double>(total_degraded));
  root.set("total_slow", static_cast<double>(total_slow));
  root.set("evicted", static_cast<double>(evicted));
  JsonValue rungs = JsonValue::object();
  for (int r = 0; r < kNumServeRungs; ++r)
    rungs.set(to_string(static_cast<ServeRung>(r)),
              static_cast<double>(rung_count[r]));
  root.set("rung_count", std::move(rungs));

  JsonValue window_list = JsonValue::array();
  for (const WindowReport& w : windows) {
    JsonValue entry = JsonValue::object();
    entry.set("window_s", w.window_s);
    entry.set("requests", static_cast<double>(w.requests));
    entry.set("deadline_misses", static_cast<double>(w.deadline_misses));
    entry.set("degraded", static_cast<double>(w.degraded));
    entry.set("slow", static_cast<double>(w.slow));
    entry.set("deadline_burn", w.deadline_burn);
    entry.set("degraded_burn", w.degraded_burn);
    entry.set("latency_burn", w.latency_burn);
    entry.set("worst_burn", w.worst_burn);
    window_list.push_back(std::move(entry));
  }
  root.set("windows", std::move(window_list));
  root.set("worst_burn", worst_burn);
  return root;
}

SloTracker::Report SloTracker::from_json(const JsonValue& v) {
  Report out;
  const JsonValue* cfg = v.find("config");
  KF_CHECK(cfg != nullptr, "slo block: missing \"config\"");
  out.config.deadline_miss_budget = cfg->number_or("deadline_miss_budget", 0.0);
  out.config.degraded_budget = cfg->number_or("degraded_budget", 0.0);
  out.config.latency_target_s = cfg->number_or("latency_target_s", 0.0);
  out.config.slow_budget = cfg->number_or("slow_budget", 0.0);
  out.config.windows_s.clear();
  if (const JsonValue* windows_s = cfg->find("windows_s");
      windows_s != nullptr && windows_s->is_array()) {
    for (const JsonValue& e : windows_s->items())
      if (e.is_number()) out.config.windows_s.push_back(e.as_number());
  }

  out.total_requests = static_cast<long>(v.number_or("total_requests", 0.0));
  out.total_deadline_misses =
      static_cast<long>(v.number_or("total_deadline_misses", 0.0));
  out.total_degraded = static_cast<long>(v.number_or("total_degraded", 0.0));
  out.total_slow = static_cast<long>(v.number_or("total_slow", 0.0));
  out.evicted = static_cast<long>(v.number_or("evicted", 0.0));
  if (const JsonValue* rungs = v.find("rung_count"); rungs != nullptr) {
    for (int r = 0; r < kNumServeRungs; ++r)
      out.rung_count[r] = static_cast<long>(
          rungs->number_or(to_string(static_cast<ServeRung>(r)), 0.0));
  }
  if (const JsonValue* windows = v.find("windows");
      windows != nullptr && windows->is_array()) {
    for (const JsonValue& entry : windows->items()) {
      WindowReport w;
      w.window_s = entry.number_or("window_s", 0.0);
      w.requests = static_cast<long>(entry.number_or("requests", 0.0));
      w.deadline_misses =
          static_cast<long>(entry.number_or("deadline_misses", 0.0));
      w.degraded = static_cast<long>(entry.number_or("degraded", 0.0));
      w.slow = static_cast<long>(entry.number_or("slow", 0.0));
      w.deadline_burn = entry.number_or("deadline_burn", 0.0);
      w.degraded_burn = entry.number_or("degraded_burn", 0.0);
      w.latency_burn = entry.number_or("latency_burn", 0.0);
      w.worst_burn = entry.number_or("worst_burn", 0.0);
      out.windows.push_back(w);
    }
  }
  out.worst_burn = v.number_or("worst_burn", 0.0);
  return out;
}

std::string SloTracker::Report::render() const {
  std::string out;
  out += strprintf("slo: %ld requests, %ld deadline misses, %ld degraded",
                   total_requests, total_deadline_misses, total_degraded);
  if (config.latency_target_s > 0.0)
    out += strprintf(", %ld slow (> %.3fs)", total_slow,
                     config.latency_target_s);
  if (evicted > 0)
    out += strprintf(" (%ld samples evicted from windows)", evicted);
  out += '\n';
  out += strprintf(
      "  budgets: deadline-miss %.4f, degraded %.4f%s\n",
      config.deadline_miss_budget, config.degraded_budget,
      config.latency_target_s > 0.0
          ? strprintf(", slow %.4f", config.slow_budget).c_str()
          : "");
  out += strprintf("  %-10s %9s %7s %9s %9s %9s %9s\n", "window", "requests",
                   "misses", "dl-burn", "deg-burn", "lat-burn", "worst");
  for (const WindowReport& w : windows) {
    out += strprintf("  %-10s %9ld %7ld %9.3f %9.3f %9.3f %9.3f\n",
                     strprintf("%gs", w.window_s).c_str(), w.requests,
                     w.deadline_misses, w.deadline_burn, w.degraded_burn,
                     w.latency_burn, w.worst_burn);
  }
  out += strprintf("  worst burn rate: %.3f%s\n", worst_burn,
                   worst_burn > 1.0 ? "  (error budget burning)" : "");
  return out;
}

}  // namespace kf
