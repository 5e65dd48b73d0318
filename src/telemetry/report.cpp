#include "telemetry/report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace kf {
namespace {

/// Component fields a "group_breakdown" event may carry, in display order.
constexpr const char* kBreakdownComponents[] = {
    "gmem_traffic_s", "halo_s", "latency_stall_s", "smem_s",
    "barrier_s",      "compute_s", "launch_s",
};

std::vector<long> members_of(const JsonValue& event) {
  std::vector<long> members;
  if (const JsonValue* m = event.find("members"); m != nullptr && m->is_array()) {
    for (const JsonValue& v : m->items()) members.push_back(v.as_long());
  }
  return members;
}

std::string members_text(const std::vector<long>& members) {
  std::string out = "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i) out += ',';
    out += strprintf("%ld", members[i]);
  }
  out += '}';
  return out;
}

/// 10-char ASCII bar scaled between lo (empty) and hi (full).
std::string bar(double value, double lo, double hi) {
  const int width = 10;
  double frac = hi > lo ? (value - lo) / (hi - lo) : 0.0;
  frac = std::clamp(frac, 0.0, 1.0);
  const int fill = static_cast<int>(std::lround(frac * width));
  return std::string(static_cast<std::size_t>(fill), '#') +
         std::string(static_cast<std::size_t>(width - fill), '.');
}

bool bool_or(const JsonValue& event, const char* key, bool fallback) {
  const JsonValue* v = event.find(key);
  return v != nullptr && v->is_bool() ? v->as_bool() : fallback;
}

/// Linear-interpolation percentile over an already-sorted sample vector
/// (same convention as MetricsRegistry::HistogramSnapshot::percentile).
double pct_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

RunReport::ServeRungStats& rung_row(std::vector<RunReport::ServeRungStats>& rungs,
                                    const std::string& name) {
  for (RunReport::ServeRungStats& r : rungs) {
    if (r.rung == name) return r;
  }
  rungs.push_back(RunReport::ServeRungStats{});
  rungs.back().rung = name;
  return rungs.back();
}

}  // namespace

RunReport RunReport::from_files(const std::string& metrics_path,
                                const std::string& events_path) {
  RunReport report;
  if (!metrics_path.empty()) {
    std::ifstream in(metrics_path);
    KF_CHECK(static_cast<bool>(in), "cannot open metrics file '" << metrics_path << "'");
    std::ostringstream text;
    text << in.rdbuf();
    report.ingest_metrics(JsonValue::parse(text.str()));
  }
  if (!events_path.empty()) {
    std::ifstream in(events_path);
    KF_CHECK(static_cast<bool>(in), "cannot open events file '" << events_path << "'");
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      if (trim(line).empty()) continue;
      try {
        report.ingest_event(JsonValue::parse(line));
      } catch (const RuntimeError& e) {
        throw RuntimeError(strprintf("%s line %d: %s", events_path.c_str(),
                                     line_no, e.what()));
      }
    }
  }
  return report;
}

void RunReport::ingest_event(const JsonValue& event) {
  const std::string type = event.string_or("type", "");
  if (type == "search_start") {
    program = event.string_or("program", program);
    method = event.string_or("method", method);
    objective = event.string_or("objective", objective);
    device = event.string_or("device", device);
    baseline_cost_s = event.number_or("baseline_cost_s", baseline_cost_s);
  } else if (type == "generation") {
    GenerationSample s;
    s.generation = static_cast<long>(event.number_or("gen", 0));
    s.best_cost_s = event.number_or("best_cost_s", 0);
    s.mean_cost_s = event.number_or("mean_cost_s", 0);
    s.worst_cost_s = event.number_or("worst_cost_s", 0);
    s.distinct_plans = static_cast<long>(event.number_or("distinct_plans", 0));
    s.mean_groups = event.number_or("mean_groups", 0);
    s.evaluations = static_cast<long>(event.number_or("evaluations", 0));
    s.elapsed_s = event.number_or("ts", 0);
    convergence.push_back(s);
  } else if (type == "fault_quarantine") {
    Quarantine q;
    q.fingerprint = event.string_or("fingerprint", "");
    q.members = members_of(event);
    q.error = event.string_or("error", "");
    quarantines.push_back(std::move(q));
  } else if (type == "group_breakdown") {
    GroupRow row;
    row.name = event.string_or("name", "");
    row.members = members_of(event);
    row.total_s = event.number_or("total_s", 0);
    for (const char* component : kBreakdownComponents) {
      if (const JsonValue* v = event.find(component); v != nullptr && v->is_number()) {
        row.components.emplace_back(component, v->as_number());
      }
    }
    groups.push_back(std::move(row));
  } else if (type == "decision") {
    const std::string site = event.string_or("site", "?");
    DecisionCount* row = nullptr;
    for (DecisionCount& d : decisions) {
      if (d.site == site) {
        row = &d;
        break;
      }
    }
    if (row == nullptr) {
      decisions.push_back(DecisionCount{site, 0, 0});
      row = &decisions.back();
    }
    const bool accepted = [&] {
      const JsonValue* a = event.find("accepted");
      return a != nullptr && a->is_bool() && a->as_bool();
    }();
    if (accepted) {
      ++row->accepted;
      accepted_cost_delta_s += event.number_or("cost_delta_s", 0.0);
    } else {
      ++row->rejected;
    }
    ++decisions_total;
  } else if (type == "calibration_drift") {
    drift_warnings.push_back(strprintf(
        "group size %s: mean rel error %+.3f beyond band %.3f after %ld samples",
        event.string_or("bucket", "?").c_str(),
        event.number_or("mean_rel_error", 0.0), event.number_or("band", 0.0),
        static_cast<long>(event.number_or("samples", 0))));
  } else if (type == "checkpoint_save") {
    ++checkpoint_saves;
  } else if (type == "checkpoint_resume") {
    resumed = true;
  } else if (type == "serve_request") {
    // The per-request wide event: one line per served request carrying the
    // rung taken, latency, deadline budget state and the owning trace id.
    has_serve = true;
    ++serve_wide_events;
    ServeRungStats& row = rung_row(serve_rungs, event.string_or("rung", "?"));
    row.latencies_s.push_back(event.number_or("latency_s", 0.0));
    if (!bool_or(event, "deadline_met", true)) {
      ++row.deadline_misses;
      ++serve_event_misses;
    }
    if (bool_or(event, "degraded", false)) ++serve_event_degraded;
    if (!event.string_or("trace", "").empty()) {
      ++serve_traced;
      ++row.traced;
    }
    if (event.number_or("deadline_s", 0.0) > 0.0) {
      row.has_headroom = true;
      row.worst_headroom = std::min(
          row.worst_headroom, 1.0 - event.number_or("deadline_frac_used", 0.0));
    }
  } else if (type == "search_end") {
    has_summary = true;
    stop_reason = event.string_or("stop_reason", stop_reason);
    best_cost_s = event.number_or("best_cost_s", best_cost_s);
    baseline_cost_s = event.number_or("baseline_cost_s", baseline_cost_s);
    runtime_s = event.number_or("runtime_s", runtime_s);
    generations = static_cast<long>(event.number_or("generations", 0));
    evaluations = static_cast<long>(event.number_or("evaluations", 0));
    faults = static_cast<long>(event.number_or("faults", 0));
  }
  // Unknown event types are skipped: the schema is forward-extensible.
}

void RunReport::ingest_metrics(const JsonValue& metrics) {
  if (const JsonValue* cal = metrics.find("calibration"); cal != nullptr) {
    has_calibration = true;
    calibration_drift_band = cal->number_or("drift_band", 0.0);
    calibration_samples = static_cast<long>(cal->number_or("samples", 0));
    if (const JsonValue* buckets = cal->find("buckets");
        buckets != nullptr && buckets->is_array()) {
      for (const JsonValue& b : buckets->items()) {
        CalibrationBucket row;
        row.group_size = b.string_or("group_size", "?");
        row.count = static_cast<long>(b.number_or("count", 0));
        row.mean_rel_error = b.number_or("mean_rel_error", 0.0);
        row.p90_abs_rel_error = b.number_or("p90_abs_rel_error", 0.0);
        row.sign_bias = b.number_or("sign_bias", 0.0);
        const JsonValue* drift = b.find("drift");
        row.drift = drift != nullptr && drift->is_bool() && drift->as_bool();
        calibration.push_back(std::move(row));
      }
    }
  }
  if (const JsonValue* counters = metrics.find("counters");
      counters != nullptr && counters->is_array()) {
    for (const JsonValue& c : counters->items()) {
      const std::string name = c.string_or("name", "");
      const long value = static_cast<long>(c.number_or("value", 0.0));
      static const std::string kRungPrefix = "serve.rung_total.";
      if (!name.starts_with("serve.") && !name.starts_with("store.")) continue;
      has_serve = true;
      if (name == "serve.requests_total") {
        serve_requests = value;
      } else if (name == "serve.deadline_missed_total") {
        serve_deadline_misses = value;
      } else if (name == "serve.degraded_total") {
        serve_degraded = value;
      } else if (name == "serve.queued_total") {
        serve_queued = value;
      } else if (name == "serve.admission_rejected_total") {
        serve_rejected = value;
      } else if (name == "serve.retries_total") {
        serve_retries = value;
      } else if (name.starts_with(kRungPrefix)) {
        rung_row(serve_rungs, name.substr(kRungPrefix.size())).counter_requests =
            value;
      } else {
        serving_counters.emplace_back(name, value);
      }
    }
  }
  if (const JsonValue* hists = metrics.find("histograms");
      hists != nullptr && hists->is_array()) {
    for (const JsonValue& h : hists->items()) {
      if (h.string_or("name", "") != "serve.latency_seconds") continue;
      has_serve = true;
      has_serve_latency = true;
      serve_latency_count = static_cast<long>(h.number_or("count", 0.0));
      serve_latency_mean = h.number_or("mean", 0.0);
      serve_latency_p50 = h.number_or("p50", 0.0);
      serve_latency_p90 = h.number_or("p90", 0.0);
      serve_latency_p99 = h.number_or("p99", 0.0);
      serve_latency_max = h.number_or("max", 0.0);
    }
  }
  if (const JsonValue* slo_block = metrics.find("slo"); slo_block != nullptr) {
    slo = SloTracker::from_json(*slo_block);
    has_slo = true;
  }
  const JsonValue* run = metrics.find("run");
  if (run == nullptr) return;
  has_summary = true;
  program = run->string_or("program", program);
  method = run->string_or("method", method);
  objective = run->string_or("objective", objective);
  device = run->string_or("device", device);
  stop_reason = run->string_or("stop_reason", stop_reason);
  best_cost_s = run->number_or("best_cost_s", best_cost_s);
  baseline_cost_s = run->number_or("baseline_cost_s", baseline_cost_s);
  runtime_s = run->number_or("runtime_s", runtime_s);
  generations = static_cast<long>(run->number_or("generations", generations));
  evaluations = static_cast<long>(run->number_or("evaluations", evaluations));
  faults = static_cast<long>(run->number_or("faults", faults));
  cache_hit_rate = run->number_or("cache_hit_rate", cache_hit_rate);
  cache_hits = static_cast<long>(run->number_or("cache_hits", cache_hits));
  cache_misses = static_cast<long>(run->number_or("cache_misses", cache_misses));
  cache_incremental_hits = static_cast<long>(
      run->number_or("cache_incremental_hits", cache_incremental_hits));
  cache_duplicate_misses = static_cast<long>(
      run->number_or("cache_duplicate_misses", cache_duplicate_misses));
  cache_shard_contention = static_cast<long>(
      run->number_or("cache_shard_contention", cache_shard_contention));
}

std::string RunReport::render(int top_k) const {
  std::ostringstream os;

  // ---- run header ----
  os << "run: " << (program.empty() ? "?" : program);
  if (!method.empty()) os << " (" << method;
  if (!objective.empty()) os << "/" << objective;
  if (!device.empty()) os << " on " << device;
  if (!method.empty()) os << ")";
  os << "\n";
  if (has_summary) {
    os << "stop reason: " << (stop_reason.empty() ? "?" : stop_reason) << "  ("
       << generations << " generations, " << evaluations << " evaluations, "
       << human_time(runtime_s) << ")\n";
    os << "best cost: " << human_time(best_cost_s) << "  baseline "
       << human_time(baseline_cost_s) << "  projected speedup "
       << fixed(projected_speedup(), 2) << "x\n";
    if (faults > 0) os << "faults quarantined: " << faults << "\n";
    if (cache_hit_rate >= 0.0) {
      os << "evaluation cache: " << fixed(100.0 * cache_hit_rate, 2)
         << "% hit rate (" << cache_hits << " hits / " << cache_misses
         << " model evaluations";
      if (cache_incremental_hits > 0) {
        os << ", " << cache_incremental_hits << " resolved in-batch";
      }
      if (cache_duplicate_misses > 0) {
        os << ", " << cache_duplicate_misses << " duplicate computes";
      }
      os << ")\n";
    }
    if (resumed) os << "resumed from checkpoint\n";
    if (checkpoint_saves > 0) os << "checkpoints written: " << checkpoint_saves << "\n";
  }

  // ---- convergence curve ----
  if (!convergence.empty()) {
    os << "\nconvergence (" << convergence.size() << " generations):\n";
    double lo = convergence.front().best_cost_s;
    double hi = lo;
    for (const GenerationSample& s : convergence) {
      lo = std::min(lo, s.best_cost_s);
      hi = std::max(hi, s.best_cost_s);
    }
    TextTable table({"gen", "best", "", "mean", "diversity", "launches", "evals"});
    const std::size_t max_rows = 20;
    const std::size_t stride = (convergence.size() + max_rows - 1) / max_rows;
    for (std::size_t i = 0; i < convergence.size(); ++i) {
      // Keep every stride-th row plus the last (the converged state).
      if (i % stride != 0 && i + 1 != convergence.size()) continue;
      const GenerationSample& s = convergence[i];
      table.add(s.generation, human_time(s.best_cost_s),
                bar(s.best_cost_s, lo, hi), human_time(s.mean_cost_s),
                s.distinct_plans, fixed(s.mean_groups, 1), s.evaluations);
    }
    os << table;
  }

  // ---- fault clusters ----
  if (!quarantines.empty()) {
    os << "\nquarantined faults (" << quarantines.size() << " groups):\n";
    TextTable table({"fingerprint", "members", "error"});
    const std::size_t shown = std::min<std::size_t>(quarantines.size(),
                                                    static_cast<std::size_t>(top_k));
    for (std::size_t i = 0; i < shown; ++i) {
      const Quarantine& q = quarantines[i];
      table.add(q.fingerprint, members_text(q.members), q.error);
    }
    os << table;
    if (shown < quarantines.size()) {
      os << "  ... " << quarantines.size() - shown << " more\n";
    }
    // Cluster: which kernels keep appearing in faulting groups?
    std::map<long, int> implicated;
    for (const Quarantine& q : quarantines) {
      for (long k : q.members) ++implicated[k];
    }
    std::vector<std::pair<long, int>> ranked(implicated.begin(), implicated.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    os << "fault clusters (kernel: faulting groups containing it):";
    const std::size_t top = std::min<std::size_t>(ranked.size(), 6);
    for (std::size_t i = 0; i < top; ++i) {
      os << (i ? ", " : " ") << "k" << ranked[i].first << ": " << ranked[i].second;
    }
    os << "\n";
  }

  // ---- top-k groups by predicted-time component ----
  if (!groups.empty()) {
    std::vector<const GroupRow*> ranked;
    ranked.reserve(groups.size());
    for (const GroupRow& g : groups) ranked.push_back(&g);
    std::sort(ranked.begin(), ranked.end(), [](const GroupRow* a, const GroupRow* b) {
      return a->total_s > b->total_s;
    });
    const std::size_t shown =
        std::min<std::size_t>(ranked.size(), static_cast<std::size_t>(top_k));
    os << "\ntop " << shown << " of " << ranked.size()
       << " groups by predicted time (component share of total):\n";
    std::vector<std::string> headers = {"group", "members", "time"};
    for (const char* component : kBreakdownComponents) {
      std::string h(component);
      if (h.size() > 2 && h.ends_with("_s")) h.resize(h.size() - 2);
      headers.push_back(h);
    }
    TextTable table(std::move(headers));
    for (std::size_t i = 0; i < shown; ++i) {
      const GroupRow& g = *ranked[i];
      std::vector<std::string> row = {g.name, members_text(g.members),
                                      human_time(g.total_s)};
      for (const char* component : kBreakdownComponents) {
        double value = 0.0;
        for (const auto& [name, v] : g.components) {
          if (name == component) value = v;
        }
        row.push_back(g.total_s > 0.0 ? fixed(100.0 * value / g.total_s, 1) + "%"
                                      : "-");
      }
      table.add_row(std::move(row));
    }
    os << table;
  }

  // ---- fusion decision provenance ----
  if (!decisions.empty()) {
    os << "\nfusion decisions (" << decisions_total << " recorded, accepted "
       << "delta " << strprintf("%+.3e", accepted_cost_delta_s) << " s):\n";
    TextTable table({"site", "accepted", "rejected"});
    for (const DecisionCount& d : decisions) {
      table.add(d.site, d.accepted, d.rejected);
    }
    os << table;
  }

  // ---- serving: totals, per-rung latency percentiles, SLO burn ----
  if (has_serve) {
    const bool from_counters = serve_requests > 0;
    const long requests = from_counters ? serve_requests : serve_wide_events;
    const long misses = from_counters ? serve_deadline_misses : serve_event_misses;
    const long degraded = from_counters ? serve_degraded : serve_event_degraded;
    os << "\nserving: " << requests << " requests, " << misses
       << " deadline misses, " << degraded << " degraded";
    if (serve_queued > 0) os << ", " << serve_queued << " queued";
    if (serve_rejected > 0) os << ", " << serve_rejected << " rejected";
    if (serve_retries > 0) os << ", " << serve_retries << " retries";
    os << "\n";
    if (has_serve_latency) {
      os << "latency histogram: " << serve_latency_count << " samples, mean "
         << human_time(serve_latency_mean) << ", p50 "
         << human_time(serve_latency_p50) << ", p90 "
         << human_time(serve_latency_p90) << ", p99 "
         << human_time(serve_latency_p99) << ", max "
         << human_time(serve_latency_max) << "\n";
    }
    if (!serve_rungs.empty()) {
      if (serve_wide_events > 0) {
        os << "per-rung latency (" << serve_wide_events << " wide events, "
           << serve_traced << " traced):\n";
        TextTable table({"rung", "requests", "p50", "p95", "p99", "misses",
                         "min headroom"});
        for (const ServeRungStats& r : serve_rungs) {
          std::vector<double> sorted = r.latencies_s;
          std::sort(sorted.begin(), sorted.end());
          const long n = r.counter_requests > 0
                             ? r.counter_requests
                             : static_cast<long>(sorted.size());
          table.add(r.rung, n, human_time(pct_sorted(sorted, 50)),
                    human_time(pct_sorted(sorted, 95)),
                    human_time(pct_sorted(sorted, 99)), r.deadline_misses,
                    r.has_headroom ? fixed(100.0 * r.worst_headroom, 1) + "%"
                                   : "-");
        }
        os << table;
      } else {
        // Metrics only: the rung distribution without per-request latencies.
        TextTable table({"rung", "requests"});
        for (const ServeRungStats& r : serve_rungs) {
          table.add(r.rung, r.counter_requests);
        }
        os << table;
      }
    }
    if (!serving_counters.empty()) {
      os << "serving counters:";
      for (std::size_t i = 0; i < serving_counters.size(); ++i) {
        os << (i ? ", " : " ") << serving_counters[i].first << " "
           << serving_counters[i].second;
      }
      os << "\n";
    }
  }
  if (has_slo) os << "\n" << slo.render();

  // ---- projection calibration ----
  if (has_calibration) {
    os << "\nprojection calibration (" << calibration_samples
       << " samples, drift band " << fixed(calibration_drift_band, 3) << "):\n";
    if (calibration.empty()) {
      os << "  (no fused cache misses were sampled)\n";
    } else {
      TextTable table({"group size", "samples", "mean rel err", "p90 |rel err|",
                       "sign bias", "drift"});
      for (const CalibrationBucket& b : calibration) {
        table.add(b.group_size, b.count, strprintf("%+.4f", b.mean_rel_error),
                  fixed(b.p90_abs_rel_error, 4), strprintf("%+.2f", b.sign_bias),
                  b.drift ? "DRIFT" : "ok");
      }
      os << table;
    }
  }
  for (const std::string& warning : drift_warnings) {
    os << "calibration drift: " << warning << "\n";
  }

  if (!has_summary && convergence.empty() && groups.empty() &&
      quarantines.empty() && decisions.empty() && !has_calibration &&
      !has_serve && !has_slo) {
    os << "(no recognised telemetry in the given files)\n";
  }
  return os.str();
}

JsonValue RunReport::to_json() const {
  JsonValue root = JsonValue::object();
  JsonValue run = JsonValue::object();
  run.set("program", program);
  run.set("method", method);
  run.set("objective", objective);
  run.set("device", device);
  run.set("stop_reason", stop_reason);
  run.set("best_cost_s", best_cost_s);
  run.set("baseline_cost_s", baseline_cost_s);
  run.set("projected_speedup", projected_speedup());
  run.set("runtime_s", runtime_s);
  run.set("generations", generations);
  run.set("evaluations", evaluations);
  run.set("faults", faults);
  if (cache_hit_rate >= 0.0) {
    run.set("cache_hit_rate", cache_hit_rate);
    run.set("cache_hits", cache_hits);
    run.set("cache_misses", cache_misses);
    run.set("cache_incremental_hits", cache_incremental_hits);
    run.set("cache_duplicate_misses", cache_duplicate_misses);
    run.set("cache_shard_contention", cache_shard_contention);
  }
  root.set("run", std::move(run));

  JsonValue curve = JsonValue::array();
  for (const GenerationSample& s : convergence) {
    JsonValue g = JsonValue::object();
    g.set("gen", s.generation);
    g.set("best_cost_s", s.best_cost_s);
    g.set("mean_cost_s", s.mean_cost_s);
    g.set("distinct_plans", s.distinct_plans);
    curve.push_back(std::move(g));
  }
  root.set("convergence", std::move(curve));
  root.set("quarantined_groups", static_cast<long>(quarantines.size()));
  root.set("group_breakdowns", static_cast<long>(groups.size()));

  if (!decisions.empty()) {
    JsonValue sites = JsonValue::array();
    for (const DecisionCount& d : decisions) {
      JsonValue s = JsonValue::object();
      s.set("site", d.site);
      s.set("accepted", d.accepted);
      s.set("rejected", d.rejected);
      sites.push_back(std::move(s));
    }
    JsonValue block = JsonValue::object();
    block.set("total", decisions_total);
    block.set("accepted_cost_delta_s", accepted_cost_delta_s);
    block.set("sites", std::move(sites));
    root.set("decisions", std::move(block));
  }
  if (has_calibration) {
    JsonValue block = JsonValue::object();
    block.set("samples", calibration_samples);
    block.set("drift_band", calibration_drift_band);
    block.set("drift_warnings", static_cast<long>(drift_warnings.size()));
    JsonValue buckets = JsonValue::array();
    for (const CalibrationBucket& b : calibration) {
      JsonValue row = JsonValue::object();
      row.set("group_size", b.group_size);
      row.set("count", b.count);
      row.set("mean_rel_error", b.mean_rel_error);
      row.set("sign_bias", b.sign_bias);
      row.set("drift", b.drift);
      buckets.push_back(std::move(row));
    }
    block.set("buckets", std::move(buckets));
    root.set("calibration", std::move(block));
  }
  if (has_serve) {
    JsonValue block = JsonValue::object();
    block.set("requests", serve_requests > 0 ? serve_requests : serve_wide_events);
    block.set("deadline_misses",
              serve_requests > 0 ? serve_deadline_misses : serve_event_misses);
    block.set("degraded",
              serve_requests > 0 ? serve_degraded : serve_event_degraded);
    block.set("queued", serve_queued);
    block.set("rejected", serve_rejected);
    block.set("retries", serve_retries);
    block.set("wide_events", serve_wide_events);
    block.set("traced", serve_traced);
    JsonValue rungs = JsonValue::array();
    for (const ServeRungStats& r : serve_rungs) {
      JsonValue row = JsonValue::object();
      row.set("rung", r.rung);
      row.set("requests", r.counter_requests > 0
                              ? r.counter_requests
                              : static_cast<long>(r.latencies_s.size()));
      row.set("deadline_misses", r.deadline_misses);
      row.set("traced", r.traced);
      if (!r.latencies_s.empty()) {
        std::vector<double> sorted = r.latencies_s;
        std::sort(sorted.begin(), sorted.end());
        row.set("p50_s", pct_sorted(sorted, 50));
        row.set("p95_s", pct_sorted(sorted, 95));
        row.set("p99_s", pct_sorted(sorted, 99));
      }
      if (r.has_headroom) row.set("min_headroom", r.worst_headroom);
      rungs.push_back(std::move(row));
    }
    block.set("rungs", std::move(rungs));
    root.set("serve", std::move(block));
  }
  if (has_slo) root.set("slo", slo.to_json());
  return root;
}

}  // namespace kf
