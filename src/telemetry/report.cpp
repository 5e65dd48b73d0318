#include "telemetry/report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "gpu/timing_simulator.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace kf {
namespace {

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
    for (int c = 0; c < TimeBreakdown::kComponents; ++c) {
      const char* name = TimeBreakdown::component_name(c);
      if (const JsonValue* v = event.find(std::string(name) + "_s");
          v != nullptr && v->is_number()) {
        row.components.emplace_back(name, v->as_number());
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
  } else if (const std::optional<RequestContext> rc =
                 RequestContext::from_event(event)) {
    // The per-request wide event: one line per served request carrying the
    // rung taken, latency, deadline budget state and the owning trace id.
    has_serve = true;
    ++serve_wide_events;
    ServeRungStats& row = rung_row(serve_rungs, to_string(rc->rung));
    row.latencies_s.push_back(rc->latency_s);
    if (!rc->deadline_met) {
      ++row.deadline_misses;
      ++serve_event_misses;
    }
    if (rc->degraded) ++serve_event_degraded;
    if (rc->trace_id.valid()) {
      ++serve_traced;
      ++row.traced;
    }
    if (rc->deadline_s > 0.0) {
      row.has_headroom = true;
      row.worst_headroom =
          std::min(row.worst_headroom, 1.0 - rc->deadline_frac_used());
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
    for (int c = 0; c < TimeBreakdown::kComponents; ++c) {
      headers.push_back(TimeBreakdown::component_name(c));
    }
    TextTable table(std::move(headers));
    for (std::size_t i = 0; i < shown; ++i) {
      const GroupRow& g = *ranked[i];
      std::vector<std::string> row = {g.name, members_text(g.members),
                                      human_time(g.total_s)};
      for (int c = 0; c < TimeBreakdown::kComponents; ++c) {
        double value = 0.0;
        for (const auto& [name, v] : g.components) {
          if (name == TimeBreakdown::component_name(c)) value = v;
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
          table.add(r.rung, n, human_time(percentile(sorted, 50)),
                    human_time(percentile(sorted, 95)),
                    human_time(percentile(sorted, 99)), r.deadline_misses,
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

}  // namespace kf
