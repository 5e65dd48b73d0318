// RunReport — post-hoc aggregation of a telemetry-enabled run.
//
// `kfc report` (and tests) rebuild a run summary from the two artifacts a
// search leaves behind: the metrics JSON (--metrics) and the JSONL event
// trace (--events). Either input alone renders a partial report — the
// metrics file carries the run-summary block and final series, the event
// log carries the convergence curve, fault quarantines and per-group cost
// breakdowns. Serving runs (`kfc serve-batch`) are first-class too: the
// serve.*/store.* metric families, the per-request "serve_request" wide
// events and the kfc-metrics/v3 "slo" block fold into a per-rung latency
// percentile table. The renderer produces the human tables (convergence
// curve, stop reason, fault clusters, top-k groups, serving rungs).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/slo.hpp"

namespace kf {

struct RunReport {
  // ---- run summary (metrics "run" block, else the search_end event) ----
  std::string program;
  std::string method;
  std::string objective;
  std::string device;
  std::string stop_reason;
  double best_cost_s = 0.0;
  double baseline_cost_s = 0.0;
  double runtime_s = 0.0;
  long generations = 0;
  long evaluations = 0;
  long faults = 0;
  bool has_summary = false;

  // ---- evaluation-cache counters (metrics "run" block; -1 = absent) ----
  double cache_hit_rate = -1.0;
  long cache_hits = 0;
  long cache_misses = 0;
  long cache_incremental_hits = 0;
  long cache_duplicate_misses = 0;
  long cache_shard_contention = 0;

  // ---- per-generation convergence (from "generation" events) ----
  struct GenerationSample {
    long generation = 0;
    double best_cost_s = 0.0;
    double mean_cost_s = 0.0;
    double worst_cost_s = 0.0;
    long distinct_plans = 0;
    double mean_groups = 0.0;
    long evaluations = 0;
    double elapsed_s = 0.0;
  };
  std::vector<GenerationSample> convergence;

  // ---- quarantined faults (from "fault_quarantine" events) ----
  struct Quarantine {
    std::string fingerprint;
    std::vector<long> members;
    std::string error;
  };
  std::vector<Quarantine> quarantines;

  // ---- per-group cost breakdowns (from "group_breakdown" events) ----
  struct GroupRow {
    std::string name;
    std::vector<long> members;
    double total_s = 0.0;
    /// (TimeBreakdown::component_name, seconds), e.g. "gmem_traffic"; the
    /// event field is the name plus "_s".
    std::vector<std::pair<std::string, double>> components;
  };
  std::vector<GroupRow> groups;

  // ---- fusion decision provenance (from "decision" events) ----
  struct DecisionCount {
    std::string site;  ///< e.g. "greedy_merge" (DecisionLog::to_string)
    long accepted = 0;
    long rejected = 0;
  };
  std::vector<DecisionCount> decisions;  ///< in first-seen site order
  long decisions_total = 0;
  double accepted_cost_delta_s = 0.0;  ///< summed delta of accepted decisions

  // ---- projection calibration (metrics "calibration" block plus
  //      "calibration_drift" warning events) ----
  struct CalibrationBucket {
    std::string group_size;  ///< bucket label, e.g. "5-8"
    long count = 0;
    double mean_rel_error = 0.0;
    double p90_abs_rel_error = 0.0;
    double sign_bias = 0.0;
    bool drift = false;
  };
  std::vector<CalibrationBucket> calibration;
  bool has_calibration = false;
  double calibration_drift_band = 0.0;
  long calibration_samples = 0;
  std::vector<std::string> drift_warnings;  ///< one line per drift event

  long checkpoint_saves = 0;
  bool resumed = false;

  // ---- serving (serve.*/store.* counters plus "serve_request" wide
  //      events; `kfc serve-batch --metrics/--events` artifacts) ----
  struct ServeRungStats {
    std::string rung;                 ///< ladder rung name, first-seen order
    std::vector<double> latencies_s;  ///< one per wide event (unsorted)
    long counter_requests = 0;  ///< serve.rung_total.<rung>; 0 = no metrics
    long deadline_misses = 0;   ///< from wide events
    long traced = 0;            ///< wide events carrying a trace id
    double worst_headroom = 1.0;  ///< min of 1 - deadline_frac_used
    bool has_headroom = false;    ///< any event ran under a real deadline
  };
  std::vector<ServeRungStats> serve_rungs;  ///< in first-seen rung order
  bool has_serve = false;
  // Counter-derived totals (0 when the metrics file was not given).
  long serve_requests = 0;
  long serve_deadline_misses = 0;
  long serve_degraded = 0;
  long serve_queued = 0;
  long serve_rejected = 0;
  long serve_retries = 0;
  // Event-derived totals (0 when the events file was not given).
  long serve_wide_events = 0;
  long serve_traced = 0;        ///< wide events with a "trace" id stamped
  long serve_event_misses = 0;
  long serve_event_degraded = 0;
  /// Raw serve.*/store.* counters not folded into a field above, for the
  /// operational table (e.g. store.write_faults, serve.retries_total).
  std::vector<std::pair<std::string, long>> serving_counters;
  // serve.latency_seconds histogram summary (metrics file).
  bool has_serve_latency = false;
  long serve_latency_count = 0;
  double serve_latency_mean = 0.0;
  double serve_latency_p50 = 0.0;
  double serve_latency_p90 = 0.0;
  double serve_latency_p99 = 0.0;
  double serve_latency_max = 0.0;

  // ---- SLO (metrics "slo" block, kfc-metrics/v3) ----
  bool has_slo = false;
  SloTracker::Report slo;

  /// Loads whichever paths are non-empty; throws kf::RuntimeError on
  /// unreadable files or malformed JSON (a malformed JSONL *line* names
  /// its line number).
  static RunReport from_files(const std::string& metrics_path,
                              const std::string& events_path);

  /// Folds one parsed trace event into the report.
  void ingest_event(const JsonValue& event);

  /// Folds a parsed metrics document in (kfc-metrics/v3; older documents
  /// simply lack the calibration / serving / slo blocks).
  void ingest_metrics(const JsonValue& metrics);

  double projected_speedup() const noexcept {
    return best_cost_s > 0.0 ? baseline_cost_s / best_cost_s : 0.0;
  }

  /// Human-readable summary: run header, convergence table (downsampled),
  /// fault clusters, top_k groups by predicted-time component, and (for
  /// serving runs) the per-rung latency percentile table plus SLO burn.
  std::string render(int top_k = 5) const;
};

}  // namespace kf
