#include "serve/postmortem.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "util/string_util.hpp"

namespace kf {

namespace {

// Bounded, deterministic cause scores. The header reason is the strongest
// signal (the dump path knew why it fired); state-page anomalies corroborate
// or surface causes the trigger did not name. CI asserts on the top cause
// by name, so every score below is a pure function of the bundle.
constexpr double kScoreFatalSignal = 2.0;
constexpr double kScoreStalledWorker = 1.8;
constexpr double kScoreStoreCorruption = 1.5;
constexpr double kScoreSloBurn = 1.3;
constexpr double kScoreDeadlineSpike = 1.25;
constexpr double kScoreQueueSaturation = 1.2;
constexpr double kScoreBurnAnomaly = 1.1;
constexpr double kScoreMissAnomaly = 1.0;
constexpr double kScoreRejectAnomaly = 0.9;
constexpr double kScoreFaultStorm = 0.85;
constexpr double kScoreStalledInflight = 0.8;
constexpr double kScoreCoalesceTimeout = 0.8;
constexpr double kScoreCalibrationDrift = 0.7;
constexpr double kScoreNoAnomaly = 0.1;

class CauseSet {
 public:
  void add(std::string cause, double score, std::string evidence) {
    for (PostmortemCause& c : causes_) {
      if (c.cause == cause) {
        if (score > c.score) {
          c.score = score;
          c.evidence = std::move(evidence);
        }
        return;
      }
    }
    causes_.push_back({std::move(cause), score, std::move(evidence)});
  }

  std::vector<PostmortemCause> ranked() && {
    std::sort(causes_.begin(), causes_.end(),
              [](const PostmortemCause& a, const PostmortemCause& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.cause < b.cause;
              });
    return std::move(causes_);
  }

 private:
  std::vector<PostmortemCause> causes_;
};

const char* signal_name(int sig) {
  switch (sig) {
    case 4: return "SIGILL";
    case 6: return "SIGABRT";
    case 7: return "SIGBUS";
    case 8: return "SIGFPE";
    case 11: return "SIGSEGV";
    default: return "signal";
  }
}

/// Maps a trigger (header reason or in-ring trigger record) to a cause.
void add_reason_cause(CauseSet& set, IncidentReason reason, int signal,
                      const FlightTriggerPayload* trigger, double scale) {
  switch (reason) {
    case IncidentReason::kSignal:
      set.add("fatal_signal", kScoreFatalSignal * scale,
              strprintf("process received fatal %s (%d) mid-serve",
                        signal_name(signal), signal));
      break;
    case IncidentReason::kStalledWorker:
      if (trigger != nullptr)
        set.add("stalled_worker", kScoreStalledWorker * scale,
                strprintf("worker %d stuck %.3fs on job %lld",
                          trigger->worker_id, trigger->age_s,
                          static_cast<long long>(trigger->stalled_seq)));
      else
        set.add("stalled_worker", kScoreStalledWorker * scale,
                "watchdog reported a worker past the stall threshold");
      break;
    case IncidentReason::kStoreSalvage:
      set.add("store_corruption", kScoreStoreCorruption * scale,
              "plan-store open salvaged a torn or bit-rotten journal");
      break;
    case IncidentReason::kSloBurn:
      set.add("slo_burn", kScoreSloBurn * scale,
              trigger != nullptr
                  ? strprintf("SLO burn rate %.3f crossed the watchdog ceiling",
                              trigger->burn)
                  : std::string(
                        "SLO burn rate crossed the watchdog ceiling"));
      break;
    case IncidentReason::kDeadlineSpike:
      set.add("deadline_miss_spike", kScoreDeadlineSpike * scale,
              trigger != nullptr
                  ? strprintf("%lld deadline misses within one watchdog scan",
                              static_cast<long long>(trigger->stalled_seq))
                  : std::string("deadline misses spiked within one scan"));
      break;
    case IncidentReason::kNone:
    case IncidentReason::kExitDump:
      break;
  }
}

JsonValue state_to_json(const StateSnapshot& s) {
  JsonValue o = JsonValue::object();
  o.set("requests_total", static_cast<long>(s.requests_total));
  o.set("deadline_missed_total", static_cast<long>(s.deadline_missed_total));
  o.set("degraded_total", static_cast<long>(s.degraded_total));
  o.set("rejected_overload_total",
        static_cast<long>(s.rejected_overload_total));
  o.set("coalesce_timeout_total",
        static_cast<long>(s.coalesce_timeout_total));
  o.set("retries_total", static_cast<long>(s.retries_total));
  o.set("trivial_floor_total", static_cast<long>(s.trivial_floor_total));
  o.set("incidents_total", static_cast<long>(s.incidents_total));
  o.set("queue_depth", static_cast<long>(s.queue_depth));
  o.set("queue_capacity", static_cast<long>(s.queue_capacity));
  o.set("workers", static_cast<long>(s.workers));
  o.set("inflight", static_cast<long>(s.inflight));
  o.set("store_salvaged", static_cast<long>(s.store_salvaged));
  o.set("store_quarantined", static_cast<long>(s.store_quarantined));
  o.set("calibration_drift", static_cast<long>(s.calibration_drift));
  o.set("worst_burn", s.worst_burn);
  return o;
}

}  // namespace

PostmortemReport analyze_bundle(const FlightBundle& bundle) {
  PostmortemReport report;
  report.header_ok = bundle.header_ok;
  report.truncated = bundle.truncated;
  report.quarantined = bundle.quarantined;
  report.inflight_quarantined = bundle.inflight_quarantined;
  report.valid_records = static_cast<long>(bundle.records.size());
  report.empty_slots = bundle.empty_slots;
  if (!bundle.header_ok) return report;

  report.reason = bundle.header.incident_reason();
  report.signal = bundle.header.signal;
  report.captured_s = bundle.header.captured_s;
  report.state = bundle.header.state;
  const StateSnapshot& s = report.state;

  // ---- cause ranking ------------------------------------------------
  CauseSet causes;
  add_reason_cause(causes, report.reason, report.signal, nullptr, 1.0);

  // In-ring trigger markers carry richer evidence (worker ids, ages) than
  // the header and may name earlier, different causes; scan newest-first so
  // the freshest evidence for each reason wins its slot.
  for (auto it = bundle.records.rbegin(); it != bundle.records.rend(); ++it) {
    const FlightTriggerPayload* t = it->as_trigger();
    if (t == nullptr) continue;
    const auto reason = static_cast<IncidentReason>(t->reason);
    // Same reason as the header: full score with the trigger's evidence.
    // A different, older reason still ranks, slightly discounted.
    add_reason_cause(causes, reason, t->signal, t,
                     reason == report.reason ? 1.0 : 0.9);
  }

  // State-page anomalies (trigger-independent).
  if (s.queue_capacity > 0 && s.queue_depth >= s.queue_capacity)
    causes.add("queue_saturation", kScoreQueueSaturation,
               strprintf("queue full at capture (%lld/%lld)",
                         static_cast<long long>(s.queue_depth),
                         static_cast<long long>(s.queue_capacity)));
  else if (s.rejected_overload_total > 0)
    causes.add("queue_saturation", kScoreRejectAnomaly,
               strprintf("%lld requests shed to the rejected_overload floor",
                         static_cast<long long>(s.rejected_overload_total)));
  if (s.store_salvaged > 0 || s.store_quarantined > 0)
    causes.add("store_corruption", kScoreStoreCorruption,
               strprintf("store recovery salvaged=%lld quarantined=%lld",
                         static_cast<long long>(s.store_salvaged),
                         static_cast<long long>(s.store_quarantined)));
  if (s.worst_burn > 1.0)
    causes.add("slo_burn", kScoreBurnAnomaly,
               strprintf("worst SLO window burn rate %.3f > 1", s.worst_burn));
  if (s.requests_total > 0 && s.deadline_missed_total > 0 &&
      s.deadline_missed_total * 4 >= s.requests_total)
    causes.add("deadline_miss_spike", kScoreMissAnomaly,
               strprintf("%lld of %lld requests missed their deadline",
                         static_cast<long long>(s.deadline_missed_total),
                         static_cast<long long>(s.requests_total)));
  if (s.retries_total > 0 && s.retries_total * 4 >= s.requests_total)
    causes.add("fault_storm", kScoreFaultStorm,
               strprintf("%lld search retries across %lld requests",
                         static_cast<long long>(s.retries_total),
                         static_cast<long long>(s.requests_total)));
  if (s.coalesce_timeout_total > 0)
    causes.add("coalesce_timeout", kScoreCoalesceTimeout,
               strprintf("%lld coalesce-leader timeouts (follower waits expired "
                         "or the leader threw)",
                         static_cast<long long>(s.coalesce_timeout_total)));
  if (s.calibration_drift != 0)
    causes.add("calibration_drift", kScoreCalibrationDrift,
               "calibration tracker flagged predicted-vs-measured drift");

  // ---- failing request ----------------------------------------------
  // Prefer the oldest request still on-CPU at capture: for crashes and
  // stalls that is the culprit (a finished request cannot have taken the
  // process down). Fall back to the worst finished request in the ring.
  const InflightDump* oldest = nullptr;
  for (const InflightDump& d : bundle.inflight)
    if (oldest == nullptr || d.since_s < oldest->since_s) oldest = &d;
  if (oldest != nullptr) {
    report.failing.found = true;
    report.failing.in_flight = true;
    report.failing.trace = oldest->trace;
    report.failing.seq = static_cast<long>(oldest->seq);
    report.failing.worker_id = oldest->worker_id;
    report.failing.age_s = report.captured_s - oldest->since_s;
    report.failing.deadline_s = oldest->deadline_s;
    std::memcpy(report.failing.stage_s, oldest->stage_s,
                sizeof(report.failing.stage_s));
    if (report.failing.deadline_s > 0.0 &&
        report.failing.age_s > report.failing.deadline_s)
      causes.add("stalled_worker", kScoreStalledInflight,
                 strprintf("in-flight request on worker %d aged %.3fs past its "
                           "%.3fs deadline",
                           report.failing.worker_id, report.failing.age_s,
                           report.failing.deadline_s));
  } else {
    const FlightRecord* worst = nullptr;
    auto badness = [](const FlightServePayload& p) {
      const bool missed = p.deadline_s > 0.0 && p.latency_s > p.deadline_s;
      return (missed ? 1e6 : 0.0) + p.latency_s;
    };
    for (const FlightRecord& r : bundle.records) {
      const FlightServePayload* p = r.as_serve();
      if (p == nullptr) continue;
      if (worst == nullptr || badness(*p) > badness(*worst->as_serve()))
        worst = &r;
    }
    if (worst != nullptr) {
      const FlightServePayload& p = *worst->as_serve();
      report.failing.found = true;
      report.failing.in_flight = false;
      report.failing.trace = worst->trace;
      report.failing.seq = static_cast<long>(worst->seq);
      report.failing.worker_id = p.worker_id;
      report.failing.age_s = p.latency_s;
      report.failing.deadline_s = p.deadline_s;
      std::memcpy(report.failing.stage_s, p.stage_s,
                  sizeof(report.failing.stage_s));
    }
  }

  report.causes = std::move(causes).ranked();
  if (report.causes.empty())
    report.causes.push_back(
        {"no_anomaly", kScoreNoAnomaly,
         "no trigger or state anomaly in the bundle (operator dump?)"});

  // ---- decision tail -------------------------------------------------
  // Records are already in seq (claim) order. Scope to the failing trace
  // when any decision matches; otherwise keep the global tail.
  std::vector<const FlightRecord*> scoped;
  std::vector<const FlightRecord*> global;
  for (const FlightRecord& r : bundle.records) {
    if (r.as_decision() == nullptr) continue;
    global.push_back(&r);
    if (report.failing.found && report.failing.trace.valid() &&
        r.trace == report.failing.trace)
      scoped.push_back(&r);
  }
  report.decisions_trace_scoped = !scoped.empty();
  const std::vector<const FlightRecord*>& pool =
      report.decisions_trace_scoped ? scoped : global;
  const std::size_t take = std::min<std::size_t>(pool.size(), 16);
  for (std::size_t i = pool.size() - take; i < pool.size(); ++i) {
    const FlightRecord& r = *pool[i];
    const FlightDecisionPayload& d = *r.as_decision();
    PostmortemDecision out;
    out.ring_seq = r.seq;
    out.t_s = r.t_s;
    out.trace = r.trace;
    out.site = d.site;
    out.accepted = d.accepted != 0;
    out.member_count = d.member_count;
    out.cost_delta_s = d.cost_delta_s;
    out.dominant.assign(d.dominant,
                        strnlen(d.dominant, sizeof(d.dominant)));
    report.decisions.push_back(std::move(out));
  }
  return report;
}

int PostmortemReport::exit_code() const noexcept {
  if (!header_ok) return 3;
  if (truncated || quarantined > 0 || inflight_quarantined > 0) return 4;
  return 0;
}

JsonValue PostmortemReport::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("header_ok", header_ok);
  o.set("truncated", truncated);
  o.set("clean", exit_code() == 0);
  if (!header_ok) return o;
  o.set("reason", to_string(reason));
  o.set("signal", signal);
  o.set("captured_s", captured_s);

  JsonValue ring = JsonValue::object();
  ring.set("valid_records", valid_records);
  ring.set("quarantined", quarantined);
  ring.set("inflight_quarantined", inflight_quarantined);
  ring.set("empty_slots", empty_slots);
  o.set("ring", std::move(ring));

  o.set("state", state_to_json(state));

  JsonValue cs = JsonValue::array();
  for (const PostmortemCause& c : causes) {
    JsonValue e = JsonValue::object();
    e.set("cause", c.cause);
    e.set("score", c.score);
    e.set("evidence", c.evidence);
    cs.push_back(std::move(e));
  }
  o.set("causes", std::move(cs));

  if (failing.found) {
    JsonValue f = JsonValue::object();
    f.set("trace", failing.trace.to_hex());
    f.set("in_flight", failing.in_flight);
    f.set("seq", failing.seq);
    f.set("worker_id", failing.worker_id);
    f.set(failing.in_flight ? "age_s" : "latency_s", failing.age_s);
    f.set("deadline_s", failing.deadline_s);
    JsonValue stages = JsonValue::object();
    for (int i = 0; i < RequestContext::kNumStages; ++i)
      stages.set(RequestContext::stage_name(i), failing.stage_s[i]);
    f.set("stage_s", std::move(stages));
    o.set("failing_request", std::move(f));
  } else {
    o.set("failing_request", JsonValue());
  }

  JsonValue ds = JsonValue::array();
  for (const PostmortemDecision& d : decisions) {
    JsonValue e = JsonValue::object();
    e.set("ring_seq", static_cast<long>(d.ring_seq));
    e.set("t_s", d.t_s);
    e.set("trace", d.trace.to_hex());
    e.set("site", d.site);
    e.set("accepted", d.accepted);
    e.set("member_count", d.member_count);
    e.set("cost_delta_s", d.cost_delta_s);
    e.set("dominant", d.dominant);
    ds.push_back(std::move(e));
  }
  o.set("decisions", std::move(ds));
  o.set("decisions_trace_scoped", decisions_trace_scoped);
  return o;
}

std::string PostmortemReport::render() const {
  std::string out;
  out += "flight-recorder postmortem\n";
  if (!header_ok) {
    out += "  unreadable: not a flight-recorder bundle\n";
    return out;
  }
  out += strprintf("  reason: %s", to_string(reason));
  if (reason == IncidentReason::kSignal)
    out += strprintf(" (%s, signal %d)", signal_name(signal), signal);
  out += strprintf(", captured at t=%.3fs\n", captured_s);
  out += strprintf("  ring: %ld valid records, %ld quarantined, %ld empty slots",
                   valid_records, quarantined, empty_slots);
  if (inflight_quarantined > 0)
    out += strprintf(", %ld in-flight entries quarantined", inflight_quarantined);
  out += truncated ? " (TRUNCATED bundle)\n" : "\n";
  out += strprintf(
      "  state: requests=%lld missed=%lld degraded=%lld rejected=%lld "
      "retries=%lld queue=%lld/%lld workers=%lld inflight=%lld burn=%.3f\n",
      static_cast<long long>(state.requests_total),
      static_cast<long long>(state.deadline_missed_total),
      static_cast<long long>(state.degraded_total),
      static_cast<long long>(state.rejected_overload_total),
      static_cast<long long>(state.retries_total),
      static_cast<long long>(state.queue_depth),
      static_cast<long long>(state.queue_capacity),
      static_cast<long long>(state.workers),
      static_cast<long long>(state.inflight), state.worst_burn);

  out += "  ranked causes:\n";
  int rank = 1;
  for (const PostmortemCause& c : causes)
    out += strprintf("    %d. %-20s %.2f  %s\n", rank++, c.cause.c_str(), c.score,
                     c.evidence.c_str());

  if (failing.found) {
    char hex[33];
    failing.trace.format(hex);
    out += strprintf("  failing request: trace=%s seq=%ld worker=%d %s=%.3fs "
                     "deadline=%.3fs\n",
                     hex, failing.seq, failing.worker_id,
                     failing.in_flight ? "in-flight age" : "latency",
                     failing.age_s, failing.deadline_s);
    out += "    stage ledger:";
    for (int i = 0; i < RequestContext::kNumStages; ++i)
      if (failing.stage_s[i] > 0.0)
        out += strprintf(" %s=%.4fs", RequestContext::stage_name(i),
                         failing.stage_s[i]);
    out += "\n";
  } else {
    out += "  failing request: none identified (no in-flight entries, no "
           "serve records)\n";
  }

  out += strprintf("  last decisions (%s):\n",
                   decisions_trace_scoped ? "failing trace" : "global tail");
  if (decisions.empty()) out += "    (none in ring)\n";
  for (const PostmortemDecision& d : decisions) {
    char hex[33];
    d.trace.format(hex);
    out += strprintf("    [%llu] t=%.3fs site=%d %s members=%d dcost=%+.3e "
                     "dominant=%s trace=%.8s\n",
                     static_cast<unsigned long long>(d.ring_seq), d.t_s, d.site,
                     d.accepted ? "accepted" : "rejected", d.member_count,
                     d.cost_delta_s, d.dominant.c_str(), hex);
  }
  return out;
}

}  // namespace kf
