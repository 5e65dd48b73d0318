#include "serve/plan_server.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <thread>
#include <utility>

#include "search/population.hpp"
#include "serve/plan_context.hpp"
#include "store/fingerprint.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace kf {

struct PlanServer::ContextSlot {
  std::once_flag once;
  std::unique_ptr<PlanContext> ctx;
};

/// Rendezvous between a coalescing leader and its waiters. The leader
/// fills the outcome under `mu` and flips `done`; waiters time out against
/// their own remaining deadline, so a stuck leader degrades its waiters to
/// the floor instead of hanging them.
struct PlanServer::InFlight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  ServeRung rung = ServeRung::TrivialFloor;
  FusionPlan plan;
  double cost_s = 0.0;
  int retries = 0;
};

namespace {

/// The always-legal floor: the identity plan at its baseline cost.
void serve_floor(ServeResult& result) {
  result.rung = ServeRung::TrivialFloor;
  result.plan = FusionPlan(result.num_kernels);
  result.cost_s = result.baseline_cost_s;
}

/// serve.inflight as a real concurrent-request count (it was a 0/1 marker
/// when serve() was serial).
class InflightGauge {
 public:
  InflightGauge(std::atomic<int>& count, const Telemetry* telemetry)
      : count_(count), telemetry_(telemetry) {
    set(count_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  ~InflightGauge() {
    set(count_.fetch_sub(1, std::memory_order_relaxed) - 1);
  }

 private:
  void set(int value) const {
    if (telemetry_ != nullptr && telemetry_->metrics != nullptr)
      telemetry_->metrics->gauge("serve.inflight", static_cast<double>(value));
  }
  std::atomic<int>& count_;
  const Telemetry* telemetry_;
};

/// RAII owner of a flight-recorder in-flight slot: marks the request busy
/// for the watchdog / signal dump, clears on every exit path.
class InflightMark {
 public:
  InflightMark(FlightRecorder* recorder, const RequestContext& rc,
               double start_s)
      : recorder_(recorder) {
    if (recorder_ != nullptr)
      slot_ = recorder_->inflight_begin(rc.worker_id, rc.trace_id, rc.seq,
                                        rc.deadline_s, start_s);
  }
  ~InflightMark() {
    if (recorder_ != nullptr) recorder_->inflight_end(slot_);
  }
  /// Republishes the stage ledger; called at stage boundaries so a crash
  /// mid-request dumps a current ledger, not the admission-time zeros.
  void update(const RequestContext& rc) const noexcept {
    if (recorder_ != nullptr) recorder_->inflight_update(slot_, rc);
  }

 private:
  FlightRecorder* recorder_ = nullptr;
  int slot_ = -1;
};

}  // namespace

PlanServer::PlanServer(PlanStore& store, PlanServerConfig config)
    : store_(store), config_(std::move(config)), bucket_(config_.admission) {
  KF_REQUIRE(config_.default_deadline_s > 0.0,
             "PlanServer: default_deadline_s must be > 0");
  if (!config_.clock) {
    auto watch = std::make_shared<Stopwatch>();
    config_.clock = [watch] { return watch->elapsed_s(); };
  }
  if (!config_.sleep) {
    config_.sleep = [](double s) {
      if (s > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(s));
    };
  }
  if (config_.telemetry != nullptr && config_.telemetry->metrics != nullptr) {
    // Explicit buckets so the Prometheus exporter can render the serve
    // latency and queue-wait histograms (with per-bucket trace-id
    // exemplars). Declared before the first request for exact counts.
    config_.telemetry->metrics->declare_buckets(
        "serve.latency_seconds",
        {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
         5.0, 10.0});
    config_.telemetry->metrics->declare_buckets(
        "serve.queue_wait_seconds",
        {0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
         0.1, 0.25, 0.5, 1.0});
  }
}

PlanServer::~PlanServer() = default;

const PlanContext& PlanServer::context(const Program& program,
                                       const DeviceSpec& device) {
  KF_REQUIRE(program.num_kernels() > 0, "PlanServer: empty program");
  // Keyed on the *raw* program so the lookup never re-runs expansion; the
  // stored PlanKey inside uses the expanded fingerprint.
  const ContextKey cache_key = std::make_pair(program_fingerprint(program),
                                              device_fingerprint(device));
  std::shared_ptr<ContextSlot> slot;
  {
    std::lock_guard<std::mutex> lock(contexts_mu_);
    std::shared_ptr<ContextSlot>& entry = contexts_[cache_key];
    if (!entry) entry = std::make_shared<ContextSlot>();
    slot = entry;
  }
  // Expansion + checker construction run outside the map lock; racing
  // requests on a brand-new key build the stack exactly once and the
  // losers block only on this key, not on the whole map.
  std::call_once(slot->once, [&] {
    slot->ctx = std::make_unique<PlanContext>(program, device, config_.mem_budget);
    slot->ctx->objective.set_telemetry(config_.telemetry);
  });
  return *slot->ctx;
}

double PlanServer::begin(const PlanContext& ctx, const ServeRequest& request,
                         double dequeue_s, ServeResult& result) {
  result.worker_id = request.worker_id;
  result.deadline_s =
      request.deadline_s > 0.0 ? request.deadline_s : config_.default_deadline_s;
  result.program_fp = ctx.key.program_fp;
  result.device_fp = ctx.key.device_fp;
  result.num_kernels = ctx.expansion.program.num_kernels();
  result.baseline_cost_s = ctx.objective.baseline_cost();
  result.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  result.trace_id = TraceId::derive(static_cast<std::uint64_t>(result.seq),
                                    ctx.key.program_fp, ctx.key.device_fp);
  return request.enqueue_s >= 0.0 ? std::min(request.enqueue_s, dequeue_s)
                                  : dequeue_s;
}

bool PlanServer::plan_usable(const PlanContext& ctx, const std::string& plan_text,
                             FusionPlan* out) const {
  const int n = ctx.expansion.program.num_kernels();
  FusionPlan plan;
  try {
    plan = FusionPlan::parse(n, plan_text);
  } catch (const std::exception&) {
    return false;
  }
  if (!ctx.checker.plan_is_legal(plan)) return false;
  *out = std::move(plan);
  return true;
}

void PlanServer::write_back(const PlanContext& ctx, ServeResult& result) {
  const double mark = config_.clock();
  SpanTracer::Scope span =
      scoped_span(config_.telemetry, "serve.write_back", "serve");
  StoredPlan stored;
  stored.key = ctx.key;
  stored.num_kernels = ctx.expansion.program.num_kernels();
  stored.plan_text = result.plan.to_string();
  stored.best_cost_s = result.cost_s;
  stored.baseline_cost_s = result.baseline_cost_s;
  try {
    store_.put(std::move(stored));
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.writebacks;
  } catch (const StoreError&) {
    // A torn/injected store write degrades durability, never the response.
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.writeback_failures;
    }
    const Telemetry* t = config_.telemetry;
    if (t != nullptr && t->metrics != nullptr)
      t->metrics->count("serve.store_writeback_failures");
  }
  result.charge(RequestContext::kWriteBack, config_.clock() - mark);
}

void PlanServer::finish(ServeResult& result, double start_s) {
  result.latency_s = std::max(0.0, config_.clock() - start_s);
  result.deadline_met = result.latency_s <= result.deadline_s;
  result.degraded = result.admission == AdmissionOutcome::Rejected ||
                    result.admission == AdmissionOutcome::RejectedOverload ||
                    result.rung == ServeRung::PolishedStored ||
                    result.rung == ServeRung::TrivialFloor;

  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.requests;
    switch (result.rung) {
      case ServeRung::StoreHit: ++stats_.store_hits; break;
      case ServeRung::PolishedStored: ++stats_.polished; break;
      case ServeRung::FullSearch: ++stats_.full_searches; break;
      case ServeRung::TrivialFloor: ++stats_.trivial; break;
    }
    if (result.degraded) ++stats_.degraded;
    if (result.admission == AdmissionOutcome::Queued) ++stats_.queued;
    if (result.admission == AdmissionOutcome::Rejected) ++stats_.rejected;
    if (result.admission == AdmissionOutcome::RejectedOverload)
      ++stats_.rejected_overload;
    if (result.coalesced) ++stats_.coalesced;
    stats_.retries += result.retries;
    if (!result.deadline_met) ++stats_.deadline_missed;
  }

  const Telemetry* t = config_.telemetry;
  if (t == nullptr) return;
  if (t->slo != nullptr) t->slo->record(result, config_.clock());
  if (MetricsRegistry* m = t->metrics; m != nullptr) {
    m->count("serve.requests_total");
    m->count(std::string("serve.rung_total.") + to_string(result.rung));
    if (result.degraded) m->count("serve.degraded_total");
    if (result.admission == AdmissionOutcome::Queued)
      m->count("serve.queued_total");
    if (result.admission == AdmissionOutcome::Rejected)
      m->count("serve.admission_rejected_total");
    if (result.admission == AdmissionOutcome::RejectedOverload)
      m->count("serve.queue_rejected_total");
    if (result.coalesced) m->count("serve.coalesced_total");
    if (result.retries > 0) m->count("serve.retries_total", result.retries);
    if (!result.deadline_met) m->count("serve.deadline_missed_total");
    // Observed while the request's TraceScope is active: the histogram
    // bucket this sample lands in captures the trace id as its exemplar.
    m->observe("serve.latency_seconds", result.latency_s);
  }
  if (t->recorder != nullptr) {
    // The black-box twin of the wide event below.
    t->recorder->record_serve(result);
    t->recorder->state().inflight.store(
        inflight_requests_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  // The request's single canonical wide event.
  if (t->wants_trace()) result.to_event(*t->trace);
}

void PlanServer::miss_ladder(const PlanContext& ctx, const ServeRequest& request,
                             double start_s, ServeResult& result) {
  const int n = ctx.expansion.program.num_kernels();

  // ---- rung 2: polish the nearest stored plan (same program, any device) ----
  {
    double mark = config_.clock();
    SpanTracer::Scope span =
        scoped_span(config_.telemetry, "serve.polish_stored", "serve");
    std::vector<StoredPlan> candidates =
        store_.plans_for_program(ctx.key.program_fp);
    // Newest revision first: the most recently found plan is the best guess.
    std::sort(candidates.begin(), candidates.end(),
              [](const StoredPlan& a, const StoredPlan& b) {
                return a.revision > b.revision;
              });
    for (const StoredPlan& candidate : candidates) {
      if (candidate.key == ctx.key) continue;  // the evicted exact entry
      if (candidate.num_kernels != n) continue;
      FusionPlan plan;
      try {
        plan = FusionPlan::parse(n, candidate.plan_text);
      } catch (const std::exception&) {
        continue;
      }
      // A plan legal on its own device keeps its partition: repair only
      // splits groups this device's checker rejects.
      if (repair_plan(ctx.checker, plan) > 0) plan.canonicalize();
      // Polish under the request's deadline, with the search rung's
      // headroom; below the search rung's floor, serve the repaired plan.
      double cost = 0.0;
      const double remaining = result.deadline_s - (config_.clock() - start_s);
      if (remaining >= config_.min_search_budget_s) {
        SearchControl::Limits limits;
        limits.deadline_s = remaining * 0.8;
        SearchControl control(ctx.objective, limits);
        control.set_telemetry(config_.telemetry);
        local_polish(ctx.objective, plan, &cost, config_.telemetry, &control);
      } else {
        cost = ctx.objective.plan_cost(plan);
      }
      result.rung = ServeRung::PolishedStored;
      result.plan = std::move(plan);
      result.cost_s = cost;
      span.end();
      result.charge(RequestContext::kPolish, config_.clock() - mark);
      return;
    }
    span.end();
    result.charge(RequestContext::kPolish, config_.clock() - mark);
  }

  // ---- rung 3: full search under the remaining budget, with retries ----
  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    const double remaining = result.deadline_s - (config_.clock() - start_s);
    if (remaining < config_.min_search_budget_s) break;

    DriverConfig driver;
    driver.method = config_.method;
    driver.hgga = config_.hgga;
    // The rest of the remaining deadline is headroom for costing,
    // write-back and the response path.
    driver.limits.deadline_s = remaining * 0.8;
    driver.limits.max_evaluations = request.max_evaluations > 0
                                        ? request.max_evaluations
                                        : config_.default_max_evaluations;
    driver.limits.max_faults = config_.fault_storm_evals;
    driver.telemetry = config_.telemetry;

    double mark = config_.clock();
    SpanTracer::Scope span =
        scoped_span(config_.telemetry, "serve.search_attempt", "serve");
    SearchResult search = SearchDriver(ctx.objective, driver).run();
    span.end();
    result.charge(RequestContext::kSearch, config_.clock() - mark);
    const bool stormed =
        search.fault_report.stop_reason == StopReason::FaultStorm;
    if (!stormed && ctx.checker.plan_is_legal(search.best)) {
      result.rung = ServeRung::FullSearch;
      result.plan = std::move(search.best);
      result.cost_s = search.best_cost_s;
      return;
    }
    // Fault storm: back off exponentially and retry. The objective's
    // quarantine survives the attempt, so the retry walks around the
    // faulting groups instead of re-triggering them.
    if (attempt < config_.max_retries) {
      ++result.retries;
      const double backoff = std::min(
          config_.backoff_base_s * static_cast<double>(1 << attempt),
          std::max(0.0, result.deadline_s - (config_.clock() - start_s)));
      double mark2 = config_.clock();
      {
        SpanTracer::Scope span2 =
            scoped_span(config_.telemetry, "serve.backoff", "serve");
        config_.sleep(backoff);
      }
      result.charge(RequestContext::kBackoff, config_.clock() - mark2);
    }
  }

  // ---- rung 4: the always-legal floor ----
  serve_floor(result);
}

void PlanServer::publish_flight(const std::shared_ptr<InFlight>& flight,
                                const ContextKey& key,
                                const ServeResult& result) {
  // Retire the entry first so a request arriving after publication starts a
  // fresh flight (it will usually be a StoreHit by then anyway) instead of
  // joining a finished one.
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(key);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->rung = result.rung;
    flight->plan = result.plan;
    flight->cost_s = result.cost_s;
    flight->retries = result.retries;
  }
  flight->cv.notify_all();
}

ServeResult PlanServer::reject_overload(const Program& program,
                                        const DeviceSpec& device,
                                        const ServeRequest& request) {
  const double dequeue_s = config_.clock();
  const PlanContext& ctx = context(program, device);
  ServeResult result;
  const double start = begin(ctx, request, dequeue_s, result);
  TraceScope trace_scope(result.trace_id);
  InflightGauge gauge(inflight_requests_, config_.telemetry);
  result.admission = AdmissionOutcome::RejectedOverload;
  serve_floor(result);
  finish(result, start);
  return result;
}

ServeResult PlanServer::serve(const Program& program, const DeviceSpec& device,
                              const ServeRequest& request) {
  // Engine-submitted requests carry their enqueue timestamp: the latency
  // and deadline clocks start when the request entered the system, not
  // when a worker picked it up, so time spent queued counts against the
  // deadline exactly like time spent searching.
  const double dequeue_s = config_.clock();
  // The context (and its baseline) is needed on every path — even a
  // rejected request answers with a costed identity plan.
  const PlanContext& ctx = context(program, device);
  ServeResult result;
  const double start = begin(ctx, request, dequeue_s, result);

  // The request's trace id, installed thread-locally so every sink reached
  // below this frame (spans, decisions, trace events, store journal,
  // histogram exemplars) stamps it without any parameter threading.
  // TraceScope costs a 16-byte TLS swap — nothing when telemetry is off.
  TraceScope trace_scope(result.trace_id);
  SpanTracer::Scope request_span =
      scoped_span(config_.telemetry, "serve.request", "serve");
  InflightGauge gauge(inflight_requests_, config_.telemetry);
  // Publishes this request into the flight recorder's in-flight table so a
  // fatal signal or a watchdog stall scan can name it while it runs.
  InflightMark inflight_mark(
      config_.telemetry != nullptr ? config_.telemetry->recorder : nullptr,
      result, start);
  if (const Telemetry* t = config_.telemetry; t != nullptr && t->wants_trace()) {
    // Admission-side marker: `kfc top` pairs these with "serve_request"
    // completions (same trace id) to count in-flight requests.
    t->trace->emit("serve_start", [&](TraceEvent& e) {
      e.num("seq", result.seq).num("deadline_s", result.deadline_s);
    });
  }

  // ---- engine queue wait (already spent before this frame) ----
  if (dequeue_s > start) {
    const double waited = dequeue_s - start;
    result.queue_wait_s += waited;
    result.charge(RequestContext::kQueueWait, waited);
    if (const Telemetry* t = config_.telemetry;
        t != nullptr && t->metrics != nullptr)
      t->metrics->observe("serve.queue_wait_seconds", waited);
  }

  // ---- admission ----
  double mark = config_.clock();
  TokenBucket::Decision decision;
  {
    SpanTracer::Scope span =
        scoped_span(config_.telemetry, "serve.admission", "serve");
    {
      // The token bucket is cheap arithmetic but not thread-safe itself.
      std::lock_guard<std::mutex> bucket_lock(bucket_mu_);
      decision = bucket_.admit(mark, config_.max_queue_depth);
    }
    // A queued request whose wait alone would blow the (remaining) deadline
    // is shed up front — honest rejection beats a guaranteed miss.
    const double remaining = result.deadline_s - (config_.clock() - start);
    if (decision.admitted && decision.wait_s >= remaining)
      decision.admitted = false;
  }
  result.charge(RequestContext::kAdmission, config_.clock() - mark);
  inflight_mark.update(result);
  if (!decision.admitted) {
    result.admission = AdmissionOutcome::Rejected;
    serve_floor(result);
    finish(result, start);
    return result;
  }
  if (decision.wait_s > 0.0) {
    result.admission = AdmissionOutcome::Queued;
    result.queue_wait_s += decision.wait_s;
    mark = config_.clock();
    {
      SpanTracer::Scope span =
          scoped_span(config_.telemetry, "serve.queue_wait", "serve");
      config_.sleep(decision.wait_s);
    }
    result.charge(RequestContext::kQueueWait, config_.clock() - mark);
  }

  // ---- rung 1: exact store hit ----
  {
    mark = config_.clock();
    SpanTracer::Scope span =
        scoped_span(config_.telemetry, "serve.store_get", "serve");
    if (std::optional<StoredPlan> stored = store_.get(ctx.key)) {
      FusionPlan plan;
      if (plan_usable(ctx, stored->plan_text, &plan)) {
        result.rung = ServeRung::StoreHit;
        result.plan = std::move(plan);
        result.cost_s = ctx.objective.plan_cost(result.plan);
        span.end();
        result.charge(RequestContext::kStoreGet, config_.clock() - mark);
        finish(result, start);
        return result;
      }
      // Stored but no longer legal under this process's checker: evict, and
      // fall through the ladder as a miss.
      {
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++stats_.invalid_stored;
      }
      try {
        store_.erase(ctx.key);
      } catch (const StoreError&) {
        // eviction is advisory; a wedged store must not fail the request
      }
      const Telemetry* t = config_.telemetry;
      if (t != nullptr && t->metrics != nullptr)
        t->metrics->count("serve.invalid_stored_total");
    }
    span.end();
    result.charge(RequestContext::kStoreGet, config_.clock() - mark);
    inflight_mark.update(result);
  }

  // ---- coalescing: concurrent misses on one key collapse to one search ----
  const ContextKey flight_key{ctx.key.program_fp, ctx.key.device_fp};
  std::shared_ptr<InFlight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    std::shared_ptr<InFlight>& entry = inflight_[flight_key];
    if (!entry) {
      entry = std::make_shared<InFlight>();
      leader = true;
    }
    flight = entry;
  }

  if (!leader) {
    // Follower: park until the leader publishes, bounded by this request's
    // own remaining deadline (real-time wait — coalescing only happens
    // under real concurrency, never under the tests' fake clocks).
    mark = config_.clock();
    SpanTracer::Scope span =
        scoped_span(config_.telemetry, "serve.coalesce_wait", "serve");
    const double remaining =
        std::max(0.0, result.deadline_s - (config_.clock() - start));
    bool published = false;
    {
      std::unique_lock<std::mutex> fl(flight->mu);
      coalesce_waiting_.fetch_add(1, std::memory_order_relaxed);
      published = flight->cv.wait_for(
          fl, std::chrono::duration<double>(remaining),
          [&] { return flight->done; });
      coalesce_waiting_.fetch_sub(1, std::memory_order_relaxed);
      if (published) {
        result.coalesced = true;
        result.rung = flight->rung;
        result.plan = flight->plan;
        result.cost_s = flight->cost_s;
        result.retries = flight->retries;
      }
    }
    span.end();
    result.charge(RequestContext::kCoalesceWait, config_.clock() - mark);
    inflight_mark.update(result);
    if (!published) {
      // The leader could not publish inside OUR deadline: honest floor.
      {
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++stats_.coalesce_timeouts;
      }
      if (const Telemetry* t = config_.telemetry;
          t != nullptr && t->recorder != nullptr)
        t->recorder->state().coalesce_timeout_total.fetch_add(
            1, std::memory_order_relaxed);
      serve_floor(result);
    }
    finish(result, start);
    return result;
  }

  // Leader. Between our store miss and winning the flight, a previous
  // leader may have published and written back — re-probe once so that
  // race serves a StoreHit instead of re-searching.
  if (std::optional<StoredPlan> stored = store_.get(ctx.key)) {
    FusionPlan plan;
    if (plan_usable(ctx, stored->plan_text, &plan)) {
      result.rung = ServeRung::StoreHit;
      result.plan = std::move(plan);
      result.cost_s = ctx.objective.plan_cost(result.plan);
      publish_flight(flight, flight_key, result);
      finish(result, start);
      return result;
    }
  }
  if (config_.test_coalesce_hold) config_.test_coalesce_hold();

  try {
    miss_ladder(ctx, request, start, result);
    inflight_mark.update(result);
    if (result.rung == ServeRung::PolishedStored ||
        result.rung == ServeRung::FullSearch)
      write_back(ctx, result);
  } catch (...) {
    // The ladder is no-throw by design; if that ever breaks, waiters still
    // get the always-legal floor instead of hanging to their deadlines.
    serve_floor(result);
    publish_flight(flight, flight_key, result);
    throw;
  }
  publish_flight(flight, flight_key, result);
  finish(result, start);
  return result;
}

PlanServer::Stats PlanServer::stats() const {
  Stats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  out.coalesce_waiting = coalesce_waiting_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace kf
