// PlanServer — serving-grade request lifecycle in front of the search.
//
// The ROADMAP's plan-service direction turns fusion search into a request/
// response system: callers ask "plan for (program, device), within this
// deadline" and must ALWAYS get a legal plan back, on time, no matter what
// the store, the injected faults, or the load are doing. The lifecycle:
//
//   1. Admission. A token bucket with a bounded virtual queue
//      (serve/admission.hpp) decides admit / queue / reject before any work
//      happens. A rejected request is still answered — with the always-legal
//      identity plan — so overload sheds work, not correctness.
//   2. Degradation ladder. An admitted request walks down until a rung
//      succeeds:
//        StoreHit        exact (program, device) fingerprint hit, re-validated
//                        against this process's legality checker — a stored
//                        plan that no longer checks out is evicted, never
//                        served;
//        PolishedStored  nearest stored plan for the same program (any
//                        device), repaired to legality and improved by the
//                        HGGA's steepest-descent local polish — the
//                        cross-device warm start;
//        FullSearch      SearchDriver under the request's remaining
//                        deadline/eval budget, retried with exponential
//                        backoff when a fault storm aborts an attempt
//                        (quarantined groups persist across attempts, so a
//                        retry converges instead of re-faulting);
//        TrivialFloor    the identity (no-fusion) plan — always legal, always
//                        available, the floor the ladder cannot fall past.
//      A request is *degraded* when it was rejected or served below its
//      natural rung (PolishedStored / TrivialFloor); FullSearch is the
//      normal cache-miss path, not a degradation.
//   3. Write-back. FullSearch / PolishedStored results are committed to the
//      store so the next request for the pair is a StoreHit. A store write
//      failure (torn/injected) degrades durability, never the response.
//
// Every request is one RequestContext (telemetry/request_context.hpp), the
// record every sink reads. It opens at admission with a deterministic
// 128-bit trace id installed thread-locally (TraceScope) for the request's
// duration, so every span, decision, metric exemplar and store journal
// event recorded downstream (SearchDriver, Objective, GroupCostCache,
// PlanStore) stamps the owning id with no API threading. The lifecycle is
// spanned (cat "serve", exported under Chrome-trace pid 4), each stage's
// deadline-budget consumption is charged to the record's ledger, and
// finish() hands the finished record to Stats, kfc-metrics
// (serve.requests_total, serve.rung_total.*, ...; the latency histogram's
// bucket exemplar carries the trace id), the SLO tracker, the flight
// recorder and the request's single canonical *wide event* (the
// "serve_request" JSONL line). `kfc serve-batch` replays a JSONL request
// stream through this class and reports the distribution.
//
// Concurrency (PR "worker-pool serving engine"): serve() is fully
// concurrent — many workers (serve/serve_engine.hpp) run requests at once.
// The shared state is fine-grained: per-(program, device) evaluation
// contexts are built once under a std::call_once slot and then immutable;
// Stats sit behind their own mutex; the token bucket (not itself
// thread-safe) behind another; the sequence counter is atomic; the store
// and every telemetry sink are thread-safe on their own. Concurrent misses
// on the same (program fingerprint, device) key *coalesce*: the first
// becomes the leader and runs the miss ladder, the rest park on a
// condition variable and receive the leader's plan when it publishes
// (result.coalesced = true) — one search fans out to all waiters, which is
// the microseconds-repeat-program story under load. Requests arriving
// through the engine additionally carry their enqueue time (queue wait is
// charged against the deadline and the stage ledger) and a worker id, and
// a full engine queue is answered with the rejected_overload floor.
//
// Time and sleep are injectable (monotone seconds), so tests drive the
// bucket, deadlines and backoff with a fake clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "search/driver.hpp"
#include "serve/admission.hpp"
#include "store/plan_store.hpp"
#include "telemetry/request_context.hpp"

namespace kf {

struct PlanContext;  // serve/plan_context.hpp

struct ServeRequest {
  double deadline_s = 0.0;   ///< wall budget; <= 0: server default
  long max_evaluations = 0;  ///< eval budget for FullSearch; <= 0: server default

  // Stamped by the serving engine, not by callers: when a request arrives
  // through a worker pool, latency and the deadline clock start at enqueue
  // time, and the result records which worker served it.
  double enqueue_s = -1.0;  ///< server-clock enqueue time; < 0: direct call
  int worker_id = -1;       ///< serving worker; -1: direct call
};

/// The request's record plus the plan it was answered with.
struct ServeResult : RequestContext {
  FusionPlan plan;
};

struct PlanServerConfig {
  TokenBucket::Config admission;  ///< rate_per_s <= 0: admission off
  int max_queue_depth = 8;

  double default_deadline_s = 2.0;
  long default_max_evaluations = 200000;

  /// FullSearch retry policy: a fault-storm-aborted attempt is retried after
  /// backoff_base_s * 2^attempt (quarantine persists, so retries converge).
  int max_retries = 2;
  double backoff_base_s = 0.005;
  /// Faults per attempt before the driver declares a storm and the server
  /// backs off.
  long fault_storm_evals = 64;
  /// Below this remaining budget the FullSearch rung is skipped entirely —
  /// a search that cannot finish is worse than an honest degradation.
  double min_search_budget_s = 0.010;

  SearchMethod method = SearchMethod::Greedy;
  HggaConfig hgga;          ///< used when method == Hgga

  /// Redundant-array budget of the expandable-array relaxation applied to
  /// incoming programs: negative is unlimited, 0 is no expansion (matches
  /// `kfc search` defaults so served plans and offline plans share keys).
  double mem_budget = -1.0;

  /// Observability (nullable, must outlive the server).
  const Telemetry* telemetry = nullptr;

  /// Monotone clock / sleep in seconds; defaults are real time. Tests
  /// inject fakes to drive admission, deadlines and backoff deterministically.
  std::function<double()> clock;
  std::function<void(double)> sleep;

  /// TEST ONLY (the PlanStore::test_tear_next_append idiom): called by a
  /// coalescing *leader* right before it runs the miss ladder, so tests can
  /// hold the leader until followers are provably parked and make the
  /// fan-out deterministic instead of timing-dependent.
  std::function<void()> test_coalesce_hold;
};

class PlanServer {
 public:
  /// `store` must outlive the server.
  PlanServer(PlanStore& store, PlanServerConfig config);
  ~PlanServer();

  /// Serves one request: admission, then the degradation ladder. Never
  /// throws on faults, storms, store corruption or overload — the result's
  /// plan is always legal for the (expanded) program. Throws only on
  /// precondition violations (e.g. an empty program).
  ServeResult serve(const Program& program, const DeviceSpec& device,
                    const ServeRequest& request = ServeRequest());

  /// Answers a request that never made it into the system (full engine
  /// queue, or a drained engine) with the rejected_overload floor: an
  /// always-legal identity plan, fully accounted (stats, SLO, recorder,
  /// wide event) like any other response. Cheap — no admission, no
  /// ladder — so it is safe to call inline on a submitter's thread.
  ServeResult reject_overload(const Program& program, const DeviceSpec& device,
                              const ServeRequest& request = ServeRequest());

  struct Stats {
    long requests = 0;
    long store_hits = 0;
    long polished = 0;
    long full_searches = 0;
    long trivial = 0;
    long degraded = 0;
    long queued = 0;
    long rejected = 0;
    long rejected_overload = 0;  ///< shed at the engine queue mouth
    long retries = 0;
    long deadline_missed = 0;
    long writebacks = 0;
    long writeback_failures = 0;  ///< store put faults survived
    long invalid_stored = 0;      ///< stored plans evicted as no-longer-legal
    long coalesced = 0;           ///< requests answered by another's search
    long coalesce_timeouts = 0;   ///< waiters whose leader missed their deadline
    long coalesce_waiting = 0;    ///< waiters parked right now (point-in-time)
  };
  Stats stats() const;

  PlanStore& store() noexcept { return store_; }
  const Telemetry* telemetry() const noexcept { return config_.telemetry; }
  /// The server's monotone clock (the injected one in tests) — the engine
  /// stamps ServeRequest::enqueue_s in this domain.
  double now() const { return config_.clock(); }

 private:
  /// Map slot for a key's PlanContext, built once and reused across
  /// requests (its objective's group-cost cache makes repeats cheap). The
  /// slot is created under the map lock, the (expensive) context inside it
  /// under std::call_once — so two requests racing on a new key build it
  /// exactly once, without holding the map lock across expansion + checker
  /// construction.
  struct ContextSlot;
  /// One in-flight miss per key: the leader's rendezvous with its waiters.
  struct InFlight;

  using ContextKey = std::pair<std::uint64_t, std::uint64_t>;

  PlanStore& store_;
  PlanServerConfig config_;

  std::mutex bucket_mu_;  ///< TokenBucket is not itself thread-safe
  TokenBucket bucket_;

  std::mutex contexts_mu_;
  std::map<ContextKey, std::shared_ptr<ContextSlot>> contexts_;

  std::mutex inflight_mu_;
  std::map<ContextKey, std::shared_ptr<InFlight>> inflight_;

  mutable std::mutex stats_mu_;
  Stats stats_;

  std::atomic<long> seq_{0};
  std::atomic<int> inflight_requests_{0};  ///< serve.inflight gauge source
  std::atomic<long> coalesce_waiting_{0};

  const PlanContext& context(const Program& program, const DeviceSpec& device);
  /// Opens the record of one request: effective deadline, worker, identity
  /// (seq, fingerprints, trace id) and the identity-plan baseline every
  /// rung can fall back to. Returns the latency clock's origin: the enqueue
  /// time for engine-submitted requests, else `dequeue_s`.
  double begin(const PlanContext& ctx, const ServeRequest& request,
               double dequeue_s, ServeResult& result);
  bool plan_usable(const PlanContext& ctx, const std::string& plan_text,
                   FusionPlan* out) const;
  /// Rungs 2..4 (polish / full search / floor) for a confirmed store miss;
  /// sets result.{rung, plan, cost_s, retries}. Write-back and waiter
  /// publication happen in the caller.
  void miss_ladder(const PlanContext& ctx, const ServeRequest& request,
                   double start_s, ServeResult& result);
  /// Hands the leader's outcome to every parked waiter and retires the
  /// in-flight entry for `key`.
  void publish_flight(const std::shared_ptr<InFlight>& flight,
                      const ContextKey& key, const ServeResult& result);
  void write_back(const PlanContext& ctx, ServeResult& result);
  /// Closes the record (latency, deadline, degradation) and hands it to
  /// every sink.
  void finish(ServeResult& result, double start_s);
};

}  // namespace kf
