// RequestContext — the one record of a served request.
//
// The serving path (serve/plan_server.hpp) opens one RequestContext per
// request and every serving sink reads it: PlanServer::Stats, the metric
// counters, the SLO tracker, the flight recorder and the "serve_request"
// wide event. It carries:
//
//   * a 128-bit TraceId, derived deterministically from the request ordinal
//     and the (program, device) fingerprints so replayed batches produce
//     identical traces,
//   * the outcome: ladder rung, admission decision, latency, deadline state,
//     retries and the served plan's cost against the identity baseline, and
//   * a per-stage ledger of how much of the request's deadline each
//     lifecycle stage consumed (admission, queue wait, store lookup, polish,
//     search, backoff, write-back).
//
// to_event() is the only writer of the "serve_request" JSONL line and
// from_event() its only reader (`kfc slo --events`, `kfc top`, RunReport).
//
// The trace id propagates *implicitly*: `TraceScope` installs it in a
// thread-local slot for the duration of the request, and every sink that
// records during that window stamps it —
//
//   * SpanTracer stamps each opened span (exported as a "trace_id" arg in
//     the Chrome trace),
//   * DecisionLog stamps each decision,
//   * TraceLog stamps each emitted event line ("trace":"<32 hex>"),
//   * MetricsRegistry captures it as the exemplar of histogram buckets.
//
// so SearchDriver, Objective, GroupCostCache and PlanStore need no API
// change to participate: their existing telemetry calls inherit the owning
// request's id. The thread-local is a trivially-copyable 16-byte value;
// reading or scoping it allocates nothing, keeping the disabled-telemetry
// path at the usual one-branch/zero-allocation contract.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace kf {

class JsonValue;
class TraceLog;

/// Which rung of the degradation ladder answered a request.
enum class ServeRung { StoreHit, PolishedStored, FullSearch, TrivialFloor };
inline constexpr int kNumServeRungs = 4;
const char* to_string(ServeRung rung) noexcept;

/// RejectedOverload is the queue-full outcome: the request never reached
/// the token bucket because the engine's bounded queue was full (or the
/// engine was drained) — it is still answered, with the identity floor.
enum class AdmissionOutcome { Admitted, Queued, Rejected, RejectedOverload };
const char* to_string(AdmissionOutcome outcome) noexcept;

/// 128-bit trace identifier. Zero (the default) means "no active trace";
/// derive() never returns zero.
struct TraceId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool valid() const noexcept { return (hi | lo) != 0; }

  /// Writes the canonical 32-char lowercase hex form plus a NUL terminator
  /// into `out` (no allocation — usable on hot paths).
  void format(char out[33]) const noexcept;

  /// Allocating convenience over format().
  std::string to_hex() const;

  /// Parses the 32-hex-char form; returns the null id on malformed input.
  static TraceId from_hex(std::string_view hex) noexcept;

  /// Deterministic derivation (splitmix64 mixing) from a request ordinal
  /// and the (program, device) fingerprints. Never returns the null id.
  static TraceId derive(std::uint64_t seq, std::uint64_t program_fp,
                        std::uint64_t device_fp) noexcept;

  friend bool operator==(const TraceId& a, const TraceId& b) noexcept {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const TraceId& a, const TraceId& b) noexcept {
    return !(a == b);
  }
  friend bool operator<(const TraceId& a, const TraceId& b) noexcept {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};

/// The calling thread's active trace id (the null id when no request is in
/// flight on this thread). Never allocates.
TraceId current_trace() noexcept;

/// RAII installer for the thread-local active trace; restores the previous
/// value on destruction so nested scopes (a request served from inside
/// another instrumented region) unwind correctly.
class [[nodiscard]] TraceScope {
 public:
  explicit TraceScope(TraceId id) noexcept;
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceId prev_;
};

/// One served request: identity, outcome and the stage ledger the wide
/// event reports as "deadline budget consumed per stage".
struct RequestContext {
  /// Lifecycle stages of one served request, in ladder order.
  enum Stage {
    kAdmission = 0,  ///< admission decision (token bucket)
    kQueueWait,      ///< time parked in the virtual queue
    kStoreGet,       ///< rung 1 store lookup + re-validation
    kPolish,         ///< rung 2 repair + local polish
    kSearch,         ///< rung 3 full search attempts
    kBackoff,        ///< inter-attempt fault-storm backoff
    kCoalesceWait,   ///< parked on another request's in-flight search
    kWriteBack,      ///< store write-back of the result
    kNumStages
  };
  static const char* stage_name(int stage) noexcept;

  TraceId trace_id;
  long seq = 0;            ///< 1-based request ordinal on the owning server
  std::uint64_t program_fp = 0;  ///< expanded-program fingerprint (store key)
  std::uint64_t device_fp = 0;
  int num_kernels = 0;
  double cost_s = 0.0;           ///< plan cost under this process's objective
  double baseline_cost_s = 0.0;  ///< identity-plan cost (the floor's cost)
  ServeRung rung = ServeRung::TrivialFloor;
  AdmissionOutcome admission = AdmissionOutcome::Admitted;
  bool degraded = false;   ///< rejected, or served below the natural rung
  int retries = 0;         ///< FullSearch attempts beyond the first
  double queue_wait_s = 0.0;
  double latency_s = 0.0;  ///< admission decision through response, waits included
  double deadline_s = 0.0; ///< effective deadline the request ran under
  bool deadline_met = true;
  bool coalesced = false;  ///< answered by another request's in-flight search
  int worker_id = -1;      ///< engine worker that served this; -1: direct call
  /// Deadline budget consumed per lifecycle stage; sums to <= latency_s
  /// (the remainder is uninstrumented response-path time).
  double stage_s[kNumStages] = {};

  /// Adds `seconds` (clamped at zero) to a stage's ledger entry.
  void charge(Stage stage, double seconds) noexcept {
    if (seconds > 0.0) stage_s[stage] += seconds;
  }

  double speedup() const noexcept {
    return cost_s > 0.0 ? baseline_cost_s / cost_s : 0.0;
  }
  double deadline_frac_used() const noexcept {
    return deadline_s > 0.0 ? latency_s / deadline_s : 0.0;
  }

  friend bool operator==(const RequestContext&,
                         const RequestContext&) = default;

  /// Emits the request's "serve_request" wide event. The line's "trace"
  /// field is TraceLog's stamp, so call it under this request's TraceScope.
  void to_event(TraceLog& log) const;

  /// Decodes a "serve_request" line written by to_event(); absent fields
  /// keep their defaults. nullopt for any other event type or an unknown
  /// rung or admission name.
  static std::optional<RequestContext> from_event(const JsonValue& event);
};

}  // namespace kf
