// FlightRecorder — the serving path's always-on black box.
//
// A bounded, lock-striped ring of fixed-size binary records that
// continuously captures the last N wide serve events, span summaries,
// decision entries, periodic counter snapshots and trigger markers, each
// stamped with the owning request's TraceId. Recording is lock-free: a
// writer builds its record locally, claims a slot with one fetch_add on its
// stripe's cursor and publishes the record into it word by word as relaxed
// atomic stores; dumps read slots word by word the same way. A concurrent
// dump may observe a torn slot, which the per-record CRC32 detects at parse
// time instead of a lock preventing it at write time. Exact totals survive
// eviction: per-stripe write counters give recorded()/dropped() without
// scanning.
//
// On trigger the recorder writes a self-contained incident bundle:
//
//   kfc-flight-recorder/v1\n        one text identification line
//   BundleHeader                    geometry + StateSnapshot, CRC-framed
//   InflightDump x kInflightSlots   per-worker in-flight table, CRC each
//   FlightRecord x (stripes*slots)  the raw ring, CRC per record
//
// Two dump paths share that layout:
//
//   * dump_incident(): normal path. Serializes to memory and commits via
//     write -> fsync -> atomic-rename (util/fs_io.hpp), the plan store's
//     discipline, so a crash mid-dump never leaves a torn bundle behind.
//   * signal_dump(): async-signal-safe path for fatal signals. Armed ahead
//     of time with a pre-opened fd and pre-allocated header/in-flight
//     scratch; the handler only performs relaxed atomic loads, CRC table
//     lookups, write(2) and fsync(2) — no allocation, no locks, no stdio.
//     Concurrent writers may tear individual ring slots; the CRC framing
//     quarantines exactly those at parse time. See DESIGN.md item 19 for
//     the full signal-safety budget.
//
// The StatePage is a cache of serving counters mirrored as plain atomics
// precisely so the signal path can snapshot them without taking the
// metrics registry's locks. The in-flight table exists because a crashed
// request never reaches the finish() wide event: PlanServer publishes each
// request's identity and stage ledger into its worker's slot at stage
// boundaries, so the bundle can name the request that was on-CPU when the
// process died.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/request_context.hpp"
#include "util/stopwatch.hpp"

namespace kf {

class MetricsRegistry;

/// Why a bundle was written. Stable numeric values: they are serialized.
enum class IncidentReason : std::uint16_t {
  kNone = 0,
  kSignal = 1,         ///< fatal signal (async-signal-safe path)
  kStoreSalvage = 2,   ///< store open salvaged a torn/bit-rotten journal
  kSloBurn = 3,        ///< SLO burn rate crossed the configured ceiling
  kDeadlineSpike = 4,  ///< deadline-miss spike within one watchdog scan
  kStalledWorker = 5,  ///< watchdog saw a worker exceed the stall threshold
  kExitDump = 6,       ///< operator-requested dump at batch exit
};
const char* to_string(IncidentReason reason) noexcept;

/// Record kinds stored in the ring. Stable numeric values: serialized.
enum class FlightRecordType : std::uint16_t {
  kEmpty = 0,     ///< never-written slot (zeroed at construction)
  kServe = 1,     ///< one finished request (the wide event, binary form)
  kDecision = 2,  ///< one fusion decision (DecisionLog tee)
  kSpan = 3,      ///< one closed serve-category span (SpanTracer tee)
  kCounters = 4,  ///< periodic StateSnapshot (watchdog scan tee)
  kTrigger = 5,   ///< incident trigger marker
};

/// Plain-POD mirror of StatePage, embedded in headers and counter records.
struct StateSnapshot {
  std::int64_t requests_total = 0;
  std::int64_t deadline_missed_total = 0;
  std::int64_t degraded_total = 0;
  std::int64_t rejected_overload_total = 0;
  std::int64_t coalesce_timeout_total = 0;
  std::int64_t retries_total = 0;
  std::int64_t trivial_floor_total = 0;
  std::int64_t incidents_total = 0;
  std::int64_t queue_depth = 0;
  std::int64_t queue_capacity = 0;
  std::int64_t workers = 0;
  std::int64_t inflight = 0;
  std::int64_t store_salvaged = 0;
  std::int64_t store_quarantined = 0;
  std::int64_t calibration_drift = 0;
  double worst_burn = 0.0;
};

/// Serving counters mirrored as lock-free atomics so the signal path can
/// snapshot them with relaxed loads. Writers (record_serve, PlanServer, the
/// ServeEngine queue gauge, the watchdog, serve-batch setup) update the
/// fields they own; nobody takes a lock.
struct StatePage {
  std::atomic<std::int64_t> requests_total{0};
  std::atomic<std::int64_t> deadline_missed_total{0};
  std::atomic<std::int64_t> degraded_total{0};
  std::atomic<std::int64_t> rejected_overload_total{0};
  std::atomic<std::int64_t> coalesce_timeout_total{0};
  std::atomic<std::int64_t> retries_total{0};
  std::atomic<std::int64_t> trivial_floor_total{0};
  std::atomic<std::int64_t> incidents_total{0};
  std::atomic<std::int64_t> queue_depth{0};
  std::atomic<std::int64_t> queue_capacity{0};
  std::atomic<std::int64_t> workers{0};
  std::atomic<std::int64_t> inflight{0};
  std::atomic<std::int64_t> store_salvaged{0};
  std::atomic<std::int64_t> store_quarantined{0};
  std::atomic<std::int64_t> calibration_drift{0};
  std::atomic<double> worst_burn{0.0};

  StateSnapshot snapshot() const noexcept;  ///< relaxed loads; signal-safe
};

/// Fixed per-record payload area. Large enough for every payload type
/// below (static_asserted in the .cpp).
inline constexpr std::size_t kFlightPayloadBytes = 136;

/// One finished request — the binary twin of the "serve_request" wide
/// event, so postmortem can rebuild the stage ledger without the JSONL log.
struct FlightServePayload {
  std::uint64_t program_fp = 0;
  std::uint64_t device_fp = 0;
  double latency_s = 0.0;
  double deadline_s = 0.0;
  double queue_wait_s = 0.0;
  double cost_s = 0.0;
  double baseline_cost_s = 0.0;
  double stage_s[RequestContext::kNumStages] = {};
  std::int16_t worker_id = -1;
  std::int16_t retries = 0;
  std::uint8_t rung = 0;       ///< ServeRung numeric value
  std::uint8_t admission = 0;  ///< AdmissionOutcome numeric value
  std::uint8_t flags = 0;      ///< kFlag* bits below
  std::uint8_t pad = 0;

  static constexpr std::uint8_t kFlagDegraded = 1u << 0;
  static constexpr std::uint8_t kFlagCoalesced = 1u << 1;
  static constexpr std::uint8_t kFlagDeadlineMet = 1u << 2;
};

/// One fusion decision (DecisionLog tee). Mirrors provenance.hpp's
/// Decision with the dominant-component pointer flattened to chars.
struct FlightDecisionPayload {
  std::int32_t site = 0;
  std::int32_t accepted = 0;
  std::int32_t member_count = 0;
  std::int32_t pad = 0;
  double cost_delta_s = 0.0;
  std::int32_t members[16] = {};
  char dominant[32] = {};
};

/// One closed serve-category span (SpanTracer tee).
struct FlightSpanPayload {
  char name[48] = {};
  double start_s = 0.0;
  double dur_s = 0.0;
  std::int32_t tid = 0;
  std::int32_t pad = 0;
};

/// Incident trigger marker, recorded into the ring just before a dump so
/// the bundle carries its own cause.
struct FlightTriggerPayload {
  std::uint16_t reason = 0;  ///< IncidentReason numeric value
  std::uint16_t pad = 0;
  std::int32_t signal = 0;
  std::int32_t worker_id = -1;
  std::int32_t pad2 = 0;
  std::int64_t stalled_seq = 0;
  double age_s = 0.0;
  double burn = 0.0;
  char detail[64] = {};
};

/// One ring slot. 184 bytes; crc covers every byte before it.
struct FlightRecord {
  std::uint32_t magic = 0;  ///< kMagic when written; 0 = empty slot
  std::uint16_t type = 0;   ///< FlightRecordType numeric value
  std::uint16_t payload_bytes = 0;
  std::uint64_t seq = 0;  ///< global claim order (gaps = evicted records)
  double t_s = 0.0;       ///< recorder clock at claim
  TraceId trace;
  unsigned char payload[kFlightPayloadBytes] = {};
  std::uint32_t pad = 0;
  std::uint32_t crc = 0;

  static constexpr std::uint32_t kMagic = 0x4B465252u;  // "KFRR"

  FlightRecordType record_type() const noexcept {
    return static_cast<FlightRecordType>(type);
  }
  /// Typed payload views; null when the record is a different type.
  const FlightServePayload* as_serve() const noexcept;
  const FlightDecisionPayload* as_decision() const noexcept;
  const FlightSpanPayload* as_span() const noexcept;
  const StateSnapshot* as_counters() const noexcept;
  const FlightTriggerPayload* as_trigger() const noexcept;
};

/// One in-flight table entry as serialized into a bundle.
struct InflightDump {
  std::uint32_t magic = 0;  ///< kMagic always (even for idle slots)
  std::uint32_t busy = 0;   ///< 1 when a request was in flight at dump
  std::int32_t slot = -1;
  std::int32_t worker_id = -1;
  TraceId trace;
  std::int64_t seq = 0;
  double since_s = 0.0;
  double deadline_s = 0.0;
  double stage_s[RequestContext::kNumStages] = {};
  std::uint32_t pad = 0;
  std::uint32_t crc = 0;

  static constexpr std::uint32_t kMagic = 0x4B464946u;  // "KFIF"
};

/// Bundle header: geometry so the parser can walk the file, plus the
/// counter snapshot. CRC covers every byte before the crc field.
struct BundleHeader {
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint16_t reason = 0;  ///< IncidentReason numeric value
  std::int32_t signal = 0;   ///< signal number for kSignal, else 0
  std::uint32_t stripes = 0;
  std::uint32_t slots_per_stripe = 0;
  std::uint32_t record_bytes = 0;    ///< sizeof(FlightRecord) at write time
  std::uint32_t inflight_slots = 0;  ///< in-flight table entries that follow
  std::uint32_t inflight_bytes = 0;  ///< sizeof(InflightDump) at write time
  std::int64_t recorded_total = 0;
  std::int64_t dropped_total = 0;
  double captured_s = 0.0;  ///< recorder clock at dump
  StateSnapshot state;
  std::uint32_t pad = 0;
  std::uint32_t crc = 0;

  static constexpr std::uint32_t kMagic = 0x4B465242u;  // "KFRB"
  static constexpr std::uint16_t kVersion = 1;

  IncidentReason incident_reason() const noexcept {
    return static_cast<IncidentReason>(reason);
  }
};

/// The text identification line every bundle starts with.
inline constexpr std::string_view kBundleLine = "kfc-flight-recorder/v1\n";

/// A parsed bundle. parse() salvages every CRC-valid record from any
/// truncation or corruption of the file — the same posture as the plan
/// store's journal recovery.
struct FlightBundle {
  bool header_ok = false;  ///< identification line + header CRC + geometry
  bool truncated = false;  ///< file shorter than the header promises
  BundleHeader header;
  std::vector<InflightDump> inflight;  ///< CRC-valid busy entries only
  long inflight_quarantined = 0;       ///< in-flight entries failing CRC
  std::vector<FlightRecord> records;   ///< CRC-valid records, seq order
  long quarantined = 0;  ///< non-empty ring slots failing CRC (torn writes)
  long empty_slots = 0;  ///< never-written slots (ring not yet full)

  bool clean() const noexcept {
    return header_ok && !truncated && quarantined == 0 &&
           inflight_quarantined == 0;
  }
};

class FlightRecorder {
 public:
  static constexpr int kInflightSlots = 32;

  struct Config {
    std::size_t capacity = 4096;  ///< total ring slots across all stripes
    int stripes = 8;
    /// Timestamp source for records; must share the serving clock domain.
    /// Default: a Stopwatch started at construction.
    std::function<double()> clock;
    /// When set, dump_incident() bumps serve.incidents_total here. The
    /// signal path never touches it (the registry takes locks).
    MetricsRegistry* metrics = nullptr;
  };

  FlightRecorder() : FlightRecorder(Config{}) {}
  explicit FlightRecorder(Config config);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // -- recording (lock-free; safe from any thread) --------------------
  /// One finished request: its FlightServePayload into the ring, plus the
  /// StatePage counters it moves.
  void record_serve(const RequestContext& request);
  void record_decision(int site, bool accepted, const int* members,
                       int member_count, double cost_delta_s,
                       const char* dominant, TraceId trace);
  void record_span(const char* name, double start_s, double dur_s, int tid,
                   TraceId trace);
  void record_counters();  ///< snapshot the state page into the ring
  void record_trigger(const FlightTriggerPayload& payload, TraceId trace);

  StatePage& state() noexcept { return state_; }
  const StatePage& state() const noexcept { return state_; }

  long recorded() const noexcept;  ///< records ever claimed (exact)
  long dropped() const noexcept;   ///< records evicted by overwrite (exact)
  std::size_t capacity() const noexcept { return slots_.size(); }
  double now_s() const { return clock_(); }

  // -- in-flight table ------------------------------------------------
  /// Marks a request in flight; returns the slot to pass to the other
  /// in-flight calls. worker_id < 0 (direct serve() calls) hashes the
  /// calling thread into a slot instead.
  int inflight_begin(int worker_id, TraceId trace, long seq,
                     double deadline_s, double now_s) noexcept;
  /// Republishes the request's stage ledger (relaxed stores; cheap).
  void inflight_update(int slot, const RequestContext& rc) noexcept;
  void inflight_end(int slot) noexcept;

  // -- incident dumps -------------------------------------------------
  /// Serializes the full bundle to memory. Torn ring slots (concurrent
  /// writers) are included as-is; their CRCs fail at parse time.
  std::string serialize(IncidentReason reason, int signal = 0) const;

  /// Normal-path dump: serialize + write-fsync-rename into `dir` as
  /// incident-<ordinal>-<reason>.kfr. Returns the bundle path. Bumps
  /// state().incidents_total and, when configured, serve.incidents_total.
  std::string dump_incident(const std::string& dir, IncidentReason reason);

  // -- fatal-signal path ----------------------------------------------
  /// Pre-opens <dir>/incident-signal.kfr, pre-allocates dump scratch and
  /// installs handlers for SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL. At most
  /// one recorder may be armed per process; re-arming moves the hook.
  /// Returns the bundle path the handler will write.
  std::string arm_signal_dump(const std::string& dir);
  void disarm_signal_dump() noexcept;  ///< restores previous handlers
  bool signal_armed() const noexcept;

  /// The handler body: writes the bundle to the pre-opened fd using only
  /// async-signal-safe calls. Public so tests can exercise the exact
  /// handler path without dying.
  void signal_dump(int signal) noexcept;

  // -- bundle reading -------------------------------------------------
  static FlightBundle parse(std::string_view bytes);
  static FlightBundle read(const std::string& path);  ///< throws StoreError

  static const char* kSignalBundleFile;  // "incident-signal.kfr"

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> writes{0};
  };
  struct alignas(64) InflightSlot {
    std::atomic<std::uint32_t> busy{0};
    std::atomic<std::int32_t> worker_id{-1};
    std::atomic<std::uint64_t> trace_hi{0};
    std::atomic<std::uint64_t> trace_lo{0};
    std::atomic<std::int64_t> seq{0};
    std::atomic<double> since_s{0.0};
    std::atomic<double> deadline_s{0.0};
    std::atomic<double> stage_s[RequestContext::kNumStages] = {};
  };

  /// One ring slot: a FlightRecord's bytes as relaxed atomic words, so a
  /// dump that overlaps a write is a torn read the CRC catches, not a data
  /// race.
  struct RingSlot {
    static constexpr std::size_t kWords = sizeof(FlightRecord) / sizeof(std::uint64_t);
    std::atomic<std::uint64_t> words[kWords] = {};

    /// Word 0 (magic) is zeroed first and written last, so a dump sees the
    /// slot as "being rewritten" for the whole store.
    void store(const FlightRecord& record) noexcept;
    void load(FlightRecord* out) const noexcept;  ///< signal-safe
  };

  /// Builds a record of `type` carrying `payload` locally, seals it (magic
  /// + CRC) and stores it into the next slot of the calling thread's stripe.
  void publish(FlightRecordType type, TraceId trace, const void* payload,
               std::size_t bytes) noexcept;
  BundleHeader make_header(IncidentReason reason, int signal) const noexcept;
  void fill_inflight_dump(int slot, InflightDump* out) const noexcept;

  std::function<double()> clock_;
  Stopwatch epoch_;  // backs the default clock
  MetricsRegistry* metrics_ = nullptr;
  int stripes_ = 0;
  std::size_t slots_per_stripe_ = 0;
  std::vector<RingSlot> slots_;  // stripe s owns [s*per, (s+1)*per)
  std::vector<Stripe> stripe_state_;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<double> last_t_s_{0.0};  // signal path's clock (clock_() may
                                       // not be signal-safe to call)
  InflightSlot inflight_[kInflightSlots];
  StatePage state_;

  // signal-path state (pre-allocated at arm time)
  std::string signal_path_;
  int signal_fd_ = -1;
  std::vector<InflightDump> signal_scratch_;
  std::vector<FlightRecord> signal_ring_scratch_;  // ring slots per write(2)
  std::atomic<bool> dumping_{false};
};

}  // namespace kf
