#include "telemetry/flight_recorder.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <type_traits>

#include "telemetry/metrics.hpp"
#include "util/error.hpp"
#include "util/fs_io.hpp"

namespace kf {

namespace {

static_assert(std::is_trivially_copyable_v<FlightRecord>);
static_assert(std::is_trivially_copyable_v<BundleHeader>);
static_assert(std::is_trivially_copyable_v<InflightDump>);
static_assert(std::is_trivially_copyable_v<StateSnapshot>);
static_assert(sizeof(FlightServePayload) <= kFlightPayloadBytes);
static_assert(sizeof(FlightDecisionPayload) <= kFlightPayloadBytes);
static_assert(sizeof(FlightSpanPayload) <= kFlightPayloadBytes);
static_assert(sizeof(StateSnapshot) <= kFlightPayloadBytes);
static_assert(sizeof(FlightTriggerPayload) <= kFlightPayloadBytes);
// The payload area starts 8-byte aligned so the typed views are legal.
static_assert(offsetof(FlightRecord, payload) % 8 == 0);
// Ring slots hold a record as whole 64-bit words, and the signal path
// reads them, so the words must be lock-free.
static_assert(sizeof(FlightRecord) % sizeof(std::uint64_t) == 0);
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);

std::string_view bytes_of(const void* p, std::size_t n) noexcept {
  return std::string_view(static_cast<const char*>(p), n);
}

/// Signals the recorder intercepts when armed.
constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};
constexpr int kNumFatalSignals =
    static_cast<int>(sizeof(kFatalSignals) / sizeof(kFatalSignals[0]));

std::atomic<FlightRecorder*> g_signal_recorder{nullptr};
struct sigaction g_old_actions[kNumFatalSignals];

extern "C" void kf_flight_signal_handler(int sig) {
  FlightRecorder* recorder =
      g_signal_recorder.load(std::memory_order_acquire);
  if (recorder != nullptr) recorder->signal_dump(sig);
  // SA_RESETHAND already restored SIG_DFL for `sig`; re-deliver so the
  // process dies with the original disposition (core/terminate).
  ::raise(sig);
}

/// Distributes recording threads across stripes without hashing
/// std::thread::id (and without any per-record synchronization).
unsigned thread_stripe_token() noexcept {
  static std::atomic<unsigned> next{0};
  static thread_local const unsigned token =
      next.fetch_add(1, std::memory_order_relaxed);
  return token;
}

bool write_all(int fd, const void* data, std::size_t n) noexcept {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

const char* FlightRecorder::kSignalBundleFile = "incident-signal.kfr";

const char* to_string(IncidentReason reason) noexcept {
  switch (reason) {
    case IncidentReason::kNone: return "none";
    case IncidentReason::kSignal: return "signal";
    case IncidentReason::kStoreSalvage: return "store_salvage";
    case IncidentReason::kSloBurn: return "slo_burn";
    case IncidentReason::kDeadlineSpike: return "deadline_spike";
    case IncidentReason::kStalledWorker: return "stalled_worker";
    case IncidentReason::kExitDump: return "exit_dump";
  }
  return "unknown";
}

StateSnapshot StatePage::snapshot() const noexcept {
  StateSnapshot s;
  s.requests_total = requests_total.load(std::memory_order_relaxed);
  s.deadline_missed_total =
      deadline_missed_total.load(std::memory_order_relaxed);
  s.degraded_total = degraded_total.load(std::memory_order_relaxed);
  s.rejected_overload_total =
      rejected_overload_total.load(std::memory_order_relaxed);
  s.coalesce_timeout_total =
      coalesce_timeout_total.load(std::memory_order_relaxed);
  s.retries_total = retries_total.load(std::memory_order_relaxed);
  s.trivial_floor_total = trivial_floor_total.load(std::memory_order_relaxed);
  s.incidents_total = incidents_total.load(std::memory_order_relaxed);
  s.queue_depth = queue_depth.load(std::memory_order_relaxed);
  s.queue_capacity = queue_capacity.load(std::memory_order_relaxed);
  s.workers = workers.load(std::memory_order_relaxed);
  s.inflight = inflight.load(std::memory_order_relaxed);
  s.store_salvaged = store_salvaged.load(std::memory_order_relaxed);
  s.store_quarantined = store_quarantined.load(std::memory_order_relaxed);
  s.calibration_drift = calibration_drift.load(std::memory_order_relaxed);
  s.worst_burn = worst_burn.load(std::memory_order_relaxed);
  return s;
}

const FlightServePayload* FlightRecord::as_serve() const noexcept {
  if (record_type() != FlightRecordType::kServe ||
      payload_bytes < sizeof(FlightServePayload))
    return nullptr;
  return reinterpret_cast<const FlightServePayload*>(payload);
}

const FlightDecisionPayload* FlightRecord::as_decision() const noexcept {
  if (record_type() != FlightRecordType::kDecision ||
      payload_bytes < sizeof(FlightDecisionPayload))
    return nullptr;
  return reinterpret_cast<const FlightDecisionPayload*>(payload);
}

const FlightSpanPayload* FlightRecord::as_span() const noexcept {
  if (record_type() != FlightRecordType::kSpan ||
      payload_bytes < sizeof(FlightSpanPayload))
    return nullptr;
  return reinterpret_cast<const FlightSpanPayload*>(payload);
}

const StateSnapshot* FlightRecord::as_counters() const noexcept {
  if (record_type() != FlightRecordType::kCounters ||
      payload_bytes < sizeof(StateSnapshot))
    return nullptr;
  return reinterpret_cast<const StateSnapshot*>(payload);
}

const FlightTriggerPayload* FlightRecord::as_trigger() const noexcept {
  if (record_type() != FlightRecordType::kTrigger ||
      payload_bytes < sizeof(FlightTriggerPayload))
    return nullptr;
  return reinterpret_cast<const FlightTriggerPayload*>(payload);
}

FlightRecorder::FlightRecorder(Config config)
    : clock_(std::move(config.clock)),
      metrics_(config.metrics),
      stripes_(std::max(1, config.stripes)),
      slots_per_stripe_(std::max<std::size_t>(
          1, std::max(config.capacity, static_cast<std::size_t>(stripes_)) /
                 static_cast<std::size_t>(stripes_))),
      slots_(static_cast<std::size_t>(stripes_) * slots_per_stripe_),
      stripe_state_(static_cast<std::size_t>(stripes_)) {
  if (!clock_) clock_ = [this] { return epoch_.elapsed_s(); };
}

FlightRecorder::~FlightRecorder() { disarm_signal_dump(); }

void FlightRecorder::RingSlot::store(const FlightRecord& record) noexcept {
  std::uint64_t w[kWords];
  std::memcpy(w, &record, sizeof(w));
  words[0].store(0, std::memory_order_relaxed);
  for (std::size_t i = 1; i < kWords; ++i) words[i].store(w[i], std::memory_order_relaxed);
  words[0].store(w[0], std::memory_order_relaxed);
}

void FlightRecorder::RingSlot::load(FlightRecord* out) const noexcept {
  std::uint64_t w[kWords];
  for (std::size_t i = 0; i < kWords; ++i) w[i] = words[i].load(std::memory_order_relaxed);
  std::memcpy(out, w, sizeof(w));
}

void FlightRecorder::publish(FlightRecordType type, TraceId trace,
                             const void* payload, std::size_t bytes) noexcept {
  FlightRecord rec;
  const double t = clock_();
  last_t_s_.store(t, std::memory_order_relaxed);
  rec.type = static_cast<std::uint16_t>(type);
  rec.payload_bytes = static_cast<std::uint16_t>(bytes);
  rec.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  rec.t_s = t;
  rec.trace = trace;
  std::memcpy(rec.payload, payload, bytes);
  rec.magic = FlightRecord::kMagic;
  rec.crc = crc32(bytes_of(&rec, offsetof(FlightRecord, crc)));
  const unsigned stripe = thread_stripe_token() % stripes_;
  const std::uint64_t w =
      stripe_state_[stripe].writes.fetch_add(1, std::memory_order_relaxed);
  slots_[stripe * slots_per_stripe_ + (w % slots_per_stripe_)].store(rec);
}

void FlightRecorder::record_serve(const RequestContext& request) {
  FlightServePayload p;
  p.program_fp = request.program_fp;
  p.device_fp = request.device_fp;
  p.latency_s = request.latency_s;
  p.deadline_s = request.deadline_s;
  p.queue_wait_s = request.queue_wait_s;
  p.cost_s = request.cost_s;
  p.baseline_cost_s = request.baseline_cost_s;
  std::copy(std::begin(request.stage_s), std::end(request.stage_s), p.stage_s);
  p.worker_id = static_cast<std::int16_t>(
      std::clamp(request.worker_id, -1, int(INT16_MAX)));
  p.retries =
      static_cast<std::int16_t>(std::clamp(request.retries, 0, int(INT16_MAX)));
  p.rung = static_cast<std::uint8_t>(request.rung);
  p.admission = static_cast<std::uint8_t>(request.admission);
  if (request.degraded) p.flags |= FlightServePayload::kFlagDegraded;
  if (request.coalesced) p.flags |= FlightServePayload::kFlagCoalesced;
  if (request.deadline_met) p.flags |= FlightServePayload::kFlagDeadlineMet;
  publish(FlightRecordType::kServe, request.trace_id, &p, sizeof(p));

  state_.requests_total.fetch_add(1, std::memory_order_relaxed);
  if (!request.deadline_met)
    state_.deadline_missed_total.fetch_add(1, std::memory_order_relaxed);
  if (request.degraded)
    state_.degraded_total.fetch_add(1, std::memory_order_relaxed);
  if (request.admission == AdmissionOutcome::RejectedOverload)
    state_.rejected_overload_total.fetch_add(1, std::memory_order_relaxed);
  if (request.retries > 0)
    state_.retries_total.fetch_add(request.retries, std::memory_order_relaxed);
  if (request.rung == ServeRung::TrivialFloor)
    state_.trivial_floor_total.fetch_add(1, std::memory_order_relaxed);
}

void FlightRecorder::record_decision(int site, bool accepted,
                                     const int* members, int member_count,
                                     double cost_delta_s, const char* dominant,
                                     TraceId trace) {
  FlightDecisionPayload payload;
  payload.site = site;
  payload.accepted = accepted ? 1 : 0;
  const int n = std::clamp(member_count, 0, 16);
  payload.member_count = member_count;
  for (int i = 0; i < n; ++i) payload.members[i] = members[i];
  payload.cost_delta_s = cost_delta_s;
  if (dominant != nullptr) {
    std::strncpy(payload.dominant, dominant, sizeof(payload.dominant) - 1);
  }
  publish(FlightRecordType::kDecision, trace, &payload, sizeof(payload));
}

void FlightRecorder::record_span(const char* name, double start_s,
                                 double dur_s, int tid, TraceId trace) {
  FlightSpanPayload payload;
  if (name != nullptr)
    std::strncpy(payload.name, name, sizeof(payload.name) - 1);
  payload.start_s = start_s;
  payload.dur_s = dur_s;
  payload.tid = tid;
  publish(FlightRecordType::kSpan, trace, &payload, sizeof(payload));
}

void FlightRecorder::record_counters() {
  const StateSnapshot snap = state_.snapshot();
  publish(FlightRecordType::kCounters, TraceId{}, &snap, sizeof(snap));
}

void FlightRecorder::record_trigger(const FlightTriggerPayload& payload,
                                    TraceId trace) {
  publish(FlightRecordType::kTrigger, trace, &payload, sizeof(payload));
}

long FlightRecorder::recorded() const noexcept {
  std::uint64_t total = 0;
  for (const Stripe& st : stripe_state_)
    total += st.writes.load(std::memory_order_relaxed);
  return static_cast<long>(total);
}

long FlightRecorder::dropped() const noexcept {
  std::uint64_t dropped = 0;
  for (const Stripe& st : stripe_state_) {
    const std::uint64_t w = st.writes.load(std::memory_order_relaxed);
    if (w > slots_per_stripe_) dropped += w - slots_per_stripe_;
  }
  return static_cast<long>(dropped);
}

int FlightRecorder::inflight_begin(int worker_id, TraceId trace, long seq,
                                   double deadline_s, double now_s) noexcept {
  const int slot =
      worker_id >= 0
          ? worker_id % kInflightSlots
          : static_cast<int>(thread_stripe_token() % kInflightSlots);
  InflightSlot& s = inflight_[slot];
  s.busy.store(0, std::memory_order_relaxed);
  s.worker_id.store(worker_id, std::memory_order_relaxed);
  s.trace_hi.store(trace.hi, std::memory_order_relaxed);
  s.trace_lo.store(trace.lo, std::memory_order_relaxed);
  s.seq.store(seq, std::memory_order_relaxed);
  s.since_s.store(now_s, std::memory_order_relaxed);
  s.deadline_s.store(deadline_s, std::memory_order_relaxed);
  for (auto& stage : s.stage_s) stage.store(0.0, std::memory_order_relaxed);
  s.busy.store(1, std::memory_order_release);
  return slot;
}

void FlightRecorder::inflight_update(int slot,
                                     const RequestContext& rc) noexcept {
  if (slot < 0 || slot >= kInflightSlots) return;
  InflightSlot& s = inflight_[slot];
  for (int i = 0; i < RequestContext::kNumStages; ++i)
    s.stage_s[i].store(rc.stage_s[i], std::memory_order_relaxed);
}

void FlightRecorder::inflight_end(int slot) noexcept {
  if (slot < 0 || slot >= kInflightSlots) return;
  inflight_[slot].busy.store(0, std::memory_order_release);
}

BundleHeader FlightRecorder::make_header(IncidentReason reason,
                                         int signal) const noexcept {
  BundleHeader h;
  // Zero every byte, padding included, so the CRC is a pure function of the
  // field values (value-init leaves implicit padding unspecified).
  std::memset(static_cast<void*>(&h), 0, sizeof(h));
  h.magic = BundleHeader::kMagic;
  h.version = BundleHeader::kVersion;
  h.reason = static_cast<std::uint16_t>(reason);
  h.signal = signal;
  h.stripes = static_cast<std::uint32_t>(stripes_);
  h.slots_per_stripe = static_cast<std::uint32_t>(slots_per_stripe_);
  h.record_bytes = static_cast<std::uint32_t>(sizeof(FlightRecord));
  h.inflight_slots = kInflightSlots;
  h.inflight_bytes = static_cast<std::uint32_t>(sizeof(InflightDump));
  h.recorded_total = recorded();
  h.dropped_total = dropped();
  h.captured_s = last_t_s_.load(std::memory_order_relaxed);
  h.state = state_.snapshot();
  h.crc = crc32(bytes_of(&h, offsetof(BundleHeader, crc)));
  return h;
}

void FlightRecorder::fill_inflight_dump(int slot,
                                        InflightDump* out) const noexcept {
  const InflightSlot& s = inflight_[slot];
  std::memset(static_cast<void*>(out), 0, sizeof(*out));
  out->magic = InflightDump::kMagic;
  out->busy = s.busy.load(std::memory_order_acquire);
  out->slot = slot;
  out->worker_id = s.worker_id.load(std::memory_order_relaxed);
  out->trace.hi = s.trace_hi.load(std::memory_order_relaxed);
  out->trace.lo = s.trace_lo.load(std::memory_order_relaxed);
  out->seq = s.seq.load(std::memory_order_relaxed);
  out->since_s = s.since_s.load(std::memory_order_relaxed);
  out->deadline_s = s.deadline_s.load(std::memory_order_relaxed);
  for (int i = 0; i < RequestContext::kNumStages; ++i)
    out->stage_s[i] = s.stage_s[i].load(std::memory_order_relaxed);
  out->crc = crc32(bytes_of(out, offsetof(InflightDump, crc)));
}

std::string FlightRecorder::serialize(IncidentReason reason,
                                      int signal) const {
  std::string out;
  out.reserve(kBundleLine.size() + sizeof(BundleHeader) +
              kInflightSlots * sizeof(InflightDump) +
              slots_.size() * sizeof(FlightRecord));
  out.append(kBundleLine);
  const BundleHeader h = make_header(reason, signal);
  out.append(reinterpret_cast<const char*>(&h), sizeof(h));
  for (int i = 0; i < kInflightSlots; ++i) {
    InflightDump d;
    fill_inflight_dump(i, &d);
    out.append(reinterpret_cast<const char*>(&d), sizeof(d));
  }
  for (const RingSlot& slot : slots_) {
    FlightRecord rec;
    slot.load(&rec);
    out.append(reinterpret_cast<const char*>(&rec), sizeof(rec));
  }
  return out;
}

std::string FlightRecorder::dump_incident(const std::string& dir,
                                          IncidentReason reason) {
  const long ordinal =
      state_.incidents_total.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::string body = serialize(reason, 0);
  char name[80];
  std::snprintf(name, sizeof(name), "incident-%06ld-%s.kfr", ordinal,
                to_string(reason));
  const std::string path = dir + "/" + name;
  write_file_atomic(path, body, /*durable=*/true);
  if (metrics_ != nullptr) metrics_->count("serve.incidents_total");
  return path;
}

std::string FlightRecorder::arm_signal_dump(const std::string& dir) {
  disarm_signal_dump();
  signal_path_ = dir + "/" + kSignalBundleFile;
  signal_fd_ = ::open(signal_path_.c_str(),
                      O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (signal_fd_ < 0)
    throw StoreError("flight recorder: cannot open signal bundle " +
                     signal_path_);
  signal_scratch_.assign(kInflightSlots, InflightDump{});
  signal_ring_scratch_.assign(std::min<std::size_t>(slots_.size(), 64), FlightRecord{});
  dumping_.store(false, std::memory_order_relaxed);
  g_signal_recorder.store(this, std::memory_order_release);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = kf_flight_signal_handler;
  sigemptyset(&sa.sa_mask);
  // SA_RESETHAND: SIG_DFL is restored before the handler runs, so the
  // handler's closing raise() delivers the default (fatal) disposition.
  sa.sa_flags = SA_RESETHAND | SA_NODEFER;
  for (int i = 0; i < kNumFatalSignals; ++i)
    ::sigaction(kFatalSignals[i], &sa, &g_old_actions[i]);
  return signal_path_;
}

void FlightRecorder::disarm_signal_dump() noexcept {
  FlightRecorder* expected = this;
  if (g_signal_recorder.compare_exchange_strong(expected, nullptr,
                                                std::memory_order_acq_rel)) {
    for (int i = 0; i < kNumFatalSignals; ++i)
      ::sigaction(kFatalSignals[i], &g_old_actions[i], nullptr);
  }
  if (signal_fd_ >= 0) {
    ::close(signal_fd_);
    signal_fd_ = -1;
    // The fd is pre-opened (O_CREAT) at arm time; when no signal ever
    // fired the file is still empty — remove it rather than leave a
    // zero-byte "incident" for bundle-counting tooling to trip over.
    if (!dumping_.load(std::memory_order_acquire) && !signal_path_.empty())
      ::unlink(signal_path_.c_str());
  }
}

bool FlightRecorder::signal_armed() const noexcept {
  return signal_fd_ >= 0 &&
         g_signal_recorder.load(std::memory_order_acquire) == this;
}

void FlightRecorder::signal_dump(int signal) noexcept {
  // Everything below is async-signal-safe: relaxed/acquire atomic loads,
  // CRC table lookups, write(2), fsync(2). No allocation, locks or stdio.
  const int fd = signal_fd_;
  if (fd < 0) return;
  if (dumping_.exchange(true, std::memory_order_acq_rel)) return;
  state_.incidents_total.fetch_add(1, std::memory_order_relaxed);
  ::lseek(fd, 0, SEEK_SET);
  bool ok = write_all(fd, kBundleLine.data(), kBundleLine.size());
  const BundleHeader h = make_header(IncidentReason::kSignal, signal);
  ok = ok && write_all(fd, &h, sizeof(h));
  for (int i = 0; ok && i < kInflightSlots; ++i) {
    InflightDump* d = &signal_scratch_[static_cast<std::size_t>(i)];
    fill_inflight_dump(i, d);
    ok = write_all(fd, d, sizeof(*d));
  }
  const std::size_t chunk = signal_ring_scratch_.size();
  for (std::size_t first = 0; ok && first < slots_.size(); first += chunk) {
    const std::size_t count = std::min(chunk, slots_.size() - first);
    for (std::size_t i = 0; i < count; ++i) {
      slots_[first + i].load(&signal_ring_scratch_[i]);
    }
    ok = write_all(fd, signal_ring_scratch_.data(), count * sizeof(FlightRecord));
  }
  if (ok) ::fsync(fd);
}

FlightBundle FlightRecorder::parse(std::string_view bytes) {
  FlightBundle b;
  if (bytes.size() < kBundleLine.size()) {
    // A short prefix of a real bundle reads as truncation; anything else
    // is simply not a bundle.
    b.truncated = kBundleLine.substr(0, bytes.size()) == bytes;
    return b;
  }
  if (bytes.compare(0, kBundleLine.size(), kBundleLine) != 0) return b;
  std::size_t off = kBundleLine.size();
  if (bytes.size() - off < sizeof(BundleHeader)) {
    b.truncated = true;
    return b;
  }
  std::memcpy(&b.header, bytes.data() + off, sizeof(BundleHeader));
  off += sizeof(BundleHeader);
  const BundleHeader& h = b.header;
  if (h.magic != BundleHeader::kMagic || h.version != BundleHeader::kVersion)
    return b;
  if (h.crc != crc32(bytes_of(&h, offsetof(BundleHeader, crc)))) return b;
  // Geometry must match this build's record layout or the walk below
  // would misframe every slot.
  if (h.record_bytes != sizeof(FlightRecord) ||
      h.inflight_bytes != sizeof(InflightDump))
    return b;
  b.header_ok = true;
  for (std::uint32_t i = 0; i < h.inflight_slots; ++i) {
    if (bytes.size() - off < sizeof(InflightDump)) {
      b.truncated = true;
      return b;
    }
    InflightDump d;
    std::memcpy(&d, bytes.data() + off, sizeof(InflightDump));
    off += sizeof(InflightDump);
    if (d.magic != InflightDump::kMagic ||
        d.crc != crc32(bytes_of(&d, offsetof(InflightDump, crc)))) {
      ++b.inflight_quarantined;
    } else if (d.busy != 0) {
      b.inflight.push_back(d);
    }
  }
  const std::uint64_t total_slots =
      static_cast<std::uint64_t>(h.stripes) * h.slots_per_stripe;
  for (std::uint64_t i = 0; i < total_slots; ++i) {
    if (bytes.size() - off < sizeof(FlightRecord)) {
      b.truncated = true;
      break;
    }
    FlightRecord rec;
    std::memcpy(&rec, bytes.data() + off, sizeof(FlightRecord));
    off += sizeof(FlightRecord);
    if (rec.magic == 0) {
      ++b.empty_slots;
    } else if (rec.magic != FlightRecord::kMagic ||
               rec.crc != crc32(bytes_of(&rec, offsetof(FlightRecord, crc)))) {
      ++b.quarantined;
    } else {
      b.records.push_back(rec);
    }
  }
  std::sort(b.records.begin(), b.records.end(),
            [](const FlightRecord& a, const FlightRecord& r) {
              return a.seq < r.seq;
            });
  return b;
}

FlightBundle FlightRecorder::read(const std::string& path) {
  return parse(read_file(path));
}

}  // namespace kf
