#include "telemetry/request_context.hpp"

#include <array>
#include <cstdlib>

#include "telemetry/json.hpp"
#include "telemetry/trace_log.hpp"
#include "util/string_util.hpp"

namespace kf {

namespace {

// The active trace for this thread. Trivially copyable + trivially
// destructible, so access is a plain TLS load — no guard variable, no
// allocation.
thread_local TraceId g_current_trace;

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The wide event's key for a stage ("stage_<name>_s"), built once.
const std::string& stage_key(int stage) {
  static const auto keys = [] {
    std::array<std::string, RequestContext::kNumStages> k;
    for (int s = 0; s < RequestContext::kNumStages; ++s)
      k[static_cast<std::size_t>(s)] =
          std::string("stage_") + RequestContext::stage_name(s) + "_s";
    return k;
  }();
  return keys[static_cast<std::size_t>(stage)];
}

/// Inverse of to_string() over an enum's four values.
template <typename Enum>
std::optional<Enum> enum_named(const std::string& name) {
  for (int i = 0; i < 4; ++i) {
    if (name == to_string(static_cast<Enum>(i))) return static_cast<Enum>(i);
  }
  return std::nullopt;
}

bool bool_or(const JsonValue& event, std::string_view key, bool fallback) {
  const JsonValue* v = event.find(key);
  return v != nullptr && v->is_bool() ? v->as_bool() : fallback;
}

std::uint64_t hex_or_zero(const JsonValue& event, std::string_view key) {
  return std::strtoull(event.string_or(key, "").c_str(), nullptr, 16);
}

}  // namespace

const char* to_string(ServeRung rung) noexcept {
  switch (rung) {
    case ServeRung::StoreHit: return "store_hit";
    case ServeRung::PolishedStored: return "polished_stored";
    case ServeRung::FullSearch: return "full_search";
    case ServeRung::TrivialFloor: return "trivial_floor";
  }
  return "?";
}

const char* to_string(AdmissionOutcome outcome) noexcept {
  switch (outcome) {
    case AdmissionOutcome::Admitted: return "admitted";
    case AdmissionOutcome::Queued: return "queued";
    case AdmissionOutcome::Rejected: return "rejected";
    case AdmissionOutcome::RejectedOverload: return "rejected_overload";
  }
  return "?";
}

void TraceId::format(char out[33]) const noexcept {
  static constexpr char kHex[] = "0123456789abcdef";
  for (int i = 0; i < 16; ++i)
    out[i] = kHex[(hi >> (60 - 4 * i)) & 0xF];
  for (int i = 0; i < 16; ++i)
    out[16 + i] = kHex[(lo >> (60 - 4 * i)) & 0xF];
  out[32] = '\0';
}

std::string TraceId::to_hex() const {
  char buf[33];
  format(buf);
  return std::string(buf, 32);
}

TraceId TraceId::from_hex(std::string_view hex) noexcept {
  if (hex.size() != 32) return TraceId{};
  std::uint64_t words[2] = {0, 0};
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 16; ++i) {
      const char c = hex[static_cast<std::size_t>(w * 16 + i)];
      std::uint64_t nibble = 0;
      if (c >= '0' && c <= '9') nibble = static_cast<std::uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') nibble = static_cast<std::uint64_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') nibble = static_cast<std::uint64_t>(c - 'A' + 10);
      else return TraceId{};
      words[w] = (words[w] << 4) | nibble;
    }
  }
  return TraceId{words[0], words[1]};
}

TraceId TraceId::derive(std::uint64_t seq, std::uint64_t program_fp,
                        std::uint64_t device_fp) noexcept {
  // Two independent splitmix chains over the same inputs with distinct
  // domain constants: collisions between requests require a 128-bit
  // coincidence, and the same (seq, fingerprints) always reproduces the
  // same id so replayed batches line up with archived traces. Archived ids
  // fold splitmix64(0) into the lo chain, so it stays.
  TraceId id;
  id.hi = splitmix64(splitmix64(seq ^ 0x7265717565737431ULL) ^
                     splitmix64(program_fp));
  id.lo = splitmix64(splitmix64(device_fp ^ 0x74726163655f6964ULL) ^
                     splitmix64(seq + 0x632a9d6e) ^ splitmix64(0));
  if (!id.valid()) id.lo = 1;  // never emit the "no trace" sentinel
  return id;
}

TraceId current_trace() noexcept { return g_current_trace; }

TraceScope::TraceScope(TraceId id) noexcept : prev_(g_current_trace) {
  g_current_trace = id;
}

TraceScope::~TraceScope() { g_current_trace = prev_; }

const char* RequestContext::stage_name(int stage) noexcept {
  switch (stage) {
    case kAdmission: return "admission";
    case kQueueWait: return "queue_wait";
    case kStoreGet: return "store_get";
    case kPolish: return "polish";
    case kSearch: return "search";
    case kBackoff: return "backoff";
    case kCoalesceWait: return "coalesce_wait";
    case kWriteBack: return "write_back";
  }
  return "?";
}

void RequestContext::to_event(TraceLog& log) const {
  log.emit("serve_request", [&](TraceEvent& e) {
    e.num("seq", seq)
        .str("program_fp", strprintf("%016llx",
             static_cast<unsigned long long>(program_fp)))
        .str("device_fp", strprintf("%016llx",
             static_cast<unsigned long long>(device_fp)))
        .num("num_kernels", num_kernels)
        .str("rung", to_string(rung))
        .str("admission", to_string(admission))
        .boolean("store_hit", rung == ServeRung::StoreHit)
        .boolean("degraded", degraded)
        .boolean("coalesced", coalesced)
        .num("worker_id", worker_id)
        .num("retries", retries)
        .num("queue_wait_s", queue_wait_s)
        .num("latency_s", latency_s)
        .num("deadline_s", deadline_s)
        .boolean("deadline_met", deadline_met)
        .num("deadline_frac_used", deadline_frac_used());
    for (int s = 0; s < kNumStages; ++s) {
      if (stage_s[s] > 0.0) e.num(stage_key(s), stage_s[s]);
    }
    e.num("cost_s", cost_s)
        .num("baseline_cost_s", baseline_cost_s)
        .num("speedup", speedup());
  });
}

std::optional<RequestContext> RequestContext::from_event(
    const JsonValue& event) {
  if (event.string_or("type", "") != "serve_request") return std::nullopt;
  RequestContext rc;
  const auto rung =
      enum_named<ServeRung>(event.string_or("rung", to_string(rc.rung)));
  const auto admission = enum_named<AdmissionOutcome>(
      event.string_or("admission", to_string(rc.admission)));
  if (!rung || !admission) return std::nullopt;
  rc.rung = *rung;
  rc.admission = *admission;
  rc.trace_id = TraceId::from_hex(event.string_or("trace", ""));
  rc.seq = static_cast<long>(event.number_or("seq", 0.0));
  rc.program_fp = hex_or_zero(event, "program_fp");
  rc.device_fp = hex_or_zero(event, "device_fp");
  rc.num_kernels = static_cast<int>(event.number_or("num_kernels", 0.0));
  rc.cost_s = event.number_or("cost_s", 0.0);
  rc.baseline_cost_s = event.number_or("baseline_cost_s", 0.0);
  rc.degraded = bool_or(event, "degraded", false);
  rc.retries = static_cast<int>(event.number_or("retries", 0.0));
  rc.queue_wait_s = event.number_or("queue_wait_s", 0.0);
  rc.latency_s = event.number_or("latency_s", 0.0);
  rc.deadline_s = event.number_or("deadline_s", 0.0);
  rc.deadline_met = bool_or(event, "deadline_met", true);
  rc.coalesced = bool_or(event, "coalesced", false);
  rc.worker_id = static_cast<int>(event.number_or("worker_id", -1.0));
  for (int s = 0; s < kNumStages; ++s)
    rc.stage_s[s] = event.number_or(stage_key(s), 0.0);
  return rc;
}

}  // namespace kf
