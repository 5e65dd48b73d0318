#include "store/plan_store.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "fusion/fusion_plan.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace kf {
namespace {

constexpr std::string_view kFrameMagic = "kfs1";
constexpr int kMaxStoreKernels = 1 << 20;

/// `kfs1 <crc32-8hex> <len> <payload>\n` — crc and len cover the payload.
std::string frame_record(std::string_view payload) {
  return strprintf("%s %08x %zu ", std::string(kFrameMagic).c_str(),
                   crc32(payload), payload.size()) +
         std::string(payload) + "\n";
}

std::string put_payload(const StoredPlan& plan) {
  return strprintf("put pfp=%016llx dfp=%016llx kernels=%d rev=%llu cost=%a "
                   "baseline=%a plan=",
                   static_cast<unsigned long long>(plan.key.program_fp),
                   static_cast<unsigned long long>(plan.key.device_fp),
                   plan.num_kernels,
                   static_cast<unsigned long long>(plan.revision),
                   plan.best_cost_s, plan.baseline_cost_s) +
         plan.plan_text;
}

std::string del_payload(const PlanKey& key, std::uint64_t revision) {
  return strprintf("del pfp=%016llx dfp=%016llx rev=%llu",
                   static_cast<unsigned long long>(key.program_fp),
                   static_cast<unsigned long long>(key.device_fp),
                   static_cast<unsigned long long>(revision));
}

bool parse_u64_field(std::string_view token, std::string_view name,
                     std::uint64_t* out, int base = 16) {
  if (!starts_with(token, name) || token.size() <= name.size() ||
      token[name.size()] != '=') {
    return false;
  }
  const std::string value(token.substr(name.size() + 1));
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, base);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_hexfloat_field(std::string_view token, std::string_view name,
                          double* out) {
  if (!starts_with(token, name) || token.size() <= name.size() ||
      token[name.size()] != '=') {
    return false;
  }
  const std::string value(token.substr(name.size() + 1));
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

struct ParsedRecord {
  enum class Kind { Put, Del, SnapshotHeader, End };
  Kind kind = Kind::Put;
  StoredPlan plan;           // Put
  PlanKey key;               // Del
  std::uint64_t revision = 0;
  std::size_t end_count = 0;  // End
};

/// Validates one payload in full — field syntax, ranges, finite costs, and
/// (for puts) that the plan text parses as a partition of `kernels`. False
/// means the record must be quarantined.
bool parse_payload(std::string_view payload, ParsedRecord* out) {
  if (payload == "snapshot v1") {
    out->kind = ParsedRecord::Kind::SnapshotHeader;
    return true;
  }
  if (starts_with(payload, "end ")) {
    std::uint64_t count = 0;
    if (!parse_u64_field(trim(payload.substr(4)), "count", &count, 10)) return false;
    out->kind = ParsedRecord::Kind::End;
    out->end_count = static_cast<std::size_t>(count);
    return true;
  }
  if (starts_with(payload, "del ")) {
    const std::vector<std::string> tokens = split(std::string(payload), ' ');
    if (tokens.size() != 4) return false;
    std::uint64_t rev = 0;
    if (!parse_u64_field(tokens[1], "pfp", &out->key.program_fp) ||
        !parse_u64_field(tokens[2], "dfp", &out->key.device_fp) ||
        !parse_u64_field(tokens[3], "rev", &rev, 10)) {
      return false;
    }
    out->kind = ParsedRecord::Kind::Del;
    out->revision = rev;
    return true;
  }
  if (!starts_with(payload, "put ")) return false;
  const std::size_t plan_pos = payload.find(" plan=");
  if (plan_pos == std::string_view::npos) return false;
  const std::vector<std::string> tokens =
      split(std::string(payload.substr(4, plan_pos - 4)), ' ');
  if (tokens.size() != 6) return false;
  StoredPlan& plan = out->plan;
  std::uint64_t kernels = 0;
  if (!parse_u64_field(tokens[0], "pfp", &plan.key.program_fp) ||
      !parse_u64_field(tokens[1], "dfp", &plan.key.device_fp) ||
      !parse_u64_field(tokens[2], "kernels", &kernels, 10) ||
      !parse_u64_field(tokens[3], "rev", &plan.revision, 10) ||
      !parse_hexfloat_field(tokens[4], "cost", &plan.best_cost_s) ||
      !parse_hexfloat_field(tokens[5], "baseline", &plan.baseline_cost_s)) {
    return false;
  }
  if (kernels == 0 || kernels > kMaxStoreKernels) return false;
  if (plan.best_cost_s < 0.0 || plan.baseline_cost_s < 0.0) return false;
  plan.num_kernels = static_cast<int>(kernels);
  plan.plan_text = std::string(payload.substr(plan_pos + 6));
  // The load-bearing validation: a stored plan must round-trip through the
  // partition parser before it can ever reach the index. Bit-rot inside the
  // plan text quarantines the record here.
  try {
    (void)FusionPlan::parse(plan.num_kernels, plan.plan_text);
  } catch (const std::exception&) {
    return false;
  }
  out->kind = ParsedRecord::Kind::Put;
  return true;
}

/// Validates one framed line (without its '\n'). False → corrupt frame.
bool parse_frame(std::string_view line, ParsedRecord* out) {
  if (!starts_with(line, kFrameMagic) || line.size() < kFrameMagic.size() + 1 ||
      line[kFrameMagic.size()] != ' ') {
    return false;
  }
  std::string_view rest = line.substr(kFrameMagic.size() + 1);
  const std::size_t sp1 = rest.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const std::size_t sp2 = rest.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return false;
  const std::string crc_text(rest.substr(0, sp1));
  const std::string len_text(rest.substr(sp1 + 1, sp2 - sp1 - 1));
  char* end = nullptr;
  errno = 0;
  const unsigned long crc_claim = std::strtoul(crc_text.c_str(), &end, 16);
  if (end == crc_text.c_str() || *end != '\0' || errno == ERANGE ||
      crc_text.size() != 8) {
    return false;
  }
  errno = 0;
  const unsigned long len_claim = std::strtoul(len_text.c_str(), &end, 10);
  if (end == len_text.c_str() || *end != '\0' || errno == ERANGE) return false;
  const std::string_view payload = rest.substr(sp2 + 1);
  if (payload.size() != len_claim) return false;
  if (crc32(payload) != static_cast<std::uint32_t>(crc_claim)) return false;
  return parse_payload(payload, out);
}

/// Scans one store file: splits on '\n', validates every frame, counts
/// quarantine/salvage into `report`, flags a torn tail, and returns the
/// valid records. Never throws on content.
std::vector<ParsedRecord> scan_file(std::string_view content, StoreRecovery& report) {
  std::vector<ParsedRecord> records;
  bool seen_bad = false;
  std::size_t pos = 0;
  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    const bool is_tail = nl == std::string_view::npos;
    const std::string_view line =
        is_tail ? content.substr(pos) : content.substr(pos, nl - pos);
    pos = is_tail ? content.size() : nl + 1;
    if (trim(line).empty()) continue;
    ParsedRecord record;
    if (parse_frame(line, &record)) {
      // A complete final record missing only its '\n' is a committed record:
      // the CRC proves every payload byte landed.
      if (seen_bad) ++report.salvaged;
      records.push_back(std::move(record));
    } else if (is_tail) {
      // Truncated in-flight record: the one commit a crash may lose.
      report.torn_tail = true;
    } else {
      // Bit-rot / torn-then-continued line mid-file: quarantine and keep
      // scanning — later records still self-validate.
      ++report.quarantined;
      seen_bad = true;
    }
  }
  return records;
}

}  // namespace

PlanStore::PlanStore(Config config) : config_(std::move(config)) {
  KF_REQUIRE(!config_.dir.empty(), "plan store needs a directory");
  make_dir(config_.dir);
  recovery_ = scan(config_.dir, config_.max_record_bytes, this);
  journal_records_ = recovery_.journal_records;
  emit_recovery_telemetry();
}

StoreRecovery PlanStore::scan(const std::string& dir,
                              std::size_t max_record_bytes, PlanStore* into) {
  StoreRecovery report;
  const auto apply = [into](ParsedRecord& record) {
    if (into == nullptr) return;
    if (record.kind == ParsedRecord::Kind::Put) {
      const PlanKey key = record.plan.key;
      into->next_revision_ = std::max(into->next_revision_, record.plan.revision + 1);
      into->index_[{key.program_fp, key.device_fp}] = std::move(record.plan);
    } else {
      into->index_.erase({record.key.program_fp, record.key.device_fp});
      into->next_revision_ = std::max(into->next_revision_, record.revision + 1);
    }
  };
  // Snapshot first (base image), then journal (replay) — matching the
  // compaction ordering: snapshot commit precedes journal reset.
  const std::string snapshot = dir + "/" + kSnapshotFile;
  if (file_exists(snapshot)) {
    bool saw_header = false;
    bool saw_end = false;
    std::size_t end_count = 0;
    for (ParsedRecord& record :
         scan_file(read_file(snapshot, max_record_bytes * 64), report)) {
      if (record.kind == ParsedRecord::Kind::SnapshotHeader) {
        saw_header = true;
      } else if (record.kind == ParsedRecord::Kind::End) {
        saw_end = true;
        end_count = record.end_count;
      } else {
        apply(record);
        ++report.snapshot_records;
      }
    }
    if (!saw_header || !saw_end || end_count != report.snapshot_records) {
      report.snapshot_header_bad = true;
    }
  }
  const std::string journal = dir + "/" + kJournalFile;
  if (file_exists(journal)) {
    for (ParsedRecord& record :
         scan_file(read_file(journal, max_record_bytes * 1024), report)) {
      if (record.kind == ParsedRecord::Kind::Put ||
          record.kind == ParsedRecord::Kind::Del) {
        apply(record);
        ++report.journal_records;
      } else {
        ++report.quarantined;  // snapshot framing inside a journal
      }
    }
  }
  return report;
}

void PlanStore::emit_recovery_telemetry() const {
  const Telemetry* t = config_.telemetry;
  if (t == nullptr) return;
  if (t->metrics != nullptr) {
    t->metrics->count("store.recovered_records",
                      static_cast<long>(recovery_.snapshot_records +
                                        recovery_.journal_records));
    if (recovery_.salvaged > 0) {
      t->metrics->count("store.salvaged_records",
                        static_cast<long>(recovery_.salvaged));
    }
    if (recovery_.quarantined > 0) {
      t->metrics->count("store.quarantined_records",
                        static_cast<long>(recovery_.quarantined));
    }
    if (recovery_.torn_tail) t->metrics->count("store.torn_tails");
  }
  if (t->wants_trace()) {
    t->trace->emit("store_recovery", [&](TraceEvent& e) {
      e.str("dir", config_.dir)
          .num("snapshot_records", static_cast<long>(recovery_.snapshot_records))
          .num("journal_records", static_cast<long>(recovery_.journal_records))
          .num("quarantined", static_cast<long>(recovery_.quarantined))
          .num("salvaged", static_cast<long>(recovery_.salvaged))
          .boolean("torn_tail", recovery_.torn_tail)
          .boolean("snapshot_header_bad", recovery_.snapshot_header_bad);
    });
  }
}

std::optional<StoredPlan> PlanStore::get(const PlanKey& key) const {
  // Snapshot-read fast path: concurrent serving workers share the lock.
  std::shared_lock<std::shared_mutex> lock(mu_);
  gets_.fetch_add(1, std::memory_order_relaxed);
  const auto it = index_.find({key.program_fp, key.device_fp});
  if (it == index_.end()) return std::nullopt;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

std::vector<StoredPlan> PlanStore::plans_for_program(
    std::uint64_t program_fp) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<StoredPlan> out;
  for (auto it = index_.lower_bound({program_fp, 0});
       it != index_.end() && it->first.first == program_fp; ++it) {
    out.push_back(it->second);
  }
  std::sort(out.begin(), out.end(),
            [](const StoredPlan& a, const StoredPlan& b) {
              return a.revision < b.revision;
            });
  return out;
}

void PlanStore::append_record(const std::string& payload,
                              std::uint64_t fault_draw_key) {
  // Caller holds mu_.
  if (wedged_) {
    throw StoreError("plan store is wedged after a torn write; reopen to recover");
  }
  if (payload.size() > config_.max_record_bytes) {
    throw StoreError(strprintf("record of %zu bytes exceeds the %zu-byte limit",
                               payload.size(), config_.max_record_bytes));
  }
  const std::string frame = frame_record(payload);
  long tear = tear_next_.exchange(-1, std::memory_order_relaxed);
  bool injected = false;
  if (tear < 0 &&
      FaultInjector::instance().should_inject(FaultSite::Store, fault_draw_key)) {
    tear = static_cast<long>(frame.size() / 2);
    injected = true;
  }
  if (!journal_.is_open()) journal_.open(journal_path());
  try {
    journal_.append(frame, tear);
  } catch (const StoreError&) {
    write_faults_.fetch_add(1, std::memory_order_relaxed);
    if (!injected) {
      // Test-hook tear: simulate process death — no repair, everything
      // after this throws until the store is reopened.
      wedged_ = true;
      throw;
    }
    // Injected tear with a surviving process: terminate the garbage line so
    // later commits stay parseable, then report the failed commit.
    try {
      journal_.append("\n");
      if (config_.durable) journal_.sync();
    } catch (const StoreError&) {
      wedged_ = true;  // the repair write failed too: genuine I/O trouble
    }
    const Telemetry* t = config_.telemetry;
    if (t != nullptr && t->metrics != nullptr) t->metrics->count("store.write_faults");
    if (t != nullptr && t->wants_trace()) {
      t->trace->emit("store_write_fault", [&](TraceEvent& e) {
        e.num("bytes", frame.size()).boolean("injected", injected);
      });
    }
    throw;
  }
  if (config_.durable) journal_.sync();
  ++journal_records_;
  // Journal telemetry: emitted while a request trace is active (serve
  // write-back), the line carries the owning trace id, tying store I/O into
  // the request's causal trace.
  const Telemetry* t = config_.telemetry;
  if (t != nullptr && t->wants_trace()) {
    t->trace->emit("store_commit", [&](TraceEvent& e) {
      e.num("bytes", frame.size()).num("journal_records", journal_records_);
    });
  }
}

void PlanStore::put(StoredPlan plan) {
  KF_REQUIRE(plan.num_kernels > 0 && plan.num_kernels <= kMaxStoreKernels,
             "stored plan has a bad kernel count " << plan.num_kernels);
  KF_REQUIRE(std::isfinite(plan.best_cost_s) && plan.best_cost_s >= 0.0 &&
                 std::isfinite(plan.baseline_cost_s) && plan.baseline_cost_s >= 0.0,
             "stored plan costs must be finite and non-negative");
  // Normalize + validate the plan text once, before it can reach disk.
  FusionPlan parsed = FusionPlan::parse(plan.num_kernels, plan.plan_text);
  parsed.canonicalize();
  plan.plan_text = parsed.to_string();

  // Single-writer journal append: exclusive over index + journal.
  std::unique_lock<std::shared_mutex> lock(mu_);
  plan.revision = next_revision_;
  const std::uint64_t draw_key =
      mix64(plan.key.program_fp ^ mix64(plan.key.device_fp) ^ plan.revision);
  append_record(put_payload(plan), draw_key);
  ++next_revision_;
  index_[{plan.key.program_fp, plan.key.device_fp}] = std::move(plan);
  puts_.fetch_add(1, std::memory_order_relaxed);
}

bool PlanStore::erase(const PlanKey& key) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  const auto it = index_.find({key.program_fp, key.device_fp});
  if (it == index_.end()) return false;
  const std::uint64_t revision = next_revision_;
  const std::uint64_t draw_key =
      mix64(key.program_fp ^ mix64(key.device_fp) ^ revision);
  append_record(del_payload(key, revision), draw_key);
  ++next_revision_;
  index_.erase(it);
  return true;
}

std::size_t PlanStore::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return index_.size();
}

void PlanStore::compact() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (wedged_) {
    throw StoreError("plan store is wedged after a torn write; reopen to recover");
  }
  std::string snapshot = frame_record("snapshot v1");
  for (const auto& [key, plan] : index_) snapshot += frame_record(put_payload(plan));
  snapshot += frame_record(strprintf("end count=%zu", index_.size()));
  // Ordering is the crash-safety argument: the snapshot is durable (write →
  // fsync → rename → dir fsync) before the journal resets, so a crash
  // between the two replays the old journal over the new snapshot — puts
  // are idempotent and revisions monotone, so that is merely redundant.
  write_file_atomic(snapshot_path(), snapshot, config_.durable);
  journal_.close();
  write_file_atomic(journal_path(), "", config_.durable);
  journal_records_ = 0;
  ++compactions_;
  const Telemetry* t = config_.telemetry;
  if (t != nullptr && t->metrics != nullptr) t->metrics->count("store.compactions");
}

PlanStore::Stats PlanStore::stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  Stats s;
  s.plans = index_.size();
  s.journal_records = journal_records_;
  s.journal_bytes = std::max(0L, file_size(journal_path()));
  s.snapshot_bytes = std::max(0L, file_size(snapshot_path()));
  s.puts = puts_.load(std::memory_order_relaxed);
  s.gets = gets_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.write_faults = write_faults_.load(std::memory_order_relaxed);
  s.compactions = compactions_;
  s.recovery = recovery_;
  return s;
}

}  // namespace kf
