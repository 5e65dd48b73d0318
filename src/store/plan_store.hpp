// PlanStore — crash-safe persistent store of known-good fusion plans.
//
// The ROADMAP's plan-service direction makes search the cache-miss path:
// a plan found once for a (program, device) pair is persisted and replayed
// in microseconds on every later request (MIOpen's find-db lifecycle,
// SNIPPETS.md §1–2). That only works if the store survives everything a
// serving box does to it: SIGKILL mid-commit, torn writes, bit-rot, full
// disks. The durability design:
//
//   * Append-only CRC-framed journal. Every mutation is one framed text
//     line — `kfs1 <crc32> <len> <payload>\n` — where the CRC and length
//     cover the payload, so truncation (torn tail) and corruption (bit-rot)
//     are both detectable per record. Payloads carry a versioned record
//     schema (`put …` / `del …`). A commit is append → fflush → fsync.
//   * Compacted snapshots. `compact()` serializes the live index, commits
//     it with write → fsync → atomic-rename (util/fs_io.hpp), then resets
//     the journal — a crash at any point leaves either the old
//     snapshot+journal or the new ones, never a mix.
//   * Explicit recovery. Opening a store scans snapshot then journal,
//     validates every frame (magic, length, CRC) and every payload (field
//     ranges, finite costs, and that the plan text parses as a legal
//     partition of its kernel count), salvages all valid records, and
//     quarantines bad ones — a telemetry event and a counter, never a
//     crash, and never a corrupt plan in the index. Only the in-flight
//     record of a mid-commit crash can be lost (the torn tail).
//
// Crash-torture support: test_tear_next_append(n) makes the next commit
// write exactly its first n bytes and then fail with the store wedged —
// the on-disk image of a SIGKILL after n durable bytes. The fault injector
// (site `store`) tears commits probabilistically the same way, but repairs
// the line ending so a *surviving* process keeps appending parseable
// records; either way the record is not applied to the index.
//
// Thread-safe, read-mostly: a shared_mutex over index + journal. Reads
// (get / plans_for_program / size / stats — the serving hot path, many
// workers at once) take the lock shared and return value snapshots;
// mutations (put / erase / compact — the write-back path) take it exclusive,
// so the journal has exactly one appender at a time and the append→fsync→
// index-update commit protocol stays atomic under concurrency.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/fs_io.hpp"

namespace kf {

struct Telemetry;  // telemetry/telemetry.hpp

/// (program fingerprint, device fingerprint) — see store/fingerprint.hpp.
struct PlanKey {
  std::uint64_t program_fp = 0;
  std::uint64_t device_fp = 0;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

/// One persisted plan. `plan_text` is the FusionPlan::to_string form and is
/// re-validated (parse + partition) on every load; costs are advisory
/// (the serving layer re-costs against its own objective).
struct StoredPlan {
  PlanKey key;
  int num_kernels = 0;
  std::string plan_text;
  double best_cost_s = 0.0;
  double baseline_cost_s = 0.0;
  std::uint64_t revision = 0;  ///< store-assigned, monotone; 0 = unassigned
};

/// What recovery found. `salvaged` counts valid records recovered *after*
/// the first corrupt one — records a frameless format would have lost.
struct StoreRecovery {
  std::size_t snapshot_records = 0;  ///< valid records applied from the snapshot
  std::size_t journal_records = 0;   ///< valid records applied from the journal
  std::size_t quarantined = 0;       ///< corrupt records skipped (bad frame/CRC/payload)
  std::size_t salvaged = 0;          ///< valid records past the first corruption
  bool torn_tail = false;            ///< truncated in-flight final record dropped
  bool snapshot_header_bad = false;  ///< snapshot missing/garbled header or end-count

  bool clean() const noexcept {
    return quarantined == 0 && !torn_tail && !snapshot_header_bad;
  }

  friend bool operator==(const StoreRecovery&, const StoreRecovery&) = default;
};

class PlanStore {
 public:
  struct Config {
    std::string dir;
    /// fsync every commit (and snapshot). Turn off only for tests/benches.
    bool durable = true;
    std::size_t max_record_bytes = 1u << 20;
    /// Observability: recovery/quarantine events, store.* counters. May be
    /// null. Must outlive the store.
    const Telemetry* telemetry = nullptr;
  };

  static constexpr const char* kJournalFile = "journal.kfj";
  static constexpr const char* kSnapshotFile = "snapshot.kfs";

  /// Opens (creating the directory if needed) and recovers. Throws
  /// StoreError only on hard I/O failures — corrupt contents are salvaged
  /// and reported via recovery(), never thrown.
  explicit PlanStore(Config config);

  const StoreRecovery& recovery() const noexcept { return recovery_; }

  std::optional<StoredPlan> get(const PlanKey& key) const;

  /// Every stored plan for this program fingerprint (any device), revision
  /// order — the degradation ladder's "nearest stored plan" rung.
  std::vector<StoredPlan> plans_for_program(std::uint64_t program_fp) const;

  /// Commits one plan: journal append + fsync, then index update. Assigns
  /// the revision. Throws StoreError on I/O failure or a (possibly
  /// injected) torn write — the record is then NOT in the index, matching
  /// the disk image a recovery would produce.
  void put(StoredPlan plan);

  /// Commits a tombstone; true if the key was present.
  bool erase(const PlanKey& key);

  std::size_t size() const;

  /// Snapshot + journal reset (see class comment). Throws StoreError on
  /// I/O failure; the store remains consistent either way.
  void compact();

  struct Stats {
    std::size_t plans = 0;
    std::size_t journal_records = 0;  ///< records appended since last compact
    long journal_bytes = 0;
    long snapshot_bytes = 0;
    long puts = 0;
    long gets = 0;
    long hits = 0;
    long write_faults = 0;  ///< torn/injected append failures survived
    long compactions = 0;
    StoreRecovery recovery;
  };
  Stats stats() const;

  /// Read-only offline scan of a store directory (kfc store verify): the
  /// recovery scan, without repair or an index. Throws StoreError only on
  /// hard I/O failures.
  static StoreRecovery verify(const std::string& dir,
                              std::size_t max_record_bytes = 1u << 20) {
    return scan(dir, max_record_bytes, nullptr);
  }

  /// Crash simulation (tests only): the next put() writes exactly `bytes`
  /// bytes of its framed record, then throws with the store wedged —
  /// every further mutation throws, as after a real crash. Reopen to
  /// recover.
  void test_tear_next_append(long bytes) noexcept { tear_next_ = bytes; }

  bool wedged() const noexcept { return wedged_; }

  const std::string& dir() const noexcept { return config_.dir; }

 private:
  Config config_;
  mutable std::shared_mutex mu_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, StoredPlan> index_;
  AppendFile journal_;
  StoreRecovery recovery_;
  std::uint64_t next_revision_ = 1;
  std::size_t journal_records_ = 0;
  // Atomic so the unlocked test hook / accessor race cleanly with writers.
  std::atomic<long> tear_next_{-1};
  std::atomic<bool> wedged_{false};
  mutable std::atomic<long> puts_{0};
  mutable std::atomic<long> gets_{0};
  mutable std::atomic<long> hits_{0};
  mutable std::atomic<long> write_faults_{0};
  long compactions_ = 0;

  std::string journal_path() const { return config_.dir + "/" + kJournalFile; }
  std::string snapshot_path() const { return config_.dir + "/" + kSnapshotFile; }

  /// Scans snapshot then journal, validating every record, and reports what
  /// it found; applies the valid records to `into`'s index and revision
  /// counter when given a store. Never throws on content.
  static StoreRecovery scan(const std::string& dir, std::size_t max_record_bytes,
                            PlanStore* into);
  void append_record(const std::string& payload, std::uint64_t fault_draw_key);
  void emit_recovery_telemetry() const;
};

}  // namespace kf
