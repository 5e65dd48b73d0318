// Plan-store tests: durable I/O primitives, structural fingerprints, the
// CRC-framed journal + snapshot lifecycle, corruption salvage from the
// checked-in fuzz corpus (tests/fixtures/bad/store/), and the crash-torture
// sweep — a simulated SIGKILL at every byte offset of a journal commit,
// after which recovery must hold every committed plan, lose at most the
// in-flight record, and never serve a corrupt plan.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "apps/motivating_example.hpp"
#include "apps/scale_les.hpp"
#include "fusion/fusion_plan.hpp"
#include "gpu/device_spec.hpp"
#include "store/fingerprint.hpp"
#include "store/plan_store.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/fs_io.hpp"

namespace kf {
namespace {

namespace fs = std::filesystem;

/// Fresh empty store directory per test case.
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "kf_store_" + name;
  fs::remove_all(dir);
  return dir;
}

StoredPlan make_plan(std::uint64_t pfp, std::uint64_t dfp,
                     const std::string& text = "{0,1} {2} {3}",
                     int kernels = 4) {
  StoredPlan p;
  p.key = {pfp, dfp};
  p.num_kernels = kernels;
  p.plan_text = text;
  p.best_cost_s = 1.25e-3;
  p.baseline_cost_s = 2.5e-3;
  return p;
}

PlanStore::Config config(const std::string& dir) {
  PlanStore::Config c;
  c.dir = dir;
  c.durable = false;  // tests exercise the logic, not the disk
  return c;
}

// ---------------------------------------------------------------- fs_io

TEST(FsIo, Crc32MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  // Chaining: crc32(ab) == crc32(b, crc32(a)).
  EXPECT_EQ(crc32("123456789"), crc32("56789", crc32("1234")));
}

TEST(FsIo, AtomicWriteRoundTripsAndLeavesNoTemp) {
  const std::string dir = fresh_dir("fsio");
  make_dir(dir);
  const std::string path = dir + "/data.txt";
  write_file_atomic(path, "first", false);
  EXPECT_EQ(read_file(path), "first");
  write_file_atomic(path, "second", false);
  EXPECT_EQ(read_file(path), "second");
  EXPECT_FALSE(file_exists(path + ".tmp"));
  EXPECT_EQ(file_size(path), 6);
}

TEST(FsIo, ReadFileEnforcesTheSizeCap) {
  const std::string dir = fresh_dir("fsio_cap");
  make_dir(dir);
  const std::string path = dir + "/big.txt";
  write_file_atomic(path, std::string(1024, 'x'), false);
  EXPECT_THROW(read_file(path, 100), StoreError);
  EXPECT_THROW(read_file(dir + "/missing.txt"), StoreError);
}

TEST(FsIo, AppendFileTearWritesExactlyTheRequestedPrefix) {
  const std::string dir = fresh_dir("fsio_tear");
  make_dir(dir);
  const std::string path = dir + "/log";
  AppendFile f;
  f.open(path);
  f.append("hello\n");
  EXPECT_THROW(f.append("world\n", 3), StoreError);
  f.close();
  EXPECT_EQ(read_file(path), "hello\nwor");
}

// ---------------------------------------------------------- fingerprints

TEST(Fingerprint, StableAcrossIndependentConstructions) {
  EXPECT_EQ(program_fingerprint(motivating_example()),
            program_fingerprint(motivating_example()));
  EXPECT_EQ(device_fingerprint(DeviceSpec::k20x()),
            device_fingerprint(DeviceSpec::k20x()));
}

TEST(Fingerprint, SensitiveToStructureAndDeviceConstants) {
  EXPECT_NE(program_fingerprint(motivating_example()),
            program_fingerprint(scale_les_rk18()));
  EXPECT_NE(device_fingerprint(DeviceSpec::k20x()),
            device_fingerprint(DeviceSpec::k40()));
  DeviceSpec tweaked = DeviceSpec::k20x();
  tweaked.gmem_bw_gbs *= 1.01;  // any model-relevant constant must matter
  EXPECT_NE(device_fingerprint(DeviceSpec::k20x()), device_fingerprint(tweaked));
}

TEST(Fingerprint, DeviceNameIsExcluded) {
  DeviceSpec renamed = DeviceSpec::k20x();
  renamed.name = "k20x-rebadged";
  EXPECT_EQ(device_fingerprint(DeviceSpec::k20x()), device_fingerprint(renamed));
}

// ------------------------------------------------------------ PlanStore

TEST(PlanStore, PutGetRoundTripAndRevisions) {
  const std::string dir = fresh_dir("roundtrip");
  PlanStore store(config(dir));
  EXPECT_TRUE(store.recovery().clean());
  EXPECT_EQ(store.size(), 0u);

  store.put(make_plan(1, 10));
  store.put(make_plan(1, 11, "{0} {1} {2} {3}"));
  store.put(make_plan(2, 10, "{0,1,2} {3}"));
  EXPECT_EQ(store.size(), 3u);

  const auto hit = store.get({1, 10});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->plan_text, "{0,1} {2} {3}");
  EXPECT_EQ(hit->num_kernels, 4);
  EXPECT_EQ(hit->revision, 1u);
  EXPECT_FALSE(store.get({9, 9}).has_value());

  // plans_for_program: both device rows for program 1, revision order.
  const std::vector<StoredPlan> fam = store.plans_for_program(1);
  ASSERT_EQ(fam.size(), 2u);
  EXPECT_LT(fam[0].revision, fam[1].revision);

  // Overwrite bumps the revision and replaces the row.
  store.put(make_plan(1, 10, "{0} {1} {2} {3}"));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.get({1, 10})->plan_text, "{0} {1} {2} {3}");
  EXPECT_EQ(store.get({1, 10})->revision, 4u);
}

TEST(PlanStore, ReopenRecoversEverythingIncludingTombstones) {
  const std::string dir = fresh_dir("reopen");
  {
    PlanStore store(config(dir));
    store.put(make_plan(1, 10));
    store.put(make_plan(2, 10));
    EXPECT_TRUE(store.erase({1, 10}));
    EXPECT_FALSE(store.erase({1, 10}));  // already gone
  }
  PlanStore store(config(dir));
  EXPECT_TRUE(store.recovery().clean());
  EXPECT_EQ(store.recovery().journal_records, 3u);  // 2 puts + 1 del
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.get({1, 10}).has_value());
  ASSERT_TRUE(store.get({2, 10}).has_value());
  // Revisions keep climbing after a reopen — no reuse after recovery.
  store.put(make_plan(3, 10));
  EXPECT_GT(store.get({3, 10})->revision, 3u);
}

TEST(PlanStore, PutCanonicalizesPlanTextBeforeDisk) {
  const std::string dir = fresh_dir("canon");
  PlanStore store(config(dir));
  store.put(make_plan(1, 10, "{3} {2,1} {0}"));
  EXPECT_EQ(store.get({1, 10})->plan_text, "{0} {1,2} {3}");
}

TEST(PlanStore, PutRejectsBadInputBeforeTouchingDisk) {
  const std::string dir = fresh_dir("reject");
  PlanStore store(config(dir));
  EXPECT_THROW(store.put(make_plan(1, 10, "{0,1} {2} {3}", 0)), PreconditionError);
  StoredPlan inf_cost = make_plan(1, 10);
  inf_cost.best_cost_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(store.put(inf_cost), PreconditionError);
  // Not a partition: the plan parser rejects it.
  EXPECT_THROW(store.put(make_plan(1, 10, "{0,0} {1}")), PreconditionError);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_LE(file_size(dir + "/" + PlanStore::kJournalFile), 0L);
}

TEST(PlanStore, OversizedRecordThrowsAndLeavesTheIndexUntouched) {
  const std::string dir = fresh_dir("oversized");
  PlanStore::Config c = config(dir);
  c.max_record_bytes = 64;
  PlanStore store(c);
  EXPECT_THROW(store.put(make_plan(1, 10)), StoreError);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.wedged()) << "an oversized record is rejected, not a crash";
}

TEST(PlanStore, CompactionShrinksTheJournalAndSurvivesReopen) {
  const std::string dir = fresh_dir("compact");
  {
    PlanStore store(config(dir));
    for (int i = 0; i < 8; ++i) {
      store.put(make_plan(1, static_cast<std::uint64_t>(i)));
      store.put(make_plan(1, static_cast<std::uint64_t>(i), "{0} {1} {2} {3}"));
    }
    EXPECT_GT(file_size(dir + "/" + PlanStore::kJournalFile), 0L);
    store.compact();
    EXPECT_EQ(file_size(dir + "/" + PlanStore::kJournalFile), 0L);
    EXPECT_GT(file_size(dir + "/" + PlanStore::kSnapshotFile), 0L);
    // The store keeps serving after a compact, and new puts journal again.
    EXPECT_TRUE(store.get({1, 3}).has_value());
    store.put(make_plan(2, 0));
    EXPECT_GT(file_size(dir + "/" + PlanStore::kJournalFile), 0L);
  }
  PlanStore store(config(dir));
  EXPECT_TRUE(store.recovery().clean());
  EXPECT_EQ(store.recovery().snapshot_records, 8u);
  EXPECT_EQ(store.recovery().journal_records, 1u);
  EXPECT_EQ(store.size(), 9u);
  EXPECT_EQ(store.get({1, 5})->plan_text, "{0} {1} {2} {3}");
}

TEST(PlanStore, MidFileCorruptionIsQuarantinedAndLaterRecordsSalvaged) {
  const std::string dir = fresh_dir("salvage");
  {
    PlanStore store(config(dir));
    store.put(make_plan(1, 10));
    store.put(make_plan(2, 10));
    store.put(make_plan(3, 10));
  }
  // Flip bytes inside the middle record's payload (bit-rot).
  std::string journal = read_file(dir + "/" + PlanStore::kJournalFile);
  const std::size_t second = journal.find('\n') + 20;
  journal[second] ^= 0x5a;
  journal[second + 1] ^= 0x5a;
  write_file_atomic(dir + "/" + PlanStore::kJournalFile, journal, false);

  PlanStore store(config(dir));
  EXPECT_FALSE(store.recovery().clean());
  EXPECT_EQ(store.recovery().quarantined, 1u);
  EXPECT_EQ(store.recovery().salvaged, 1u) << "the record after the rot survives";
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.get({1, 10}).has_value());
  EXPECT_FALSE(store.get({2, 10}).has_value()) << "the rotted record is gone";
  EXPECT_TRUE(store.get({3, 10}).has_value());
}

TEST(PlanStore, RecoveryEmitsSalvageTelemetry) {
  const std::string dir = fresh_dir("salvage_metrics");
  {
    PlanStore store(config(dir));
    store.put(make_plan(1, 10));
    store.put(make_plan(2, 10));
  }
  std::string journal = read_file(dir + "/" + PlanStore::kJournalFile);
  journal[10] ^= 0xff;  // rot the first record; the second salvages
  write_file_atomic(dir + "/" + PlanStore::kJournalFile, journal, false);

  MetricsRegistry metrics;
  Telemetry telemetry;
  telemetry.metrics = &metrics;
  PlanStore::Config c = config(dir);
  c.telemetry = &telemetry;
  PlanStore store(c);
  EXPECT_EQ(metrics.counter_value("store.salvaged_records"), 1);
  EXPECT_EQ(metrics.counter_value("store.quarantined_records"), 1);
  EXPECT_EQ(metrics.counter_value("store.recovered_records"), 1);
}

TEST(PlanStore, InjectedStoreFaultTearsTheCommitButTheStoreSurvives) {
  const std::string dir = fresh_dir("inject");
  PlanStore store(config(dir));
  {
    ScopedFaultInjection inject(FaultPlan{FaultSite::Store, 1.0, 7});
    EXPECT_THROW(store.put(make_plan(1, 10)), StoreError);
  }
  EXPECT_FALSE(store.wedged()) << "injected tears are survivable";
  EXPECT_EQ(store.size(), 0u) << "the failed commit must not reach the index";
  EXPECT_EQ(store.stats().write_faults, 1);
  // The journal stays parseable: the next commit lands cleanly...
  store.put(make_plan(2, 10));
  EXPECT_TRUE(store.get({2, 10}).has_value());
  // ...and a recovery quarantines the torn line without losing it.
  PlanStore reopened(config(dir));
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_TRUE(reopened.get({2, 10}).has_value());
  EXPECT_EQ(reopened.recovery().quarantined, 1u);
  EXPECT_EQ(reopened.recovery().salvaged, 1u);
}

// ------------------------------------------------------- crash torture

/// SIGKILL at every byte offset of a journal commit: build a store with
/// three committed plans, tear the fourth commit after exactly `offset`
/// durable bytes, reopen, and demand (a) all three committed plans
/// recovered bit-exact, (b) the in-flight record lost unless every payload
/// byte landed, (c) nothing corrupt ever served.
TEST(StoreTorture, CrashAtEveryByteOffsetLosesAtMostTheInFlightRecord) {
  // Measure the in-flight record's framed size once, in a scratch store.
  long frame_len = 0;
  {
    const std::string dir = fresh_dir("torture_measure");
    PlanStore store(config(dir));
    store.put(make_plan(1, 10));
    store.put(make_plan(2, 10, "{0} {1} {2} {3}"));
    store.put(make_plan(3, 10, "{0,1,2,3}"));
    const long before = file_size(dir + "/" + PlanStore::kJournalFile);
    store.put(make_plan(4, 10, "{0,3} {1,2}"));
    frame_len = file_size(dir + "/" + PlanStore::kJournalFile) - before;
  }
  ASSERT_GT(frame_len, 40);

  for (long offset = 0; offset < frame_len; ++offset) {
    SCOPED_TRACE("crash after " + std::to_string(offset) + " of " +
                 std::to_string(frame_len) + " bytes");
    const std::string dir =
        fresh_dir("torture_" + std::to_string(offset));
    {
      PlanStore store(config(dir));
      store.put(make_plan(1, 10));
      store.put(make_plan(2, 10, "{0} {1} {2} {3}"));
      store.put(make_plan(3, 10, "{0,1,2,3}"));
      store.test_tear_next_append(offset);
      EXPECT_THROW(store.put(make_plan(4, 10, "{0,3} {1,2}")), StoreError);
      EXPECT_TRUE(store.wedged());
      // Everything after the crash image throws until reopened.
      EXPECT_THROW(store.put(make_plan(5, 10)), StoreError);
      EXPECT_THROW(store.compact(), StoreError);
    }
    PlanStore store(config(dir));
    // (a) Zero committed-plan loss.
    ASSERT_TRUE(store.get({1, 10}).has_value());
    ASSERT_TRUE(store.get({2, 10}).has_value());
    ASSERT_TRUE(store.get({3, 10}).has_value());
    EXPECT_EQ(store.get({2, 10})->plan_text, "{0} {1} {2} {3}");
    // (b) The in-flight record is recovered only when every payload byte
    // landed (the final '\n' is cosmetic once the CRC covers the payload).
    const auto in_flight = store.get({4, 10});
    if (offset >= frame_len - 1) {
      ASSERT_TRUE(in_flight.has_value());
      EXPECT_EQ(in_flight->plan_text, "{0,3} {1,2}");
      EXPECT_TRUE(store.recovery().clean());
    } else {
      EXPECT_FALSE(in_flight.has_value());
      if (offset > 0) {
        EXPECT_TRUE(store.recovery().torn_tail);
      } else {
        EXPECT_TRUE(store.recovery().clean()) << "zero bytes = no tear";
      }
    }
    // (c) Every served plan re-parses as a valid partition.
    for (std::uint64_t pfp = 1; pfp <= 4; ++pfp) {
      for (const StoredPlan& p : store.plans_for_program(pfp)) {
        EXPECT_NO_THROW((void)FusionPlan::parse(p.num_kernels, p.plan_text));
      }
    }
    // The revivified store accepts new commits.
    store.put(make_plan(9, 10));
    EXPECT_TRUE(store.get({9, 10}).has_value());
  }
}

// --------------------------------------------------------- fuzz corpus

/// Every checked-in corrupt journal must open without crashing, flag the
/// recovery as not clean, and never surface an invalid record.
class BadJournal : public testing::TestWithParam<const char*> {};

TEST_P(BadJournal, OpensSalvagesAndNeverServesCorruptRecords) {
  const std::string dir = fresh_dir(std::string("fuzz_") + GetParam());
  make_dir(dir);
  const std::string fixture =
      std::string(KF_FIXTURE_DIR) + "/bad/store/" + GetParam();
  write_file_atomic(dir + "/" + PlanStore::kJournalFile, read_file(fixture),
                    false);
  PlanStore store(config(dir));
  EXPECT_FALSE(store.recovery().clean()) << "corruption must be reported";
  for (const auto& p : store.plans_for_program(1)) {
    EXPECT_NO_THROW((void)FusionPlan::parse(p.num_kernels, p.plan_text));
  }
  // Offline verify runs the recovery scan: it reports exactly what opening
  // the store found, without repairing anything.
  const std::string before = read_file(dir + "/" + PlanStore::kJournalFile);
  EXPECT_EQ(PlanStore::verify(dir), store.recovery());
  EXPECT_EQ(read_file(dir + "/" + PlanStore::kJournalFile), before);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, BadJournal,
    testing::Values("garbage.kfj", "bad_magic.kfj", "bad_crc.kfj",
                    "bad_len.kfj", "truncated_tail.kfj", "nonfinite_cost.kfj",
                    "negative_cost.kfj", "zero_kernels.kfj",
                    "huge_kernels.kfj", "not_a_partition.kfj", "bad_field.kfj",
                    "unknown_verb.kfj", "bad_del.kfj"),
    [](const auto& info) {
      std::string name = info.param;
      return name.substr(0, name.find('.'));
    });

TEST(BadSnapshot, SalvageMiddleJournalRecoversTheRecordAfterTheRot) {
  const std::string dir = fresh_dir("fuzz_salvage_mid");
  make_dir(dir);
  write_file_atomic(
      dir + "/" + PlanStore::kJournalFile,
      read_file(std::string(KF_FIXTURE_DIR) + "/bad/store/salvage_middle.kfj"),
      false);
  PlanStore store(config(dir));
  EXPECT_EQ(store.recovery().quarantined, 1u);
  EXPECT_EQ(store.recovery().salvaged, 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(PlanStore::verify(dir), store.recovery());
}

TEST(BadSnapshot, BadHeaderIsFlaggedButRecordsStillLoad) {
  const std::string dir = fresh_dir("fuzz_bad_header");
  make_dir(dir);
  write_file_atomic(
      dir + "/" + PlanStore::kSnapshotFile,
      read_file(std::string(KF_FIXTURE_DIR) + "/bad/store/bad_header.kfs"),
      false);
  PlanStore store(config(dir));
  EXPECT_TRUE(store.recovery().snapshot_header_bad);
  EXPECT_FALSE(store.recovery().clean());
  EXPECT_EQ(store.size(), 1u) << "valid records inside still salvage";
  EXPECT_EQ(PlanStore::verify(dir), store.recovery());
}

}  // namespace
}  // namespace kf
