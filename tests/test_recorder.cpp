// Flight-recorder / watchdog / postmortem tests: the lock-striped ring's
// exact recorded/dropped accounting, bundle serialize -> parse round-trips,
// every-byte-offset truncation torture (the plan store's salvage posture
// applied to incident bundles), corrupt-slot quarantine, the in-flight
// table's stage-ledger publication, the async-signal-safe dump path — both
// called directly and exercised for real via fork() + raise() death tests —
// the watchdog's latched triggers, and the postmortem analyzer's
// deterministic cause ranking.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "apps/motivating_example.hpp"
#include "gpu/device_spec.hpp"
#include "serve/plan_server.hpp"
#include "serve/postmortem.hpp"
#include "serve/serve_engine.hpp"
#include "serve/watchdog.hpp"
#include "store/plan_store.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/provenance.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/telemetry.hpp"
#include "util/fs_io.hpp"
#include "util/stopwatch.hpp"

namespace kf {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "kf_recorder_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

long count_incident_files(const std::string& dir) {
  long n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("incident-", 0) == 0) ++n;
  }
  return n;
}

FlightRecorder::Config small_config(std::size_t capacity, int stripes,
                                    double* fake_now = nullptr) {
  FlightRecorder::Config cfg;
  cfg.capacity = capacity;
  cfg.stripes = stripes;
  if (fake_now != nullptr) cfg.clock = [fake_now] { return *fake_now; };
  return cfg;
}

// ------------------------------------------------------------- the ring

TEST(FlightRecorder, RoundTripsEveryRecordType) {
  double now = 1.5;
  FlightRecorder rec(small_config(64, 4, &now));
  const TraceId trace = TraceId::derive(1, 2, 3);

  RequestContext serve;
  serve.trace_id = trace;
  serve.program_fp = 0xAAu;
  serve.latency_s = 0.25;
  serve.deadline_s = 0.5;
  serve.stage_s[RequestContext::kSearch] = 0.2;
  serve.worker_id = 3;
  rec.record_serve(serve);

  const int members[3] = {4, 5, 6};
  now = 2.0;
  rec.record_decision(2, true, members, 3, -1e-4, "gmem_traffic", trace);
  rec.record_span("store.get", 1.0, 0.125, 7, trace);
  rec.state().requests_total.store(9, std::memory_order_relaxed);
  rec.record_counters();
  FlightTriggerPayload trig;
  trig.reason = static_cast<std::uint16_t>(IncidentReason::kExitDump);
  rec.record_trigger(trig, TraceId());

  EXPECT_EQ(rec.recorded(), 5);
  EXPECT_EQ(rec.dropped(), 0);

  const FlightBundle b =
      FlightRecorder::parse(rec.serialize(IncidentReason::kExitDump));
  ASSERT_TRUE(b.header_ok);
  EXPECT_TRUE(b.clean());
  EXPECT_EQ(b.header.incident_reason(), IncidentReason::kExitDump);
  EXPECT_EQ(b.header.recorded_total, 5);
  EXPECT_EQ(b.header.state.requests_total, 9);
  EXPECT_DOUBLE_EQ(b.header.captured_s, 2.0);
  ASSERT_EQ(b.records.size(), 5u);
  EXPECT_EQ(b.empty_slots, 64 - 5);

  // seq-sorted, one of each type, payloads intact.
  const FlightServePayload* s = b.records[0].as_serve();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->program_fp, 0xAAu);
  EXPECT_DOUBLE_EQ(s->latency_s, 0.25);
  EXPECT_DOUBLE_EQ(s->stage_s[RequestContext::kSearch], 0.2);
  EXPECT_EQ(s->worker_id, 3);
  EXPECT_EQ(b.records[0].trace, trace);
  EXPECT_DOUBLE_EQ(b.records[0].t_s, 1.5);

  const FlightDecisionPayload* d = b.records[1].as_decision();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->site, 2);
  EXPECT_EQ(d->member_count, 3);
  EXPECT_EQ(d->members[2], 6);
  EXPECT_STREQ(d->dominant, "gmem_traffic");
  EXPECT_DOUBLE_EQ(b.records[1].t_s, 2.0);

  const FlightSpanPayload* sp = b.records[2].as_span();
  ASSERT_NE(sp, nullptr);
  EXPECT_STREQ(sp->name, "store.get");
  EXPECT_DOUBLE_EQ(sp->dur_s, 0.125);

  const StateSnapshot* cs = b.records[3].as_counters();
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->requests_total, 9);

  const FlightTriggerPayload* t = b.records[4].as_trigger();
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(static_cast<IncidentReason>(t->reason),
            IncidentReason::kExitDump);

  // Wrong-type accessors answer null, never garbage.
  EXPECT_EQ(b.records[0].as_decision(), nullptr);
  EXPECT_EQ(b.records[4].as_serve(), nullptr);
}

TEST(FlightRecorder, EvictionAccountingIsExact) {
  // One stripe: a single-threaded writer only ever claims from its own
  // stripe, so stripes=1 makes the whole capacity visible to this test.
  FlightRecorder rec(small_config(8, 1));
  for (int i = 0; i < 100; ++i)
    rec.record_span("s", 0.0, 0.001, 0, TraceId());
  EXPECT_EQ(rec.recorded(), 100);
  EXPECT_EQ(rec.dropped(), 92);

  const FlightBundle b =
      FlightRecorder::parse(rec.serialize(IncidentReason::kExitDump));
  ASSERT_TRUE(b.header_ok);
  EXPECT_EQ(b.header.recorded_total, 100);
  EXPECT_EQ(b.header.dropped_total, 92);
  EXPECT_EQ(b.records.size(), 8u);
  EXPECT_EQ(b.empty_slots, 0);
  // Survivors are the newest per stripe slot — all from the last wraps.
  for (const FlightRecord& r : b.records) EXPECT_GT(r.seq, 84u);
}

TEST(FlightRecorder, ConcurrentWritersLoseNothing) {
  // Capacity such that even if every thread hashed onto ONE stripe the
  // records still fit — the no-drop assertion must not depend on how
  // thread tokens distribute.
  FlightRecorder rec(small_config(1u << 15, 8));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i)
        rec.record_span("w", t, 0.001, t, TraceId::derive(1, t + 1, i + 1));
    });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(rec.recorded(), kThreads * kPerThread);
  EXPECT_EQ(rec.dropped(), 0);
  const FlightBundle b =
      FlightRecorder::parse(rec.serialize(IncidentReason::kExitDump));
  ASSERT_TRUE(b.header_ok);
  // No dump raced the writers, so every record must parse CRC-clean.
  EXPECT_EQ(b.quarantined, 0);
  EXPECT_EQ(b.records.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

// ------------------------------------------------- bundle fault tolerance

TEST(FlightRecorder, TruncationTortureSalvagesEveryPrefix) {
  FlightRecorder rec(small_config(16, 1));
  for (int i = 0; i < 10; ++i)
    rec.record_span("s", i, 0.001, i, TraceId::derive(1, 1, i + 1));
  const std::string full = rec.serialize(IncidentReason::kExitDump);
  const FlightBundle whole = FlightRecorder::parse(full);
  ASSERT_TRUE(whole.clean());
  ASSERT_EQ(whole.records.size(), 10u);

  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const FlightBundle b =
        FlightRecorder::parse(std::string_view(full).substr(0, cut));
    // Never a false "clean": any missing byte must surface as truncation
    // (or as "not a bundle" when even the header line is gone).
    EXPECT_FALSE(b.clean()) << "prefix " << cut << " parsed as clean";
    if (b.header_ok) {
      EXPECT_TRUE(b.truncated);
      EXPECT_LE(b.records.size(), whole.records.size());
      // Whatever was salvaged is genuine: every record passed its CRC.
      for (const FlightRecord& r : b.records)
        EXPECT_EQ(r.magic, FlightRecord::kMagic);
    }
  }
  EXPECT_TRUE(FlightRecorder::parse(full).clean());
}

TEST(FlightRecorder, CorruptSlotIsQuarantinedNotFatal) {
  FlightRecorder rec(small_config(16, 1));
  for (int i = 0; i < 10; ++i)
    rec.record_span("s", i, 0.001, i, TraceId::derive(1, 1, i + 1));
  std::string bytes = rec.serialize(IncidentReason::kExitDump);
  // Flip one byte inside a *written* record's payload (slot 5 of the 16;
  // slots 10..15 are empty and a flip there would just read as garbage in
  // an empty slot, not a torn record).
  const std::size_t records_start = bytes.size() - 16 * sizeof(FlightRecord);
  bytes[records_start + 5 * sizeof(FlightRecord) + 40] ^= 0x40;
  const FlightBundle b = FlightRecorder::parse(bytes);
  ASSERT_TRUE(b.header_ok);
  EXPECT_FALSE(b.truncated);
  EXPECT_EQ(b.quarantined, 1);
  EXPECT_EQ(b.records.size(), 9u);
  EXPECT_FALSE(b.clean());

  // The analyzer still produces a diagnosis and maps it to the salvage
  // exit code, mirroring `kfc store verify`.
  const PostmortemReport report = analyze_bundle(b);
  EXPECT_EQ(report.exit_code(), 4);
  EXPECT_FALSE(report.causes.empty());
}

TEST(FlightRecorder, GarbageIsNotABundle) {
  const FlightBundle b = FlightRecorder::parse("definitely not a bundle\n");
  EXPECT_FALSE(b.header_ok);
  EXPECT_FALSE(b.truncated);
  EXPECT_EQ(analyze_bundle(b).exit_code(), 3);
}

// ------------------------------------------------------- in-flight table

TEST(FlightRecorder, InflightTablePublishesTheStageLedger) {
  double now = 10.0;
  FlightRecorder rec(small_config(16, 2, &now));
  RequestContext rc;
  rc.trace_id = TraceId::derive(7, 8, 9);
  rc.seq = 42;
  rc.stage_s[RequestContext::kStoreGet] = 0.010;
  rc.stage_s[RequestContext::kSearch] = 0.200;

  const int slot = rec.inflight_begin(3, rc.trace_id, rc.seq, 0.5, now);
  rec.inflight_update(slot, rc);
  {
    const FlightBundle b =
        FlightRecorder::parse(rec.serialize(IncidentReason::kExitDump));
    ASSERT_EQ(b.inflight.size(), 1u);
    const InflightDump& d = b.inflight[0];
    EXPECT_EQ(d.worker_id, 3);
    EXPECT_EQ(d.trace, rc.trace_id);
    EXPECT_EQ(d.seq, 42);
    EXPECT_DOUBLE_EQ(d.since_s, 10.0);
    EXPECT_DOUBLE_EQ(d.deadline_s, 0.5);
    EXPECT_DOUBLE_EQ(d.stage_s[RequestContext::kStoreGet], 0.010);
    EXPECT_DOUBLE_EQ(d.stage_s[RequestContext::kSearch], 0.200);
  }
  rec.inflight_end(slot);
  const FlightBundle after =
      FlightRecorder::parse(rec.serialize(IncidentReason::kExitDump));
  EXPECT_TRUE(after.inflight.empty());
}

// -------------------------------------------------- ring-drop accounting

TEST(RingAccounting, DecisionLogReportsExactDrops) {
  DecisionLog log(4);
  const std::vector<KernelId> members = {1, 2};
  for (int i = 0; i < 7; ++i)
    log.record(DecisionLog::Site::GreedyMerge, true, members, -1e-6);
  EXPECT_EQ(log.recorded(), 7);
  EXPECT_EQ(log.dropped(), 3);
}

// ------------------------------------------------------ serving-path tee

TEST(RecorderTee, ServeDecisionsAndOutcomeLandInTheRing) {
  const std::string dir = fresh_dir("tee");
  PlanStore store({.dir = dir + "/store", .durable = false});
  FlightRecorder rec;
  DecisionLog decisions;
  decisions.set_recorder(&rec);
  Telemetry telemetry;
  telemetry.recorder = &rec;
  telemetry.decisions = &decisions;
  PlanServerConfig cfg;
  cfg.telemetry = &telemetry;
  PlanServer server(store, cfg);
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();

  const ServeResult miss = server.serve(program, device);  // full search
  const ServeResult hit = server.serve(program, device);   // store hit
  ASSERT_EQ(hit.rung, ServeRung::StoreHit);

  const FlightBundle b =
      FlightRecorder::parse(rec.serialize(IncidentReason::kExitDump));
  ASSERT_TRUE(b.header_ok);

  long serves = 0;
  long decisions_for_miss = 0;
  for (const FlightRecord& r : b.records) {
    if (const FlightServePayload* p = r.as_serve()) {
      ++serves;
      EXPECT_EQ(p->program_fp, hit.program_fp);
      EXPECT_TRUE(r.trace == miss.trace_id || r.trace == hit.trace_id);
    }
    if (r.as_decision() != nullptr && r.trace == miss.trace_id)
      ++decisions_for_miss;
  }
  EXPECT_EQ(serves, 2);
  EXPECT_GT(decisions_for_miss, 0)
      << "search decisions must carry the owning request's trace";
  EXPECT_EQ(rec.state().requests_total.load(std::memory_order_relaxed), 2);

  // The in-flight table is empty once both requests finished.
  EXPECT_TRUE(b.inflight.empty());
}

TEST(RecorderTee, AttachingTheRecorderDoesNotChangeServedPlans) {
  const std::string dir = fresh_dir("bitident");
  PlanStore store({.dir = dir + "/store", .durable = false});
  PlanServer bare(store, PlanServerConfig{});
  FlightRecorder rec;
  Telemetry telemetry;
  telemetry.recorder = &rec;
  PlanServerConfig cfg;
  cfg.telemetry = &telemetry;
  PlanServer recorded(store, cfg);
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();

  bare.serve(program, device);  // warm the shared store once
  for (int i = 0; i < 5; ++i) {
    const ServeResult a = bare.serve(program, device);
    const ServeResult b = recorded.serve(program, device);
    EXPECT_EQ(a.plan.to_string(), b.plan.to_string());
    EXPECT_EQ(a.rung, ServeRung::StoreHit);
    EXPECT_EQ(b.rung, ServeRung::StoreHit);
  }
}

// -------------------------------------------------------- incident dumps

TEST(IncidentDump, WritesCrcCleanBundlesWithOrdinalNames) {
  const std::string dir = fresh_dir("dumps");
  FlightRecorder rec(small_config(16, 2));
  rec.record_span("s", 0.0, 0.001, 0, TraceId());
  const std::string p1 =
      rec.dump_incident(dir, IncidentReason::kStoreSalvage);
  const std::string p2 = rec.dump_incident(dir, IncidentReason::kExitDump);
  EXPECT_NE(p1.find("incident-000001-store_salvage.kfr"), std::string::npos);
  EXPECT_NE(p2.find("incident-000002-exit_dump.kfr"), std::string::npos);
  EXPECT_EQ(rec.state().incidents_total.load(std::memory_order_relaxed), 2);
  EXPECT_EQ(count_incident_files(dir), 2);

  const FlightBundle b1 = FlightRecorder::read(p1);
  EXPECT_TRUE(b1.clean());
  EXPECT_EQ(b1.header.incident_reason(), IncidentReason::kStoreSalvage);
  // The second bundle's header already counts the first incident.
  const FlightBundle b2 = FlightRecorder::read(p2);
  EXPECT_EQ(b2.header.state.incidents_total, 2);
}

TEST(SignalDump, DirectHandlerCallWritesAParseableBundle) {
  const std::string dir = fresh_dir("sigdirect");
  FlightRecorder rec(small_config(32, 2));
  for (int i = 0; i < 6; ++i)
    rec.record_span("s", i, 0.001, i, TraceId::derive(1, 1, i + 1));
  const std::string path = rec.arm_signal_dump(dir);
  ASSERT_TRUE(rec.signal_armed());
  rec.signal_dump(SIGSEGV);  // the exact handler body, minus dying
  rec.disarm_signal_dump();
  EXPECT_FALSE(rec.signal_armed());

  const FlightBundle b = FlightRecorder::read(path);
  ASSERT_TRUE(b.header_ok);
  EXPECT_TRUE(b.clean());
  EXPECT_EQ(b.header.incident_reason(), IncidentReason::kSignal);
  EXPECT_EQ(b.header.signal, SIGSEGV);
  EXPECT_EQ(b.records.size(), 6u);
}

TEST(SignalDump, DisarmWithoutAnIncidentLeavesNoEmptyFile) {
  const std::string dir = fresh_dir("sigclean");
  FlightRecorder rec(small_config(16, 2));
  const std::string path = rec.arm_signal_dump(dir);
  EXPECT_TRUE(file_exists(path));
  rec.disarm_signal_dump();
  EXPECT_FALSE(file_exists(path)) << "unwritten signal bundle must be removed";
}

// --------------------------------------------------------- death tests

/// Forks; the child builds a real serving stack around `body`, then dies by
/// `sig` with the recorder armed. The parent asserts the child died on that
/// signal and returns the parsed signal bundle.
FlightBundle run_death_test(const std::string& dir, int sig) {
  const pid_t pid = fork();
  if (pid == 0) {
    // Child: real store + server + recorder, all single-threaded (keeps the
    // fork TSan-clean); the raise happens with a request published in the
    // in-flight table, exactly the crashed-mid-serve shape.
    try {
      PlanStore store({.dir = dir + "/store", .durable = false});
      FlightRecorder recorder;
      Telemetry telemetry;
      telemetry.recorder = &recorder;
      PlanServerConfig cfg;
      cfg.telemetry = &telemetry;
      PlanServer server(store, cfg);
      const Program program = motivating_example();
      const DeviceSpec device = DeviceSpec::k20x();
      for (int i = 0; i < 3; ++i) server.serve(program, device);

      recorder.arm_signal_dump(dir);
      RequestContext rc;
      rc.trace_id = TraceId::derive(99, 1, 2);
      rc.seq = 4;
      rc.stage_s[RequestContext::kSearch] = 0.123;
      const int slot =
          recorder.inflight_begin(0, rc.trace_id, rc.seq, 0.5, 100.0);
      recorder.inflight_update(slot, rc);
      ::raise(sig);
      ::_exit(41);  // handler re-raises with SIG_DFL restored; unreachable
    } catch (...) {
      ::_exit(42);
    }
  }
  EXPECT_GT(pid, 0);
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status))
      << "child exited " << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
      << " instead of dying on signal " << sig;
  if (WIFSIGNALED(status)) {
    EXPECT_EQ(WTERMSIG(status), sig);
  }
  return FlightRecorder::read(dir + "/" + FlightRecorder::kSignalBundleFile);
}

class SignalDeathTest : public testing::TestWithParam<int> {};

TEST_P(SignalDeathTest, FatalSignalMidServeYieldsAForensicBundle) {
  const int sig = GetParam();
  const std::string dir =
      fresh_dir(std::string("death_") + std::to_string(sig));
  const FlightBundle b = run_death_test(dir, sig);

  ASSERT_TRUE(b.header_ok);
  EXPECT_FALSE(b.truncated);
  EXPECT_EQ(b.header.incident_reason(), IncidentReason::kSignal);
  EXPECT_EQ(b.header.signal, sig);
  EXPECT_EQ(b.header.state.requests_total, 3);
  EXPECT_GE(b.records.size(), 3u);  // the three serve wide records at least

  // Postmortem on the child's corpse: the signal is the top cause and the
  // request that was in flight is reconstructed, ledger included.
  const PostmortemReport report = analyze_bundle(b);
  ASSERT_NE(report.top_cause(), nullptr);
  EXPECT_EQ(report.top_cause()->cause, "fatal_signal");
  EXPECT_EQ(report.signal, sig);
  ASSERT_TRUE(report.failing.found);
  EXPECT_TRUE(report.failing.in_flight);
  EXPECT_EQ(report.failing.trace, TraceId::derive(99, 1, 2));
  EXPECT_EQ(report.failing.seq, 4);
  EXPECT_DOUBLE_EQ(report.failing.stage_s[RequestContext::kSearch], 0.123);
}

INSTANTIATE_TEST_SUITE_P(FatalSignals, SignalDeathTest,
                         testing::Values(SIGSEGV, SIGABRT));

// ------------------------------------------------------------- watchdog

TEST(Watchdog, StalledWorkerTripsExactlyOnce) {
  const std::string dir = fresh_dir("wd_stall");
  PlanStore store({.dir = dir + "/store", .durable = false});
  Stopwatch clock;
  const auto now = [&clock] { return clock.elapsed_s(); };
  FlightRecorder::Config rcfg;
  rcfg.clock = now;
  FlightRecorder recorder(rcfg);
  Telemetry telemetry;
  telemetry.recorder = &recorder;
  PlanServerConfig scfg;
  scfg.clock = now;
  scfg.telemetry = &telemetry;
  PlanServer server(store, scfg);
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();
  server.serve(program, device);  // warm: engine jobs below are store hits

  std::atomic<int> stalls{0};
  ServeEngineConfig ecfg;
  ecfg.workers = 2;
  ecfg.shed_on_full = false;
  ecfg.test_job_hook = [&stalls](long ordinal, int) {
    if (ordinal == 1) {
      stalls.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(900));
    }
  };
  ServeEngine engine(server, ecfg);

  WatchdogConfig wcfg;
  wcfg.scan_interval_s = 0.05;
  wcfg.stall_threshold_s = 0.25;
  wcfg.dir = dir;
  wcfg.recorder = &recorder;
  wcfg.engine = &engine;
  wcfg.clock = now;
  Watchdog watchdog(wcfg);

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 6; ++i)
    futures.push_back(engine.submit(program, device));
  for (auto& f : futures) f.get();
  engine.drain();
  watchdog.stop();

  const Watchdog::Stats stats = watchdog.stats();
  ASSERT_EQ(stalls.load(), 1);
  EXPECT_EQ(stats.stall_trips, 1)
      << "a 900ms stall spans many 50ms scans; the (worker, job) latch must "
         "dedupe them";
  EXPECT_EQ(stats.incidents, 1);
  EXPECT_GE(stats.scans, 1);
  EXPECT_EQ(count_incident_files(dir), 1);

  // The bundle names its own cause and postmortem agrees.
  std::string bundle_path;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().filename().string().rfind("incident-", 0) == 0)
      bundle_path = e.path().string();
  ASSERT_FALSE(bundle_path.empty());
  EXPECT_NE(bundle_path.find("stalled_worker"), std::string::npos);
  const PostmortemReport report =
      analyze_bundle(FlightRecorder::read(bundle_path));
  ASSERT_NE(report.top_cause(), nullptr);
  EXPECT_EQ(report.top_cause()->cause, "stalled_worker");
}

TEST(Watchdog, BurnAndSpikeTriggersAreLatched) {
  const std::string dir = fresh_dir("wd_burn");
  double now = 100.0;
  FlightRecorder rec(small_config(64, 2, &now));
  SloTracker slo;  // default 0.1% deadline-miss budget
  for (int i = 0; i < 10; ++i) {
    RequestContext r;
    r.latency_s = 0.01;
    r.deadline_met = i >= 5;  // 5 misses in 10 requests: burn way over 1
    slo.record(r, 99.0);
  }

  WatchdogConfig wcfg;
  wcfg.scan_interval_s = 3600.0;  // scan thread idles; scan_now() drives
  wcfg.max_burn = 1.0;
  wcfg.miss_spike = 5;
  wcfg.dir = dir;
  wcfg.recorder = &rec;
  wcfg.slo = &slo;
  wcfg.clock = [&now] { return now; };
  Watchdog watchdog(wcfg);

  EXPECT_TRUE(watchdog.scan_now());  // burn trip
  EXPECT_FALSE(watchdog.scan_now()) << "burn stays latched while elevated";
  EXPECT_GT(rec.state().worst_burn.load(std::memory_order_relaxed), 1.0);

  // A deadline-miss spike between scans trips the spike trigger; the first
  // scan already primed the baseline, so exactly one new dump appears.
  rec.state().deadline_missed_total.fetch_add(10, std::memory_order_relaxed);
  EXPECT_TRUE(watchdog.scan_now());
  EXPECT_FALSE(watchdog.scan_now()) << "no new misses, no new trip";
  watchdog.stop();

  const Watchdog::Stats stats = watchdog.stats();
  EXPECT_EQ(stats.burn_trips, 1);
  EXPECT_EQ(stats.spike_trips, 1);
  EXPECT_EQ(stats.incidents, 2);
  EXPECT_EQ(count_incident_files(dir), 2);
  // Every scan appended a counters snapshot to the ring.
  const FlightBundle b =
      FlightRecorder::parse(rec.serialize(IncidentReason::kExitDump));
  long counters = 0;
  for (const FlightRecord& r : b.records)
    if (r.as_counters() != nullptr) ++counters;
  EXPECT_EQ(counters, stats.scans);
}

// ------------------------------------------------------------ postmortem

TEST(Postmortem, StoreSalvageOutranksBackgroundAnomalies) {
  FlightRecorder rec(small_config(16, 2));
  rec.state().store_salvaged.store(3, std::memory_order_relaxed);
  rec.state().requests_total.store(100, std::memory_order_relaxed);
  rec.state().coalesce_timeout_total.store(1, std::memory_order_relaxed);
  const PostmortemReport report = analyze_bundle(
      FlightRecorder::parse(rec.serialize(IncidentReason::kStoreSalvage)));
  ASSERT_NE(report.top_cause(), nullptr);
  EXPECT_EQ(report.top_cause()->cause, "store_corruption");
  // The lesser anomaly still ranks, below.
  bool saw_coalesce = false;
  for (const PostmortemCause& c : report.causes)
    saw_coalesce |= c.cause == "coalesce_timeout";
  EXPECT_TRUE(saw_coalesce);
  EXPECT_EQ(report.exit_code(), 0);
}

TEST(Postmortem, QuietBundleSaysNoAnomaly) {
  FlightRecorder rec(small_config(16, 2));
  rec.record_span("s", 0.0, 0.001, 0, TraceId());
  const PostmortemReport report = analyze_bundle(
      FlightRecorder::parse(rec.serialize(IncidentReason::kExitDump)));
  ASSERT_NE(report.top_cause(), nullptr);
  EXPECT_EQ(report.top_cause()->cause, "no_anomaly");
}

TEST(Postmortem, StatePageAnomaliesAreEachDiagnosed) {
  FlightRecorder rec(small_config(16, 2));
  StatePage& sp = rec.state();
  sp.requests_total.store(100, std::memory_order_relaxed);
  sp.deadline_missed_total.store(40, std::memory_order_relaxed);
  sp.queue_capacity.store(8, std::memory_order_relaxed);
  sp.queue_depth.store(8, std::memory_order_relaxed);
  sp.retries_total.store(30, std::memory_order_relaxed);
  sp.calibration_drift.store(1, std::memory_order_relaxed);
  const PostmortemReport report = analyze_bundle(
      FlightRecorder::parse(rec.serialize(IncidentReason::kExitDump)));

  std::vector<std::string> names;
  for (const PostmortemCause& c : report.causes) names.push_back(c.cause);
  auto has = [&names](const char* n) {
    for (const std::string& s : names)
      if (s == n) return true;
    return false;
  };
  EXPECT_TRUE(has("queue_saturation"));
  EXPECT_TRUE(has("deadline_miss_spike"));
  EXPECT_TRUE(has("fault_storm"));
  EXPECT_TRUE(has("calibration_drift"));
  // Deterministic ranking: scores strictly ordered as documented.
  for (std::size_t i = 1; i < report.causes.size(); ++i)
    EXPECT_GE(report.causes[i - 1].score, report.causes[i].score);
}

TEST(Postmortem, DecisionTailIsScopedToTheFailingTrace) {
  double now = 5.0;
  FlightRecorder rec(small_config(128, 2, &now));
  const TraceId failing = TraceId::derive(1, 1, 1);
  const TraceId other = TraceId::derive(2, 2, 2);
  const int members[2] = {0, 1};
  for (int i = 0; i < 30; ++i)
    rec.record_decision(1, true, members, 2, -1e-6, "gmem_traffic",
                        i % 2 == 0 ? failing : other);
  const int slot = rec.inflight_begin(0, failing, 7, 0.5, now);
  (void)slot;
  const PostmortemReport report = analyze_bundle(
      FlightRecorder::parse(rec.serialize(IncidentReason::kStalledWorker)));

  ASSERT_TRUE(report.failing.found);
  EXPECT_EQ(report.failing.trace, failing);
  EXPECT_TRUE(report.decisions_trace_scoped);
  EXPECT_EQ(report.decisions.size(), 15u);  // 16 cap, 15 match
  for (const PostmortemDecision& d : report.decisions)
    EXPECT_EQ(d.trace, failing);

  // JSON and human renders carry the same verdict.
  const JsonValue json = report.to_json();
  EXPECT_EQ(json.find("causes")->items().front().string_or("cause", ""),
            "stalled_worker");
  EXPECT_NE(report.render().find("stalled_worker"), std::string::npos);
}

}  // namespace
}  // namespace kf
