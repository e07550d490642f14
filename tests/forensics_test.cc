// Forensics & continuous self-audit layer (ISSUE 9): the time-series
// scraper, the self-audit watchdog (zero false positives benign,
// one-pass detection of failpoint-injected ledger drift), extraction-
// risk scoring against the adversary zoo, Chrome-trace export span
// accounting, and the bounded AuditLog with its event-ring overflow
// route.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "core/concurrent_db.h"
#include "core/protected_db.h"
#include "core/self_audit.h"
#include "defense/audit_log.h"
#include "defense/query_gate.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"
#include "obs/risk.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "obs/watchdog.h"
#include "sim/adversary_zoo.h"
#include "workload/key_generator.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

// ---------------- MetricTimeSeries ----------------------------------

TEST(MetricTimeSeriesTest, CountersScrapeValueAndDelta) {
  obs::MetricRegistry registry;
  obs::Counter* c = registry.GetCounter("tarpit_test_total");
  obs::MetricTimeSeries ts(&registry);

  c->Increment(5);
  EXPECT_EQ(ts.ScrapeOnce(1.0), 0u);
  c->Increment(3);
  EXPECT_EQ(ts.ScrapeOnce(2.0), 1u);

  const std::vector<obs::TimeSeriesPoint> pts =
      ts.Series("tarpit_test_total");
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].time_seconds, 1.0);
  EXPECT_DOUBLE_EQ(pts[0].value, 5.0);
  EXPECT_DOUBLE_EQ(pts[0].delta, 0.0);  // No prior point.
  EXPECT_DOUBLE_EQ(pts[1].time_seconds, 2.0);
  EXPECT_DOUBLE_EQ(pts[1].value, 8.0);
  EXPECT_DOUBLE_EQ(pts[1].delta, 3.0);

  obs::TimeSeriesPoint latest;
  ASSERT_TRUE(ts.Latest("tarpit_test_total", {}, {}, &latest));
  EXPECT_DOUBLE_EQ(latest.value, 8.0);
  EXPECT_EQ(ts.scrapes_total(), 2u);
}

TEST(MetricTimeSeriesTest, WindowIsARingWithFixedMemory) {
  obs::MetricRegistry registry;
  obs::Counter* c = registry.GetCounter("tarpit_ring_total");
  obs::MetricTimeSeriesOptions opts;
  opts.window = 4;
  obs::MetricTimeSeries ts(&registry, opts);

  for (int i = 1; i <= 10; ++i) {
    c->Increment(1);
    ts.ScrapeOnce(static_cast<double>(i));
  }
  const std::vector<obs::TimeSeriesPoint> pts =
      ts.Series("tarpit_ring_total");
  ASSERT_EQ(pts.size(), 4u);  // Only the window is retained.
  EXPECT_DOUBLE_EQ(pts.front().time_seconds, 7.0);  // Oldest kept.
  EXPECT_DOUBLE_EQ(pts.back().time_seconds, 10.0);
  EXPECT_DOUBLE_EQ(pts.back().value, 10.0);
  EXPECT_DOUBLE_EQ(pts.back().delta, 1.0);
}

TEST(MetricTimeSeriesTest, HistogramSubSeriesAndCardinalityCap) {
  obs::MetricRegistry registry;
  obs::Histogram* h = registry.GetHistogram("tarpit_lat_ns");
  for (int i = 1; i <= 100; ++i) h->Record(i * 1000);
  obs::MetricTimeSeries ts(&registry);
  ts.ScrapeOnce(1.0);

  obs::TimeSeriesPoint count, p99;
  ASSERT_TRUE(ts.Latest("tarpit_lat_ns", {}, "count", &count));
  EXPECT_DOUBLE_EQ(count.value, 100.0);
  ASSERT_TRUE(ts.Latest("tarpit_lat_ns", {}, "p99", &p99));
  EXPECT_GT(p99.value, 0.0);

  // Cardinality explosion degrades to "newest untracked", not
  // unbounded growth.
  obs::MetricRegistry wide;
  for (int i = 0; i < 8; ++i) {
    wide.GetCounter("tarpit_wide_total",
                    {{"shard", std::to_string(i)}});
  }
  obs::MetricTimeSeriesOptions capped;
  capped.max_series = 3;
  obs::MetricTimeSeries cts(&wide, capped);
  cts.ScrapeOnce(1.0);
  EXPECT_EQ(cts.tracked_series(), 3u);
  EXPECT_GT(cts.dropped_series(), 0u);
}

// ---------------- Self-audit watchdog -------------------------------

std::unique_ptr<ConcurrentProtectedDatabase> OpenAuditedDb(
    const fs::path& dir, Clock* clock, obs::MetricRegistry* metrics) {
  fs::create_directories(dir);
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kAccessPopularity;
  opts.popularity.beta = 0.0;
  opts.popularity.scale = 1e-3;
  opts.popularity.bounds = {0.0, 10.0};
  ConcurrentDatabaseOptions copts;
  copts.serve_delays = false;  // Charges recorded, stalls skipped.
  copts.metrics = metrics;
  auto opened = ConcurrentProtectedDatabase::Open(dir.string(), "items",
                                                  clock, opts, copts);
  EXPECT_TRUE(opened.ok());
  if (!opened.ok()) return nullptr;
  auto db = std::move(*opened);
  EXPECT_TRUE(
      db->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
          .ok());
  for (int i = 1; i <= 256; ++i) {
    EXPECT_TRUE(
        db->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(0.5)})
            .ok());
  }
  EXPECT_TRUE(db->Checkpoint().ok());
  return db;
}

void RunUniformReads(ConcurrentProtectedDatabase* db, int ops,
                     uint64_t seed) {
  Rng rng(seed);
  UniformKeyGenerator gen(256);
  for (int i = 0; i < ops; ++i) {
    ASSERT_TRUE(db->GetByKey(gen.Next(&rng)).ok());
  }
}

TEST(SelfAuditWatchdogTest, BenignVirtualClockRunHasZeroFalsePositives) {
  const fs::path dir = fs::temp_directory_path() / "tarpit_wd_benign";
  fs::remove_all(dir);
  VirtualClock clock;
  obs::MetricRegistry registry;
  auto db = OpenAuditedDb(dir, &clock, &registry);
  ASSERT_NE(db, nullptr);

  obs::SelfAuditWatchdogOptions wopts;
  wopts.metrics = &registry;
  obs::SelfAuditWatchdog watchdog(wopts);
  SelfAuditTargets targets;
  targets.db = db.get();
  targets.metrics = &registry;
  ASSERT_GE(InstallStandardChecks(&watchdog, targets), 1u);

  // Interleave watchdog passes with workload chunks: every pass on a
  // benign engine must either pass or skip, never flag.
  for (int round = 0; round < 6; ++round) {
    RunUniformReads(db.get(), 500, 0xFACEu + round);
    clock.SleepForMicros(1'000'000);
    watchdog.RunOnce(clock.NowMicros());
  }
  EXPECT_EQ(watchdog.violations_total(), 0u);
  EXPECT_TRUE(watchdog.healthy());
  EXPECT_GT(watchdog.passes_total(), 0u);

  const obs::RegistrySnapshot snap = registry.Snapshot();
  const obs::MetricSnapshot* healthy =
      snap.Find("tarpit_watchdog_healthy");
  ASSERT_NE(healthy, nullptr);
  EXPECT_EQ(healthy->value, 1);

  db.reset();
  fs::remove_all(dir);
}

TEST(SelfAuditWatchdogTest, CatchesInjectedLedgerDriftInOnePass) {
  const fs::path dir = fs::temp_directory_path() / "tarpit_wd_drift";
  fs::remove_all(dir);
  VirtualClock clock;
  obs::MetricRegistry registry;
  auto db = OpenAuditedDb(dir, &clock, &registry);
  ASSERT_NE(db, nullptr);

  obs::DefenseEventRing ring;
  obs::SelfAuditWatchdogOptions wopts;
  wopts.metrics = &registry;
  wopts.events = &ring;
  obs::SelfAuditWatchdog watchdog(wopts);
  SelfAuditTargets targets;
  targets.db = db.get();
  targets.metrics = &registry;
  ASSERT_GE(InstallStandardChecks(&watchdog, targets), 1u);

  // Skim 1 permille off every RECORDED charge (callers still served
  // the full delay): the exact embezzlement the ledger-vs-histogram
  // check exists to catch. A fresh database means no clean prior
  // ledger dilutes the relative drift.
  FailPointSpec skim;
  skim.trigger = FailPointSpec::Trigger::kAlways;
  skim.arg = 1;
  FailPoints::Instance().Enable("concurrent_db.acct_skim", skim);
  RunUniformReads(db.get(), 3'000, 0xFEEDu);
  FailPoints::Instance().DisableAll();

  // Detection latency is ONE scrape interval: the first quiescent pass
  // after the skimmed workload must flag it.
  watchdog.RunOnce(clock.NowMicros());
  EXPECT_GE(watchdog.violations_total(), 1u);
  EXPECT_FALSE(watchdog.healthy());

  double drift = 0;
  for (const auto& cs : watchdog.Stats()) {
    if (cs.name == "ledger-vs-histogram") drift = cs.last.drift;
  }
  EXPECT_NEAR(drift, 1e-3, 3e-4);  // Measured == injected 0.1%.
  EXPECT_GE(ring.CountOfType(obs::DefenseEventType::kWatchdogViolation),
            1u);

  db.reset();
  fs::remove_all(dir);
}

// The histogram is a per-process registry that starts empty at open,
// while the door's Metrics() includes the debt recovered from the
// ledger: the check must compare the histogram with what was charged
// since open, or every restart reads as drift.
TEST(SelfAuditWatchdogTest, NoFalseAlarmAfterLedgerRestart) {
  const fs::path dir = fs::temp_directory_path() / "tarpit_wd_restart";
  fs::remove_all(dir);
  fs::create_directories(dir);
  VirtualClock clock;
  ProtectedDatabaseOptions opts;
  opts.popularity.beta = 0.0;
  opts.popularity.scale = 1e-3;
  opts.popularity.bounds = {0.0, 10.0};
  auto open = [&](obs::MetricRegistry* registry) {
    ConcurrentDatabaseOptions copts;
    copts.serve_delays = false;
    copts.metrics = registry;
    copts.persist_delay_ledger = true;
    auto db = ConcurrentProtectedDatabase::Open(dir.string(), "items",
                                                &clock, opts, copts);
    EXPECT_TRUE(db.ok());
    return db.ok() ? std::move(*db) : nullptr;
  };
  {
    obs::MetricRegistry registry;
    auto db = open(&registry);
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(
        db->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
            .ok());
    for (int i = 1; i <= 256; ++i) {
      ASSERT_TRUE(
          db->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(0.5)})
              .ok());
    }
    RunUniformReads(db.get(), 100, 0xB111u);
    ASSERT_TRUE(db->Checkpoint().ok());
  }

  obs::MetricRegistry registry;
  auto db = open(&registry);
  ASSERT_NE(db, nullptr);
  ASSERT_GT(db->recovered_delay_seconds(), 0.0);
  RunUniformReads(db.get(), 10, 0xB112u);
  obs::SelfAuditWatchdogOptions wopts;
  wopts.metrics = &registry;
  obs::SelfAuditWatchdog watchdog(wopts);
  SelfAuditTargets targets;
  targets.db = db.get();
  targets.metrics = &registry;
  ASSERT_GE(InstallStandardChecks(&watchdog, targets), 1u);
  watchdog.RunOnce(clock.NowMicros());
  bool ran = false;
  for (const auto& cs : watchdog.Stats()) {
    if (cs.name != "ledger-vs-histogram") continue;
    ran = true;
    EXPECT_EQ(cs.last.status, obs::WatchdogResult::Status::kOk)
        << cs.last.detail;
  }
  EXPECT_TRUE(ran);
  EXPECT_EQ(watchdog.violations_total(), 0u);

  db.reset();
  fs::remove_all(dir);
}

// ---------------- Extraction-risk scoring ---------------------------

/// Defended stack on a virtual timeline with the risk scorer
/// wired through the gate, mirroring the attack-regression fixture.
struct RiskStack {
  fs::path dir;
  VirtualClock clock;
  obs::RiskScorer scorer;
  std::unique_ptr<ConcurrentProtectedDatabase> db;
  std::unique_ptr<QueryGate> gate;

  explicit RiskStack(const std::string& name, int64_t n)
      : scorer([] {
          obs::RiskScorerOptions r;
          r.query_sample_every = 1;  // Exact: deterministic ranking.
          return r;
        }()) {
    dir = fs::temp_directory_path() / ("tarpit_risk_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    ProtectedDatabaseOptions opts;
    opts.popularity.scale = 1e9;  // Flat: everything costs the cap.
    opts.popularity.bounds = {0.0, 1.0};
    ConcurrentDatabaseOptions copts;
    copts.serve_delays = false;  // The zoo driver advances time.
    auto db_or = ConcurrentProtectedDatabase::Open(dir.string(), "items",
                                                   &clock, opts, copts);
    if (!db_or.ok()) return;
    db = std::move(*db_or);
    if (!db->ExecuteSql(
               "CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
             .ok()) {
      return;
    }
    for (int64_t key = 1; key <= n; ++key) {
      if (!db->BulkLoadRow({Value(key), Value(1.0)}).ok()) return;
    }
    QueryGateOptions gate_opts;
    gate_opts.registration_seconds_per_account = 0.0;
    gate_opts.registration_burst = 1e9;
    gate_opts.per_user_queries_per_second = 5.0;
    gate_opts.per_user_burst = 20.0;
    gate_opts.per_subnet_queries_per_second = 1e9;
    gate_opts.per_subnet_burst = 1e9;
    gate_opts.coverage_escalation = true;
    gate_opts.coverage.free_coverage = 0.01;
    gate_opts.coverage.max_coverage = 0.25;
    gate_opts.coverage.max_escalation = 20.0;
    gate_opts.risk = &scorer;
    gate = std::make_unique<QueryGate>(db.get(), gate_opts);
  }

  ~RiskStack() {
    gate.reset();
    db.reset();
    if (!dir.empty()) fs::remove_all(dir);
  }
};

TEST(RiskScoringTest, ZooExtractorOutranksEveryBenignUser) {
  constexpr int64_t kN = 120;
  RiskStack stack("zoo", kN);
  ASSERT_NE(stack.gate, nullptr);

  // Benign population: four users browsing a handful of head keys at a
  // polite pace -- narrow breadth, modest rate, no defense signals.
  std::vector<Identity> benign;
  for (int u = 0; u < 4; ++u) {
    auto id = stack.gate->RegisterUser(0xC0A80001u + (u << 8));
    ASSERT_TRUE(id.ok());
    benign.push_back(*id);
  }
  Rng rng(0xB16B00B5u);
  for (int i = 0; i < 60; ++i) {
    for (const Identity& id : benign) {
      const int64_t key = 1 + static_cast<int64_t>(rng.Uniform(5));
      ASSERT_TRUE(stack.gate
                      ->ExecuteSql(id, "SELECT v FROM items WHERE id = " +
                                           std::to_string(key))
                      .ok());
    }
    stack.clock.SleepForMicros(500'000);  // 2 qps per user.
  }

  // The patient slow-low extractor from the zoo sweeps [1, kN].
  SlowLowConfig attack;
  attack.n = kN;
  const SlowLowReport report =
      RunSlowLowExtraction(stack.gate.get(), &stack.clock, attack);
  ASSERT_TRUE(report.completed);

  const double now =
      static_cast<double>(stack.clock.NowMicros()) / 1e6;
  const std::vector<obs::RiskScore> top = stack.scorer.TopN(1, now);
  ASSERT_EQ(top.size(), 1u);
  for (const Identity& id : benign) {
    EXPECT_NE(top[0].principal, id.id);
    EXPECT_GT(top[0].score, stack.scorer.Score(id.id, now))
        << "benign user " << id.id << " outranked the extractor";
  }
  // Breadth is what separates them: the extractor swept the relation.
  EXPECT_GT(top[0].breadth, 0.5 * static_cast<double>(kN));
}

// ---------------- Trace export --------------------------------------

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(TraceExportTest, SpanCountMatchesRetainedUnion) {
  const fs::path dir = fs::temp_directory_path() / "tarpit_trace_test";
  fs::remove_all(dir);
  VirtualClock clock;
  obs::MetricRegistry registry;
  obs::TraceSinkOptions sopts;
  sopts.sample_every = 1;  // Trace everything.
  sopts.recent_sample_every = 1;
  obs::TraceSink sink(sopts);

  fs::create_directories(dir);
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kAccessPopularity;
  opts.popularity.beta = 0.0;
  opts.popularity.scale = 1e-3;
  opts.popularity.bounds = {0.0, 10.0};
  ConcurrentDatabaseOptions copts;
  copts.serve_delays = false;
  copts.metrics = &registry;
  copts.trace_sink = &sink;
  auto opened = ConcurrentProtectedDatabase::Open(dir.string(), "items",
                                                  &clock, opts, copts);
  ASSERT_TRUE(opened.ok());
  auto db = std::move(*opened);
  ASSERT_TRUE(
      db->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
          .ok());
  for (int i = 1; i <= 64; ++i) {
    ASSERT_TRUE(
        db->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(0.5)})
            .ok());
  }
  Rng rng(0xBEADu);
  UniformKeyGenerator gen(64);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(db->GetByKey(gen.Next(&rng)).ok());
  }
  db.reset();  // Quiesce before exporting.

  obs::ChromeTraceOptions topts;
  topts.registry = &registry;
  const obs::ChromeTrace trace = obs::ExportChromeTrace(sink, topts);

  std::set<uint64_t> retained;
  for (const obs::RequestTrace& t : sink.Slowest()) {
    retained.insert(t.request_id);
  }
  for (const obs::RequestTrace& t : sink.Recent()) {
    retained.insert(t.request_id);
  }
  EXPECT_GT(trace.request_spans, 0u);
  EXPECT_EQ(trace.request_spans, retained.size());
  EXPECT_EQ(CountOccurrences(trace.json, "\"ph\":\"X\""),
            trace.request_spans + trace.phase_spans);
  EXPECT_EQ(trace.json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(trace.json.back(), '}');

  fs::remove_all(dir);
}

// ---------------- Bounded AuditLog ----------------------------------

TEST(AuditLogTest, BoundedMemoryCountsDropsAndRoutesToRing) {
  VirtualClock clock;
  obs::MetricRegistry registry;
  obs::DefenseEventRing ring;
  AuditLog log(&clock, /*capacity=*/4);
  log.BindMetrics(&registry);
  log.set_event_ring(&ring);

  for (int i = 0; i < 10; ++i) {
    clock.SleepForMicros(1'000'000);
    AuditRecord record;
    record.event = AuditEvent::kRateLimitedUser;
    record.identity = static_cast<IdentityId>(i + 1);
    record.magnitude = 1.0;
    log.Record(record);
  }

  // The log is bounded: only the newest 4 survive, evictions counted.
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_recorded(), 10u);
  EXPECT_EQ(log.dropped_total(), 6u);
  EXPECT_EQ(log.CountOf(AuditEvent::kRateLimitedUser), 4u);

  const obs::RegistrySnapshot snap = registry.Snapshot();
  const obs::MetricSnapshot* dropped =
      snap.Find("tarpit_audit_dropped_total");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value, 6);

  // Oldest retained record is the 7th recorded.
  IdentityId first = 0;
  log.ForEach([&](const AuditRecord& r) {
    if (first == 0) first = r.identity;
    return true;
  });
  EXPECT_EQ(first, 7u);

  // The ring's window is independent: everything the log evicted
  // survives there in binary form, stamped on the virtual timeline.
  EXPECT_EQ(
      ring.CountOfType(obs::DefenseEventType::kRateLimitedUser), 10u);
  const std::vector<obs::DefenseEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 10u);
  EXPECT_EQ(events.front().principal, 1u);
  EXPECT_EQ(events.front().time_micros, 1'000'000);
  EXPECT_EQ(events.back().principal, 10u);
}

}  // namespace
}  // namespace tarpit
