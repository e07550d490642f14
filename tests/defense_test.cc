#include <cmath>
#include <filesystem>
#include <memory>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/concurrent_db.h"
#include "defense/audit_log.h"
#include "defense/coverage_monitor.h"
#include "defense/identity.h"
#include "defense/query_gate.h"
#include "defense/registration_limiter.h"
#include "defense/token_bucket.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

// ---------- TokenBucket ----------

TEST(TokenBucketTest, BurstThenThrottles) {
  TokenBucket bucket(1.0, 3.0);  // 1/s, burst 3.
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(0));
  EXPECT_NEAR(bucket.RetryAfter(0), 1.0, 1e-9);
}

TEST(TokenBucketTest, RefillsOverTime) {
  TokenBucket bucket(2.0, 2.0);  // 2/s.
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(0.1));
  EXPECT_TRUE(bucket.TryAcquire(0.6));  // 0.6s * 2/s = 1.2 tokens.
  EXPECT_FALSE(bucket.TryAcquire(0.6));
}

TEST(TokenBucketTest, NeverExceedsBurst) {
  TokenBucket bucket(100.0, 5.0);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.TryAcquire(1000.0));
  EXPECT_FALSE(bucket.TryAcquire(1000.0));
}

TEST(TokenBucketTest, TimeGoingBackwardsIsIgnored) {
  TokenBucket bucket(1.0, 1.0);
  EXPECT_TRUE(bucket.TryAcquire(10.0));
  EXPECT_FALSE(bucket.TryAcquire(5.0));  // No negative refill.
}

// ---------- Identity ----------

TEST(IdentityTest, Ipv4RoundTripAndSubnet) {
  uint32_t ip = Ipv4FromString("192.168.34.17");
  EXPECT_EQ(Ipv4ToString(ip), "192.168.34.17");
  Identity id;
  id.ipv4 = ip;
  EXPECT_EQ(Ipv4ToString(id.Subnet24()), "192.168.34.0");
  EXPECT_EQ(Ipv4FromString("999.1.1.1"), 0u);
  EXPECT_EQ(Ipv4FromString("garbage"), 0u);
}

// ---------- RegistrationLimiter ----------

TEST(RegistrationLimiterTest, OneAccountPerInterval) {
  RegistrationLimiter limiter(60.0, 1.0);
  auto a = limiter.Register(1, 0.0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->id, 1u);
  auto b = limiter.Register(2, 1.0);
  EXPECT_TRUE(b.status().IsRateLimited());
  auto c = limiter.Register(2, 61.0);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->id, 2u);
  EXPECT_EQ(limiter.registered(), 2u);
}

TEST(RegistrationLimiterTest, TimeToAccumulateBound) {
  RegistrationLimiter limiter(30.0, 1.0);
  EXPECT_EQ(limiter.TimeToAccumulate(1), 0.0);
  EXPECT_NEAR(limiter.TimeToAccumulate(100), 99 * 30.0, 1e-9);
}

// ---------- QueryGate (integration) ----------

class QueryGateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tarpit_gate_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    ProtectedDatabaseOptions opts;
    opts.popularity.scale = 0.001;
    opts.popularity.bounds = {0.0, 10.0};
    auto db = ConcurrentProtectedDatabase::Open(dir_.string(), "items",
                                                &clock_, opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(
        db_->ExecuteSql(
               "CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
            .ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db_->BulkLoadRow({Value(static_cast<int64_t>(i)),
                                    Value(i * 1.0)})
                      .ok());
    }
    // SELECTs record into the inner tracker directly, so it stays
    // exact for inspection between single-threaded queries.
    pdb_ = db_->unsafe_inner();
  }
  void TearDown() override {
    gate_.reset();
    db_.reset();
    fs::remove_all(dir_);
  }

  void MakeGate(QueryGateOptions opts) {
    gate_ = std::make_unique<QueryGate>(db_.get(), opts);
  }

  fs::path dir_;
  VirtualClock clock_;
  std::unique_ptr<ConcurrentProtectedDatabase> db_;
  ProtectedDatabase* pdb_ = nullptr;
  std::unique_ptr<QueryGate> gate_;
};

TEST_F(QueryGateTest, RegistrationRateLimited) {
  QueryGateOptions opts;
  opts.registration_seconds_per_account = 100.0;
  opts.registration_burst = 1.0;
  MakeGate(opts);
  auto a = gate_->RegisterUser(Ipv4FromString("10.0.0.1"));
  ASSERT_TRUE(a.ok());
  auto b = gate_->RegisterUser(Ipv4FromString("10.0.0.2"));
  EXPECT_TRUE(b.status().IsRateLimited());
  clock_.AdvanceToMicros(101 * 1'000'000LL);
  auto c = gate_->RegisterUser(Ipv4FromString("10.0.0.2"));
  EXPECT_TRUE(c.ok());
}

TEST_F(QueryGateTest, QueriesPassAndAreDelayed) {
  QueryGateOptions opts;
  MakeGate(opts);
  auto user = gate_->RegisterUser(Ipv4FromString("10.0.0.1"));
  ASSERT_TRUE(user.ok());
  auto r = gate_->ExecuteSql(*user, "SELECT * FROM items WHERE id = 3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.rows.size(), 1u);
  EXPECT_GT(r->delay_seconds, 0.0);
  EXPECT_EQ(gate_->LifetimeQueries(user->id), 1u);
}

TEST_F(QueryGateTest, PerUserThrottleKicksIn) {
  QueryGateOptions opts;
  opts.per_user_queries_per_second = 1.0;
  opts.per_user_burst = 2.0;
  opts.per_subnet_queries_per_second = 1000.0;
  opts.per_subnet_burst = 1000.0;
  MakeGate(opts);
  auto user = gate_->RegisterUser(Ipv4FromString("10.0.0.1"));
  ASSERT_TRUE(user.ok());
  // Delay charged per query advances the virtual clock slightly, so
  // pin delays near zero by querying hot key repeatedly.
  ASSERT_TRUE(
      gate_->ExecuteSql(*user, "SELECT * FROM items WHERE id = 1").ok());
  ASSERT_TRUE(
      gate_->ExecuteSql(*user, "SELECT * FROM items WHERE id = 1").ok());
  auto r = gate_->ExecuteSql(*user, "SELECT * FROM items WHERE id = 1");
  EXPECT_TRUE(r.status().IsRateLimited());
  EXPECT_GT(gate_->RetryAfter(*user), 0.0);
}

TEST_F(QueryGateTest, SubnetAggregationThrottlesSybils) {
  QueryGateOptions opts;
  opts.registration_seconds_per_account = 0.0;  // Free registration.
  opts.registration_burst = 10.0;
  opts.per_user_queries_per_second = 1000.0;
  opts.per_user_burst = 1000.0;
  opts.per_subnet_queries_per_second = 1.0;
  opts.per_subnet_burst = 3.0;
  MakeGate(opts);
  // Three sybils in the same /24.
  std::vector<Identity> sybils;
  for (int i = 1; i <= 3; ++i) {
    auto s = gate_->RegisterUser(
        Ipv4FromString("10.0.0." + std::to_string(i)));
    ASSERT_TRUE(s.ok());
    sybils.push_back(*s);
  }
  // The subnet bucket admits 3 queries total, regardless of identity.
  ASSERT_TRUE(
      gate_->ExecuteSql(sybils[0], "SELECT * FROM items WHERE id = 1")
          .ok());
  ASSERT_TRUE(
      gate_->ExecuteSql(sybils[1], "SELECT * FROM items WHERE id = 1")
          .ok());
  ASSERT_TRUE(
      gate_->ExecuteSql(sybils[2], "SELECT * FROM items WHERE id = 1")
          .ok());
  auto r =
      gate_->ExecuteSql(sybils[0], "SELECT * FROM items WHERE id = 1");
  EXPECT_TRUE(r.status().IsRateLimited());
  // A user in a different /24 is unaffected.
  auto other = gate_->RegisterUser(Ipv4FromString("10.0.1.1"));
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(
      gate_->ExecuteSql(*other, "SELECT * FROM items WHERE id = 1").ok());
}

TEST_F(QueryGateTest, LifetimeLimitStopsStorefront) {
  QueryGateOptions opts;
  opts.per_user_lifetime_query_limit = 2;
  opts.per_user_queries_per_second = 1000.0;
  opts.per_user_burst = 1000.0;
  opts.per_subnet_queries_per_second = 1000.0;
  opts.per_subnet_burst = 1000.0;
  MakeGate(opts);
  auto user = gate_->RegisterUser(Ipv4FromString("10.0.0.1"));
  ASSERT_TRUE(user.ok());
  ASSERT_TRUE(
      gate_->ExecuteSql(*user, "SELECT * FROM items WHERE id = 1").ok());
  ASSERT_TRUE(
      gate_->ExecuteSql(*user, "SELECT * FROM items WHERE id = 2").ok());
  auto r = gate_->ExecuteSql(*user, "SELECT * FROM items WHERE id = 3");
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(QueryGateTest, RateLimitedQueryDoesNotExecute) {
  QueryGateOptions opts;
  opts.per_user_queries_per_second = 0.0;
  opts.per_user_burst = 1.0;
  MakeGate(opts);
  auto user = gate_->RegisterUser(Ipv4FromString("10.0.0.1"));
  ASSERT_TRUE(user.ok());
  ASSERT_TRUE(
      gate_->ExecuteSql(*user, "SELECT * FROM items WHERE id = 1").ok());
  uint64_t requests_before = pdb_->access_tracker()->total_requests();
  auto r = gate_->ExecuteSql(*user, "SELECT * FROM items WHERE id = 2");
  EXPECT_TRUE(r.status().IsRateLimited());
  EXPECT_EQ(pdb_->access_tracker()->total_requests(), requests_before);
}

// ---------- AuditLog ----------

TEST(AuditLogTest, RingBufferEvictsOldest) {
  AuditLog log(3);
  for (int i = 0; i < 5; ++i) {
    AuditRecord r;
    r.time_seconds = i;
    r.event = AuditEvent::kQueryServed;
    log.Record(r);
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_recorded(), 5u);
  double first = -1;
  log.ForEach([&](const AuditRecord& r) {
    first = r.time_seconds;
    return false;  // Stop at the first (oldest).
  });
  EXPECT_EQ(first, 2.0);
}

TEST(AuditLogTest, CountsByEventAndIdentity) {
  AuditLog log;
  AuditRecord served;
  served.event = AuditEvent::kQueryServed;
  served.identity = 7;
  AuditRecord limited;
  limited.event = AuditEvent::kRateLimitedUser;
  limited.identity = 7;
  log.Record(served);
  log.Record(served);
  log.Record(limited);
  EXPECT_EQ(log.CountOf(AuditEvent::kQueryServed), 2u);
  EXPECT_EQ(log.CountOf(AuditEvent::kRateLimitedUser), 1u);
  EXPECT_EQ(log.CountOf(AuditEvent::kLifetimeCapHit), 0u);
  EXPECT_EQ(log.CountForIdentity(7), 3u);
  EXPECT_EQ(log.CountForIdentity(8), 0u);
  EXPECT_EQ(AuditEventName(AuditEvent::kCoverageEscalated),
            "coverage-escalated");
}

TEST_F(QueryGateTest, GateDecisionsAreAudited) {
  QueryGateOptions opts;
  opts.registration_seconds_per_account = 1000.0;
  opts.registration_burst = 1.0;
  opts.per_user_queries_per_second = 1.0;
  opts.per_user_burst = 2.0;
  MakeGate(opts);
  auto user = gate_->RegisterUser(Ipv4FromString("10.0.0.1"));
  ASSERT_TRUE(user.ok());
  auto denied = gate_->RegisterUser(Ipv4FromString("10.0.0.2"));
  EXPECT_FALSE(denied.ok());
  ASSERT_TRUE(
      gate_->ExecuteSql(*user, "SELECT * FROM items WHERE id = 1").ok());
  ASSERT_TRUE(
      gate_->ExecuteSql(*user, "SELECT * FROM items WHERE id = 1").ok());
  auto limited =
      gate_->ExecuteSql(*user, "SELECT * FROM items WHERE id = 1");
  EXPECT_TRUE(limited.status().IsRateLimited());

  AuditLog* log = gate_->audit_log();
  EXPECT_EQ(log->CountOf(AuditEvent::kRegistered), 1u);
  EXPECT_EQ(log->CountOf(AuditEvent::kRegistrationDenied), 1u);
  EXPECT_EQ(log->CountOf(AuditEvent::kQueryServed), 2u);
  EXPECT_EQ(log->CountOf(AuditEvent::kRateLimitedUser), 1u);
  EXPECT_GE(log->CountForIdentity(user->id), 3u);
}

// ---------- CoverageMonitor boundary behavior ----------

TEST(CoverageBoundaryTest, ExactEdgesOfTheEscalationCurve) {
  CoverageMonitorOptions opts;
  opts.free_coverage = 0.01;
  opts.max_coverage = 0.25;
  opts.max_escalation = 100.0;
  CoverageMonitor monitor(opts);
  // Exactly AT the free edge is free; the first epsilon past it is not.
  EXPECT_DOUBLE_EQ(monitor.EscalationForCoverage(0.0), 1.0);
  EXPECT_DOUBLE_EQ(monitor.EscalationForCoverage(0.01), 1.0);
  EXPECT_GT(monitor.EscalationForCoverage(0.01 + 1e-12), 1.0);
  // Exactly AT the max edge is full escalation, as is anything above.
  EXPECT_DOUBLE_EQ(monitor.EscalationForCoverage(0.25), 100.0);
  EXPECT_DOUBLE_EQ(monitor.EscalationForCoverage(1.0), 100.0);
  // Midpoint of the linear ramp.
  EXPECT_NEAR(monitor.EscalationForCoverage(0.13), 50.5, 1e-9);
}

TEST(CoverageBoundaryTest, DegenerateFreeEqualsMaxIsAStep) {
  CoverageMonitorOptions opts;
  opts.free_coverage = 0.1;
  opts.max_coverage = 0.1;  // Zero-width ramp.
  opts.max_escalation = 40.0;
  CoverageMonitor monitor(opts);
  EXPECT_DOUBLE_EQ(monitor.EscalationForCoverage(0.1), 1.0);
  EXPECT_DOUBLE_EQ(monitor.EscalationForCoverage(0.1 + 1e-12), 40.0);
}

TEST(CoverageBoundaryTest, MisconfiguredMaxEscalationClampsToOne) {
  CoverageMonitorOptions opts;
  opts.free_coverage = 0.0;
  opts.max_coverage = 0.5;
  opts.max_escalation = 0.25;  // Nonsense: escalation must never
                               // DISCOUNT the base delay.
  CoverageMonitor monitor(opts);
  for (double c = 0.0; c <= 1.0; c += 0.05) {
    EXPECT_GE(monitor.EscalationForCoverage(c), 1.0) << c;
  }
}

TEST(CoverageBoundaryTest, SketchEstimateStaysInsideHllErrorBand) {
  // Precision 12 => standard error ~1.04/sqrt(4096) ~ 1.63%. The
  // sketch's estimate of an exactly known distinct count must land
  // well inside a 5-sigma band, so EscalationFactor's edge behavior is
  // only ever off by that band, never by a gross margin.
  CoverageMonitorOptions opts;
  opts.hll_precision = 12;
  CoverageMonitor monitor(opts);
  const double sigma = 1.04 / std::sqrt(4096.0);
  for (int64_t exact : {100, 1'000, 10'000, 50'000}) {
    monitor.Forget(9);
    for (int64_t k = 0; k < exact; ++k) monitor.RecordAccess(9, k);
    const double est = monitor.DistinctTuples(9);
    EXPECT_NEAR(est, static_cast<double>(exact),
                5.0 * sigma * static_cast<double>(exact))
        << exact;
  }
}

TEST(CoverageBoundaryTest, SubnetKeyingSeesWhatIdentityKeyingCannot) {
  // A Sybil fleet: 10 identities in one /24, each touching a DISJOINT
  // 3% slice. Keyed per identity, nobody crosses the 5% free line.
  // Keyed per subnet (principal = Subnet24 value), the same accesses
  // aggregate to 30% and hit full escalation -- the whole point of
  // subnet-scoped coverage.
  CoverageMonitorOptions opts;
  opts.free_coverage = 0.05;
  opts.max_coverage = 0.25;
  opts.max_escalation = 100.0;
  CoverageMonitor by_identity(opts);
  CoverageMonitor by_subnet(opts);
  const uint64_t n = 10'000;
  Identity member;
  member.ipv4 = Ipv4FromString("10.1.2.3");
  const IdentityId subnet_principal = member.Subnet24();
  for (uint64_t sybil = 0; sybil < 10; ++sybil) {
    const IdentityId identity = 100 + sybil;
    const int64_t lo = static_cast<int64_t>(sybil * 300);
    for (int64_t k = lo; k < lo + 300; ++k) {
      by_identity.RecordAccess(identity, k);
      by_subnet.RecordAccess(subnet_principal, k);
    }
  }
  for (uint64_t sybil = 0; sybil < 10; ++sybil) {
    EXPECT_DOUBLE_EQ(by_identity.EscalationFactor(100 + sybil, n), 1.0)
        << sybil;
  }
  EXPECT_DOUBLE_EQ(by_subnet.EscalationFactor(subnet_principal, n),
                   100.0);
}

}  // namespace
}  // namespace tarpit
