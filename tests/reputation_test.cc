// Reputation-escalating delay: penalty growth/decay, persistence across
// session churn, and the wiring through the perimeter and the door.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/hyperloglog.h"
#include "core/concurrent_db.h"
#include "core/protected_db.h"
#include "defense/identity.h"
#include "defense/query_gate.h"
#include "defense/reputation.h"
#include "defense/session_manager.h"
#include "obs/metrics.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kAlice = 1;
constexpr uint64_t kBob = 2;
constexpr uint32_t kSubnetA = 0x0A000000;  // 10.0.0.0/24.
constexpr uint32_t kSubnetB = 0x0A000100;  // 10.0.1.0/24.

// ---------- ReputationStore core behavior ----------

TEST(ReputationStoreTest, BaselineIsExactlyOne) {
  ReputationStore store;
  EXPECT_DOUBLE_EQ(store.PenaltyFactor(kAlice, kSubnetA, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(store.IdentityPenalty(kAlice, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(store.SubnetPenalty(kSubnetA, 0.0), 1.0);
}

TEST(ReputationStoreTest, PenaltyGrowsMonotonicallyUnderSignals) {
  ReputationOptions opts;
  opts.growth = 2.0;
  opts.max_penalty = 1024.0;
  ReputationStore store(opts);
  double prev = store.PenaltyFactor(kAlice, kSubnetA, 0.0);
  for (int i = 1; i <= 8; ++i) {
    store.RecordSignal(kAlice, kSubnetA, 0.0,
                       ReputationSignal::kExternal);
    const double factor = store.PenaltyFactor(kAlice, kSubnetA, 0.0);
    EXPECT_GT(factor, prev) << "signal " << i;
    prev = factor;
  }
  // Multiplicative: k signals of strength 1 at growth g -> g^k.
  EXPECT_NEAR(prev, 256.0, 256.0 * 1e-9);
}

TEST(ReputationStoreTest, PenaltyIsCapped) {
  ReputationOptions opts;
  opts.growth = 4.0;
  opts.max_penalty = 64.0;
  ReputationStore store(opts);
  for (int i = 0; i < 50; ++i) {
    store.RecordSignal(kAlice, kSubnetA, 0.0,
                       ReputationSignal::kExternal);
  }
  EXPECT_NEAR(store.IdentityPenalty(kAlice, 0.0), 64.0, 1e-9);
}

TEST(ReputationStoreTest, DecaysExponentiallyWithHalfLife) {
  ReputationOptions opts;
  opts.growth = 16.0;
  opts.half_life_seconds = 100.0;
  ReputationStore store(opts);
  store.RecordSignal(kAlice, kSubnetA, 0.0, ReputationSignal::kExternal);
  const double f0 = store.IdentityPenalty(kAlice, 0.0);
  ASSERT_NEAR(f0, 16.0, 1e-9);
  // One half-life halves log(factor): 16 -> 4.
  EXPECT_NEAR(store.IdentityPenalty(kAlice, 100.0), 4.0, 1e-6);
  // Two half-lives: 16 -> 2.
  EXPECT_NEAR(store.IdentityPenalty(kAlice, 200.0), 2.0, 1e-6);
}

TEST(ReputationStoreTest, DecaysFullyBackToBaseline) {
  ReputationOptions opts;
  opts.growth = 8.0;
  opts.half_life_seconds = 10.0;
  ReputationStore store(opts);
  store.RecordSignal(kAlice, kSubnetA, 0.0, ReputationSignal::kExternal);
  ASSERT_GT(store.PenaltyFactor(kAlice, kSubnetA, 0.0), 1.0);
  // After enough quiet half-lives the epsilon snap lands the factor on
  // EXACTLY 1.0, not asymptotically close.
  EXPECT_DOUBLE_EQ(store.PenaltyFactor(kAlice, kSubnetA, 1000.0), 1.0);
  EXPECT_DOUBLE_EQ(store.IdentityPenalty(kAlice, 1000.0), 1.0);
  EXPECT_DOUBLE_EQ(store.SubnetPenalty(kSubnetA, 1000.0), 1.0);
}

TEST(ReputationStoreTest, FactorNeverBelowOneEvenWhileDecaying) {
  ReputationOptions opts;
  opts.half_life_seconds = 1.0;
  ReputationStore store(opts);
  store.RecordSignal(kAlice, kSubnetA, 0.0, ReputationSignal::kExternal);
  for (double t = 0.0; t < 50.0; t += 0.7) {
    EXPECT_GE(store.PenaltyFactor(kAlice, kSubnetA, t), 1.0) << t;
  }
}

TEST(ReputationStoreTest, IdentityAndSubnetAreSeparatelyKeyed) {
  ReputationOptions opts;
  opts.growth = 4.0;
  opts.subnet_growth = 2.0;
  ReputationStore store(opts);
  store.RecordSignal(kAlice, kSubnetA, 0.0, ReputationSignal::kExternal);
  // Alice's identity carries growth; her subnet carries subnet_growth.
  EXPECT_NEAR(store.IdentityPenalty(kAlice, 0.0), 4.0, 1e-9);
  EXPECT_NEAR(store.SubnetPenalty(kSubnetA, 0.0), 2.0, 1e-9);
  // Bob in the same subnet inherits the subnet factor but not Alice's
  // identity factor.
  EXPECT_NEAR(store.PenaltyFactor(kBob, kSubnetA, 0.0), 2.0, 1e-9);
  // Bob in a clean subnet is untouched.
  EXPECT_DOUBLE_EQ(store.PenaltyFactor(kBob, kSubnetB, 0.0), 1.0);
}

TEST(ReputationStoreTest, SubnetPenaltySurvivesIdentityChurn) {
  // The Sybil-churn case: shedding the identity sheds the identity
  // factor, but the subnet keeps escalating.
  ReputationOptions opts;
  opts.growth = 2.0;
  opts.subnet_growth = 2.0;
  opts.max_subnet_penalty = 1024.0;
  ReputationStore store(opts);
  for (uint64_t gen = 0; gen < 5; ++gen) {
    const uint64_t sybil = 100 + gen;  // Fresh identity each time.
    store.RecordSignal(sybil, kSubnetA, 0.0,
                       ReputationSignal::kExternal);
    // The fresh identity starts with the subnet's accumulated factor,
    // not 1.0.
    const double inherited =
        store.PenaltyFactor(200 + gen, kSubnetA, 0.0);
    EXPECT_NEAR(inherited, std::pow(2.0, gen + 1), 1e-6) << gen;
  }
}

TEST(ReputationStoreTest, BreadthSignalsFireAsCoverageGrows) {
  ReputationOptions opts;
  opts.breadth_free_fraction = 0.01;
  opts.breadth_signal_stride = 0.01;
  opts.growth = 2.0;
  opts.max_penalty = 1 << 30;
  ReputationStore store(opts);
  const uint64_t n = 10'000;
  // A narrow slice is free.
  for (int64_t key = 0; key < 50; ++key) {
    store.ObserveAccess(kAlice, kSubnetA, key, n, 0.0);
  }
  EXPECT_DOUBLE_EQ(store.IdentityPenalty(kAlice, 0.0), 1.0);
  // Walking 20% of the relation earns a geometric pile of signals.
  for (int64_t key = 0; key < 2000; ++key) {
    store.ObserveAccess(kAlice, kSubnetA, key, n, 0.0);
  }
  EXPECT_GT(store.IdentityPenalty(kAlice, 0.0), 100.0);
  EXPECT_GT(store.signals_total(), 10u);
}

TEST(ReputationStoreTest, RepeatAccessesToSameKeysStayFree) {
  ReputationStore store;
  const uint64_t n = 10'000;
  // Hammering the same 20 keys is popularity-shaped, not
  // extraction-shaped: distinct coverage never grows.
  for (int round = 0; round < 100; ++round) {
    for (int64_t key = 0; key < 20; ++key) {
      store.ObserveAccess(kAlice, kSubnetA, key, n, 0.0);
    }
  }
  EXPECT_DOUBLE_EQ(store.IdentityPenalty(kAlice, 0.0), 1.0);
}

TEST(ReputationStoreTest, RateAnomalySelfSignalFiresOncePerWindow) {
  ReputationOptions opts;
  opts.rate_window_seconds = 1.0;
  opts.rate_threshold_per_second = 100.0;
  opts.growth = 3.0;
  ReputationStore store(opts);
  // 200 accesses inside one window: one signal, not 100.
  for (int i = 0; i < 200; ++i) {
    store.ObserveAccess(kAlice, kSubnetA, 1, 0, 0.5);
  }
  EXPECT_NEAR(store.IdentityPenalty(kAlice, 0.5), 3.0, 1e-9);
}

TEST(ReputationStoreTest, ForgetIsOperatorOverride) {
  ReputationStore store;
  store.RecordSignal(kAlice, kSubnetA, 0.0, ReputationSignal::kExternal);
  ASSERT_GT(store.PenaltyFactor(kAlice, kSubnetA, 0.0), 1.0);
  store.ForgetIdentity(kAlice);
  store.ForgetSubnet(kSubnetA);
  EXPECT_DOUBLE_EQ(store.PenaltyFactor(kAlice, kSubnetA, 0.0), 1.0);
  EXPECT_EQ(store.tracked_identities(), 0u);
  EXPECT_EQ(store.tracked_subnets(), 0u);
}

TEST(ReputationStoreTest, ShardBudgetEvictsClosestToBaseline) {
  ReputationOptions opts;
  opts.shards = 1;
  opts.max_identities_per_shard = 8;
  ReputationStore store(opts);
  // One hot identity and a crowd of cold ones.
  store.RecordSignal(kAlice, kSubnetA, 0.0, ReputationSignal::kExternal);
  store.RecordSignal(kAlice, kSubnetA, 0.0, ReputationSignal::kExternal);
  for (uint64_t id = 100; id < 140; ++id) {
    store.ObserveAccess(id, kSubnetB, 1, 0, 0.0);
  }
  EXPECT_LE(store.tracked_identities(), 8u);
  // The hot identity survived the churn.
  EXPECT_GT(store.IdentityPenalty(kAlice, 0.0), 1.0);
}

TEST(ReputationStoreTest, PublishesMetrics) {
  obs::MetricRegistry registry;
  ReputationOptions opts;
  opts.metrics = &registry;
  ReputationStore store(opts);
  store.RecordSignal(kAlice, kSubnetA, 0.0, ReputationSignal::kExternal);
  store.ObserveAccess(kAlice, kSubnetA, 1, 0, 0.0);
  auto snapshot = registry.Snapshot();
  const auto* signals = snapshot.Find("tarpit_reputation_signals_total",
                                      {{"source", "external"}});
  ASSERT_NE(signals, nullptr);
  EXPECT_EQ(signals->value, 1);
  const auto* tracked =
      snapshot.Find("tarpit_reputation_tracked_principals",
                    {{"scope", "identity"}});
  ASSERT_NE(tracked, nullptr);
  EXPECT_EQ(tracked->value, 1);
}

// ---------- Breadth sketches: footprint, strides, promotion ----------

TEST(ReputationStoreTest, OneShotPrincipalsHoldSparseSketches) {
  // 100k principals that each read one tuple. Dense sketches would hold
  // 100k x 4 KB of registers; sparse ones must hold <= 10% of that.
  ReputationOptions opts;
  opts.max_identities_per_shard = 1 << 20;  // Track every one.
  ReputationStore store(opts);
  const uint64_t kPrincipals = 100'000;
  for (uint64_t id = 1; id <= kPrincipals; ++id) {
    const uint32_t subnet = 0x0A000000 + static_cast<uint32_t>(id % 1000)
                                             * 256;
    store.ObserveAccess(id, subnet, static_cast<int64_t>(id), 1'000'000,
                        0.0);
  }
  ASSERT_EQ(store.tracked_identities(), kPrincipals);
  ASSERT_EQ(store.tracked_subnets(), 1000u);
  const size_t dense_bytes = kPrincipals * (size_t{1} << opts.hll_precision);
  EXPECT_LE(store.breadth_sketch_bytes(), dense_bytes / 10);
}

TEST(ReputationStoreTest, BreadthStridesUnchangedPastPromotion) {
  // The stride check runs only when a sketch register rises. A
  // principal walking well past the sparse->dense promotion must still
  // fire exactly the signals a check after every access would.
  ReputationOptions opts;
  ReputationStore store(opts);
  HyperLogLog shadow(opts.hll_precision);
  const uint64_t n = 20'000;
  uint64_t due = 0;
  for (int64_t i = 0; i < 6000; ++i) {
    const int64_t key = i % 4000;  // The last 2000 are revisits.
    store.ObserveAccess(kAlice, kSubnetA, key, n, 0.0);
    shadow.Add(key);
    const double past_free = shadow.Estimate() / static_cast<double>(n) -
                             opts.breadth_free_fraction;
    if (past_free > 0.0) {
      due = std::max(due, static_cast<uint64_t>(
                              past_free / opts.breadth_signal_stride));
    }
    // Identity and subnet see the same keys, so each fires `due`.
    ASSERT_EQ(store.signals_total(), 2 * due) << "access " << i;
  }
  EXPECT_GE(due, 15u);
  ASSERT_FALSE(shadow.sparse());
  EXPECT_GE(store.breadth_sketch_bytes(), 2 * shadow.bytes());
}

TEST(ReputationStoreConcurrencyTest, PromotionUnderContention) {
  // Six writers walk two identities each across the sparse->dense
  // promotion, sharing two /24s, while two readers poll PenaltyFactor.
  // Each identity's stream is serial within its writer. Each subnet's
  // 12k keys end far past the linear-counting switch (the one place an
  // estimate can dip), so its final estimate is its highest whatever
  // the interleaving. The result must match a serial replay exactly.
  constexpr int kWriters = 6;
  constexpr int kReaders = 2;
  constexpr int kIdsPerWriter = 2;
  constexpr int64_t kKeysPerId = 2000;
  const uint64_t n = 30'000;
  ReputationOptions opts;
  opts.shards = 4;
  ReputationStore store(opts);
  ReputationStore serial(opts);
  auto id_of = [](int w, int j) {
    return static_cast<uint64_t>(100 + w * kIdsPerWriter + j);
  };
  auto subnet_of = [](int w) { return w % 2 == 0 ? kSubnetA : kSubnetB; };
  auto key_of = [](int w, int j, int64_t i) {
    return static_cast<int64_t>(w * kIdsPerWriter + j) * 1000 + i;
  };

  std::atomic<int> writers_left{kWriters};
  std::atomic<bool> below_baseline{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int64_t i = 0; i < kKeysPerId; ++i) {
        for (int j = 0; j < kIdsPerWriter; ++j) {
          store.ObserveAccess(id_of(w, j), subnet_of(w), key_of(w, j, i), n,
                              0.0);
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      while (writers_left.load() > 0) {
        for (int w = 0; w < kWriters; ++w) {
          for (int j = 0; j < kIdsPerWriter; ++j) {
            if (store.PenaltyFactor(id_of(w, j), subnet_of(w), 0.0) < 1.0) {
              below_baseline.store(true);
            }
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(below_baseline.load());

  for (int w = 0; w < kWriters; ++w) {
    for (int64_t i = 0; i < kKeysPerId; ++i) {
      for (int j = 0; j < kIdsPerWriter; ++j) {
        serial.ObserveAccess(id_of(w, j), subnet_of(w), key_of(w, j, i), n,
                             0.0);
      }
    }
  }
  for (int w = 0; w < kWriters; ++w) {
    for (int j = 0; j < kIdsPerWriter; ++j) {
      EXPECT_EQ(store.IdentityPenalty(id_of(w, j), 0.0),
                serial.IdentityPenalty(id_of(w, j), 0.0));
      EXPECT_GT(store.IdentityPenalty(id_of(w, j), 0.0), 1.0);
    }
  }
  EXPECT_EQ(store.SubnetPenalty(kSubnetA, 0.0),
            serial.SubnetPenalty(kSubnetA, 0.0));
  EXPECT_EQ(store.SubnetPenalty(kSubnetB, 0.0),
            serial.SubnetPenalty(kSubnetB, 0.0));
  EXPECT_EQ(store.signals_total(), serial.signals_total());
  // Every identity and both subnets crossed into dense registers.
  const size_t dense = size_t{1} << opts.hll_precision;
  EXPECT_GE(store.breadth_sketch_bytes(),
            (kWriters * kIdsPerWriter + 2) * dense);
  EXPECT_EQ(store.breadth_sketch_bytes(), serial.breadth_sketch_bytes());
}

// ---------- Persistence across session churn ----------

TEST(ReputationStoreTest, SurvivesSessionEvictionAndRelogin) {
  // The store keys by identity/subnet, never by session: logging out,
  // being TTL-evicted, and logging back in changes nothing.
  ReputationStore store;
  SessionManager sessions;
  Identity alice;
  alice.id = kAlice;
  alice.ipv4 = 0x0A000001;

  auto token = sessions.Login(alice, 0.0);
  ASSERT_TRUE(token.ok());
  store.RecordSignal(alice.id, alice.Subnet24(), 0.0,
                     ReputationSignal::kExternal);
  const double before = store.PenaltyFactor(alice.id, alice.Subnet24(), 0.0);
  ASSERT_GT(before, 1.0);

  // Explicit logout, TTL eviction sweep, then a fresh login.
  sessions.Logout(*token);
  sessions.ExpireStale(1e9);
  auto relogin = sessions.Login(alice, 1.0);
  ASSERT_TRUE(relogin.ok());
  // Same evaluation instant: bit-identical factor (only time decays
  // reputation, never session churn).
  EXPECT_DOUBLE_EQ(
      store.PenaltyFactor(alice.id, alice.Subnet24(), 0.0), before);
}

// ---------- Front-door wiring ----------

class ReputationGateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tarpit_rep_gate_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    gate_.reset();
    db_.reset();
    fs::remove_all(dir_);
  }

  /// Opens the door pricing with `store` (null = reputation off) and
  /// loads ten rows.
  void OpenDoor(ReputationStore* store) {
    ProtectedDatabaseOptions opts;
    opts.popularity.scale = 0.001;
    opts.popularity.bounds = {0.0, 10.0};
    ConcurrentDatabaseOptions copts;
    copts.reputation = store;
    auto db = ConcurrentProtectedDatabase::Open(dir_.string(), "items",
                                                &clock_, opts, copts);
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

  fs::path dir_;
  VirtualClock clock_;
  std::unique_ptr<ConcurrentProtectedDatabase> db_;
  ProtectedDatabase* pdb_ = nullptr;
  std::unique_ptr<QueryGate> gate_;
};

TEST_F(ReputationGateTest, PenalizedIdentityPaysMultipliedDelay) {
  // Breadth self-signaling off: on a 10-row table every access is 10%
  // coverage, which would drown the externally injected factor this
  // test measures.
  ReputationOptions ropts;
  ropts.breadth_free_fraction = 1.0;
  ReputationStore store(ropts);
  QueryGateOptions opts;
  opts.per_user_queries_per_second = 1e6;
  opts.per_user_burst = 1e6;
  opts.per_subnet_queries_per_second = 1e6;
  opts.per_subnet_burst = 1e6;
  opts.reputation = &store;
  OpenDoor(&store);
  gate_ = std::make_unique<QueryGate>(db_.get(), opts);

  auto alice = gate_->RegisterUser(0x0A000001);
  ASSERT_TRUE(alice.ok());

  auto clean = gate_->ExecuteSql(*alice,
                                 "SELECT * FROM items WHERE id = 1");
  ASSERT_TRUE(clean.ok());
  ASSERT_GT(clean->delay_seconds, 0.0);

  // Penalize alice out-of-band by a known factor, then re-issue: the
  // second query's BASE delay (access count went 1 -> 2) times the
  // factor.
  store.RecordSignal(alice->id, alice->Subnet24(),
                     clock_.NowSeconds(), ReputationSignal::kExternal,
                     3.0);  // growth 2^3 = 8x.
  const double factor =
      store.PenaltyFactor(alice->id, alice->Subnet24(),
                          clock_.NowSeconds());
  ASSERT_NEAR(factor, 8.0, 1e-9);
  auto taxed = gate_->ExecuteSql(*alice,
                                 "SELECT * FROM items WHERE id = 1");
  ASSERT_TRUE(taxed.ok());
  // The engine charges from post-access stats; PeekDelay right after
  // the query reads the same snapshot the query was priced from.
  const double base = pdb_->PeekDelay(1);
  EXPECT_NEAR(taxed->delay_seconds, base * factor, 1e-9);
  EXPECT_EQ(
      gate_->audit_log()->CountOf(AuditEvent::kReputationEscalated), 1u);
}

TEST_F(ReputationGateTest, RateDenialsFeedReputation) {
  ReputationOptions ropts;
  ropts.breadth_free_fraction = 1.0;  // Count only the denials.
  ReputationStore store(ropts);
  QueryGateOptions opts;
  opts.per_user_queries_per_second = 0.1;
  opts.per_user_burst = 1.0;
  opts.reputation = &store;
  OpenDoor(&store);
  gate_ = std::make_unique<QueryGate>(db_.get(), opts);

  auto alice = gate_->RegisterUser(0x0A000001);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(
      gate_->ExecuteSql(*alice, "SELECT * FROM items WHERE id = 1")
          .ok());
  // Hammer through the empty bucket: every denial is a rate-anomaly
  // signal.
  for (int i = 0; i < 3; ++i) {
    auto r = gate_->ExecuteSql(*alice,
                               "SELECT * FROM items WHERE id = 1");
    ASSERT_TRUE(r.status().IsRateLimited());
  }
  EXPECT_GT(store.PenaltyFactor(alice->id, alice->Subnet24(),
                                clock_.NowSeconds()),
            1.0);
  EXPECT_EQ(store.signals_total(), 3u);  // One per denial.
  EXPECT_GT(store.IdentityPenalty(alice->id, clock_.NowSeconds()), 1.0);
}

TEST_F(ReputationGateTest, GateWithoutReputationIsUnchanged) {
  QueryGateOptions opts;
  opts.per_user_queries_per_second = 1e6;
  opts.per_user_burst = 1e6;
  OpenDoor(nullptr);
  gate_ = std::make_unique<QueryGate>(db_.get(), opts);
  auto alice = gate_->RegisterUser(0x0A000001);
  ASSERT_TRUE(alice.ok());
  auto r = gate_->ExecuteSql(*alice,
                             "SELECT * FROM items WHERE id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(
      gate_->audit_log()->CountOf(AuditEvent::kReputationEscalated), 0u);
}

// One bill on the gated path: the coverage and reputation surcharges
// are priced by the door, so what callers were charged is exactly what
// Metrics() reports and what the delay ledger persists.
TEST_F(ReputationGateTest, LedgerEqualsSumOfGatedCharges) {
  ReputationStore store;
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 0.05;
  opts.popularity.beta = 1.0;
  opts.popularity.bounds = {0.0, 10.0};
  ConcurrentDatabaseOptions copts;
  copts.persist_delay_ledger = true;
  copts.reputation = &store;
  auto db = ConcurrentProtectedDatabase::Open(dir_.string(), "items",
                                              &clock_, opts, copts);
  ASSERT_TRUE(db.ok());
  db_ = std::move(*db);
  ASSERT_TRUE(
      db_->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
          .ok());
  for (int64_t i = 1; i <= 100; ++i) {
    ASSERT_TRUE(db_->BulkLoadRow({Value(i), Value(1.0)}).ok());
  }
  QueryGateOptions gopts;
  gopts.per_user_queries_per_second = 1e9;
  gopts.per_user_burst = 1e9;
  gopts.per_subnet_queries_per_second = 1e9;
  gopts.per_subnet_burst = 1e9;
  gopts.coverage_escalation = true;
  gopts.coverage.free_coverage = 0.05;
  gopts.coverage.max_coverage = 0.5;
  gopts.coverage.max_escalation = 20.0;
  gopts.reputation = &store;
  gate_ = std::make_unique<QueryGate>(db_.get(), gopts);
  auto scraper = gate_->RegisterUser(0x0A000001);
  ASSERT_TRUE(scraper.ok());

  const double before = db_->Metrics().total_delay_seconds;
  double charged = 0.0;
  for (int64_t k = 1; k <= 100; ++k) {
    auto r = gate_->ExecuteSql(
        *scraper, "SELECT * FROM items WHERE id = " + std::to_string(k));
    ASSERT_TRUE(r.ok()) << k;
    charged += r->delay_seconds;
  }
  auto range =
      gate_->ExecuteSql(*scraper, "SELECT * FROM items WHERE id < 30");
  ASSERT_TRUE(range.ok());
  charged += range->delay_seconds;
  // Both surcharges fired, so the check covers them.
  AuditLog* log = gate_->audit_log();
  ASSERT_GT(log->CountOf(AuditEvent::kCoverageEscalated), 0u);
  ASSERT_GT(log->CountOf(AuditEvent::kReputationEscalated), 0u);

  const double metered = db_->Metrics().total_delay_seconds - before;
  EXPECT_NEAR(metered, charged, 1e-9 * charged);

  ASSERT_TRUE(db_->Checkpoint().ok());
  gate_.reset();
  db_.reset();
  auto reopened = ConcurrentProtectedDatabase::Open(dir_.string(), "items",
                                                    &clock_, opts, copts);
  ASSERT_TRUE(reopened.ok());
  const double ledger = (*reopened)->recovered_delay_seconds();
  EXPECT_NEAR(ledger, before + charged, 1e-9 * charged);
}

TEST(ReputationConcurrentDoorTest, EscalatesComputePhaseDelay) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("tarpit_rep_cdb_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  VirtualClock clock;
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 0.001;
  opts.popularity.bounds = {0.0, 10.0};
  ReputationOptions ropts;
  ropts.breadth_free_fraction = 1.0;  // Isolate the injected factor.
  ReputationStore store(ropts);
  ConcurrentDatabaseOptions copts;
  copts.serve_delays = false;  // Measure, don't stall.
  copts.reputation = &store;
  auto open = ConcurrentProtectedDatabase::Open(dir.string(), "items",
                                                &clock, opts, copts);
  ASSERT_TRUE(open.ok());
  auto cdb = std::move(*open);
  ASSERT_TRUE(
      cdb->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
          .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cdb->BulkLoadRow({Value(static_cast<int64_t>(i)),
                                  Value(i * 1.0)})
                    .ok());
  }

  RequestPrincipal alice{kAlice, kSubnetA};
  auto clean = cdb->GetByKey(3, alice);
  ASSERT_TRUE(clean.ok());
  ASSERT_GT(clean->delay_seconds, 0.0);

  store.RecordSignal(kAlice, kSubnetA, clock.NowSeconds(),
                     ReputationSignal::kExternal, 2.0);  // 4x.
  const double factor =
      store.PenaltyFactor(kAlice, kSubnetA, clock.NowSeconds());
  ASSERT_NEAR(factor, 4.0, 1e-9);

  // Same principal: escalated. Anonymous and clean principals: not.
  auto taxed = cdb->GetByKey(3, alice);
  ASSERT_TRUE(taxed.ok());
  auto anonymous = cdb->GetByKey(3);
  ASSERT_TRUE(anonymous.ok());
  RequestPrincipal bob{kBob, kSubnetB};
  auto clean_bob = cdb->GetByKey(3, bob);
  ASSERT_TRUE(clean_bob.ok());
  EXPECT_GT(taxed->delay_seconds, 2.0 * anonymous->delay_seconds);
  EXPECT_LT(clean_bob->delay_seconds, taxed->delay_seconds);

  // The async park path parks the POST-escalation delay.
  double parked = -1.0;
  cdb->GetByKeyAsync(3, alice,
                     [&](Result<ProtectedResult> r) {
                       ASSERT_TRUE(r.ok());
                       parked = r->delay_seconds;
                     });
  ASSERT_GE(parked, 0.0);  // serve_delays off: completes inline.
  EXPECT_GT(parked, 2.0 * anonymous->delay_seconds);

  // Metrics() still equals the sum of caller-charged delays.
  cdb->QuiesceStats();
  auto metrics = cdb->Metrics();
  EXPECT_GT(metrics.total_delay_seconds, 0.0);

  cdb.reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace tarpit
