// Deterministic attack-regression suite: the adversary zoo vs the
// defense-layer ladder on a virtual clock with fixed seeds. Every
// number in here is reproducible bit-for-bit -- a change in any layer
// that moves time-to-extract or charged-delay totals fails loudly.
//
// Labeled `adversary` (the regression matrix) and `concurrency` (the
// shared-reputation-store stress runs under TSan).

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/concurrent_db.h"
#include "defense/query_gate.h"
#include "defense/reputation.h"
#include "sim/adversary_zoo.h"
#include "sim/gate_attack.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

int StressIters(int default_iters) {
  if (const char* env = std::getenv("TARPIT_STRESS_ITERS")) {
    const int v = std::atoi(env);
    if (v > 0) return std::min(v, default_iters);
  }
  return default_iters;
}

/// The defense-layer ladder the regression matrix walks. Each rung
/// keeps every knob of the rung below it and adds one mechanism.
enum class Layer {
  kPopularityOnly,      // Paper section 2: per-tuple delay alone.
  kCoverage,            // + per-identity coverage escalation.
  kCoverageReputation,  // + reputation-escalating delay.
};

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kPopularityOnly:
      return "popularity";
    case Layer::kCoverage:
      return "coverage";
    case Layer::kCoverageReputation:
      return "coverage+reputation";
  }
  return "?";
}

/// One self-contained defended database + gate on its own virtual
/// timeline. Fresh per run: popularity, coverage, and reputation state
/// all start cold, so runs are independent and deterministic.
struct Stack {
  fs::path dir;
  std::unique_ptr<VirtualClock> clock;
  std::unique_ptr<ReputationStore> reputation;
  std::unique_ptr<ConcurrentProtectedDatabase> db;
  std::unique_ptr<QueryGate> gate;

  ~Stack() {
    gate.reset();
    db.reset();
    if (!dir.empty()) fs::remove_all(dir);
  }
};

/// Builds a stack whose table holds every key in [1, n] for which
/// `present` returns true. Flat popularity (everything charges the
/// 1-second cap) so layer effects are the ONLY thing separating runs.
std::unique_ptr<Stack> MakeStack(Layer layer, const std::string& name,
                                 int64_t n,
                                 bool (*present)(int64_t) = nullptr) {
  auto stack = std::make_unique<Stack>();
  stack->dir = fs::temp_directory_path() /
               ("tarpit_advreg_" + name + "_" +
                std::to_string(::getpid()));
  fs::remove_all(stack->dir);
  fs::create_directories(stack->dir);
  stack->clock = std::make_unique<VirtualClock>();

  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 1e9;  // Everything costs the cap.
  opts.popularity.bounds = {0.0, 1.0};
  QueryGateOptions gate_opts;
  gate_opts.registration_seconds_per_account = 0.0;
  gate_opts.registration_burst = 1e9;
  gate_opts.per_user_queries_per_second = 5.0;
  gate_opts.per_user_burst = 20.0;
  gate_opts.per_subnet_queries_per_second = 1e9;
  gate_opts.per_subnet_burst = 1e9;
  if (layer != Layer::kPopularityOnly) {
    gate_opts.coverage_escalation = true;
    gate_opts.coverage.free_coverage = 0.01;
    gate_opts.coverage.max_coverage = 0.25;
    gate_opts.coverage.max_escalation = 20.0;
  }
  if (layer == Layer::kCoverageReputation) {
    ReputationOptions rep;
    rep.growth = 2.0;
    rep.subnet_growth = 1.5;
    rep.half_life_seconds = 1e9;  // No decay inside one attack.
    rep.max_penalty = 64.0;
    rep.max_subnet_penalty = 64.0;
    rep.breadth_free_fraction = 0.01;
    rep.breadth_signal_stride = 0.05;
    stack->reputation = std::make_unique<ReputationStore>(rep);
    gate_opts.reputation = stack->reputation.get();
  }
  ConcurrentDatabaseOptions copts;
  copts.serve_delays = false;  // Discrete-event drivers advance time.
  copts.reputation = stack->reputation.get();
  auto db = ConcurrentProtectedDatabase::Open(
      stack->dir.string(), "items", stack->clock.get(), opts, copts);
  EXPECT_TRUE(db.ok());
  if (!db.ok()) return nullptr;
  stack->db = std::move(*db);
  EXPECT_TRUE(stack->db
                  ->ExecuteSql(
                      "CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
                  .ok());
  for (int64_t key = 1; key <= n; ++key) {
    if (present != nullptr && !present(key)) continue;
    EXPECT_TRUE(
        stack->db->BulkLoadRow({Value(key), Value(1.0)}).ok());
  }
  stack->gate =
      std::make_unique<QueryGate>(stack->db.get(), gate_opts);
  return stack;
}

constexpr int64_t kN = 120;

// ---------- Determinism: same seed, bit-identical replay ----------

TEST(AdversaryRegressionTest, SlowLowReplaysBitIdentically) {
  SlowLowConfig config;
  config.n = kN;
  SlowLowReport a, b;
  {
    auto stack = MakeStack(Layer::kCoverageReputation, "det_sl_a", kN);
    ASSERT_NE(stack, nullptr);
    a = RunSlowLowExtraction(stack->gate.get(), stack->clock.get(),
                             config);
  }
  {
    auto stack = MakeStack(Layer::kCoverageReputation, "det_sl_b", kN);
    ASSERT_NE(stack, nullptr);
    b = RunSlowLowExtraction(stack->gate.get(), stack->clock.get(),
                             config);
  }
  EXPECT_TRUE(a.completed);
  EXPECT_DOUBLE_EQ(a.attack_seconds, b.attack_seconds);
  EXPECT_DOUBLE_EQ(a.total_delay_seconds, b.total_delay_seconds);
  EXPECT_EQ(a.queries_issued, b.queries_issued);
  EXPECT_EQ(a.rate_limited, b.rate_limited);
}

TEST(AdversaryRegressionTest, SybilChurnReplaysBitIdentically) {
  SybilChurnConfig config;
  config.n = kN;
  config.fleet_size = 4;
  config.queries_per_identity = 10;
  config.subnet_pool = 2;
  SybilChurnReport a, b;
  {
    auto stack = MakeStack(Layer::kCoverageReputation, "det_sy_a", kN);
    ASSERT_NE(stack, nullptr);
    a = RunSybilChurnExtraction(stack->gate.get(), stack->clock.get(),
                                config);
  }
  {
    auto stack = MakeStack(Layer::kCoverageReputation, "det_sy_b", kN);
    ASSERT_NE(stack, nullptr);
    b = RunSybilChurnExtraction(stack->gate.get(), stack->clock.get(),
                                config);
  }
  EXPECT_TRUE(a.completed);
  EXPECT_DOUBLE_EQ(a.attack_seconds, b.attack_seconds);
  EXPECT_DOUBLE_EQ(a.total_delay_seconds, b.total_delay_seconds);
  EXPECT_EQ(a.identities_registered, b.identities_registered);
}

bool GappedDomain(int64_t key) { return key <= 40 || key >= 61; }

TEST(AdversaryRegressionTest, VolumeInferenceReplaysAndReconstructs) {
  VolumeInferenceConfig config;
  config.domain_max = 100;
  VolumeInferenceReport a, b;
  {
    auto stack = MakeStack(Layer::kCoverageReputation, "det_vi_a", 100,
                           GappedDomain);
    ASSERT_NE(stack, nullptr);
    a = RunVolumeInference(stack->gate.get(), stack->clock.get(),
                           config);
  }
  {
    auto stack = MakeStack(Layer::kCoverageReputation, "det_vi_b", 100,
                           GappedDomain);
    ASSERT_NE(stack, nullptr);
    b = RunVolumeInference(stack->gate.get(), stack->clock.get(),
                           config);
  }
  // The reconstruction is EXACT: the adversary proves precisely which
  // keys exist without fetching a single row.
  ASSERT_TRUE(a.completed);
  ASSERT_EQ(a.present_ranges.size(), 2u);
  EXPECT_EQ(a.present_ranges[0], (std::pair<int64_t, int64_t>{1, 40}));
  EXPECT_EQ(a.present_ranges[1], (std::pair<int64_t, int64_t>{61, 100}));
  EXPECT_EQ(a.keys_identified, 80u);
  EXPECT_DOUBLE_EQ(a.attack_seconds, b.attack_seconds);
  EXPECT_DOUBLE_EQ(a.total_delay_seconds, b.total_delay_seconds);
}

// ---------- Time-to-extract ordering across the ladder ----------

struct LadderTimes {
  double popularity = 0;
  double coverage = 0;
  double coverage_reputation = 0;
};

template <typename Config, typename Runner>
LadderTimes RunLadder(const std::string& name, int64_t n,
                      const Config& config, Runner runner,
                      bool (*present)(int64_t) = nullptr) {
  LadderTimes times;
  for (Layer layer : {Layer::kPopularityOnly, Layer::kCoverage,
                      Layer::kCoverageReputation}) {
    auto stack =
        MakeStack(layer, name + "_" + LayerName(layer), n, present);
    EXPECT_NE(stack, nullptr);
    if (stack == nullptr) return times;
    auto report =
        runner(stack->gate.get(), stack->clock.get(), config);
    EXPECT_TRUE(report.completed)
        << name << " vs " << LayerName(layer);
    switch (layer) {
      case Layer::kPopularityOnly:
        times.popularity = report.attack_seconds;
        break;
      case Layer::kCoverage:
        times.coverage = report.attack_seconds;
        break;
      case Layer::kCoverageReputation:
        times.coverage_reputation = report.attack_seconds;
        break;
    }
  }
  return times;
}

TEST(AdversaryRegressionTest, SlowLowOrderingAcrossLayers) {
  SlowLowConfig config;
  config.n = kN;
  const LadderTimes t =
      RunLadder("ord_sl", kN, config, RunSlowLowExtraction);
  // Each added layer makes extraction strictly slower: the walk covers
  // the whole relation, so coverage escalation and then the
  // reputation surcharge both bite.
  EXPECT_GT(t.coverage, t.popularity);
  EXPECT_GT(t.coverage_reputation, t.coverage);
}

TEST(AdversaryRegressionTest, SybilChurnOrderingAndReputationFactor) {
  SybilChurnConfig config;
  config.n = kN;
  config.fleet_size = 4;
  config.queries_per_identity = 10;
  config.subnet_pool = 2;
  const LadderTimes t =
      RunLadder("ord_sy", kN, config, RunSybilChurnExtraction);
  EXPECT_GE(t.coverage, t.popularity);
  EXPECT_GT(t.coverage_reputation, t.coverage);
  // The acceptance bar: identity churn sheds per-identity state, so
  // only the subnet-keyed reputation makes churn expensive -- at least
  // 5x over the popularity-only baseline.
  EXPECT_GE(t.coverage_reputation, 5.0 * t.popularity)
      << "popularity=" << t.popularity
      << " coverage+reputation=" << t.coverage_reputation;
}

TEST(AdversaryRegressionTest, VolumeInferenceOrderingAcrossLayers) {
  VolumeInferenceConfig config;
  config.domain_max = 100;
  const LadderTimes t = RunLadder("ord_vi", 100, config,
                                  RunVolumeInference, GappedDomain);
  // COUNT probes pay delay over every row they aggregate, so the
  // ladder still orders -- per-tuple delay alone is just far weaker
  // against an adversary that never fetches rows.
  EXPECT_GE(t.coverage, t.popularity);
  EXPECT_GT(t.coverage_reputation, t.coverage);
}

TEST(AdversaryRegressionTest, BruteForceSweepStillOrdered) {
  // The pre-existing sybil sweep (gate_attack.h) rides the same
  // ladder: the zoo extends the matrix, it does not replace it.
  GateAttackConfig config;
  config.n = kN;
  config.identities = 4;
  config.spread_subnets = true;
  LadderTimes times;
  for (Layer layer : {Layer::kPopularityOnly, Layer::kCoverage,
                      Layer::kCoverageReputation}) {
    auto stack = MakeStack(
        layer, std::string("ord_bf_") + LayerName(layer), kN);
    ASSERT_NE(stack, nullptr);
    GateAttackReport report = RunGateExtraction(
        stack->gate.get(), stack->clock.get(), config);
    ASSERT_TRUE(report.completed) << LayerName(layer);
    if (layer == Layer::kPopularityOnly) {
      times.popularity = report.attack_seconds;
    } else if (layer == Layer::kCoverage) {
      times.coverage = report.attack_seconds;
    } else {
      times.coverage_reputation = report.attack_seconds;
    }
  }
  EXPECT_GT(times.coverage, times.popularity);
  EXPECT_GT(times.coverage_reputation, times.coverage);
}

// ---------- Charged-delay totals vs a serial oracle ----------

TEST(AdversaryRegressionTest, SlowLowTotalsMatchSerialOracle) {
  // The slow-and-low driver with jitter off is a plain serial loop:
  // issue key k, wait out the stall, pace, issue k+1. Re-derive its
  // charged-delay total with an independent hand-rolled loop over an
  // identical fresh stack and demand agreement within 0.01%.
  SlowLowConfig config;
  config.n = kN;
  config.pacing_jitter = 0.0;
  double driver_total = 0.0;
  {
    auto stack =
        MakeStack(Layer::kCoverageReputation, "oracle_drv", kN);
    ASSERT_NE(stack, nullptr);
    SlowLowReport report = RunSlowLowExtraction(
        stack->gate.get(), stack->clock.get(), config);
    ASSERT_TRUE(report.completed);
    ASSERT_EQ(report.rate_limited, 0u);  // Paced under the bucket.
    driver_total = report.total_delay_seconds;
  }

  auto stack = MakeStack(Layer::kCoverageReputation, "oracle_ref", kN);
  ASSERT_NE(stack, nullptr);
  VirtualClock* clock = stack->clock.get();
  auto identity = stack->gate->RegisterUser(config.ipv4);
  ASSERT_TRUE(identity.ok());
  const double gap =
      1.0 / (stack->gate->options().per_user_queries_per_second *
             config.rate_headroom);
  double oracle_total = 0.0;
  double next_issue = clock->NowSeconds();
  double busy_until = clock->NowSeconds();
  for (int64_t key = 1; key <= kN; ++key) {
    clock->AdvanceToMicros(static_cast<int64_t>(
        std::max(next_issue, busy_until) * 1e6));
    const double now = clock->NowSeconds();
    auto r = stack->gate->ExecuteSql(
        *identity, "SELECT * FROM items WHERE id = " +
                       std::to_string(key));
    ASSERT_TRUE(r.ok()) << key;
    oracle_total += r->delay_seconds;
    busy_until = now + r->delay_seconds;
    next_issue = now + gap;
  }
  ASSERT_GT(oracle_total, 0.0);
  EXPECT_NEAR(driver_total, oracle_total, oracle_total * 1e-4);
}

// ---------- Shared reputation store under contention ----------

TEST(AdversaryRegressionTest, SharedReputationStoreEightThreads) {
  // One store backing many doors at once: 8 threads hammer the full
  // mutation surface on overlapping principals. Invariants (factor >=
  // 1, counts consistent) must hold throughout; the run is part of the
  // TSan matrix via the `concurrency` label.
  ReputationOptions opts;
  opts.growth = 1.2;
  opts.subnet_growth = 1.1;
  opts.half_life_seconds = 5.0;
  opts.max_identities_per_shard = 64;
  opts.shards = 4;
  ReputationStore store(opts);

  const int iters = StressIters(4000);
  constexpr int kThreads = 8;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &failed, t, iters] {
      for (int i = 0; i < iters; ++i) {
        const uint64_t identity = (t * 7 + i) % 48;
        const uint32_t subnet =
            static_cast<uint32_t>((i % 6) << 8);
        const double now = 0.001 * i;
        switch (i % 5) {
          case 0:
            store.RecordSignal(identity, subnet, now,
                               ReputationSignal::kExternal, 0.5);
            break;
          case 1:
            store.ObserveAccess(identity, subnet, i % 500, 500, now);
            break;
          case 2:
            store.RecordBenign(identity, subnet, now);
            break;
          case 3:
            if (store.PenaltyFactor(identity, subnet, now) < 1.0) {
              failed.store(true);
            }
            break;
          case 4:
            if (i % 97 == 0) store.ForgetIdentity(identity);
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  EXPECT_LE(store.tracked_identities(), 4u * 64u);
  EXPECT_GE(store.signals_total(), 1u);
  // The store is still coherent after the storm.
  EXPECT_GE(store.PenaltyFactor(1, 0, 1e9), 1.0);
}

}  // namespace
}  // namespace tarpit
