// Property test: for any interleaving (seeded schedule shuffling,
// random shard/epoch geometry, random thread counts), a quiesced
// ConcurrentCountTracker equals a serial CountTracker replay of the
// same multiset of keys -- rank, f_max, distinct_seen, per-key counts
// all equal. With decay disabled (delta = 1.0) the learned state is a
// pure function of the multiset, so equality is exact; a second
// property checks the decay>1 invariants (exact total mass, exact
// request counts) that hold for *any* order. A third pins the fused
// RecordAndStats to a serial tracker, call by call, at epoch_batch = 1.

#include <algorithm>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/zipf.h"
#include "stats/concurrent_count_tracker.h"
#include "stats/count_tracker.h"

namespace tarpit {
namespace {

int StressIters(int default_iters) {
  const char* env = std::getenv("TARPIT_STRESS_ITERS");
  if (env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) return std::min(v, default_iters);
  }
  return default_iters;
}

/// Seeded Fisher-Yates so the "interleaving" (both the partition into
/// threads and each thread's order) varies per seed.
void Shuffle(std::vector<int64_t>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

struct ScheduleParams {
  uint64_t n_keys;
  double alpha;
  int threads;
  size_t shards;
  size_t epoch;
  int total_ops;
};

ScheduleParams DrawParams(Rng* rng, int total_ops) {
  ScheduleParams p;
  p.n_keys = 16 + rng->Uniform(200);
  p.alpha = 0.6 + rng->NextDouble();  // [0.6, 1.6): mild to sharp skew.
  p.threads = 2 + static_cast<int>(rng->Uniform(4));  // 2..5
  p.shards = static_cast<size_t>(1) << rng->Uniform(6);  // 1..32
  p.epoch = 1 + rng->Uniform(128);
  p.total_ops = total_ops;
  return p;
}

/// Draws the multiset, shuffles it, and runs `threads` workers that
/// record their round-robin slices concurrently. Returns the multiset.
std::vector<int64_t> RunConcurrent(const ScheduleParams& p, Rng* rng,
                                   ConcurrentCountTracker* tracker) {
  ZipfDistribution zipf(p.n_keys, p.alpha);
  std::vector<int64_t> ops;
  ops.reserve(p.total_ops);
  for (int i = 0; i < p.total_ops; ++i) {
    ops.push_back(static_cast<int64_t>(zipf.Sample(rng)));
  }
  Shuffle(&ops, rng);

  std::vector<std::thread> workers;
  for (int t = 0; t < p.threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < ops.size();
           i += static_cast<size_t>(p.threads)) {
        tracker->Record(ops[i]);
      }
    });
  }
  for (auto& w : workers) w.join();
  tracker->FlushAll();
  return ops;
}

TEST(ConcurrentPropertyTest, QuiescedEqualsSerialReplayNoDecay) {
  const int seeds = StressIters(12);
  const int total_ops = StressIters(2500);
  for (int seed = 1; seed <= seeds; ++seed) {
    Rng rng(7919u * seed);
    const ScheduleParams p = DrawParams(&rng, total_ops);

    CountTracker inner(p.n_keys, /*decay=*/1.0);
    ConcurrentCountTrackerOptions topts;
    topts.num_shards = p.shards;
    topts.epoch_batch = p.epoch;
    ConcurrentCountTracker tracker(&inner, topts);
    const std::vector<int64_t> ops = RunConcurrent(p, &rng, &tracker);

    ASSERT_EQ(tracker.pending_records(), 0u) << "seed " << seed;
    ASSERT_EQ(tracker.total_requests(),
              static_cast<uint64_t>(p.total_ops))
        << "seed " << seed;

    // Serial replay of the same multiset (any order is equivalent when
    // decay is off; use the generation order).
    CountTracker serial(p.n_keys, /*decay=*/1.0);
    for (int64_t key : ops) serial.Record(key);

    ASSERT_EQ(inner.total_requests(), serial.total_requests())
        << "seed " << seed;
    ASSERT_EQ(inner.distinct_seen(), serial.distinct_seen())
        << "seed " << seed;

    const std::set<int64_t> distinct(ops.begin(), ops.end());
    for (int64_t key : distinct) {
      const PopularityStats got = tracker.Stats(key);
      const PopularityStats want = serial.Stats(key);
      ASSERT_DOUBLE_EQ(got.count, want.count)
          << "seed " << seed << " key " << key;
      ASSERT_EQ(got.rank, want.rank)
          << "seed " << seed << " key " << key;
      ASSERT_DOUBLE_EQ(got.max_count, want.max_count)
          << "seed " << seed << " key " << key;
      ASSERT_DOUBLE_EQ(got.total_count, want.total_count)
          << "seed " << seed << " key " << key;
    }
    // Never-seen keys share the bottom rank in both views.
    for (int64_t key = 1; key <= static_cast<int64_t>(p.n_keys); ++key) {
      if (distinct.count(key) > 0) continue;
      ASSERT_EQ(tracker.Stats(key).rank, serial.Stats(key).rank)
          << "seed " << seed << " key " << key;
      break;  // One representative is enough per seed.
    }
  }
}

TEST(ConcurrentPropertyTest, DecayInvariantsHoldForAnyInterleaving) {
  const int seeds = StressIters(6);
  const int total_ops = StressIters(2000);
  const double kDelta = 1.0002;
  for (int seed = 1; seed <= seeds; ++seed) {
    Rng rng(104729u * seed);
    const ScheduleParams p = DrawParams(&rng, total_ops);

    CountTracker inner(p.n_keys, kDelta);
    ConcurrentCountTrackerOptions topts;
    topts.num_shards = p.shards;
    topts.epoch_batch = p.epoch;
    ConcurrentCountTracker tracker(&inner, topts);
    const std::vector<int64_t> ops = RunConcurrent(p, &rng, &tracker);

    CountTracker serial(p.n_keys, kDelta);
    for (int64_t key : ops) serial.Record(key);

    // Request counts and distinct keys are order-independent.
    ASSERT_EQ(inner.total_requests(), serial.total_requests())
        << "seed " << seed;
    ASSERT_EQ(inner.distinct_seen(), serial.distinct_seen())
        << "seed " << seed;
    // Total decayed mass depends only on the request count, never the
    // order: sum_j delta^{-(R-j)} for j = 1..R.
    const double got_mass = tracker.Stats(1).total_count;
    const double want_mass = serial.Stats(1).total_count;
    ASSERT_NEAR(got_mass, want_mass, 1e-6 * want_mass) << "seed " << seed;
  }
}

// At epoch_batch = 1 every record closes its stripe's epoch, so the
// fused record-then-price call must see its own access merged: each
// RecordAndStats(key) equals a serial Record(key) + Stats(key) on every
// Eq. 1 input, with and without decay. This is what lets the one front
// door serve as its own exact-accounting oracle.
TEST(ConcurrentPropertyTest, RecordAndStatsExactAtEpochOne) {
  const int total_ops = StressIters(3000);
  for (const double delta : {1.0, 1.0002}) {
    for (const bool rank_reads : {true, false}) {
      Rng rng(0x5EEDu + static_cast<uint64_t>(rank_reads));
      const uint64_t n_keys = 256;
      ZipfDistribution zipf(n_keys, 1.1);

      CountTracker inner(n_keys, delta);
      ConcurrentCountTrackerOptions topts;
      topts.num_shards = 16;
      topts.epoch_batch = 1;
      topts.rank_reads = rank_reads;
      ConcurrentCountTracker tracker(&inner, topts);
      CountTracker serial(n_keys, delta);

      for (int i = 0; i < total_ops; ++i) {
        const int64_t key = static_cast<int64_t>(zipf.Sample(&rng));
        const PopularityStats got = tracker.RecordAndStats(key, true);
        serial.Record(key);
        const PopularityStats want = serial.Stats(key);
        ASSERT_DOUBLE_EQ(got.count, want.count)
            << "delta " << delta << " op " << i << " key " << key;
        ASSERT_EQ(got.rank, want.rank)
            << "delta " << delta << " op " << i << " key " << key;
        ASSERT_DOUBLE_EQ(got.max_count, want.max_count)
            << "delta " << delta << " op " << i << " key " << key;
        ASSERT_DOUBLE_EQ(got.total_count, want.total_count)
            << "delta " << delta << " op " << i << " key " << key;
      }
    }
  }
}

}  // namespace
}  // namespace tarpit
