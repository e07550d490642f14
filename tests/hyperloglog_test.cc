// Differential tests for the O(1) HyperLogLog estimate: every estimate
// of the incremental, sparse/dense sketch must be the same double as
// the full-scan estimator it replaced, which this file keeps as the
// reference (dense registers, register-order double sum).

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/hyperloglog.h"

namespace tarpit {
namespace {

constexpr int kPrecisions[] = {4, 8, 12, 16};

uint64_t Hash64(int64_t key) {
  uint64_t z = static_cast<uint64_t>(key) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t UnXorShift(uint64_t y, int shift) {
  uint64_t x = y;
  for (int i = 0; i < 64 / shift + 1; ++i) x = y ^ (x >> shift);
  return x;
}

uint64_t InverseOdd(uint64_t c) {
  uint64_t inv = c;  // Newton's iteration doubles the correct bits.
  for (int i = 0; i < 6; ++i) inv *= 2 - c * inv;
  return inv;
}

/// The key whose Hash64 is `h` (SplitMix64 is a bijection).
int64_t KeyForHash(uint64_t h) {
  uint64_t z = UnXorShift(h, 31);
  z *= InverseOdd(0x94D049BB133111EBULL);
  z = UnXorShift(z, 27);
  z *= InverseOdd(0xBF58476D1CE4E5B9ULL);
  z = UnXorShift(z, 30);
  return static_cast<int64_t>(z - 0x9E3779B97F4A7C15ULL);
}

/// A key that lands rank `rank` (1 .. 65 - p) in register `index`.
int64_t KeyFor(int p, uint32_t index, int rank) {
  const uint64_t rest = rank == 65 - p ? 0 : uint64_t{1} << (64 - rank);
  return KeyForHash(static_cast<uint64_t>(index) << (64 - p) |
                    rest >> p);
}

/// The full-scan estimator the incremental sketch replaced.
class ReferenceHll {
 public:
  explicit ReferenceHll(int p) : p_(p), registers_(1u << p, 0) {}

  bool Add(int64_t key) {
    const uint64_t h = Hash64(key);
    const uint32_t idx = static_cast<uint32_t>(h >> (64 - p_));
    const uint64_t rest = h << p_;
    const uint8_t rank =
        rest == 0 ? static_cast<uint8_t>(64 - p_ + 1)
                  : static_cast<uint8_t>(__builtin_clzll(rest) + 1);
    if (rank <= registers_[idx]) return false;
    registers_[idx] = rank;
    return true;
  }

  void Merge(const ReferenceHll& other) {
    for (size_t i = 0; i < registers_.size(); ++i) {
      registers_[i] = std::max(registers_[i], other.registers_[i]);
    }
  }

  void Clear() { registers_.assign(registers_.size(), 0); }

  double Estimate() const {
    const uint32_t m = static_cast<uint32_t>(registers_.size());
    double alpha;
    switch (m) {
      case 16: alpha = 0.673; break;
      case 32: alpha = 0.697; break;
      case 64: alpha = 0.709; break;
      default: alpha = 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
    }
    const double alpha_mm =
        alpha * static_cast<double>(m) * static_cast<double>(m);
    double sum = 0.0;
    uint32_t zeros = 0;
    for (uint8_t r : registers_) {
      sum += std::ldexp(1.0, -r);
      if (r == 0) ++zeros;
    }
    double estimate = alpha_mm / sum;
    if (estimate <= 2.5 * m && zeros != 0) {
      estimate = static_cast<double>(m) *
                 std::log(static_cast<double>(m) /
                          static_cast<double>(zeros));
    }
    return estimate;
  }

 private:
  int p_;
  std::vector<uint8_t> registers_;
};

/// A sketch and its reference fed the same keys.
struct Twin {
  explicit Twin(int p) : hll(p), ref(p) {}

  /// Adds `key` to both; both must agree on whether a register rose.
  /// Returns that flag.
  bool Add(int64_t key) {
    const double before = hll.Estimate();
    const bool changed = hll.Add(key);
    EXPECT_EQ(changed, ref.Add(key)) << "key " << key;
    if (!changed) {
      EXPECT_EQ(hll.Estimate(), before) << "key " << key;
    }
    return changed;
  }

  /// Add, then compare with the reference if a register rose.
  void AddAndCheck(int64_t key, const char* where) {
    if (Add(key) && ++changes % CheckEvery(hll.precision()) == 0) {
      ExpectSame(where);
    }
  }

  void ExpectSame(const char* where) const {
    EXPECT_EQ(hll.Estimate(), ref.Estimate())
        << where << " at precision " << hll.precision();
  }

  /// A reference scan costs 2^p ldexp calls; at precision 16 compare
  /// every 256th register change (and every promotion) so the suite
  /// stays fast.
  static int CheckEvery(int p) { return p >= 16 ? 256 : 1; }

  HyperLogLog hll;
  ReferenceHll ref;
  uint64_t changes = 0;
};

TEST(HyperLogLogDifferentialTest, SeededStreamsMatchAtEveryRegisterChange) {
  for (int p : kPrecisions) {
    Twin t(p);
    std::mt19937_64 rng(1000 + p);
    bool promoted = false;
    for (int i = 0; i < 1'000'000; ++i) {
      // ~62% distinct: duplicates exercise the unchanged path.
      const int64_t key = static_cast<int64_t>(rng() % (1u << 20));
      const bool was_sparse = t.hll.sparse();
      if (!t.Add(key)) continue;
      const bool flipped = was_sparse != t.hll.sparse();
      promoted |= flipped;
      if (flipped || ++t.changes % Twin::CheckEvery(p) == 0) {
        ASSERT_EQ(t.hll.Estimate(), t.ref.Estimate())
            << "precision " << p << " after " << i + 1 << " keys";
      }
    }
    EXPECT_TRUE(promoted) << "precision " << p;
    t.ExpectSame("end of stream");
  }
}

TEST(HyperLogLogDifferentialTest, ExtremeRanksMatchInBothRepresentations) {
  // Ranks past 52 - p leave the exact fixed-point regime; the sketch
  // must still reproduce the register-order sum bit for bit.
  for (int p : kPrecisions) {
    const uint32_t m = 1u << p;
    // Sparse: every rank up to the maximum, rising on m/4 registers.
    Twin sparse(p);
    for (int rank = 1; rank <= 65 - p; ++rank) {
      ASSERT_TRUE(sparse.Add(KeyFor(p, rank % (m / 4), rank)));
      ASSERT_TRUE(sparse.hll.sparse());
      sparse.ExpectSame("crafted rank (sparse)");
    }
    // Dense: promote with ordinary keys first, then the same ranks,
    // then ordinary keys on top of them.
    Twin dense(p);
    std::mt19937_64 rng(7 + p);
    while (dense.hll.sparse()) {
      dense.AddAndCheck(static_cast<int64_t>(rng()), "random key");
    }
    dense.ExpectSame("promoted");
    for (int rank = 1; rank <= 65 - p; ++rank) {
      dense.Add(KeyFor(p, static_cast<uint32_t>(rank) * 7 % m, rank));
      dense.ExpectSame("crafted rank (dense)");
    }
    for (int i = 0; i < 256; ++i) {
      if (dense.Add(static_cast<int64_t>(rng()))) {
        dense.ExpectSame("random key past the exact regime");
      }
    }
  }
}

TEST(HyperLogLogDifferentialTest, KeepsTheRegisterOrderRounding) {
  // No zero registers (so the raw estimator, not linear counting, is
  // used): m - 4 registers at rank 1, then 4 at rank 56 - p. Each of
  // those last terms is a quarter of an ulp of the running sum, so the
  // register-order loop drops all four, while the exact sum is one ulp
  // higher. The sketch must return the loop's double.
  for (int p : kPrecisions) {
    const uint32_t m = 1u << p;
    Twin t(p);
    for (uint32_t i = 0; i < m - 4; ++i) t.Add(KeyFor(p, i, 1));
    for (uint32_t i = m - 4; i < m; ++i) t.Add(KeyFor(p, i, 56 - p));
    t.ExpectSame("sub-ulp tail");
  }
}

TEST(HyperLogLogDifferentialTest, PromotionHappensAtQuarterOfRegisters) {
  for (int p : kPrecisions) {
    const uint32_t m = 1u << p;
    Twin t(p);
    // One distinct register per key: register i, rank 1.
    for (uint32_t i = 0; i < m / 4; ++i) {
      ASSERT_TRUE(t.Add(KeyFor(p, i, 1)));
      ASSERT_TRUE(t.hll.sparse()) << "precision " << p << " pair " << i;
    }
    t.ExpectSame("full sparse sketch");
    // Raising an existing pair's rank keeps it sparse.
    ASSERT_TRUE(t.Add(KeyFor(p, 0, 3)));
    ASSERT_TRUE(t.hll.sparse());
    t.ExpectSame("raised pair");
    // The next new register promotes.
    ASSERT_TRUE(t.Add(KeyFor(p, m / 4, 2)));
    ASSERT_FALSE(t.hll.sparse());
    t.ExpectSame("just promoted");
  }
}

TEST(HyperLogLogDifferentialTest, MergeOfEveryPairingMatches) {
  for (int p : kPrecisions) {
    const int64_t m = int64_t{1} << p;
    // Disjoint key ranges sized to land sparse or dense; `overflow`
    // pairs two sparse sketches whose union must promote.
    struct Shape {
      const char* name;
      int64_t a_keys;
      int64_t b_keys;
    };
    const Shape shapes[] = {
        {"sparse+sparse", m / 16, m / 16},
        {"sparse+sparse overflow", m / 5, m / 5},
        {"sparse+dense", m / 16, 4 * m},
        {"dense+sparse", 4 * m, m / 16},
        {"dense+dense", 4 * m, 4 * m},
        {"empty+dense", 0, 4 * m},
        {"dense+empty", 4 * m, 0},
    };
    for (const Shape& s : shapes) {
      Twin a(p), b(p);
      for (int64_t k = 0; k < s.a_keys; ++k) a.Add(k);
      // Overlap half of a's range so equal indexes meet.
      for (int64_t k = s.a_keys / 2; k < s.a_keys / 2 + s.b_keys; ++k) {
        b.Add(k * 7 + 3);
      }
      ASSERT_TRUE(a.hll.Merge(b.hll));
      a.ref.Merge(b.ref);
      SCOPED_TRACE(testing::Message() << s.name << " precision " << p);
      a.ExpectSame("merged");
      EXPECT_EQ(a.hll.items_added(),
                static_cast<uint64_t>(s.a_keys + s.b_keys));
      // The rebuilt state keeps tracking the reference.
      for (int64_t k = 0; k < m; ++k) {
        a.AddAndCheck(k * 13 + 1, "add after merge");
      }
      // Self-merge is idempotent on the registers.
      const double before = a.hll.Estimate();
      ASSERT_TRUE(a.hll.Merge(a.hll));
      EXPECT_EQ(a.hll.Estimate(), before);
      a.hll.Clear();
      a.ref.Clear();
      EXPECT_TRUE(a.hll.sparse());
      EXPECT_EQ(a.hll.items_added(), 0u);
      a.ExpectSame("cleared");
      for (int64_t k = 0; k < m; ++k) a.AddAndCheck(k, "add after clear");
    }
    HyperLogLog other(p == 4 ? 5 : p - 1);
    HyperLogLog mine(p);
    EXPECT_FALSE(mine.Merge(other));
  }
}

TEST(HyperLogLogFootprintTest, SparseSketchIsSmallDenseIsRegisterArray) {
  HyperLogLog hll(12);
  hll.Add(42);
  EXPECT_TRUE(hll.sparse());
  EXPECT_LT(hll.bytes(), 4096u / 10);
  for (int64_t k = 0; k < 10'000; ++k) hll.Add(k);
  EXPECT_FALSE(hll.sparse());
  EXPECT_GE(hll.bytes(), 4096u);
  EXPECT_LT(hll.bytes(), 4096u + 256);
  hll.Clear();
  EXPECT_LT(hll.bytes(), 4096u / 10);
}

}  // namespace
}  // namespace tarpit
