#ifndef TARPIT_COMMON_HYPERLOGLOG_H_
#define TARPIT_COMMON_HYPERLOGLOG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tarpit {

/// HyperLogLog distinct-value sketch (Flajolet et al. 2007) with the
/// standard small-range (linear counting) correction. Used per
/// principal by the coverage monitor, the reputation store and the
/// risk scorer to track how much of the keyspace each one has touched.
///
/// Estimate() is O(1). The estimator needs only the zero-register count
/// and sum(2^-r) over all registers, and a register changes only when
/// its rank rises, so Add keeps both current with one subtract and one
/// add. The sum is an exact fixed-point integer (units of 2^-64), so it
/// does not depend on update order; the finished estimate is cached and
/// recomputed only when a register changes. While every rank is at most
/// 52 - precision, each partial sum of the classic register-order
/// double loop is exact, so both give the same double; past that bound
/// (probability ~2^-(52-precision) per key) the cache is recomputed
/// with that loop itself. Either way every estimate is bit-identical to
/// the full-scan estimator.
///
/// Representation: a sketch starts sparse, as sorted 32-bit
/// (index << 8 | rank) pairs, and is promoted to 2^precision dense
/// byte registers once it would hold more than 2^precision / 4 pairs
/// (the point where both cost the same). Zero registers are the
/// indexes without a pair, so a sparse sketch's estimate is the same
/// double as the dense sketch of the same stream. A principal that
/// touches a few keys costs ~120 bytes instead of 2^precision.
class HyperLogLog {
 public:
  /// `precision` in [4, 16]: 2^precision registers; standard error is
  /// about 1.04 / sqrt(2^precision) (~1.6% at precision 12).
  explicit HyperLogLog(int precision = 12);

  /// Adds a 64-bit key (hashed internally). Returns true iff a
  /// register rose, i.e. iff Estimate() may have changed.
  bool Add(int64_t key);

  /// Estimated number of distinct keys added. O(1).
  double Estimate() const { return estimate_; }

  /// Merges another sketch of the same precision into this one (any
  /// sparse/dense pairing). Returns false on precision mismatch.
  bool Merge(const HyperLogLog& other);

  /// Empties the sketch (back to the sparse representation).
  void Clear();

  int precision() const { return precision_; }
  uint64_t items_added() const { return items_added_; }
  /// True while the registers are held as sorted (index, rank) pairs.
  bool sparse() const { return registers_.empty(); }
  /// Memory held by this sketch: the object plus its register storage.
  size_t bytes() const;

 private:
  /// Raises register `index` to `rank` if that is higher, promoting a
  /// full sparse sketch first when `index` is new; returns the old rank.
  /// Leaves the zero count, sum and estimate to the caller.
  uint8_t Store(uint32_t index, uint8_t rank);
  /// Register `index`'s rank, in either representation.
  uint8_t RegisterAt(uint32_t index) const;
  /// Folds one register's rise from `old_rank` to `new_rank` into the
  /// zero count, the fixed-point sum and the cached estimate.
  void Raise(uint8_t old_rank, uint8_t new_rank);
  /// Moves the sparse pairs into dense registers.
  void Promote();
  /// One full pass: zero count, sum, max rank and cached estimate.
  void Rebuild();
  double ComputeEstimate() const;

  int precision_;
  uint32_t num_registers_;
  double alpha_mm_;  // Bias constant * m^2, precomputed.
  std::vector<uint8_t> registers_;  // Dense; empty while sparse.
  std::vector<uint32_t> sparse_;    // Sorted (index << 8 | rank).
  uint64_t items_added_ = 0;
  unsigned __int128 sum_ = 0;  // sum(2^-r) over all registers, * 2^64.
  uint32_t zeros_ = 0;
  uint8_t max_rank_ = 0;
  double estimate_ = 0.0;
};

}  // namespace tarpit

#endif  // TARPIT_COMMON_HYPERLOGLOG_H_
