#include "common/hyperloglog.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tarpit {

namespace {

uint64_t Hash64(int64_t key) {
  // SplitMix64 finalizer: a strong enough mix for HLL register/rank
  // extraction.
  uint64_t z = static_cast<uint64_t>(key) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double AlphaFor(uint32_t m) {
  switch (m) {
    case 16: return 0.673;
    case 32: return 0.697;
    case 64: return 0.709;
    default: return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

/// 2^-rank in units of 2^-64 (ranks never exceed 61).
unsigned __int128 Term(uint8_t rank) {
  return static_cast<unsigned __int128>(1) << (64 - rank);
}

uint32_t PairIndex(uint32_t pair) { return pair >> 8; }
uint8_t PairRank(uint32_t pair) { return static_cast<uint8_t>(pair); }

}  // namespace

HyperLogLog::HyperLogLog(int precision) : precision_(precision) {
  assert(precision >= 4 && precision <= 16);
  num_registers_ = 1u << precision_;
  alpha_mm_ = AlphaFor(num_registers_) *
              static_cast<double>(num_registers_) *
              static_cast<double>(num_registers_);
  Rebuild();
}

bool HyperLogLog::Add(int64_t key) {
  ++items_added_;
  const uint64_t h = Hash64(key);
  const uint32_t idx = static_cast<uint32_t>(h >> (64 - precision_));
  const uint64_t rest = h << precision_;
  // Rank: position of the leftmost 1 in the remaining bits (1-based);
  // all-zero rest maps to the maximum rank.
  const uint8_t rank =
      rest == 0 ? static_cast<uint8_t>(64 - precision_ + 1)
                : static_cast<uint8_t>(__builtin_clzll(rest) + 1);
  const uint8_t old_rank = Store(idx, rank);
  if (rank <= old_rank) return false;
  Raise(old_rank, rank);
  return true;
}

uint8_t HyperLogLog::Store(uint32_t index, uint8_t rank) {
  if (sparse()) {
    const uint32_t pair = index << 8 | rank;
    auto it = std::lower_bound(sparse_.begin(), sparse_.end(), index << 8);
    if (it != sparse_.end() && PairIndex(*it) == index) {
      const uint8_t old_rank = PairRank(*it);
      if (rank > old_rank) *it = pair;
      return old_rank;
    }
    if (sparse_.size() < num_registers_ / 4) {
      sparse_.insert(it, pair);
      return 0;
    }
    Promote();
  }
  const uint8_t old_rank = registers_[index];
  registers_[index] = std::max(old_rank, rank);
  return old_rank;
}

void HyperLogLog::Raise(uint8_t old_rank, uint8_t new_rank) {
  if (old_rank == 0) --zeros_;
  sum_ = sum_ - Term(old_rank) + Term(new_rank);
  max_rank_ = std::max(max_rank_, new_rank);
  estimate_ = ComputeEstimate();
}

double HyperLogLog::ComputeEstimate() const {
  double sum = 0.0;
  if (max_rank_ <= 52 - precision_) {
    // Every partial sum of the register-order loop below fits in 53
    // bits, so that loop is exact and equals the fixed-point sum.
    sum = std::ldexp(static_cast<double>(sum_), -64);
  } else {
    for (uint32_t i = 0; i < num_registers_; ++i) {
      sum += std::ldexp(1.0, -RegisterAt(i));
    }
  }
  double estimate = alpha_mm_ / sum;
  // Small-range correction: linear counting.
  if (estimate <= 2.5 * num_registers_ && zeros_ != 0) {
    estimate = static_cast<double>(num_registers_) *
               std::log(static_cast<double>(num_registers_) /
                        static_cast<double>(zeros_));
  }
  return estimate;
}

uint8_t HyperLogLog::RegisterAt(uint32_t index) const {
  if (!sparse()) return registers_[index];
  auto it = std::lower_bound(sparse_.begin(), sparse_.end(), index << 8);
  return it != sparse_.end() && PairIndex(*it) == index ? PairRank(*it)
                                                        : 0;
}

void HyperLogLog::Promote() {
  registers_.assign(num_registers_, 0);
  for (uint32_t pair : sparse_) registers_[PairIndex(pair)] = PairRank(pair);
  std::vector<uint32_t>().swap(sparse_);
}

void HyperLogLog::Rebuild() {
  zeros_ = num_registers_;
  sum_ = 0;
  max_rank_ = 0;
  auto visit = [this](uint8_t rank) {
    if (rank == 0) return;
    --zeros_;
    sum_ += Term(rank);
    max_rank_ = std::max(max_rank_, rank);
  };
  if (sparse()) {
    for (uint32_t pair : sparse_) visit(PairRank(pair));
  } else {
    for (uint8_t rank : registers_) visit(rank);
  }
  sum_ += zeros_ * Term(0);
  estimate_ = ComputeEstimate();
}

bool HyperLogLog::Merge(const HyperLogLog& other) {
  if (other.precision_ != precision_) return false;
  if (other.sparse()) {
    for (uint32_t pair : other.sparse_) Store(PairIndex(pair), PairRank(pair));
  } else {
    if (sparse()) Promote();
    for (uint32_t i = 0; i < num_registers_; ++i) {
      registers_[i] = std::max(registers_[i], other.registers_[i]);
    }
  }
  items_added_ += other.items_added_;
  Rebuild();
  return true;
}

void HyperLogLog::Clear() {
  std::vector<uint8_t>().swap(registers_);
  std::vector<uint32_t>().swap(sparse_);
  items_added_ = 0;
  Rebuild();
}

size_t HyperLogLog::bytes() const {
  return sizeof(*this) + registers_.capacity() +
         sparse_.capacity() * sizeof(uint32_t);
}

}  // namespace tarpit
