#include "stats/concurrent_count_tracker.h"

#include <algorithm>

namespace tarpit {

namespace {
/// splitmix64 finalizer: int64 keys are often sequential, so spread
/// them before striping.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

ConcurrentCountTracker::ConcurrentCountTracker(
    CountTracker* inner, ConcurrentCountTrackerOptions options)
    : inner_(inner), options_(options) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.epoch_batch == 0) options_.epoch_batch = 1;
  stripes_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

ConcurrentCountTracker::~ConcurrentCountTracker() { FlushAll(); }

size_t ConcurrentCountTracker::StripeFor(int64_t key) const {
  return Mix(static_cast<uint64_t>(key)) % stripes_.size();
}

void ConcurrentCountTracker::Record(int64_t key) {
  total_requests_.fetch_add(1, std::memory_order_relaxed);
  const size_t i = StripeFor(key);
  Stripe& s = *stripes_[i];
  bool need_flush = false;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    ++s.pending[key];
    ++s.pending_total;
    need_flush = s.pending_total >= options_.epoch_batch;
  }
  // The stripe mutex is released before the merge takes the spine, so
  // the only spine->stripe nesting in the system is the merge/read
  // direction (no ABBA).
  if (need_flush) FlushStripe(i);
}

PopularityStats ConcurrentCountTracker::RecordAndStats(int64_t key,
                                                       bool need_rank) {
  const uint64_t total =
      total_requests_.fetch_add(1, std::memory_order_relaxed) + 1;
  const size_t i = StripeFor(key);
  Stripe& s = *stripes_[i];
  bool need_flush = false;
  PopularityStats stats;
  uint64_t pend = 0;
  {
    // Spine shared first, then the stripe: same spine->stripe order as
    // the merge and Stats(), so the consistency argument is unchanged
    // (while the spine is held shared, this key's delta is in exactly
    // one of {stripe, inner}). On a rank-free spine a rank-bearing
    // read must fold deferred index work, so it goes exclusive (cold:
    // doors whose policy reads ranks configure rank_reads = true).
    std::shared_lock<std::shared_mutex> shared(spine_mu_, std::defer_lock);
    std::unique_lock<std::shared_mutex> exclusive(spine_mu_,
                                                  std::defer_lock);
    if (need_rank && !options_.rank_reads) {
      exclusive.lock();
    } else {
      shared.lock();
    }
    {
      std::lock_guard<std::mutex> lock(s.mu);
      uint64_t& p = s.pending[key];
      ++p;
      pend = p;
      ++s.pending_total;
      need_flush = s.pending_total >= options_.epoch_batch;
    }
    // need_rank == true under the SHARED spine (rank_reads spines) is
    // still safe: every exclusive mutation leaves the inner tracker
    // with no pending index work, so the flush inside Stats() is a
    // no-op there and never mutates under a shared lock.
    if (!need_flush) stats = inner_->Stats(key, need_rank);
  }
  if (need_flush) {
    // This record closes its stripe's epoch: merge first, then price
    // from the merged state, so the request's own access is already in
    // rank, f_max and the decayed counts. At epoch_batch = 1 that makes
    // every charge equal a serial Record(key) + Stats(key).
    std::unique_lock<std::shared_mutex> spine(spine_mu_);
    MergeStripeLocked(i);
    stats = inner_->Stats(key, need_rank);
    // Records that landed after the merge (plain Record() takes no
    // spine) are pending again; fold this key's share like Stats().
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.pending.find(key);
    pend = it != s.pending.end() ? it->second : 0;
  }
  stats.total_requests = total;
  stats.count += static_cast<double>(pend);
  stats.total_count += static_cast<double>(pend);
  stats.max_count = std::max(stats.max_count, stats.count);
  if (stats.distinct_seen == 0) stats.distinct_seen = 1;
  return stats;
}

void ConcurrentCountTracker::FlushStripe(size_t i) {
  std::unique_lock<std::shared_mutex> spine(spine_mu_);
  MergeStripeLocked(i);
}

void ConcurrentCountTracker::MergeStripeLocked(size_t i) {
  Stripe& s = *stripes_[i];
  std::vector<std::pair<int64_t, uint64_t>> batch;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.pending_total == 0) return;  // Raced with another flusher.
    batch.assign(s.pending.begin(), s.pending.end());
    s.pending.clear();
    s.pending_total = 0;
  }
  // Deterministic replay order within the batch (merge *scheduling*
  // across stripes stays nondeterministic, which is the documented
  // epoch-level nondeterminism).
  std::sort(batch.begin(), batch.end());
  for (const auto& [key, n] : batch) inner_->RecordMany(key, n);
  // Fold the deferred rank repositions while the spine is still held
  // exclusively: shared-mode readers (Stats/RecordAndStats) must never
  // observe -- or race on -- pending index work. Rank-free spines skip
  // the fold; their rank-bearing readers go exclusive instead.
  if (options_.rank_reads) inner_->SyncRankIndex();
  if (flush_hook_) flush_hook_(batch);
  epoch_flushes_.fetch_add(1, std::memory_order_relaxed);
}

void ConcurrentCountTracker::FlushAll() {
  for (size_t i = 0; i < stripes_.size(); ++i) FlushStripe(i);
}

PopularityStats ConcurrentCountTracker::Stats(int64_t key) const {
  const Stripe& s = *stripes_[StripeFor(key)];
  // Shared spine first: merges (which move pending deltas into the
  // inner tracker) need the spine exclusively, so while we hold it in
  // shared mode a delta is in exactly one of {stripe, inner}. A
  // rank-free spine defers index repositions past the merge, so this
  // rank-bearing snapshot must fold them -- which mutates the index
  // and therefore needs the spine exclusively.
  std::shared_lock<std::shared_mutex> shared(spine_mu_, std::defer_lock);
  std::unique_lock<std::shared_mutex> exclusive(spine_mu_,
                                                std::defer_lock);
  if (options_.rank_reads) {
    shared.lock();
  } else {
    exclusive.lock();
  }
  PopularityStats stats = inner_->Stats(key);
  uint64_t pend = 0;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.pending.find(key);
    if (it != s.pending.end()) pend = it->second;
  }
  stats.total_requests = total_requests_.load(std::memory_order_relaxed);
  if (pend > 0) {
    // Pending requests are folded in at unit weight. With decay this
    // understates their inflation by at most delta^epoch -- the bounded
    // staleness the class comment documents.
    stats.count += static_cast<double>(pend);
    stats.total_count += static_cast<double>(pend);
    stats.max_count = std::max(stats.max_count, stats.count);
    if (stats.distinct_seen == 0) stats.distinct_seen = 1;
  }
  return stats;
}

double ConcurrentCountTracker::Count(int64_t key) const {
  const Stripe& s = *stripes_[StripeFor(key)];
  std::shared_lock<std::shared_mutex> spine(spine_mu_);
  double c = inner_->Count(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.pending.find(key);
  if (it != s.pending.end()) c += static_cast<double>(it->second);
  return c;
}

void ConcurrentCountTracker::Seed(int64_t key, double count) {
  std::unique_lock<std::shared_mutex> spine(spine_mu_);
  inner_->Seed(key, count);
  inner_->SyncRankIndex();  // Shared readers must see no pending work.
}

void ConcurrentCountTracker::ApplyDecayFactor(double factor) {
  FlushAll();
  std::unique_lock<std::shared_mutex> spine(spine_mu_);
  inner_->ApplyDecayFactor(factor);
  inner_->SyncRankIndex();  // Shared readers must see no pending work.
}

void ConcurrentCountTracker::set_universe_size(uint64_t n) {
  std::unique_lock<std::shared_mutex> spine(spine_mu_);
  inner_->set_universe_size(n);
}

uint64_t ConcurrentCountTracker::universe_size() const {
  std::shared_lock<std::shared_mutex> spine(spine_mu_);
  return inner_->universe_size();
}

uint64_t ConcurrentCountTracker::distinct_seen() const {
  std::shared_lock<std::shared_mutex> spine(spine_mu_);
  return inner_->distinct_seen();
}

uint64_t ConcurrentCountTracker::pending_records() const {
  uint64_t total = 0;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->pending_total;
  }
  return total;
}

void ConcurrentCountTracker::WithExclusive(
    const std::function<void(CountTracker*)>& fn) {
  std::unique_lock<std::shared_mutex> spine(spine_mu_);
  fn(inner_);
  inner_->SyncRankIndex();  // Shared readers must see no pending work.
}

void ConcurrentCountTracker::WithShared(
    const std::function<void(const CountTracker*)>& fn) const {
  std::shared_lock<std::shared_mutex> spine(spine_mu_);
  fn(inner_);
}

}  // namespace tarpit
