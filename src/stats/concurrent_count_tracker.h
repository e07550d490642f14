#ifndef TARPIT_STATS_CONCURRENT_COUNT_TRACKER_H_
#define TARPIT_STATS_CONCURRENT_COUNT_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stats/count_tracker.h"

namespace tarpit {

/// Tuning knobs for the concurrent stats spine.
struct ConcurrentCountTrackerOptions {
  /// Number of pending-delta stripes. Records for a key always land in
  /// the same stripe, so a key's exact count is (inner + its stripe's
  /// pending delta) at all times.
  size_t num_shards = 16;
  /// A stripe is merged into the rank index once it has accumulated
  /// this many pending requests. This is the epoch: between merges the
  /// rank index (and therefore rank / f_max / distinct_seen) is stale
  /// by at most `num_shards * epoch_batch` requests.
  size_t epoch_batch = 64;
  /// True when the owning door issues rank-bearing per-request reads
  /// (its delay formula consumes rank^beta). When false, epoch merges
  /// leave the inner tracker's rank repositions deferred -- the treap
  /// disappears from the merge path too -- and the rare rank-bearing
  /// Stats() call takes the spine exclusively so the deferred work can
  /// be folded without racing shared readers.
  bool rank_reads = true;
};

/// Thread-safe wrapper around a single-threaded CountTracker.
///
/// Design (paper section 2.3 semantics under concurrency):
///  * Record(key) takes only a per-stripe mutex and appends a +1 delta
///    to that stripe's pending map -- the hot path never touches the
///    rank index.
///  * When a stripe's pending mass reaches `epoch_batch`, it is merged
///    into the wrapped tracker under an exclusive lock on the "spine"
///    (a shared_mutex guarding the wrapped CountTracker). The merge
///    replays the pending multiset through CountTracker::RecordMany,
///    so post-quiesce state is exactly a serial replay of the recorded
///    multiset (merge order is the only nondeterminism; with decay
///    delta == 1.0 the result is order-independent and therefore
///    *equal* to any serial replay).
///  * Stats(key) takes the spine in shared mode and adds the key's own
///    stripe delta, so a thread always sees its own completed Record()
///    calls reflected in `count` (reads are a consistent snapshot:
///    merges need the spine exclusively, so a delta can never be
///    double-counted or lost mid-read). `rank`, `max_count` and
///    `distinct_seen` come from the last merge -- stale by at most one
///    epoch window, which is the bounded staleness the delay engine's
///    Eq. 1 inputs inherit.
///
/// Lock order (outermost first): stripe mutex OR spine; when both are
/// held the order is spine -> stripe (merge and consistent reads).
/// Record() releases the stripe mutex before triggering a merge, so
/// there is no reverse nesting.
class ConcurrentCountTracker {
 public:
  /// `inner` is borrowed and must outlive this wrapper. All mutations
  /// of `inner` must go through this wrapper once concurrent use
  /// begins.
  explicit ConcurrentCountTracker(CountTracker* inner,
                                  ConcurrentCountTrackerOptions options = {});
  ~ConcurrentCountTracker();

  ConcurrentCountTracker(const ConcurrentCountTracker&) = delete;
  ConcurrentCountTracker& operator=(const ConcurrentCountTracker&) = delete;

  /// Records one request for `key`. Thread-safe; lock-striped.
  void Record(int64_t key);

  /// Record(key) + Stats(key) fused into a single spine/stripe
  /// acquisition -- the protected front door's per-request hot path
  /// (learn, then charge from the post-record snapshot). Equivalent to
  /// calling Record(key) then Stats(key) with no interleaved writer.
  /// A record that closes its stripe's epoch merges before it reads, so
  /// at epoch_batch = 1 the result equals a serial CountTracker's
  /// Record(key) + Stats(key) exactly (rank, f_max and decay included).
  /// `need_rank == false` skips the rank index entirely (rank and
  /// max_count come back 0 for seen keys) -- safe under the shared
  /// spine because it neither reads nor flushes deferred index work;
  /// doors whose delay policy ignores rank pass false.
  PopularityStats RecordAndStats(int64_t key, bool need_rank = true);

  /// Popularity snapshot for `key`: `count` and `total_requests` are
  /// exact w.r.t. this thread's completed records; `rank`, `max_count`,
  /// `distinct_seen` are epoch-stale (see class comment).
  PopularityStats Stats(int64_t key) const;

  /// Exact-for-own-thread decayed count (inner + pending delta).
  double Count(int64_t key) const;

  /// Thread-safe passthroughs (exclusive on the spine).
  void Seed(int64_t key, double count);
  void ApplyDecayFactor(double factor);
  void set_universe_size(uint64_t n);
  uint64_t universe_size() const;

  /// Exact number of Record() calls observed so far (lock-free).
  uint64_t total_requests() const {
    return total_requests_.load(std::memory_order_relaxed);
  }

  /// Distinct keys in the *merged* view (epoch-stale until FlushAll).
  uint64_t distinct_seen() const;

  /// Requests recorded but not yet merged into the rank index.
  uint64_t pending_records() const;

  /// Number of epoch merges performed (observability/tests).
  uint64_t epoch_flushes() const {
    return epoch_flushes_.load(std::memory_order_relaxed);
  }

  /// Drains every stripe into the wrapped tracker. After FlushAll (with
  /// no concurrent writers) the wrapped tracker equals a serial replay
  /// of the full recorded multiset.
  void FlushAll();

  /// Called under the exclusive spine lock after each merge with the
  /// (key, multiplicity) pairs just applied -- e.g. to push the same
  /// deltas into a write-behind persistent count cache.
  using FlushHook =
      std::function<void(const std::vector<std::pair<int64_t, uint64_t>>&)>;
  void set_flush_hook(FlushHook hook) { flush_hook_ = std::move(hook); }

  /// Runs `fn(inner)` while holding the spine exclusively. Escape hatch
  /// for callers that must touch the wrapped tracker (or state the
  /// wrapped tracker feeds) while readers may be in flight.
  void WithExclusive(const std::function<void(CountTracker*)>& fn);

  /// Runs `fn(inner)` while holding the spine in shared mode.
  void WithShared(const std::function<void(const CountTracker*)>& fn) const;

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<int64_t, uint64_t> pending;
    uint64_t pending_total = 0;
  };

  size_t StripeFor(int64_t key) const;
  /// Merges stripe `i` into the inner tracker (no-op when empty).
  void FlushStripe(size_t i);
  /// FlushStripe's body; requires the spine held exclusively.
  void MergeStripeLocked(size_t i);

  CountTracker* inner_;
  ConcurrentCountTrackerOptions options_;
  mutable std::shared_mutex spine_mu_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<uint64_t> total_requests_{0};
  std::atomic<uint64_t> epoch_flushes_{0};
  FlushHook flush_hook_;
};

}  // namespace tarpit

#endif  // TARPIT_STATS_CONCURRENT_COUNT_TRACKER_H_
