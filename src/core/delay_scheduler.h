#ifndef TARPIT_CORE_DELAY_SCHEDULER_H_
#define TARPIT_CORE_DELAY_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "obs/metrics.h"

namespace tarpit {

/// Opaque handle for a parked stall. 0 is never a valid id.
using TimerId = uint64_t;

/// Groups stalls for bulk cancellation (session eviction). 0 means
/// "ungrouped": such stalls are only cancelled individually or at
/// shutdown.
using StallGroup = uint64_t;

struct DelaySchedulerOptions {
  /// Completion workers: the threads that run expiry callbacks. This
  /// is the *fixed* thread budget that carries every concurrent stall
  /// -- the whole point of the scheduler is that parked requests cost
  /// an index entry, not a thread.
  size_t num_dispatchers = 4;
  /// When non-null, the scheduler publishes the parked count,
  /// completion-queue depth, and park / dispatch-lag latency
  /// histograms here (names are listed in docs/INTERNALS.md). Must
  /// outlive the scheduler.
  obs::MetricRegistry* metrics = nullptr;
};

/// One ordered index of exact deadlines with a dispatcher pool: turns
/// "a stalled request" from a blocked OS thread into a parked index
/// entry, so a fixed thread count can carry tens of thousands of
/// concurrently-stalled sessions.
///
/// A stall fires once `now >= submit + Clock::DelayToMicros(delay)`:
/// never early (the defense invariant), and late only by the driver's
/// wakeup latency.
///
/// Threads: one driver (sleeps until the first deadline; absent when
/// the clock is virtual) plus `num_dispatchers` completion workers.
/// Expired/cancelled entries move to a FIFO completion queue;
/// dispatchers pop and invoke the callback OUTSIDE the scheduler lock,
/// so callbacks may submit, cancel, or block without deadlocking the
/// driver.
///
/// Every submitted callback is invoked exactly once, with
/// `cancelled == false` on expiry and `cancelled == true` when the
/// entry was cancelled (Cancel/CancelGroup/shutdown). Shutdown drains:
/// no callback is ever dropped.
class DelayScheduler {
 public:
  /// `cancelled` is true when the stall was cancelled before expiry.
  using Callback = std::function<void(bool cancelled)>;

  enum class ShutdownMode {
    /// Wait for every parked stall to expire naturally, then stop.
    kDrain,
    /// Cancel all parked stalls (callbacks fire with cancelled=true),
    /// run the completion queue dry, then stop.
    kCancelPending,
  };

  /// `clock` must outlive the scheduler. A virtual clock implies
  /// instant-fire mode.
  explicit DelayScheduler(Clock* clock, DelaySchedulerOptions options = {});

  /// Shutdown(kCancelPending) if still running.
  ~DelayScheduler();

  DelayScheduler(const DelayScheduler&) = delete;
  DelayScheduler& operator=(const DelayScheduler&) = delete;

  /// Parks `done` for `delay_seconds` (rounded up to a microsecond).
  /// Zero or negative delays complete through the queue immediately,
  /// in submission order; equal deadlines fire in submission order.
  /// After shutdown the callback fires inline with cancelled=true and
  /// the returned id is 0.
  TimerId Submit(double delay_seconds, Callback done, StallGroup group = 0);

  /// Cancels one parked stall; its callback fires (cancelled=true) on
  /// a dispatcher. False when the id is unknown or already expired.
  bool Cancel(TimerId id);

  /// Cancels every parked stall in `group` (group 0 is a no-op by
  /// definition). Returns the number cancelled.
  size_t CancelGroup(StallGroup group);

  /// Blocks until nothing is parked, queued, or executing.
  void Drain();

  /// Stops the scheduler. Idempotent; joins all threads.
  void Shutdown(ShutdownMode mode = ShutdownMode::kCancelPending);

  // --- Observability (locked snapshots). ---------------------------------
  /// Stalls currently parked in the deadline index.
  size_t parked() const;
  /// High-water mark of parked() -- the bench's capacity metric.
  size_t peak_parked() const;
  uint64_t scheduled_total() const;
  uint64_t fired_total() const;
  uint64_t cancelled_total() const;
  bool virtual_time() const { return virtual_; }
  const DelaySchedulerOptions& options() const { return options_; }

 private:
  /// (deadline_micros, id): ids grow monotonically, so equal deadlines
  /// keep submission order.
  using Key = std::pair<int64_t, TimerId>;
  struct Parked {
    StallGroup group = 0;
    int64_t submit_micros = 0;
    Callback done;
  };
  using Index = std::map<Key, Parked>;
  struct Completion {
    Callback done;
    bool cancelled = false;
  };

  // All *Locked methods require mu_.
  /// Moves one parked stall to the completion queue; returns the next
  /// index position. Call PublishLocked once after a batch.
  Index::iterator RetireLocked(Index::iterator it, bool cancelled,
                               int64_t now_micros);
  /// Refreshes the gauges and wakes dispatchers for `retired` new
  /// completions.
  void PublishLocked(size_t retired);
  void DriverLoop();
  void DispatcherLoop();

  Clock* clock_;
  DelaySchedulerOptions options_;
  bool virtual_ = false;

  mutable std::mutex mu_;
  std::condition_variable timer_cv_;  // Driver: new earlier deadline/stop.
  std::condition_variable ready_cv_;  // Dispatchers: completion queue.
  std::condition_variable drain_cv_;  // Drain()/Shutdown(kDrain).
  bool stop_ = false;
  bool joined_ = false;
  TimerId next_id_ = 1;
  Index index_;
  std::unordered_map<TimerId, int64_t> deadline_of_;  // For Cancel.
  std::deque<Completion> ready_;
  size_t executing_ = 0;
  size_t peak_parked_ = 0;
  uint64_t scheduled_total_ = 0;
  uint64_t fired_total_ = 0;
  uint64_t cancelled_total_ = 0;

  // Registry-owned instruments; null when options_.metrics is null so
  // the unobserved hot path pays a single pointer test.
  obs::Counter* m_scheduled_ = nullptr;
  obs::Counter* m_fired_ = nullptr;
  obs::Counter* m_cancelled_ = nullptr;
  obs::Gauge* m_parked_ = nullptr;
  obs::Gauge* m_parked_peak_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Histogram* m_park_micros_ = nullptr;
  obs::Histogram* m_dispatch_lag_micros_ = nullptr;

  std::thread driver_;
  std::vector<std::thread> dispatchers_;
};

}  // namespace tarpit

#endif  // TARPIT_CORE_DELAY_SCHEDULER_H_
