#include "core/delay_scheduler.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace tarpit {

namespace {

/// Longest single driver sleep. The driver re-reads the index after
/// every wakeup, so this only keeps the steady_clock arithmetic inside
/// wait_for clear of overflow when a deadline saturates at int64 max.
constexpr int64_t kMaxSleepMicros = int64_t{3600} * 1'000'000;

}  // namespace

DelayScheduler::DelayScheduler(Clock* clock, DelaySchedulerOptions options)
    : clock_(clock), options_(options) {
  if (options_.num_dispatchers == 0) options_.num_dispatchers = 1;
  virtual_ = clock_->IsVirtual();

  if (options_.metrics != nullptr) {
    obs::MetricRegistry* m = options_.metrics;
    m_scheduled_ = m->GetCounter("tarpit_scheduler_scheduled_total");
    m_fired_ = m->GetCounter("tarpit_scheduler_fired_total");
    m_cancelled_ = m->GetCounter("tarpit_scheduler_cancelled_total");
    m_parked_ = m->GetGauge("tarpit_scheduler_parked");
    m_parked_peak_ = m->GetGauge("tarpit_scheduler_parked_peak");
    m_queue_depth_ =
        m->GetGauge("tarpit_scheduler_completion_queue_depth");
    obs::HistogramOptions us;
    us.unit = "us";
    m_park_micros_ =
        m->GetHistogram("tarpit_scheduler_park_micros", {}, us);
    m_dispatch_lag_micros_ =
        m->GetHistogram("tarpit_scheduler_dispatch_lag_micros", {}, us);
  }

  dispatchers_.reserve(options_.num_dispatchers);
  for (size_t i = 0; i < options_.num_dispatchers; ++i) {
    dispatchers_.emplace_back([this] { DispatcherLoop(); });
  }
  if (!virtual_) {
    driver_ = std::thread([this] { DriverLoop(); });
  }
}

DelayScheduler::~DelayScheduler() { Shutdown(ShutdownMode::kCancelPending); }

TimerId DelayScheduler::Submit(double delay_seconds, Callback done,
                               StallGroup group) {
  const int64_t delay_us = Clock::DelayToMicros(delay_seconds);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stop_) {
      ++scheduled_total_;
      if (m_scheduled_ != nullptr) m_scheduled_->Increment();
      const TimerId id = next_id_++;
      if (virtual_ || delay_us == 0) {
        // Instant fire: virtual time charges without waiting, and a
        // zero delay has nothing to wait for. FIFO through the
        // completion queue preserves submission order.
        ++fired_total_;
        ready_.push_back(Completion{std::move(done), false});
        if (m_fired_ != nullptr) m_fired_->Increment();
        if (m_queue_depth_ != nullptr) {
          m_queue_depth_->Set(static_cast<int64_t>(ready_.size()));
        }
        ready_cv_.notify_one();
        return id;
      }
      const int64_t now = clock_->NowMicros();
      // Saturate: DelayToMicros clamps a huge charge to int64 max.
      const int64_t deadline =
          delay_us > std::numeric_limits<int64_t>::max() - now
              ? std::numeric_limits<int64_t>::max()
              : now + delay_us;
      const auto it =
          index_.emplace(Key{deadline, id}, Parked{group, now, std::move(done)})
              .first;
      deadline_of_.emplace(id, deadline);
      peak_parked_ = std::max(peak_parked_, index_.size());
      if (m_parked_ != nullptr) {
        m_parked_->Set(static_cast<int64_t>(index_.size()));
        m_parked_peak_->Set(static_cast<int64_t>(peak_parked_));
      }
      // The driver sleeps toward the first deadline; only a new first
      // deadline moves its wakeup.
      if (it == index_.begin()) timer_cv_.notify_one();
      return id;
    }
  }
  // Shut down: complete inline as cancelled so no submission is ever
  // silently dropped.
  done(/*cancelled=*/true);
  return 0;
}

bool DelayScheduler::Cancel(TimerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = deadline_of_.find(id);
  if (it == deadline_of_.end()) return false;
  RetireLocked(index_.find(Key{it->second, id}), /*cancelled=*/true,
               clock_->NowMicros());
  PublishLocked(1);
  return true;
}

size_t DelayScheduler::CancelGroup(StallGroup group) {
  if (group == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t now = clock_->NowMicros();
  size_t n = 0;
  for (auto it = index_.begin(); it != index_.end();) {
    if (it->second.group == group) {
      it = RetireLocked(it, /*cancelled=*/true, now);
      ++n;
    } else {
      ++it;
    }
  }
  PublishLocked(n);
  return n;
}

void DelayScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] {
    return index_.empty() && ready_.empty() && executing_ == 0;
  });
}

void DelayScheduler::Shutdown(ShutdownMode mode) {
  bool do_join = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (mode == ShutdownMode::kDrain && !stop_) {
      drain_cv_.wait(lock, [this] {
        return index_.empty() && ready_.empty() && executing_ == 0;
      });
    }
    if (!stop_) {
      stop_ = true;
      const int64_t now = clock_->NowMicros();
      const size_t n = index_.size();
      for (auto it = index_.begin(); it != index_.end();) {
        it = RetireLocked(it, /*cancelled=*/true, now);
      }
      PublishLocked(n);
      timer_cv_.notify_all();
      ready_cv_.notify_all();
    }
    if (!joined_) {
      joined_ = true;
      do_join = true;
    }
  }
  if (do_join) {
    if (driver_.joinable()) driver_.join();
    for (auto& d : dispatchers_) {
      if (d.joinable()) d.join();
    }
  }
}

// --- Accessors. ----------------------------------------------------------

size_t DelayScheduler::parked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}
size_t DelayScheduler::peak_parked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_parked_;
}
uint64_t DelayScheduler::scheduled_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scheduled_total_;
}
uint64_t DelayScheduler::fired_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_total_;
}
uint64_t DelayScheduler::cancelled_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cancelled_total_;
}

// --- Completion (mu_ held). ----------------------------------------------

DelayScheduler::Index::iterator DelayScheduler::RetireLocked(
    Index::iterator it, bool cancelled, int64_t now_micros) {
  const auto [deadline, id] = it->first;
  Parked& p = it->second;
  deadline_of_.erase(id);
  if (cancelled) {
    ++cancelled_total_;
    if (m_cancelled_ != nullptr) m_cancelled_->Increment();
  } else {
    ++fired_total_;
    if (m_fired_ != nullptr) m_fired_->Increment();
  }
  if (options_.metrics != nullptr) {
    m_park_micros_->Record(std::max<int64_t>(0, now_micros - p.submit_micros));
    if (!cancelled) {
      // How late past its exact deadline the stall fired: the
      // driver's wakeup latency, i.e. served minus charged.
      m_dispatch_lag_micros_->Record(
          std::max<int64_t>(0, now_micros - deadline));
    }
  }
  ready_.push_back(Completion{std::move(p.done), cancelled});
  return index_.erase(it);
}

void DelayScheduler::PublishLocked(size_t retired) {
  if (retired == 0) return;
  if (m_parked_ != nullptr) {
    m_parked_->Set(static_cast<int64_t>(index_.size()));
  }
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->Set(static_cast<int64_t>(ready_.size()));
  }
  if (retired == 1) {
    ready_cv_.notify_one();
  } else {
    ready_cv_.notify_all();
  }
}

// --- Threads. ------------------------------------------------------------

void DelayScheduler::DriverLoop() {
#ifdef __linux__
  // The default 50 us timer slack would be added to every stall; a
  // 1 ns slack lets the kernel wake the driver on the deadline.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
#endif
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (index_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    const int64_t now = clock_->NowMicros();
    const int64_t due = index_.begin()->first.first;
    if (now < due) {
      timer_cv_.wait_for(lock, std::chrono::microseconds(
                                   std::min(due - now, kMaxSleepMicros)));
      continue;  // Re-evaluate: submit/cancel/stop may have changed things.
    }
    size_t n = 0;
    auto it = index_.begin();
    while (it != index_.end() && it->first.first <= now) {
      it = RetireLocked(it, /*cancelled=*/false, now);
      ++n;
    }
    PublishLocked(n);
  }
}

void DelayScheduler::DispatcherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    ready_cv_.wait(lock, [this] { return stop_ || !ready_.empty(); });
    if (ready_.empty()) {
      if (stop_) return;
      continue;
    }
    Completion c = std::move(ready_.front());
    ready_.pop_front();
    if (m_queue_depth_ != nullptr) {
      m_queue_depth_->Set(static_cast<int64_t>(ready_.size()));
    }
    ++executing_;
    lock.unlock();
    c.done(c.cancelled);  // Outside the lock: callbacks may re-enter.
    lock.lock();
    --executing_;
    if (ready_.empty() && index_.empty() && executing_ == 0) {
      drain_cv_.notify_all();
    }
  }
}

}  // namespace tarpit
