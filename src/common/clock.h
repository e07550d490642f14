#ifndef TARPIT_COMMON_CLOCK_H_
#define TARPIT_COMMON_CLOCK_H_

#include <cstdint>

namespace tarpit {

/// Abstract time source. All delay accounting in the library goes through
/// a Clock so that simulations can charge week-long delays without
/// sleeping (VirtualClock) while the overhead experiment (Table 5) runs
/// against real time (RealClock).
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time in microseconds since an arbitrary epoch.
  virtual int64_t NowMicros() const = 0;

  /// Blocks (or, for virtual clocks, advances time) for `micros`.
  virtual void SleepForMicros(int64_t micros) = 0;

  /// True when time is simulated (VirtualClock): sleeps are
  /// instantaneous bookkeeping. The DelayScheduler uses this to fire
  /// every stall instantly instead of running a driver thread.
  virtual bool IsVirtual() const { return false; }

  double NowSeconds() const { return NowMicros() / 1e6; }

  /// Converts a charged delay in seconds to sleepable microseconds,
  /// rounding UP. A truncating cast here let sub-microsecond delays
  /// round to zero and never reach wall time, silently under-charging
  /// workloads whose per-tuple delays sit below 1 µs (common with
  /// small `scale` and large counts). Negative/zero delays map to 0;
  /// values beyond int64 range clamp to the maximum.
  static int64_t DelayToMicros(double seconds);

  /// Convenience: sleeps for `seconds`, rounded up to whole
  /// microseconds so every positive charge costs at least one
  /// microsecond of wall time.
  void SleepForSeconds(double seconds) {
    SleepForMicros(DelayToMicros(seconds));
  }
};

/// Wall-clock time via std::chrono::steady_clock; SleepForMicros really
/// sleeps.
class RealClock : public Clock {
 public:
  int64_t NowMicros() const override;
  void SleepForMicros(int64_t micros) override;
};

/// A manually advanced clock for simulation. SleepForMicros advances the
/// clock instantaneously; nothing blocks.
class VirtualClock : public Clock {
 public:
  explicit VirtualClock(int64_t start_micros = 0) : now_(start_micros) {}

  bool IsVirtual() const override { return true; }

  int64_t NowMicros() const override { return now_; }
  void SleepForMicros(int64_t micros) override {
    if (micros > 0) now_ += micros;
  }

  /// Jumps directly to an absolute time; must not move backwards.
  void AdvanceToMicros(int64_t t) {
    if (t > now_) now_ = t;
  }

 private:
  int64_t now_;
};

}  // namespace tarpit

#endif  // TARPIT_COMMON_CLOCK_H_
