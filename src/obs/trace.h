#ifndef TARPIT_OBS_TRACE_H_
#define TARPIT_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace tarpit {
namespace obs {

/// The delay pipeline's phases, in execution order. A request's trace
/// carries one duration per phase:
///   kAdmit       -- gate/DDL admission + row resolution (cache or
///                   storage) for point reads; parse + execute for SQL.
///   kStatsLookup -- recording the access in the stats spine and
///                   reading back the popularity snapshot.
///   kDelayCompute-- policy math + striped delay accounting.
///   kPark        -- stall service: scheduler park (async) or inline sleep
///                   / blocking wait. Virtual clocks make this the
///                   *charged* time, real clocks the slept time.
///   kComplete    -- completion dispatch: callback/result delivery
///                   after the stall expires.
enum class TracePhase : int {
  kAdmit = 0,
  kStatsLookup,
  kDelayCompute,
  kPark,
  kComplete,
  kNumPhases,
};

inline constexpr int kNumTracePhases =
    static_cast<int>(TracePhase::kNumPhases);

const char* TracePhaseName(TracePhase phase);

/// One request's trip through admit -> compute-delay -> park ->
/// complete. Plain value type: the hot path fills it on the stack (or
/// inside a completion closure) and hands it to the sink exactly once.
struct RequestTrace {
  uint64_t request_id = 0;
  const char* op = "";  // "get_by_key" | "sql" (static storage only).
  int64_t key = 0;
  uint64_t session = 0;
  int64_t start_micros = 0;
  int64_t end_micros = 0;
  double charged_delay_seconds = 0;
  bool ok = true;
  bool cancelled = false;
  int64_t phase_micros[kNumTracePhases] = {};

  int64_t TotalMicros() const { return end_micros - start_micros; }
};

struct TraceSinkOptions {
  /// Slowest-N retention (a min-heap keyed on total duration).
  size_t slowest_capacity = 64;
  /// Bounded ring of sampled recent requests (debugging/liveness).
  size_t recent_capacity = 128;
  /// 1-in-K sampling into the recent ring; 1 records everything.
  uint32_t recent_sample_every = 64;
  /// Head sampling: only 1-in-K requests carry a trace span AT ALL
  /// (the others skip every per-phase clock read, not just retention).
  /// A span costs ~6 clock_gettime calls; on a ~1 microsecond sharded
  /// read that is double-digit percent overhead, so tracing every
  /// request would blow the telemetry budget the registry metrics are
  /// held to. 1 traces everything (tests and single-run forensics);
  /// the default keeps always-on tracing inside the overhead bar while
  /// still filling the slowest/recent sets within seconds under load.
  /// Sampling is per-thread round-robin, so it cannot starve any one
  /// submitting thread.
  uint32_t sample_every = 16;
};

/// Terminal for completed request traces. Keeps (a) the slowest N
/// requests seen so far and (b) a sampled ring of recent requests,
/// both bounded. The hot path takes the mutex only when a request is a
/// slowest-N candidate (checked against a lock-free floor) or wins the
/// 1-in-K recent sample -- everything else is two relaxed atomics.
class TraceSink {
 public:
  explicit TraceSink(TraceSinkOptions options = {});

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Ids are issued per-sink, dense from 1.
  uint64_t NextRequestId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Head-sampling decision for one request (see
  /// TraceSinkOptions::sample_every). The tick is thread-local so the
  /// decision costs no shared-line traffic on unsampled requests.
  bool ShouldSample() {
    if (options_.sample_every <= 1) return true;
    thread_local uint32_t tick = 0;
    return tick++ % options_.sample_every == 0;
  }

  /// Called exactly once per finished request.
  void Complete(const RequestTrace& trace);

  /// Slowest-first.
  std::vector<RequestTrace> Slowest() const;
  /// Oldest-first sampled recents.
  std::vector<RequestTrace> Recent() const;

  uint64_t completed_total() const {
    return completed_.load(std::memory_order_relaxed);
  }

  /// JSON dump of both retained sets (machine-readable exporter).
  std::string ToJson() const;

  const TraceSinkOptions& options() const { return options_; }

 private:
  TraceSinkOptions options_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> recent_tick_{0};
  /// Admission floor for the slowest-N heap: requests no slower than
  /// this cannot enter a full heap, so they skip the lock entirely.
  /// -1 while the heap has room.
  std::atomic<int64_t> slowest_floor_{-1};

  mutable std::mutex mu_;
  std::vector<RequestTrace> heap_;  // Min-heap on TotalMicros().
  std::vector<RequestTrace> ring_;
  size_t ring_next_ = 0;
  bool ring_wrapped_ = false;
};

}  // namespace obs
}  // namespace tarpit

#endif  // TARPIT_OBS_TRACE_H_
