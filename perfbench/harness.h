// The benchmark's own measurement math: pacing, percentiles, the rate
// ladder, failure counting and in-memory trace spans. Header-only and
// free of tarpit dependencies so selftest.cc can check it in isolation.
#ifndef TARPIT_PERFBENCH_HARNESS_H_
#define TARPIT_PERFBENCH_HARNESS_H_

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Last stretch of every wait that is spun rather than slept: a sleep
/// wakes late, which an open-loop harness would otherwise report as the
/// system's latency. With the timer slack cut (UseTightTimers) a sleep
/// overshoots by microseconds, so a short spin is enough and the
/// generator leaves its core to the system under test.
inline constexpr int64_t kSpinNs = 50'000;

/// Cuts this thread's timer slack (50 us by default) to 1 ns so sleeps
/// and poll timeouts wake on time. Call on every generator thread.
inline void UseTightTimers() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

/// Blocks until steady-clock time `deadline_ns`: sleeps while more than
/// kSpinNs remain, then busy-waits.
inline void WaitUntil(int64_t deadline_ns) {
  int64_t now = NowNs();
  while (deadline_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - kSpinNs));
    now = NowNs();
  }
  while (now < deadline_ns) now = NowNs();
}

// ---- Percentiles -----------------------------------------------------

/// Nearest-rank index of quantile `q` in a sorted sample of size `n`.
inline size_t RankIndex(size_t n, double q) {
  if (n == 0) return 0;
  // The epsilon keeps q * n that should be whole (0.99 * 1000) from
  // rounding up a rank.
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(idx, n - 1);
}

/// Samples strictly beyond the nearest-rank position of `q`.
inline size_t BeyondCount(size_t n, double q) {
  return n == 0 ? 0 : n - 1 - RankIndex(n, q);
}

struct Quantile {
  double value = 0;
  double q = 0;       // The percentile actually reported.
  size_t n = 0;       // Sample count.
  size_t beyond = 0;  // Samples above the reported one (per segment).
  size_t segments = 1;  // Segments it is the median over.
};

/// Fewest samples a reported tail percentile must have beyond it.
inline constexpr size_t kMinBeyond = 10;

/// The highest percentile, from a fixed ladder and not above `max_q`,
/// that has at least kMinBeyond samples beyond it; the median when none
/// does. `sorted` must be ascending.
inline Quantile TailQuantile(const std::vector<double>& sorted,
                             double max_q = 0.99) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.98, 0.95, 0.9, 0.75};
  Quantile out;
  out.n = sorted.size();
  out.q = 0.5;
  for (double q : kLadder) {
    if (q > max_q) continue;
    if (BeyondCount(sorted.size(), q) >= kMinBeyond) {
      out.q = q;
      break;
    }
  }
  if (!sorted.empty()) out.value = sorted[RankIndex(sorted.size(), out.q)];
  out.beyond = BeyondCount(sorted.size(), out.q);
  return out;
}

inline Quantile MedianOf(const std::vector<double>& sorted) {
  Quantile out;
  out.n = sorted.size();
  out.q = 0.5;
  if (!sorted.empty()) out.value = sorted[RankIndex(sorted.size(), 0.5)];
  out.beyond = BeyondCount(sorted.size(), 0.5);
  return out;
}

/// Sorts a copy and returns {median, tail} in one call.
inline std::pair<Quantile, Quantile> Summarize(std::vector<double> v,
                                               double max_q = 0.99) {
  std::sort(v.begin(), v.end());
  return {MedianOf(v), TailQuantile(v, max_q)};
}

/// Percentile the end-to-end tails and the rate ladder's latency limit
/// use. Host preemption on a shared machine stalls a thread for
/// milliseconds a few times a second, which touches 1-2% of requests: a
/// p99 then measures the host (in a one-second ladder probe, its ~20
/// worst requests), a p90 still measures the system and still rises
/// steeply once queues build.
inline constexpr double kGateTailQ = 0.90;

/// A measurement taken in segments spread over the run. Each figure is
/// the median over segments of that segment's statistic, so a stretch
/// of host noise that spoils a minority of segments does not move it.
struct Segmented {
  Quantile median;
  Quantile tail;
};

/// One segment's median and `q` tail (TailQuantile), so a caller can
/// drop each segment's samples as soon as it ends.
inline Segmented SummarizeSegment(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return {MedianOf(samples), TailQuantile(samples, q)};
}

/// The median over segments of each segment's median and tail. n counts
/// every sample, q and beyond are the lowest any segment used.
inline Segmented CombineSegments(const std::vector<Segmented>& segments,
                                 double q) {
  std::vector<double> medians, tails;
  Segmented out;
  out.median.q = 0.5;
  out.tail.q = q;
  out.tail.beyond = SIZE_MAX;
  out.median.beyond = SIZE_MAX;
  for (const Segmented& seg : segments) {
    if (seg.median.n == 0) continue;
    medians.push_back(seg.median.value);
    tails.push_back(seg.tail.value);
    out.median.n += seg.median.n;
    out.median.beyond = std::min(out.median.beyond, seg.median.beyond);
    out.tail.q = std::min(out.tail.q, seg.tail.q);
    out.tail.beyond = std::min(out.tail.beyond, seg.tail.beyond);
  }
  if (medians.empty()) return Segmented{};
  std::sort(medians.begin(), medians.end());
  std::sort(tails.begin(), tails.end());
  out.median.value = medians[RankIndex(medians.size(), 0.5)];
  out.tail.value = tails[RankIndex(tails.size(), 0.5)];
  out.tail.n = out.median.n;
  out.median.segments = out.tail.segments = medians.size();
  return out;
}

/// SummarizeSegment on each segment, then CombineSegments.
inline Segmented SummarizeSegments(
    const std::vector<std::vector<double>>& segments, double q) {
  std::vector<Segmented> each;
  for (const auto& seg : segments) each.push_back(SummarizeSegment(seg, q));
  return CombineSegments(each, q);
}

// ---- Rate ladder -----------------------------------------------------

/// A fixed geometric ladder of offered rates: rung k offers
/// base * step^k requests per second.
struct RateLadder {
  double base_qps = 1000;
  double step = 1.05;
  int rungs = 100;
  double Rate(int k) const { return base_qps * std::pow(step, k); }
};

struct RungVerdict {
  Quantile tail;  // kGateTailQ of the whole probe.
  bool meets = false;
};

/// Judges one probe: it meets the limit when nothing failed or was
/// refused (`clean`) and its kGateTailQ is within `limit`. Latency runs
/// from the intended send time, so a backlog that keeps growing past
/// the knee pushes the later requests, and soon the p90, over it.
inline RungVerdict JudgeRung(std::vector<double> latencies, double limit,
                             bool clean) {
  RungVerdict v;
  std::sort(latencies.begin(), latencies.end());
  v.tail = TailQuantile(latencies, kGateTailQ);
  v.meets = clean && !latencies.empty() && v.tail.value <= limit;
  return v;
}

/// Binary search for the highest rung whose probe meets the latency
/// limit, assuming the outcome is monotone (every rung below a passing
/// one passes). Returns -1 when rung 0 fails. Each probe runs at most
/// once; `probed`, when given, receives the rungs in probe order.
template <typename Meets>
int HighestPassingRung(int rungs, Meets&& meets,
                       std::vector<int>* probed = nullptr) {
  int lo = -1;     // Highest rung known to pass.
  int hi = rungs;  // Lowest rung known to fail.
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (probed != nullptr) probed->push_back(mid);
    if (meets(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// ---- Failure counting ------------------------------------------------

enum class Failure {
  kNone = 0,
  kError,        // The request completed with an error status.
  kServedShort,  // Completion - submit < charged delay.
  kWrongRows,    // Rows differ from what the request must return.
  kLedger,       // Client-side charge sum disagrees with the door.
  kNotRepeated,  // A fixed-seed replay charged something else.
  kCount,
};

inline const char* FailureName(Failure f) {
  switch (f) {
    case Failure::kNone: return "none";
    case Failure::kError: return "error_status";
    case Failure::kServedShort: return "served_short";
    case Failure::kWrongRows: return "wrong_rows";
    case Failure::kLedger: return "ledger_mismatch";
    case Failure::kNotRepeated: return "charges_not_repeated";
    case Failure::kCount: break;
  }
  return "?";
}

/// Judges one completed request. A served-short completion fails even
/// when its rows are right: a stall cut short is the defense's one
/// unforgivable bug.
inline Failure Classify(bool ok, int64_t submit_ns, int64_t complete_ns,
                        double charged_seconds, bool rows_ok) {
  if (!ok) return Failure::kError;
  // Compared in whole nanoseconds: 0.0082 s is 8200000.000000001 ns in
  // floating point, which an exact 8200 us stall would otherwise miss.
  if (complete_ns - submit_ns < std::llround(charged_seconds * 1e9)) {
    return Failure::kServedShort;
  }
  if (!rows_ok) return Failure::kWrongRows;
  return Failure::kNone;
}

/// True when the client-side charge total and the door's ledger delta
/// agree within `rel` of the larger, plus `abs_slack` seconds (wire
/// charges are rounded up to whole microseconds).
inline bool LedgerAgrees(double client_seconds, double door_seconds,
                         double rel = 1e-4, double abs_slack = 0.0) {
  const double scale = std::max(std::fabs(client_seconds),
                                std::fabs(door_seconds));
  return std::fabs(client_seconds - door_seconds) <= rel * scale + abs_slack;
}

/// Attempted / failed operation counts, by failure kind.
struct Outcomes {
  uint64_t attempted = 0;
  uint64_t by_kind[static_cast<int>(Failure::kCount)] = {};

  void Count(Failure f) {
    ++attempted;
    ++by_kind[static_cast<int>(f)];
  }
  /// A failure found after the fact (ledger, repeat): no extra attempt.
  void AddFailure(Failure f) { ++by_kind[static_cast<int>(f)]; }
  uint64_t failed() const {
    uint64_t n = 0;
    for (int i = 1; i < static_cast<int>(Failure::kCount); ++i) {
      n += by_kind[i];
    }
    return n;
  }
  void Merge(const Outcomes& o) {
    attempted += o.attempted;
    for (int i = 0; i < static_cast<int>(Failure::kCount); ++i) {
      by_kind[i] += o.by_kind[i];
    }
  }
};

// ---- Trace spans -----------------------------------------------------

struct Span {
  const char* name = "";  // "<layer>.<what>"; static storage.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // Index into the log, -1 for a root.
  uint64_t request = 0;
};

inline std::string LayerOf(const char* name) {
  const std::string s(name);
  const size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

/// Span duration minus the part of its interval that its children
/// cover; overlapping children are counted once.
inline int64_t SelfTime(const Span& span,
                        std::vector<std::pair<int64_t, int64_t>> children) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [lo, hi] : children) {
    lo = std::max(lo, span.start_ns);
    hi = std::min(hi, span.end_ns);
    if (hi <= lo) continue;
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return (span.end_ns - span.start_ns) - covered;
}

/// In-memory span log, written out once at exit. Bounded: past
/// `capacity` spans it stops recording and counts the drops.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity) : capacity_(capacity) {
    spans_.reserve(std::min<size_t>(capacity, 1 << 16));
  }

  /// Appends a root span and its children (children name the root as
  /// parent). Returns false when the log is full.
  bool AddTree(const Span& root, const std::vector<Span>& children) {
    if (spans_.size() + 1 + children.size() > capacity_) {
      ++dropped_;
      return false;
    }
    const int64_t root_index = static_cast<int64_t>(spans_.size());
    spans_.push_back(root);
    spans_.back().parent = -1;
    for (Span c : children) {
      c.parent = root_index;
      c.request = root.request;
      spans_.push_back(c);
    }
    return true;
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  /// Total self time per layer, in nanoseconds.
  std::map<std::string, int64_t> LayerSelfTimes() const {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        kids[static_cast<size_t>(s.parent)].push_back(
            {s.start_ns, s.end_ns});
      }
    }
    std::map<std::string, int64_t> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[LayerOf(spans_[i].name)] += SelfTime(spans_[i], kids[i]);
    }
    return out;
  }

  /// Writes Chrome trace-event JSON (one ph="X" event per span, one
  /// track per request, pid 1), loadable by Perfetto.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("{\"traceEvents\":[", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"span\":%zu,\"parent\":%lld,"
                   "\"request\":%llu}}",
                   i == 0 ? "" : ",", s.name, LayerOf(s.name).c_str(),
                   static_cast<unsigned long long>(s.request),
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  size_t capacity_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // TARPIT_PERFBENCH_HARNESS_H_
