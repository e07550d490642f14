// Tests of the benchmark's own math (harness.h). run.py runs this
// before every benchmark run and refuses to report when it fails.

#include <cstdio>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Check(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestTailPercentile() {
  using perfbench::TailQuantile;
  // 1100 samples: p99 sits at rank 1089, with 11 samples beyond it.
  const auto big = TailQuantile(Range(1100));
  Check(big.q == 0.99, "p99 reported with 1100 samples");
  Check(big.value == 1089 && big.beyond == 11, "p99 nearest rank");
  // 1000 samples leave exactly 10 beyond p99: still allowed.
  const auto edge = TailQuantile(Range(1000));
  Check(edge.q == 0.99 && edge.beyond == 10, "p99 with exactly 10 beyond");
  // 999 samples leave 9 beyond p99, so the report falls back to p98.
  const auto small = TailQuantile(Range(999));
  Check(small.q == 0.98 && small.beyond >= 10, "fallback to p98");
  // 15 samples support no tail: report the median.
  const auto tiny = TailQuantile(Range(15));
  Check(tiny.q == 0.5 && tiny.value == 8, "too few samples -> median");
  // Never above the cap, even with samples to spare.
  const auto capped = TailQuantile(Range(100'000), 0.99);
  Check(capped.q == 0.99, "cap at p99");
  Check(perfbench::MedianOf(Range(4)).value == 2, "median nearest rank");
}

void TestSegments() {
  using perfbench::SummarizeSegments;
  // Five calm segments and two spoiled by a host stall: the medians
  // over segments stay those of the calm ones.
  std::vector<std::vector<double>> segs;
  for (int s = 0; s < 7; ++s) {
    std::vector<double> v = Range(200);
    if (s >= 5) {
      for (double& x : v) x *= 10;
    }
    segs.push_back(v);
  }
  const auto sum = SummarizeSegments(segs, 0.9);
  Check(sum.median.value == 100, "median over segments ignores spoiled ones");
  Check(sum.tail.value == 180 && sum.tail.q == 0.9, "p90 over segments");
  Check(sum.tail.n == 1400 && sum.tail.segments == 7, "segment counts");
  // A segment too small for a p90 lowers the reported percentile.
  segs.push_back(Range(50));
  Check(SummarizeSegments(segs, 0.9).tail.q == 0.75, "lowest percentile");
}

void TestRungVerdict() {
  using perfbench::JudgeRung;
  std::vector<double> steady(1'000, 100.0);
  Check(JudgeRung(steady, 500, true).meets, "steady probe meets");
  Check(!JudgeRung(steady, 500, false).meets, "a failure misses");
  // A backlog building over the last 15% of the probe.
  std::vector<double> growing(1'000, 100.0);
  for (size_t i = 850; i < growing.size(); ++i) growing[i] = 100.0 * i;
  Check(!JudgeRung(growing, 500, true).meets, "growing backlog misses");
}

void TestSelfTime() {
  using perfbench::SelfTime;
  using perfbench::Span;
  const Span parent{"core.x", 0, 100, -1, 0};
  // Overlapping children [10,40) and [30,60) cover 50 units once.
  Check(SelfTime(parent, {{30, 60}, {10, 40}}) == 50, "overlapping children");
  // A child nested in another adds nothing.
  Check(SelfTime(parent, {{10, 60}, {20, 30}}) == 50, "nested child");
  // Children are clipped to the parent's interval.
  Check(SelfTime(parent, {{-20, 10}, {90, 150}}) == 80, "clipped children");
  Check(SelfTime(parent, {}) == 100, "leaf span");
  // Through the log: layer totals are self times, not durations.
  perfbench::SpanLog log(16);
  log.AddTree({"harness.request", 0, 100, -1, 7},
              {{"core.compute", 0, 30, -1, 0}, {"core.park", 20, 90, -1, 0}});
  auto layers = log.LayerSelfTimes();
  Check(layers["harness"] == 10, "root self time");
  Check(layers["core"] == 100, "child layer time");
  Check(log.spans()[2].parent == 0 && log.spans()[2].request == 7,
        "children link to root and request");
  perfbench::SpanLog full(2);
  Check(!full.AddTree({"a.b", 0, 1, -1, 0}, {{"c.d", 0, 1, -1, 0},
                                             {"e.f", 0, 1, -1, 0}}),
        "bounded log refuses overflow");
  Check(full.dropped() == 1, "drop counted");
}

void TestRateLadder() {
  using perfbench::HighestPassingRung;
  for (int rungs : {1, 2, 7, 100}) {
    for (int edge = -1; edge < rungs; ++edge) {
      std::vector<int> probed;
      int calls = 0;
      const int got = HighestPassingRung(
          rungs,
          [&](int k) {
            ++calls;
            return k <= edge;
          },
          &probed);
      Check(got == edge, "finds the highest passing rung");
      int log2 = 0;
      while ((1 << log2) < rungs + 1) ++log2;
      Check(calls <= log2, "logarithmic probe count");
      std::vector<int> sorted = probed;
      std::sort(sorted.begin(), sorted.end());
      Check(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
            "no rung probed twice");
    }
  }
  const perfbench::RateLadder ladder{1'000, 1.05, 100};
  for (int k = 1; k < ladder.rungs; ++k) {
    const double step = ladder.Rate(k) / ladder.Rate(k - 1);
    Check(step > 1.0 && step <= 1.10, "ladder steps at most 10%");
  }
}

void TestFailureCounting() {
  using perfbench::Classify;
  using perfbench::Failure;
  // Served 4 ms for a 5 ms charge: short, even with the right rows.
  Check(Classify(true, 0, 4'000'000, 0.005, true) == Failure::kServedShort,
        "served short counts as failed");
  Check(Classify(true, 0, 5'000'000, 0.005, true) == Failure::kNone,
        "served exactly the charge");
  Check(Classify(true, 0, 8'200'000, 0.0082, true) == Failure::kNone,
        "exact stall despite floating-point charge");
  Check(Classify(true, 0, 8'199'999, 0.0082, true) == Failure::kServedShort,
        "one nanosecond short");
  Check(Classify(false, 0, 9'000'000, 0.005, true) == Failure::kError,
        "error status");
  Check(Classify(true, 0, 9'000'000, 0.005, false) == Failure::kWrongRows,
        "wrong rows");
  perfbench::Outcomes o;
  o.Count(Classify(true, 0, 4'000'000, 0.005, true));
  o.Count(Classify(true, 0, 6'000'000, 0.005, true));
  o.AddFailure(Failure::kLedger);
  Check(o.attempted == 2, "attempted counts requests only");
  Check(o.failed() == 2, "served short and ledger both failed");
  Check(perfbench::LedgerAgrees(100.0, 100.009), "ledger within 0.01%");
  Check(!perfbench::LedgerAgrees(100.0, 100.02), "ledger past 0.01%");
  Check(perfbench::LedgerAgrees(0.0, 0.0), "empty ledger");
  Check(perfbench::LedgerAgrees(0.000003, 0.0, 1e-4, 3e-6),
        "wire rounding slack");
}

}  // namespace

int main() {
  TestTailPercentile();
  TestSegments();
  TestRungVerdict();
  TestSelfTime();
  TestRateLadder();
  TestFailureCounting();
  if (failures != 0) return 1;
  std::printf("perfbench selftest: ok\n");
  return 0;
}
