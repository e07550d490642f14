#include "core/self_audit.h"

#include <cmath>
#include <string>

namespace tarpit {

namespace {

/// Sums count/sum across every labels-variant of `name` (the
/// delay-charged histogram is labelled by policy; the ledger spans all
/// of them).
void SumHistogram(const obs::RegistrySnapshot& snap,
                  const std::string& name, int64_t* count,
                  int64_t* sum) {
  *count = 0;
  *sum = 0;
  for (const obs::MetricSnapshot& m : snap.metrics) {
    if (m.kind == obs::MetricKind::kHistogram && m.name == name) {
      *count += m.histogram.count;
      *sum += m.histogram.sum;
    }
  }
}

obs::WatchdogResult CheckLedger(const SelfAuditTargets& t) {
  const std::string hist = "tarpit_delay_charged_ns";
  int64_t count_before = 0, sum_before = 0;
  SumHistogram(t.metrics->Snapshot(), hist, &count_before, &sum_before);
  // The ledger records at delay-compute, the histogram at completion;
  // anything between those phases makes the two legitimately disagree.
  // Skip rather than guess -- the skip is itself counted, so a check
  // that never gets a quiescent window is visible too.
  if (t.db->in_flight_queries() > 0) {
    return obs::WatchdogResult::Skipped("queries in flight");
  }
  DelayScheduler* sched = t.db->delay_scheduler();
  if (sched != nullptr && sched->parked() > 0) {
    return obs::WatchdogResult::Skipped("stalls parked in the scheduler");
  }
  // The histogram starts empty at open, so compare it with the debt
  // charged since open, not with the recovered ledger base.
  const double ledger = t.db->Metrics().total_delay_seconds -
                        t.db->recovered_delay_seconds();
  int64_t count_after = 0, sum_after = 0;
  SumHistogram(t.metrics->Snapshot(), hist, &count_after, &sum_after);
  if (count_after != count_before || sum_after != sum_before) {
    return obs::WatchdogResult::Skipped(
        "histogram moved during the check");
  }
  const double hist_seconds = static_cast<double>(sum_after) * 1e-9;
  if (count_after == 0 && ledger == 0) return obs::WatchdogResult::Ok();
  const double denom = std::max(std::abs(hist_seconds), 1e-9);
  const double drift = std::abs(ledger - hist_seconds) / denom;
  if (drift > t.ledger_tolerance) {
    return obs::WatchdogResult::Violation(
        drift, "charged-delay ledger " + std::to_string(ledger) +
                   "s vs histogram " + std::to_string(hist_seconds) +
                   "s (relative drift " + std::to_string(drift) + ")");
  }
  return obs::WatchdogResult::Ok();
}

obs::WatchdogResult CheckParkedGauge(const SelfAuditTargets& t) {
  const obs::RegistrySnapshot before = t.metrics->Snapshot();
  const obs::MetricSnapshot* g_before =
      before.Find("tarpit_scheduler_parked");
  if (g_before == nullptr) {
    // Scheduler not instrumented (metrics wired without a scheduler).
    return obs::WatchdogResult::Ok();
  }
  const uint64_t internal = t.db->delay_scheduler()->parked();
  const obs::MetricSnapshot* g_after =
      t.metrics->Snapshot().Find("tarpit_scheduler_parked");
  if (g_after == nullptr || g_after->value != g_before->value) {
    return obs::WatchdogResult::Skipped("parked gauge moved");
  }
  if (static_cast<uint64_t>(g_after->value) != internal) {
    const double drift = std::abs(static_cast<double>(g_after->value) -
                                  static_cast<double>(internal));
    return obs::WatchdogResult::Violation(
        drift, "tarpit_scheduler_parked gauge " +
                   std::to_string(g_after->value) +
                   " vs scheduler internal " + std::to_string(internal));
  }
  return obs::WatchdogResult::Ok();
}

obs::WatchdogResult CheckGovernorBudget(const SelfAuditTargets& t) {
  const ResourceGovernorOptions& opts = t.governor->options();
  const uint64_t peak_stalls = t.governor->peak_parked_stalls();
  const uint64_t peak_bytes = t.governor->peak_parked_bytes();
  if (opts.max_parked_stalls != 0 &&
      peak_stalls > opts.max_parked_stalls) {
    return obs::WatchdogResult::Violation(
        static_cast<double>(peak_stalls - opts.max_parked_stalls),
        "peak parked stalls " + std::to_string(peak_stalls) +
            " exceeded budget " +
            std::to_string(opts.max_parked_stalls));
  }
  if (opts.max_parked_bytes != 0 && peak_bytes > opts.max_parked_bytes) {
    return obs::WatchdogResult::Violation(
        static_cast<double>(peak_bytes - opts.max_parked_bytes),
        "peak parked bytes " + std::to_string(peak_bytes) +
            " exceeded budget " + std::to_string(opts.max_parked_bytes));
  }
  return obs::WatchdogResult::Ok();
}

}  // namespace

size_t InstallStandardChecks(obs::SelfAuditWatchdog* watchdog,
                             const SelfAuditTargets& targets) {
  size_t installed = 0;
  if (targets.db != nullptr && targets.metrics != nullptr) {
    const SelfAuditTargets t = targets;
    watchdog->RegisterCheck("ledger-vs-histogram",
                            [t] { return CheckLedger(t); });
    ++installed;
    if (targets.db->delay_scheduler() != nullptr) {
      watchdog->RegisterCheck("parked-gauge",
                              [t] { return CheckParkedGauge(t); });
      ++installed;
    }
  }
  if (targets.governor != nullptr) {
    const SelfAuditTargets t = targets;
    watchdog->RegisterCheck("governor-budget",
                            [t] { return CheckGovernorBudget(t); });
    ++installed;
  }
  return installed;
}

}  // namespace tarpit
