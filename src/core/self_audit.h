#ifndef TARPIT_CORE_SELF_AUDIT_H_
#define TARPIT_CORE_SELF_AUDIT_H_

#include "core/concurrent_db.h"
#include "core/resource_governor.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"

namespace tarpit {

/// What the standard invariant checks reconcile. Any null target
/// simply skips the checks that need it.
struct SelfAuditTargets {
  ConcurrentProtectedDatabase* db = nullptr;
  obs::MetricRegistry* metrics = nullptr;
  ResourceGovernor* governor = nullptr;
  /// Allowed relative drift between the charged-delay ledger and the
  /// delay-charged histogram sum (1e-4 = 0.01%, the accounting bar
  /// every bench holds the engine to).
  double ledger_tolerance = 1e-4;
};

/// Registers the engine's standard production invariants on `watchdog`:
///
///  * "ledger-vs-histogram" -- the door's account charged since open
///    (Metrics().total_delay_seconds minus the recovered ledger base,
///    recorded at delay-compute time) must match the
///    tarpit_delay_charged_ns histogram sum (recorded at request
///    completion) within ledger_tolerance. The two record
///    at different pipeline phases, so the check double-reads the
///    histogram and SKIPS -- never false-positives -- while requests
///    are in flight, parked, or completing between its reads; on a
///    quiescent engine the comparison is exact and a skimmed charge
///    (failpoint concurrent_db.acct_skim) trips it within one pass.
///  * "parked-gauge" -- the tarpit_scheduler_parked gauge must agree
///    with the scheduler's internal parked() count (same double-read
///    discipline; the gauge is written outside the scheduler's lock).
///  * "governor-budget" -- the governor's observed peaks must respect
///    its configured budgets: a peak over a nonzero cap means an
///    admission raced past shed-before-collapse.
///
/// Returns the number of checks registered. Every captured target must
/// outlive the watchdog.
size_t InstallStandardChecks(obs::SelfAuditWatchdog* watchdog,
                             const SelfAuditTargets& targets);

}  // namespace tarpit

#endif  // TARPIT_CORE_SELF_AUDIT_H_
