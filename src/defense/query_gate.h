#ifndef TARPIT_DEFENSE_QUERY_GATE_H_
#define TARPIT_DEFENSE_QUERY_GATE_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "common/status.h"
#include "core/concurrent_db.h"
#include "defense/audit_log.h"
#include "defense/coverage_monitor.h"
#include "defense/identity.h"
#include "defense/registration_limiter.h"
#include "defense/reputation.h"
#include "defense/token_bucket.h"
#include "obs/event_ring.h"
#include "obs/risk.h"

namespace tarpit {

/// Perimeter policy knobs (paper section 2.4).
struct QueryGateOptions {
  /// One new account every this many seconds.
  double registration_seconds_per_account = 60.0;
  double registration_burst = 1.0;
  /// Per-identity query budget.
  double per_user_queries_per_second = 5.0;
  double per_user_burst = 20.0;
  /// Per-/24-subnet aggregate budget: forged or rented identities
  /// sharing a subnet share this bucket.
  double per_subnet_queries_per_second = 20.0;
  double per_subnet_burst = 50.0;
  /// Hard ceiling on lifetime queries per identity (0 = unlimited):
  /// the storefront defense. Exceeding it is PermissionDenied.
  uint64_t per_user_lifetime_query_limit = 0;
  /// Coverage-tracking escalation (extension, see CoverageMonitor):
  /// identities whose distinct-tuple coverage looks extraction-shaped
  /// have their delays multiplied.
  bool coverage_escalation = false;
  CoverageMonitorOptions coverage;
  /// Reputation store fed by the perimeter: rate-limit denials and
  /// coverage escalations become penalty signals. Must be the same
  /// store the door prices with (ConcurrentDatabaseOptions::reputation),
  /// which multiplies each charged delay by the penalty accrued
  /// *before* the query and feeds every served tuple as a breadth
  /// observation. Not owned; keyed by identity/subnet, not session, so
  /// its penalties survive SessionManager eviction and gate
  /// re-creation. Null disables the perimeter's signals.
  ReputationStore* reputation = nullptr;
  /// When non-null the gate publishes admission/denial counters and
  /// the delay-charged histograms (split legitimate vs flagged by the
  /// coverage monitor) here. Must outlive the gate.
  obs::MetricRegistry* metrics = nullptr;
  /// When non-null every audit record is mirrored into this binary
  /// forensics ring (the AuditLog keeps only a bounded window; the
  /// ring adds lock-free capture and structured querying). Not owned;
  /// must outlive the gate.
  obs::DefenseEventRing* events = nullptr;
  /// When non-null the gate feeds the extraction-risk scorer: every
  /// served tuple (breadth + rate), every multi-tuple statement
  /// (volume-probe shape) and every denial/escalation (defense
  /// signal). Purely observational -- the scorer never changes a
  /// delay. Not owned; must outlive the gate.
  obs::RiskScorer* risk = nullptr;
};

/// The perimeter in front of the concurrent door: account
/// registration, per-user and per-subnet rate limiting, the lifetime
/// cap, and coverage/audit/risk bookkeeping. Every path an adversary
/// has into the data passes through here. Pricing, serving, parking
/// and shedding are the door's: the gate hands it the principal and
/// its coverage escalation, and reads back what was charged.
/// Single-threaded.
class QueryGate {
 public:
  /// `db` must outlive the gate; the gate reads time from the db's
  /// clock so simulations stay on one timeline.
  QueryGate(ConcurrentProtectedDatabase* db, QueryGateOptions options);

  /// Registers a new account from `ipv4`. RateLimited when the
  /// registration quota is exhausted.
  Result<Identity> RegisterUser(uint32_t ipv4);

  /// Executes SQL as `identity`. RateLimited / PermissionDenied when a
  /// perimeter limit trips -- the statement is not executed.
  Result<ProtectedResult> ExecuteSql(const Identity& identity,
                                     const std::string& sql);

  /// Seconds until `identity` may issue another query (0 = now).
  double RetryAfter(const Identity& identity);

  RegistrationLimiter* registration_limiter() { return &reg_limiter_; }
  CoverageMonitor* coverage_monitor() { return &coverage_monitor_; }
  AuditLog* audit_log() { return &audit_log_; }
  uint64_t LifetimeQueries(IdentityId id) const;
  const QueryGateOptions& options() const { return options_; }

 private:
  struct UserState {
    TokenBucket bucket;
    uint64_t lifetime_queries = 0;
  };

  UserState& UserFor(IdentityId id);
  TokenBucket& SubnetFor(uint32_t subnet);
  double NowSeconds() const;

  ConcurrentProtectedDatabase* db_;
  QueryGateOptions options_;
  RegistrationLimiter reg_limiter_;
  CoverageMonitor coverage_monitor_;
  AuditLog audit_log_;
  std::unordered_map<IdentityId, UserState> users_;
  std::unordered_map<uint32_t, TokenBucket> subnets_;

  // Registry-owned instruments; all null when options_.metrics is null.
  obs::Counter* m_admits_ = nullptr;
  obs::Counter* m_denied_lifetime_ = nullptr;
  obs::Counter* m_denied_subnet_ = nullptr;
  obs::Counter* m_denied_user_ = nullptr;
  obs::Counter* m_registrations_ = nullptr;
  obs::Counter* m_reg_denied_ = nullptr;
  obs::Counter* m_escalations_ = nullptr;
  obs::Histogram* m_rep_factor_permille_ = nullptr;
  obs::Histogram* m_delay_legit_ns_ = nullptr;
  obs::Histogram* m_delay_flagged_ns_ = nullptr;
};

}  // namespace tarpit

#endif  // TARPIT_DEFENSE_QUERY_GATE_H_
