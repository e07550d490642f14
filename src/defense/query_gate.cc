#include "defense/query_gate.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tarpit {

QueryGate::QueryGate(ConcurrentProtectedDatabase* db,
                     QueryGateOptions options)
    : db_(db),
      options_(options),
      reg_limiter_(options.registration_seconds_per_account,
                   options.registration_burst),
      coverage_monitor_(options.coverage),
      // The audit trail stamps from the database's clock so
      // virtual-clock simulations get reproducible timestamps.
      audit_log_(db->clock()) {
  // The gate only signals the store; the door prices with it. Two
  // different stores would split one principal's penalty in half.
  assert(options_.reputation == nullptr ||
         options_.reputation == db->concurrent_options().reputation);
  audit_log_.BindMetrics(options_.metrics);
  if (options_.events != nullptr) {
    audit_log_.set_event_ring(options_.events);
  }
  if (options_.metrics != nullptr) {
    obs::MetricRegistry* m = options_.metrics;
    m_admits_ = m->GetCounter("tarpit_gate_admits_total");
    m_denied_lifetime_ = m->GetCounter("tarpit_gate_denials_total",
                                       {{"reason", "lifetime-cap"}});
    m_denied_subnet_ = m->GetCounter("tarpit_gate_denials_total",
                                     {{"reason", "subnet-rate"}});
    m_denied_user_ = m->GetCounter("tarpit_gate_denials_total",
                                   {{"reason", "user-rate"}});
    m_registrations_ = m->GetCounter("tarpit_gate_registrations_total");
    m_reg_denied_ = m->GetCounter("tarpit_gate_denials_total",
                                  {{"reason", "registration"}});
    m_escalations_ =
        m->GetCounter("tarpit_gate_coverage_escalations_total");
    obs::HistogramOptions permille;
    permille.unit = "permille";
    // Factor 1.0 records as 1000, so quantiles read directly as
    // multipliers with 0.1% granularity.
    m_rep_factor_permille_ = m->GetHistogram(
        "tarpit_reputation_factor_permille", {{"door", "concurrent"}},
        permille);
    obs::HistogramOptions ns;
    ns.sub_bits = 11;
    ns.unit = "ns";
    const char* policy = DelayModeName(db_->options().mode);
    m_delay_legit_ns_ = m->GetHistogram(
        "tarpit_gate_delay_charged_ns",
        {{"policy", policy}, {"class", "legitimate"}}, ns);
    m_delay_flagged_ns_ = m->GetHistogram(
        "tarpit_gate_delay_charged_ns",
        {{"policy", policy}, {"class", "flagged"}}, ns);
  }
}

double QueryGate::NowSeconds() const {
  return db_->clock()->NowSeconds();
}

Result<Identity> QueryGate::RegisterUser(uint32_t ipv4) {
  Result<Identity> id = reg_limiter_.Register(ipv4, NowSeconds());
  AuditRecord record;
  record.time_seconds = NowSeconds();
  record.ipv4 = ipv4;
  if (id.ok()) {
    record.event = AuditEvent::kRegistered;
    record.identity = id->id;
    if (m_registrations_ != nullptr) m_registrations_->Increment();
  } else {
    record.event = AuditEvent::kRegistrationDenied;
    record.magnitude = reg_limiter_.RetryAfter(NowSeconds());
    if (m_reg_denied_ != nullptr) m_reg_denied_->Increment();
  }
  audit_log_.Record(record);
  return id;
}

QueryGate::UserState& QueryGate::UserFor(IdentityId id) {
  auto it = users_.find(id);
  if (it == users_.end()) {
    it = users_
             .emplace(id,
                      UserState{TokenBucket(
                                    options_.per_user_queries_per_second,
                                    options_.per_user_burst),
                                0})
             .first;
  }
  return it->second;
}

TokenBucket& QueryGate::SubnetFor(uint32_t subnet) {
  auto it = subnets_.find(subnet);
  if (it == subnets_.end()) {
    it = subnets_
             .emplace(subnet,
                      TokenBucket(options_.per_subnet_queries_per_second,
                                  options_.per_subnet_burst))
             .first;
  }
  return it->second;
}

Result<ProtectedResult> QueryGate::ExecuteSql(const Identity& identity,
                                              const std::string& sql) {
  const double now = NowSeconds();
  UserState& user = UserFor(identity.id);
  AuditRecord record;
  record.time_seconds = now;
  record.identity = identity.id;
  record.ipv4 = identity.ipv4;
  if (options_.per_user_lifetime_query_limit > 0 &&
      user.lifetime_queries >= options_.per_user_lifetime_query_limit) {
    record.event = AuditEvent::kLifetimeCapHit;
    audit_log_.Record(record);
    if (m_denied_lifetime_ != nullptr) m_denied_lifetime_->Increment();
    // A tripped lifetime cap is the strongest perimeter signal there
    // is -- the storefront defense only fires on extraction-scale use.
    if (options_.risk != nullptr) {
      options_.risk->ObserveSignal(identity.id, 3.0, now);
    }
    return Status::PermissionDenied(
        "identity " + std::to_string(identity.id) +
        " exceeded its lifetime query limit");
  }
  // Check the subnet aggregate FIRST so a single Sybil cannot starve
  // its own subnet bucket of per-user tokens it failed to use.
  TokenBucket& subnet = SubnetFor(identity.Subnet24());
  if (!subnet.TryAcquire(now)) {
    record.event = AuditEvent::kRateLimitedSubnet;
    record.magnitude = subnet.RetryAfter(now);
    audit_log_.Record(record);
    if (m_denied_subnet_ != nullptr) m_denied_subnet_->Increment();
    if (options_.reputation != nullptr) {
      options_.reputation->RecordSignal(identity.id, identity.Subnet24(),
                                        now,
                                        ReputationSignal::kRateAnomaly);
    }
    if (options_.risk != nullptr) {
      options_.risk->ObserveSignal(identity.id, 1.0, now);
    }
    return Status::RateLimited(
        "subnet " + Ipv4ToString(identity.Subnet24()) +
        "/24 rate limit; retry in " +
        std::to_string(subnet.RetryAfter(now)) + "s");
  }
  if (!user.bucket.TryAcquire(now)) {
    record.event = AuditEvent::kRateLimitedUser;
    record.magnitude = user.bucket.RetryAfter(now);
    audit_log_.Record(record);
    if (m_denied_user_ != nullptr) m_denied_user_->Increment();
    if (options_.reputation != nullptr) {
      options_.reputation->RecordSignal(identity.id, identity.Subnet24(),
                                        now,
                                        ReputationSignal::kRateAnomaly);
    }
    if (options_.risk != nullptr) {
      options_.risk->ObserveSignal(identity.id, 1.0, now);
    }
    return Status::RateLimited(
        "identity " + std::to_string(identity.id) +
        " rate limit; retry in " +
        std::to_string(user.bucket.RetryAfter(now)) + "s");
  }
  ++user.lifetime_queries;
  if (m_admits_ != nullptr) m_admits_->Increment();

  // Coverage escalation uses the factor accrued *before* this query so
  // a first-time crossing is not penalized retroactively. The door
  // prices it together with the reputation factor.
  double escalation = 1.0;
  if (options_.coverage_escalation) {
    escalation = coverage_monitor_.EscalationFactor(
        identity.id, db_->concurrent_access_tracker()->universe_size());
  }
  Result<ProtectedResult> result = db_->ExecuteSql(
      sql, RequestPrincipal{identity.id, identity.Subnet24(), escalation});
  if (!result.ok()) return result;
  const double rep_factor = result->reputation_factor;
  if (options_.coverage_escalation) {
    for (int64_t key : result->result.touched_keys) {
      coverage_monitor_.RecordAccess(identity.id, key);
    }
    if (escalation > 1.0 && result->delay_seconds > 0) {
      record.event = AuditEvent::kCoverageEscalated;
      record.magnitude = escalation;
      audit_log_.Record(record);
      if (m_escalations_ != nullptr) m_escalations_->Increment();
    }
  }
  if (options_.reputation != nullptr) {
    // A coverage-monitor escalation is itself an extraction signal.
    if (escalation > 1.0) {
      options_.reputation->RecordSignal(identity.id, identity.Subnet24(),
                                        now, ReputationSignal::kExternal);
    }
    if (m_rep_factor_permille_ != nullptr) {
      m_rep_factor_permille_->Record(
          static_cast<int64_t>(std::llround(rep_factor * 1000.0)));
    }
    if (rep_factor > 1.0 && result->delay_seconds > 0) {
      record.event = AuditEvent::kReputationEscalated;
      record.magnitude = rep_factor;
      audit_log_.Record(record);
    }
  }
  if (options_.risk != nullptr) {
    obs::RiskScorer* risk = options_.risk;
    for (int64_t key : result->result.touched_keys) {
      risk->ObserveQuery(identity.id, key, now);
    }
    // Multi-tuple statements are the volume-inference fingerprint
    // (wide range probes reconstruct the dataset fastest); single-key
    // point reads are not probes.
    if (result->result.touched_keys.size() > 1) {
      risk->ObserveRangeProbe(identity.id,
                              result->result.touched_keys.size(), now);
    }
    if (escalation > 1.0) risk->ObserveSignal(identity.id, 2.0, now);
    if (rep_factor > 1.0) risk->ObserveSignal(identity.id, 2.0, now);
  }
  // Per-class delay accounting: an identity the coverage monitor or
  // reputation store has escalated is "flagged"; everyone else is
  // "legitimate". The split is what lets a dashboard confirm the
  // defense's core promise -- extraction-shaped traffic pays, normal
  // traffic doesn't.
  obs::Histogram* delay_hist =
      (escalation > 1.0 || rep_factor > 1.0) ? m_delay_flagged_ns_
                                             : m_delay_legit_ns_;
  if (delay_hist != nullptr) {
    delay_hist->Record(obs::NanosFromSeconds(result->delay_seconds));
  }
  record.event = AuditEvent::kQueryServed;
  record.magnitude = result->delay_seconds;
  audit_log_.Record(record);
  return result;
}

double QueryGate::RetryAfter(const Identity& identity) {
  const double now = NowSeconds();
  UserState& user = UserFor(identity.id);
  TokenBucket& subnet = SubnetFor(identity.Subnet24());
  return std::max(user.bucket.RetryAfter(now), subnet.RetryAfter(now));
}

uint64_t QueryGate::LifetimeQueries(IdentityId id) const {
  auto it = users_.find(id);
  return it == users_.end() ? 0 : it->second.lifetime_queries;
}

}  // namespace tarpit
