#include "defense/audit_log.h"

namespace tarpit {

std::string AuditEventName(AuditEvent event) {
  switch (event) {
    case AuditEvent::kRegistered: return "registered";
    case AuditEvent::kRegistrationDenied: return "registration-denied";
    case AuditEvent::kQueryServed: return "query-served";
    case AuditEvent::kRateLimitedUser: return "rate-limited-user";
    case AuditEvent::kRateLimitedSubnet: return "rate-limited-subnet";
    case AuditEvent::kLifetimeCapHit: return "lifetime-cap";
    case AuditEvent::kCoverageEscalated: return "coverage-escalated";
    case AuditEvent::kReputationEscalated: return "reputation-escalated";
  }
  return "unknown";
}

void AuditLog::BindMetrics(obs::MetricRegistry* metrics) {
  if (metrics != nullptr) {
    m_dropped_ = metrics->GetCounter("tarpit_audit_dropped_total");
  }
}

void AuditLog::Record(AuditRecord record) {
  if (clock_ != nullptr) record.time_seconds = clock_->NowSeconds();
  ++total_recorded_;
  records_.push_back(record);
  while (records_.size() > capacity_) {
    records_.pop_front();
    ++dropped_total_;
    if (m_dropped_ != nullptr) m_dropped_->Increment();
  }
  if (ring_ != nullptr) {
    // AuditEvent values 0..7 map 1:1 onto the first eight
    // DefenseEventType values (the ring's enum extends this one).
    obs::DefenseEvent e;
    e.time_micros = static_cast<int64_t>(record.time_seconds * 1e6);
    e.type = static_cast<obs::DefenseEventType>(
        static_cast<uint16_t>(record.event));
    e.principal = record.identity;
    e.subnet24 = record.ipv4 & 0xFFFFFF00u;
    e.magnitude = record.magnitude;
    ring_->Append(e);
  }
}

void AuditLog::ForEach(
    const std::function<bool(const AuditRecord&)>& fn) const {
  for (const AuditRecord& record : records_) {
    if (!fn(record)) return;
  }
}

uint64_t AuditLog::CountOf(AuditEvent event) const {
  uint64_t n = 0;
  for (const AuditRecord& record : records_) {
    if (record.event == event) ++n;
  }
  return n;
}

uint64_t AuditLog::CountForIdentity(IdentityId identity) const {
  uint64_t n = 0;
  for (const AuditRecord& record : records_) {
    if (record.identity == identity) ++n;
  }
  return n;
}

}  // namespace tarpit
