#ifndef TARPIT_DEFENSE_AUDIT_LOG_H_
#define TARPIT_DEFENSE_AUDIT_LOG_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "common/clock.h"
#include "defense/identity.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"

namespace tarpit {

/// What happened at the perimeter.
enum class AuditEvent : uint8_t {
  kRegistered,
  kRegistrationDenied,
  kQueryServed,
  kRateLimitedUser,
  kRateLimitedSubnet,
  kLifetimeCapHit,
  kCoverageEscalated,
  kReputationEscalated,
};

std::string AuditEventName(AuditEvent event);

struct AuditRecord {
  /// Stamped by AuditLog::Record from the injected clock when the log
  /// was constructed with one; otherwise the emitter's value is kept.
  double time_seconds = 0;
  AuditEvent event = AuditEvent::kQueryServed;
  IdentityId identity = 0;
  uint32_t ipv4 = 0;
  /// Event-specific magnitude: delay served, escalation factor,
  /// retry-after seconds -- see the emitting site.
  double magnitude = 0;
};

/// Bounded in-memory audit trail of perimeter decisions. Extraction
/// attempts announce themselves long before they finish: a stream of
/// rate-limit denials and coverage escalations against one identity or
/// subnet is the operator's early warning, so the gate records every
/// decision here for inspection and alerting.
class AuditLog {
 public:
  explicit AuditLog(size_t capacity = 4096) : capacity_(capacity) {}

  /// Timestamps every record from `clock` (which must outlive the
  /// log). Records once stamped wall-clock time at the emitting sites,
  /// which made virtual-clock simulation runs irreproducible -- the
  /// same trace produced different audit timestamps on every run.
  /// Routing through the injected clock keeps the audit trail on the
  /// simulation's timeline.
  explicit AuditLog(const Clock* clock, size_t capacity = 4096)
      : capacity_(capacity), clock_(clock) {}

  /// Appends one record; stamps `record.time_seconds` from the
  /// attached clock when one was injected. Records evicted by the
  /// capacity bound are counted (tarpit_audit_dropped_total once
  /// BindMetrics ran) and, when an event ring is attached, survive
  /// there in binary form.
  void Record(AuditRecord record);

  /// Publishes tarpit_audit_dropped_total to `metrics` (which must
  /// outlive the log).
  void BindMetrics(obs::MetricRegistry* metrics);

  /// Mirrors every record into `ring` (which must outlive the log) as
  /// a structured DefenseEvent -- the forensic successor to this
  /// string log. The ring's window is independent of this log's
  /// capacity, so evictions here lose nothing there.
  void set_event_ring(obs::DefenseEventRing* ring) { ring_ = ring; }

  /// Records evicted by the capacity bound since construction.
  uint64_t dropped_total() const { return dropped_total_; }

  /// Iterates records oldest-first; `fn` returns false to stop.
  void ForEach(const std::function<bool(const AuditRecord&)>& fn) const;

  /// Count of records matching `event` currently retained.
  uint64_t CountOf(AuditEvent event) const;

  /// Count of retained records attributed to `identity`.
  uint64_t CountForIdentity(IdentityId identity) const;

  size_t size() const { return records_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t total_recorded() const { return total_recorded_; }

 private:
  size_t capacity_;
  const Clock* clock_ = nullptr;
  std::deque<AuditRecord> records_;
  uint64_t total_recorded_ = 0;
  uint64_t dropped_total_ = 0;
  obs::DefenseEventRing* ring_ = nullptr;
  obs::Counter* m_dropped_ = nullptr;
};

}  // namespace tarpit

#endif  // TARPIT_DEFENSE_AUDIT_LOG_H_
