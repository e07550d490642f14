#ifndef TARPIT_DEFENSE_SESSION_MANAGER_H_
#define TARPIT_DEFENSE_SESSION_MANAGER_H_

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "defense/identity.h"
#include "obs/metrics.h"

namespace tarpit {

using SessionToken = uint64_t;

struct SessionOptions {
  /// Sliding inactivity timeout: a session dies this long after its
  /// last use.
  double ttl_seconds = 3600.0;
  /// Hard cap on concurrent sessions per identity (0 = unlimited).
  /// Bounds how much parallelism one account can mount by itself.
  uint32_t max_sessions_per_identity = 4;
  /// When non-null the manager publishes the active-session gauge and
  /// login/eviction counters here. Must outlive the manager.
  obs::MetricRegistry* metrics = nullptr;
};

/// Issues and validates opaque session tokens for registered
/// identities. Sessions expire by inactivity; expiry never erases the
/// identity's coverage or rate-limit state (an adversary cannot shed
/// its history by re-logging in -- that state is keyed by identity, not
/// session).
class SessionManager {
 public:
  explicit SessionManager(SessionOptions options = {},
                          uint64_t seed = 0x5E55);

  /// Starts a session for `identity` at `now_seconds`.
  /// ResourceExhausted when the identity's session cap is reached.
  Result<SessionToken> Login(const Identity& identity,
                             double now_seconds);

  /// Validates a token, sliding its expiry. Returns the owning
  /// identity id; PermissionDenied for unknown/expired tokens.
  Result<IdentityId> Validate(SessionToken token, double now_seconds);

  /// Explicit logout (idempotent).
  void Logout(SessionToken token);

  /// Drops every session idle past its TTL; returns how many died.
  size_t ExpireStale(double now_seconds);

  /// Invoked whenever a session ends -- explicit Logout, TTL expiry in
  /// Validate, or an ExpireStale sweep. This is how eviction reaches
  /// the stall scheduler: wire it to
  /// ConcurrentProtectedDatabase::CancelSession(token) so an evicted
  /// session's parked stalls complete (Cancelled) instead of holding
  /// scheduler entries until multi-hour expiries fire.
  using EvictionHook = std::function<void(SessionToken, IdentityId)>;
  void set_eviction_hook(EvictionHook hook) {
    eviction_hook_ = std::move(hook);
  }

  size_t active_sessions() const { return sessions_.size(); }
  uint32_t SessionsOf(IdentityId id) const;
  const SessionOptions& options() const { return options_; }

 private:
  struct Session {
    IdentityId identity;
    double last_active_seconds;
  };

  /// Ends one session, attributing the eviction to `reason_counter`
  /// (null ok). Shared by Logout, Validate expiry, and ExpireStale.
  void RemoveSession(SessionToken token, obs::Counter* reason_counter);

  SessionOptions options_;
  Rng rng_;
  EvictionHook eviction_hook_;
  std::unordered_map<SessionToken, Session> sessions_;
  std::unordered_map<IdentityId, uint32_t> per_identity_;

  obs::Gauge* m_active_ = nullptr;
  obs::Counter* m_logins_ = nullptr;
  obs::Counter* m_evict_logout_ = nullptr;
  obs::Counter* m_evict_ttl_ = nullptr;
};

}  // namespace tarpit

#endif  // TARPIT_DEFENSE_SESSION_MANAGER_H_
