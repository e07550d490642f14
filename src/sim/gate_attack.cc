#include "sim/gate_attack.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/random.h"

namespace tarpit {

GateAttackReport RunGateExtraction(QueryGate* gate, VirtualClock* clock,
                                   const GateAttackConfig& config) {
  GateAttackReport report;
  const double start = clock->NowSeconds();
  const double deadline = start + config.give_up_after_seconds;

  // Phase 1: amass identities, waiting out the registration limiter.
  std::vector<Identity> identities;
  const uint64_t wanted = std::max<uint64_t>(1, config.identities);
  uint32_t next_ip = config.base_ipv4;
  while (identities.size() < wanted &&
         clock->NowSeconds() < deadline) {
    Result<Identity> id = gate->RegisterUser(next_ip);
    if (id.ok()) {
      identities.push_back(*id);
      next_ip += config.spread_subnets ? 0x100 : 1;
      continue;
    }
    const double wait =
        gate->registration_limiter()->RetryAfter(clock->NowSeconds());
    clock->SleepForMicros(
        static_cast<int64_t>(std::max(wait, 1e-3) * 1e6));
  }
  report.identities_used = identities.size();
  if (identities.empty()) {
    report.attack_seconds = clock->NowSeconds() - start;
    return report;
  }

  // Phase 2: discrete-event extraction. Each identity runs its own
  // timeline (busy until its last stall ends); the global clock is
  // advanced to each query's issue time, and the served delay extends
  // only that identity's timeline -- the parallel-attack semantics of
  // paper section 2.4. Requires the door to run with serve_delays =
  // false so ExecuteSql does not advance the shared clock itself.
  struct Worker {
    Identity identity;
    double next_free;
    std::vector<int64_t> keys;  // Assigned keys, back = next.
    bool burned = false;
  };
  std::vector<Worker> workers;
  workers.reserve(identities.size());
  for (const Identity& id : identities) {
    workers.push_back(Worker{id, clock->NowSeconds(), {}, false});
  }
  // Round-robin partition, reversed so pop_back serves in order.
  for (uint64_t key = config.n; key >= 1; --key) {
    workers[(key - 1) % workers.size()].keys.push_back(
        static_cast<int64_t>(key));
  }
  if (config.shuffle_keys) {
    // Seeded Fisher-Yates per partition: reproducible, not clever.
    Rng rng(config.seed);
    for (Worker& w : workers) {
      for (size_t i = w.keys.size(); i > 1; --i) {
        std::swap(w.keys[i - 1], w.keys[rng.Uniform(i)]);
      }
    }
  }

  const std::string prefix = "SELECT * FROM " + config.table +
                             " WHERE " + config.pk_column + " = ";
  uint64_t remaining = config.n;
  double completion = clock->NowSeconds();
  while (remaining > 0) {
    // Next worker to act: smallest next_free with work left.
    Worker* next = nullptr;
    for (Worker& w : workers) {
      if (w.burned || w.keys.empty()) continue;
      if (next == nullptr || w.next_free < next->next_free) next = &w;
    }
    if (next == nullptr) break;  // All remaining work is on burned ids.
    if (next->next_free >= deadline) break;
    clock->AdvanceToMicros(
        static_cast<int64_t>(next->next_free * 1e6));
    const double now = clock->NowSeconds();

    const int64_t key = next->keys.back();
    Result<ProtectedResult> r =
        gate->ExecuteSql(next->identity, prefix + std::to_string(key));
    ++report.queries_issued;
    if (r.ok()) {
      next->keys.pop_back();
      ++report.tuples_obtained;
      --remaining;
      next->next_free = now + r->delay_seconds;
      completion = std::max(completion, next->next_free);
      continue;
    }
    if (r.status().IsRateLimited()) {
      ++report.rate_limited;
      next->next_free = now + std::max(gate->RetryAfter(next->identity),
                                       1e-3);
      continue;
    }
    // Lifetime cap or hard failure: redistribute this worker's keys.
    next->burned = true;
    std::vector<int64_t> orphaned = std::move(next->keys);
    next->keys.clear();
    size_t i = 0;
    bool any_alive = false;
    for (Worker& w : workers) {
      if (!w.burned) {
        any_alive = true;
        break;
      }
    }
    if (!any_alive) break;
    while (i < orphaned.size()) {
      for (Worker& w : workers) {
        if (w.burned) continue;
        if (i >= orphaned.size()) break;
        w.keys.push_back(orphaned[i++]);
      }
    }
  }
  // The attack ends when the slowest identity finishes its last stall.
  clock->AdvanceToMicros(static_cast<int64_t>(completion * 1e6));
  report.attack_seconds = clock->NowSeconds() - start;
  report.completed = report.tuples_obtained == config.n;
  return report;
}

}  // namespace tarpit
