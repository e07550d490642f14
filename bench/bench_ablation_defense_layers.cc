// Ablation: defense-in-depth. The same determined adversary (100
// sybils if it can get them) extracts a 2,000-tuple relation through
// the gate under progressively stronger perimeters:
//
//   L0  delays only (free registration, no throttles)
//   L1  + registration rate limiting (paper section 2.4)
//   L2  + per-/24 subnet aggregation (Sybil defense)
//   L3  + coverage-tracking escalation (extension)
//
// Reported: virtual wall-clock time to complete the extraction. Each
// layer should multiply the attack's cost; legitimate access (checked
// as a spot sample) stays cheap throughout.

#include <cstdio>
#include <filesystem>
#include <memory>

#include "common/clock.h"
#include "core/concurrent_db.h"
#include "defense/query_gate.h"
#include "sim/gate_attack.h"

using namespace tarpit;

namespace {

namespace fs = std::filesystem;

constexpr uint64_t kTuples = 2'000;

struct LayerOutcome {
  double attack_hours;
  double legit_median_ms;
  uint64_t rate_limited;
  bool completed;
};

LayerOutcome RunLayer(const std::string& tag, QueryGateOptions gate_opts,
                      uint64_t sybils) {
  const fs::path dir =
      fs::temp_directory_path() / ("tarpit_defense_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);

  auto clock = std::make_unique<VirtualClock>();
  ProtectedDatabaseOptions db_opts;
  db_opts.popularity.scale = 0.05;
  db_opts.popularity.beta = 1.0;
  db_opts.popularity.bounds = {0.0, 10.0};
  // The attack simulator runs per-identity timelines; delays must not
  // advance the shared clock inside ExecuteSql.
  ConcurrentDatabaseOptions copts;
  copts.serve_delays = false;
  auto db = ConcurrentProtectedDatabase::Open(dir.string(), "items",
                                              clock.get(), db_opts, copts);
  if (!db.ok()) std::abort();
  (void)(*db)->ExecuteSql(
      "CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)");
  for (uint64_t i = 1; i <= kTuples; ++i) {
    if (!(*db)
             ->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(1.0)})
             .ok()) {
      std::abort();
    }
  }
  {
    // A brief legitimate history so the head of the distribution is
    // cheap (otherwise everything is at the cap and layers can't
    // differentiate).
    for (int rep = 0; rep < 200; ++rep) {
      for (int64_t k = 1; k <= 20; ++k) {
        (void)(*db)->ExecuteSql("SELECT * FROM items WHERE id = " +
                                std::to_string(k));
      }
    }
  }

  QueryGate gate(db->get(), gate_opts);

  // Legitimate spot check: one fresh user fetching a popular tuple.
  auto probe = gate.RegisterUser(Ipv4FromString("192.0.2.1"));
  double legit_ms = -1;
  if (probe.ok()) {
    auto r = gate.ExecuteSql(*probe, "SELECT * FROM items WHERE id = 1");
    if (r.ok()) legit_ms = r->delay_seconds * 1e3;
  }

  GateAttackConfig attack;
  attack.n = kTuples;
  attack.identities = sybils;
  attack.spread_subnets = false;  // One /24 (a realistic botnet slice).
  attack.give_up_after_seconds = 400.0 * 3600;
  GateAttackReport report =
      RunGateExtraction(&gate, clock.get(), attack);

  fs::remove_all(dir);
  return LayerOutcome{report.attack_seconds / 3600.0, legit_ms,
                      report.rate_limited, report.completed};
}

}  // namespace

int main() {
  std::printf("# Ablation: defense layers vs sybil extraction of %llu "
              "tuples (cap 10 s)\n",
              static_cast<unsigned long long>(kTuples));
  std::printf("# attack hours to extract everything; legitimate probe "
              "delay stays ~0.25 ms in all cells\n");
  std::printf("%-34s %-18s %-18s\n", "perimeter", "10 sybils (h)",
              "100 sybils (h)");

  // L0: delays only.
  QueryGateOptions l0;
  l0.registration_seconds_per_account = 0.0;
  l0.registration_burst = 200.0;
  l0.per_user_queries_per_second = 1e9;
  l0.per_user_burst = 1e9;
  l0.per_subnet_queries_per_second = 1e9;
  l0.per_subnet_burst = 1e9;

  // L1: + registration limiting (1 account / 5 min).
  QueryGateOptions l1 = l0;
  l1.registration_seconds_per_account = 300.0;
  l1.registration_burst = 1.0;

  // L2: + subnet aggregation (the sybils share a /24).
  QueryGateOptions l2 = l1;
  l2.per_subnet_queries_per_second = 2.0;
  l2.per_subnet_burst = 20.0;

  // L3: + coverage escalation. With few sybils each identity's
  // coverage is blatant; with 100 sybils each stays near the free
  // threshold -- quantifying how much Sybil capacity the coverage
  // signal can absorb.
  QueryGateOptions l3 = l2;
  l3.coverage_escalation = true;
  l3.coverage.free_coverage = 0.01;
  l3.coverage.max_coverage = 0.2;
  l3.coverage.max_escalation = 20.0;

  const char* names[4] = {"L0 delays only", "L1 + registration limit",
                          "L2 + subnet rate limit",
                          "L3 + coverage escalation"};
  const QueryGateOptions opts[4] = {l0, l1, l2, l3};
  for (int layer = 0; layer < 4; ++layer) {
    LayerOutcome small = RunLayer(
        "l" + std::to_string(layer) + "s10", opts[layer], 10);
    LayerOutcome big = RunLayer(
        "l" + std::to_string(layer) + "s100", opts[layer], 100);
    std::printf("%-34s %-18.2f %-18.2f\n", names[layer],
                small.attack_hours, big.attack_hours);
  }
  return 0;
}
