// Web-directory lookup service behind the full defense perimeter
// (paper section 2.4): account registration is rate-limited, queries
// are throttled per identity AND per /24 subnet, and every retrieval
// pays a popularity delay. Shows a legitimate user, then a Sybil
// attacker trying to parallelize around the delays.

#include <cstdio>
#include <filesystem>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/zipf.h"
#include "core/concurrent_db.h"
#include "defense/query_gate.h"

using namespace tarpit;

int main() {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "tarpit_webdir_example";
  fs::remove_all(dir);
  fs::create_directories(dir);

  VirtualClock clock;
  ProtectedDatabaseOptions db_options;
  db_options.popularity.scale = 0.02;
  db_options.popularity.bounds = {0.0, 10.0};
  auto opened = ConcurrentProtectedDatabase::Open(dir.string(), "listings",
                                                  &clock, db_options);
  if (!opened.ok()) return 1;
  ConcurrentProtectedDatabase& db = **opened;

  (void)db.ExecuteSql("CREATE TABLE listings (id INT PRIMARY KEY, "
                      "business TEXT, phone TEXT)");
  const int kListings = 300;
  for (int i = 1; i <= kListings; ++i) {
    (void)db.BulkLoadRow({Value(static_cast<int64_t>(i)),
                          Value("Business #" + std::to_string(i)),
                          Value("555-01" + std::to_string(i))});
  }

  QueryGateOptions gate_options;
  gate_options.registration_seconds_per_account = 120.0;
  gate_options.per_user_queries_per_second = 2.0;
  gate_options.per_user_burst = 10.0;
  gate_options.per_subnet_queries_per_second = 5.0;
  gate_options.per_subnet_burst = 20.0;
  QueryGate gate(&db, gate_options);

  // --- A legitimate user looks up a few popular businesses. ---
  auto alice = gate.RegisterUser(Ipv4FromString("203.0.113.7"));
  if (!alice.ok()) return 1;
  std::printf("[alice] registered from 203.0.113.7\n");
  ZipfDistribution zipf(kListings, 1.5);
  Rng rng(7);
  for (int i = 0; i < 5; ++i) {
    int64_t key = static_cast<int64_t>(zipf.Sample(&rng));
    auto r = gate.ExecuteSql(
        *alice, "SELECT business, phone FROM listings WHERE id = " +
                    std::to_string(key));
    if (r.ok()) {
      std::printf("[alice] lookup id=%lld -> %s (delay %.1f ms)\n",
                  static_cast<long long>(key),
                  r->result.rows[0][0].AsString().c_str(),
                  r->delay_seconds * 1e3);
    }
  }

  // --- The attacker tries to register a fleet of accounts. ---
  // Some time passes after alice signed up, then mallory tries to
  // register five accounts back-to-back: only the first (accrued)
  // token is granted.
  clock.AdvanceToMicros(clock.NowMicros() + 150 * 1'000'000LL);
  std::printf("\n[mallory] attempting to register 5 accounts "
              "back-to-back...\n");
  std::vector<Identity> sybils;
  for (int i = 1; i <= 5; ++i) {
    auto s = gate.RegisterUser(
        Ipv4FromString("198.51.100." + std::to_string(i)));
    if (s.ok()) {
      sybils.push_back(*s);
      std::printf("[mallory] account %d granted\n", i);
    } else {
      std::printf("[mallory] account %d refused: %s\n", i,
                  s.status().ToString().c_str());
    }
  }
  std::printf("[mallory] amassing 50 accounts would take at least "
              "%.0f minutes\n",
              gate.registration_limiter()->TimeToAccumulate(50) / 60.0);

  // --- Sybils from one /24 share the subnet budget. ---
  std::printf("\n[mallory] hammering with the account(s) granted...\n");
  int served = 0, limited = 0;
  for (int q = 1; q <= 40 && !sybils.empty(); ++q) {
    const Identity& who = sybils[q % sybils.size()];
    auto r = gate.ExecuteSql(
        who, "SELECT * FROM listings WHERE id = " + std::to_string(q));
    if (r.ok()) {
      ++served;
    } else {
      ++limited;
    }
  }
  std::printf("[gate] served %d, rate-limited %d of 40 scrape "
              "queries from 198.51.100.0/24\n",
              served, limited);

  // --- And each served tuple still pays its delay. ---
  ProtectedDatabase* inner = db.unsafe_inner();  // No queries in flight.
  double extraction = 0;
  for (int64_t key = 1; key <= kListings; ++key) {
    extraction += inner->PeekDelay(key);
  }
  std::printf("\nEven with unlimited accounts, extracting all %d "
              "listings costs %.1f minutes of delay.\n",
              kListings, extraction / 60.0);

  fs::remove_all(dir);
  return 0;
}
