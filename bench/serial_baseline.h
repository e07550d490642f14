#ifndef TARPIT_BENCH_SERIAL_BASELINE_H_
#define TARPIT_BENCH_SERIAL_BASELINE_H_

// The speedup benches' comparison arm: the serial ProtectedDatabase
// behind ONE std::mutex, stalls charged but not slept
// (defer_delay_sleep). Every request computes under the one lock --
// the design the lock-striped ConcurrentProtectedDatabase replaces --
// so "door qps / baseline qps" measures what striping, snapshot reads
// and group-committed writes buy. The baseline lives here, next to the
// benches that compare against it, not as a mode of the production
// door.

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/clock.h"
#include "core/protected_db.h"

namespace tarpit {
namespace bench {

class SerialBaseline {
 public:
  /// Opens the serial database at `dir` (created if missing); aborts on
  /// failure (a bench without its comparison arm is void).
  static std::unique_ptr<SerialBaseline> Open(const std::string& dir,
                                              const std::string& table,
                                              Clock* clock,
                                              ProtectedDatabaseOptions opts) {
    std::filesystem::create_directories(dir);
    opts.defer_delay_sleep = true;  // Measure the charge, skip the sleep.
    auto opened = ProtectedDatabase::Open(dir, table, clock, opts);
    if (!opened.ok()) std::abort();
    return std::unique_ptr<SerialBaseline>(
        new SerialBaseline(std::move(*opened)));
  }

  Result<ProtectedResult> GetByKey(int64_t key) {
    std::lock_guard<std::mutex> lock(mu_);
    return db_->GetByKey(key);
  }
  Result<ProtectedResult> ExecuteSql(const std::string& sql) {
    std::lock_guard<std::mutex> lock(mu_);
    return db_->ExecuteSql(sql);
  }
  Status BulkLoadRow(const Row& row) {
    std::lock_guard<std::mutex> lock(mu_);
    return db_->BulkLoadRow(row);
  }
  Status Checkpoint() {
    std::lock_guard<std::mutex> lock(mu_);
    return db_->Checkpoint();
  }

 private:
  explicit SerialBaseline(std::unique_ptr<ProtectedDatabase> db)
      : db_(std::move(db)) {}

  std::mutex mu_;
  std::unique_ptr<ProtectedDatabase> db_;
};

/// Creates the benches' `items (id INT PRIMARY KEY, v DOUBLE)` table on
/// either door, bulk-loads ids 1..rows (v = id / 2) and checkpoints.
template <typename Door>
void LoadItems(Door* db, int rows) {
  if (!db->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
           .ok()) {
    std::abort();
  }
  for (int i = 1; i <= rows; ++i) {
    if (!db->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(i * 0.5)})
             .ok()) {
      std::abort();
    }
  }
  if (!db->Checkpoint().ok()) std::abort();
}

}  // namespace bench
}  // namespace tarpit

#endif  // TARPIT_BENCH_SERIAL_BASELINE_H_
