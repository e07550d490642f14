#ifndef TARPIT_CORE_PROTECTED_DB_H_
#define TARPIT_CORE_PROTECTED_DB_H_

#include <memory>
#include <string>

#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "core/delay_engine.h"
#include "core/popularity_delay.h"
#include "core/combined_delay.h"
#include "core/update_delay.h"
#include "sql/executor.h"
#include "sql/plan_cache.h"
#include "stats/count_cache.h"
#include "stats/count_tracker.h"
#include "stats/update_tracker.h"
#include "storage/database.h"

namespace tarpit {

/// How retrieval delays are assigned.
enum class DelayMode {
  kNone,              // Pass-through (baseline for the overhead bench).
  kAccessPopularity,  // Paper section 2: inverse learned popularity.
  kUpdateRate,        // Paper section 3: inverse learned update rate.
  kCombinedMax,       // max(access, update): cheap only for tuples that
                      // are both popular AND frequently updated, so
                      // neither missing skew leaves a hole.
};

/// Stable lowercase identifier ("none", "access-popularity", ...);
/// used as the `policy` metric label.
const char* DelayModeName(DelayMode mode);

struct ProtectedDatabaseOptions {
  DelayMode mode = DelayMode::kAccessPopularity;
  PopularityDelayParams popularity;
  UpdateDelayParams update;
  /// Decay delta applied per request to the access counts.
  double decay_per_request = 1.0;
  /// N for rank purposes; 0 infers the protected table's row count at
  /// open time (and tracks inserts/deletes thereafter).
  uint64_t universe_size = 0;
  /// Persist per-tuple counts through a write-behind cache into a side
  /// table `<name>__counts` (the configuration measured by the paper's
  /// Table 5 overhead experiment).
  bool persist_counts = false;
  size_t count_cache_capacity = 1024;
  /// When true, ExecuteSql/GetByKey account delays but do NOT sleep;
  /// the caller serves the stall (serial baselines use this to measure
  /// the charge without waiting it out).
  bool defer_delay_sleep = false;
  /// Entries in the statement-text -> parsed AST + access plan cache
  /// that lets repeated statements skip lexer -> parser -> planner.
  /// 0 disables the cache (every ExecuteSql parses from scratch).
  size_t plan_cache_capacity = 256;
  TableOptions table_options;
  /// When non-null, storage (buffer pools, WAL) and the count cache
  /// publish instruments here; also copied into
  /// table_options.metrics at open. Must outlive the database.
  obs::MetricRegistry* metrics = nullptr;
};

/// Operational snapshot of a protected database (observability for
/// dashboards and the shell's .stats command).
struct ProtectedDatabaseMetrics {
  uint64_t universe_size = 0;
  uint64_t total_requests = 0;
  uint64_t distinct_keys_seen = 0;
  uint64_t delays_charged = 0;
  double total_delay_seconds = 0;
  double median_delay_seconds = 0;
  double p99_delay_seconds = 0;
  uint64_t count_cache_hits = 0;
  uint64_t count_cache_misses = 0;
  uint64_t count_cache_backing_writes = 0;
  std::string policy_name;

  std::string ToString() const;
};

/// A query result annotated with the delay that was charged for it.
struct ProtectedResult {
  QueryResult result;
  double delay_seconds = 0;
  /// Reputation penalty factor the concurrent door priced this request
  /// with (>= 1; 1 for anonymous requests or reputation off).
  double reputation_factor = 1.0;
};

/// The full system of the paper: a relational database whose front door
/// charges every tuple retrieval a strategically computed delay.
/// Reads record accesses (learning the popularity distribution) and are
/// delayed; writes record update events (feeding the update-rate
/// scheme) and are not delayed. Multi-tuple results are charged the sum
/// of their per-tuple delays, exactly the paper's aggregation model.
class ProtectedDatabase {
 public:
  /// Opens the database in `dir` and protects `table_name` (which must
  /// exist unless it is created through this interface afterwards).
  /// `clock` drives delay serving and must outlive the instance.
  static Result<std::unique_ptr<ProtectedDatabase>> Open(
      const std::string& dir, const std::string& table_name, Clock* clock,
      ProtectedDatabaseOptions options = {});

  ProtectedDatabase(const ProtectedDatabase&) = delete;
  ProtectedDatabase& operator=(const ProtectedDatabase&) = delete;

  /// Executes one SQL statement with delay protection: Prepare, Run,
  /// then Learn and charge the returned tuples when ChargesTuples.
  Result<ProtectedResult> ExecuteSql(const std::string& sql);

  /// Compiles `sql`: through the plan cache when it is on (repeated
  /// texts skip lexer -> parser -> planner), else a fresh parse.
  Result<std::shared_ptr<const PreparedStatement>> Prepare(
      const std::string& sql);

  /// Runs a compiled statement -- executor (using the cached access
  /// plan only while its schema-version stamp matches the live
  /// database), CREATE TABLE fixup, write bookkeeping, plan-cache
  /// invalidation after DDL -- and learns and charges nothing. The
  /// concurrent door's only way into the executor.
  Result<QueryResult> Run(const PreparedStatement& prepared);

  /// True iff `stmt` is a SELECT on the protected table: each tuple it
  /// returns is one access event and one delay unit.
  bool ChargesTuples(const Statement& stmt) const {
    return stmt.kind == Statement::Kind::kSelect &&
           stmt.select.table == protected_table_name_;
  }

  /// Records each key as one access in the access tracker (and the
  /// persistent count cache). The concurrent door calls it under its
  /// exclusive stats spine.
  Status Learn(const std::vector<int64_t>& keys);

  /// Convenience single-tuple retrieval (the paper's canonical query).
  Result<ProtectedResult> GetByKey(int64_t key);

  /// Delay that retrieving `key` would cost right now.
  double PeekDelay(int64_t key) const { return engine_->Peek(key); }

  /// The concurrent door's one pricer, for point reads and SQL tuples
  /// alike: the delay the active policy charges for `key` given a
  /// snapshot of its *access* popularity. Update-rate-based modes read
  /// the update tracker directly, so the caller must exclude its
  /// writers. Mutates nothing.
  double DelayForAccessStats(const PopularityStats& stats,
                             int64_t key) const;

  /// The update-rate side of a committed write's bookkeeping (Run keeps
  /// the access-tracker side itself; the concurrent door keeps it on
  /// its spine). `logical_rows` is the relation's row count after the
  /// write -- the concurrent door passes its own, since the version
  /// store makes NumRows() stale between commits -- and `touched_keys`
  /// are Record()ed as update events. The caller must exclude
  /// concurrent readers of the update tracker / policy.
  void RecordWrite(Statement::Kind kind, uint64_t logical_rows,
                   const std::vector<int64_t>& touched_keys);

  /// Point-in-time operational metrics.
  ProtectedDatabaseMetrics Metrics() const;

  /// Bulk-load path: inserts without delay accounting or update
  /// tracking (for experiment setup).
  Status BulkLoadRow(const Row& row);

  /// Flushes dirty pages, count cache, and truncates WALs.
  Status Checkpoint();

  CountTracker* access_tracker() { return access_tracker_.get(); }
  UpdateTracker* update_tracker() { return update_tracker_.get(); }
  /// The configured delay policy (serial pricing; its name is the
  /// `policy_name` metric).
  const DelayPolicy& policy() const { return *policy_; }
  Database* raw_database() { return db_.get(); }
  Table* table() { return table_; }
  CountCache* count_cache() { return count_cache_.get(); }
  /// Null when plan_cache_capacity == 0.
  PlanCache* plan_cache() { return plan_cache_.get(); }
  const ProtectedDatabaseOptions& options() const { return options_; }
  Clock* clock() const { return clock_; }

 private:
  ProtectedDatabase(ProtectedDatabaseOptions options, Clock* clock)
      : options_(options), clock_(clock) {}

  Status Init(const std::string& dir, const std::string& table_name);
  /// Serial pricing: charges and serves (with defer_delay_sleep, only
  /// charges) one delay per key through the DelayEngine; the sum.
  double Charge(const std::vector<int64_t>& keys);
  /// Seconds since open, the window that turns update counts into
  /// rates (never zero).
  double RateWindowSeconds() const;

  ProtectedDatabaseOptions options_;
  Clock* clock_;
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;          // Borrowed from db_.
  Table* counts_table_ = nullptr;   // Borrowed; only if persist_counts.
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<PlanCache> plan_cache_;
  std::unique_ptr<CountTracker> access_tracker_;
  std::unique_ptr<UpdateTracker> update_tracker_;
  std::unique_ptr<CountCache> count_cache_;
  std::unique_ptr<DelayPolicy> policy_;
  // Sub-policies owned when mode == kCombinedMax.
  std::unique_ptr<DelayPolicy> access_subpolicy_;
  std::unique_ptr<UpdateDelayPolicy> update_subpolicy_;
  UpdateDelayPolicy* update_policy_ = nullptr;  // Borrowed view.
  std::unique_ptr<DelayEngine> engine_;
  int64_t open_time_micros_ = 0;
  std::string protected_table_name_;
};

}  // namespace tarpit

#endif  // TARPIT_CORE_PROTECTED_DB_H_
