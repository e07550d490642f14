// Shared plumbing of the benchmark's workloads: run arguments, the
// metric sheet, and the per-layer replays every workload feeds with its
// own generated inputs.
#ifndef TARPIT_PERFBENCH_COMMON_H_
#define TARPIT_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/concurrent_db.h"
#include "defense/reputation.h"
#include "harness.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "storage/table.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (databases, trace files).
  std::string out_dir;
};

/// Every metric the benchmark can report, with its unit. The untraced
/// run must fill every end-to-end metric; the traced run reports every
/// per-layer metric, 0 for a layer the workload does not exercise. Both
/// lists match BENCHMARK.json. The ungated metrics exist only on some
/// workloads (the open loops' ladder and overhead, write latency where
/// there are writes, pipeline depth on the wire) and are printed when
/// present, outside the JSON result.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();
const std::vector<MetricSpec>& UngatedMetrics();

/// The values a run reports, with a note each for the human report.
class Sheet {
 public:
  void Set(const std::string& name, double value,
           const std::string& note = "");
  /// Records a sample-backed timing: the value plus its percentile and
  /// sample count in the note.
  void SetQuantile(const std::string& name, const Quantile& q);
  bool Has(const std::string& name) const {
    return values_.count(name) != 0;
  }
  double Get(const std::string& name) const;
  /// Human report lines for `specs` (leaving out those the sheet lacks
  /// when `skip_missing`); returns false when `require_all` and a metric
  /// is missing or not positive.
  bool Print(const std::vector<MetricSpec>& specs, bool require_all,
             bool skip_missing = false) const;
  /// The "metrics" object of the result line.
  std::string Json(const std::vector<MetricSpec>& specs) const;

 private:
  struct Entry {
    double value = 0;
    std::string note;
  };
  std::map<std::string, Entry> values_;
};

/// Samples as doubles, converted from nanoseconds to the given unit.
inline double NsTo(int64_t ns, double unit_ns) {
  return static_cast<double>(ns) / unit_ns;
}

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// Median of a list (0 when empty).
double MedianValue(std::vector<double> v);

/// Poisson arrival offsets (ns from the phase start) of `n` requests
/// offered at `rate_qps`, fixed by `seed` before the phase starts.
std::vector<int64_t> PoissonSchedule(double rate_qps, size_t n,
                                     uint64_t seed);

/// Bound on the no-op floor's median: above it the harness, not the
/// system, would dominate the sub-10us figures.
inline constexpr double kFloorBoundUs = 5.0;

/// No-op calibration pass through the same pacing loop the workloads
/// use, at `rate_qps` for `seconds`: sets harness.floor_p50_us and
/// harness.floor_p99_us. Returns false (after saying so on stderr)
/// when the floor's median exceeds kFloorBoundUs.
bool CalibrateFloor(double rate_qps, double seconds, uint64_t seed,
                    Sheet* sheet);

// ---- Per-layer replays -------------------------------------------------

/// stats: replays `keys` through a fresh ConcurrentCountTracker with
/// the door's stripe geometry; sets stats.record_p50_ns/p99_ns.
void ReplayStats(const std::vector<int64_t>& keys, uint64_t universe,
                 bool need_rank, Sheet* sheet, SpanLog* log);

/// defense: replays (principal, key) pairs through a fresh
/// ReputationStore (PenaltyFactor then ObserveAccess); sets
/// defense.price_p50_ns.
void ReplayReputation(const std::vector<tarpit::RequestPrincipal>& who,
                      const std::vector<int64_t>& keys, uint64_t universe,
                      Sheet* sheet, SpanLog* log);

/// sql: compiles `statements` into a fresh PlanCache over `db` twice,
/// cold then warm; sets sql.compile_p50_ns and sql.cache_get_p50_ns.
void ReplayPlanCache(tarpit::Database* db,
                     const std::vector<std::string>& statements,
                     Sheet* sheet, SpanLog* log);

/// storage: replays `keys` through Table::GetByKey on the door's own
/// table (quiesced); sets storage.get_p50_ns/p99_ns and
/// storage.pages_read_per_lookup.
void ReplayTableGets(tarpit::Table* table, const std::vector<int64_t>& keys,
                     Sheet* sheet, SpanLog* log);

/// One request frame's type and payload, and the whole response frame
/// it got back.
struct CodecPair {
  tarpit::net::FrameType type;
  std::string payload;
  std::string response;
};

/// net: times encoding each request frame (AppendFrame) plus decoding
/// its response (FrameDecoder, ParseResponse); sets net.codec_p50_ns.
void ReplayCodec(const std::vector<CodecPair>& frames, Sheet* sheet,
                 SpanLog* log);

/// Writes all of `bytes` to a blocking socket; false on error.
bool SendAll(int fd, const std::string& bytes);

/// net: serial raw loopback TCP echo of each request frame on sockets
/// the benchmark owns, the floor under any wire round trip of that
/// size; sets net.echo_p50_us and returns it.
double ReplayEcho(const std::vector<CodecPair>& frames, Sheet* sheet,
                  SpanLog* log);

/// Counters at the end of set-up, so per-layer figures cover only the
/// measured phases.
struct LayerBaseline {
  tarpit::obs::RegistrySnapshot snap;
  uint64_t row_hits = 0, row_misses = 0, epoch_flushes = 0;
  uint64_t commits = 0, batches = 0, fences = 0;
};
LayerBaseline TakeBaseline(const tarpit::obs::MetricRegistry& registry,
                           tarpit::ConcurrentProtectedDatabase* db);

/// Per-layer figures read from the registry and the door's public
/// counters since `base`. `reads` and `writes` count the requests the
/// workload issued since then.
void RegistryLayerMetrics(const tarpit::obs::MetricRegistry& registry,
                          const LayerBaseline& base,
                          tarpit::ConcurrentProtectedDatabase* db,
                          uint64_t reads, uint64_t writes, Sheet* sheet);

/// Sum of every series named `name` (counters and gauges).
int64_t SeriesSum(const tarpit::obs::RegistrySnapshot& snap,
                  const std::string& name);

/// Writes the span log as Chrome trace JSON under the out dir and
/// prints each layer's self time.
void ReportSpans(const Args& args, const SpanLog& log, uint64_t requests);

// ---- Workloads ---------------------------------------------------------

/// Each runs one workload, fills the sheet (end-to-end metrics when
/// args.trace is false, per-layer metrics when true) and counts
/// attempted and failed operations. Returns false on a set-up error.
bool RunPointReadAsync(const Args& args, Sheet* sheet, Outcomes* outcomes);
bool RunWireSqlMixed(const Args& args, Sheet* sheet, Outcomes* outcomes);
bool RunExtractSim(const Args& args, Sheet* sheet, Outcomes* outcomes);
bool RunPointReadSim(const Args& args, Sheet* sheet, Outcomes* outcomes);

}  // namespace perfbench

#endif  // TARPIT_PERFBENCH_COMMON_H_
