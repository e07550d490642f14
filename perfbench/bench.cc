// The tarpit benchmark: runs one named workload with a seed, checks
// the outputs, and prints every metric by name and unit. The last line
// of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, from a separate traced run.
//
// Usage: perfbench --workload <extract_sim|point_read_sim|
//                   point_read_async|wire_sql_mixed> --seed N
//                   --seconds S --trace 0|1 [--out DIR]

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "common/random.h"
#include "net/socket.h"
#include "sql/plan_cache.h"
#include "stats/concurrent_count_tracker.h"
#include "stats/count_tracker.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},          {"served_p50_us", "us"},
      {"served_p90_us", "us"},   {"throughput_qps", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& UngatedMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"overhead_p50_us", "us"}, {"overhead_p90_us", "us"},
      {"write_p50_us", "us"},    {"write_p90_us", "us"},
      {"max_rate_qps", "1/s"},   {"net.pipeline_depth_p99", "frames"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"harness.floor_p50_us", "us"},
      {"harness.floor_p99_us", "us"},
      {"harness.late_p99_us", "us"},
      {"net.echo_p50_us", "us"},
      {"net.rtt_p50_us", "us"},
      {"net.rtt_p99_us", "us"},
      {"net.added_p50_us", "us"},
      {"net.codec_p50_ns", "ns"},
      {"core.compute_p50_us", "us"},
      {"core.compute_p99_us", "us"},
      {"core.sched_late_p50_us", "us"},
      {"core.sched_late_p99_us", "us"},
      {"core.zero_hop_p50_us", "us"},
      {"core.row_cache_hit_ratio", "ratio"},
      {"core.parked_peak", "count"},
      {"core.ddl_fences", "count"},
      {"core.write_batch_ops", "ops/batch"},
      {"stats.record_p50_ns", "ns"},
      {"stats.record_p99_ns", "ns"},
      {"stats.epoch_flushes_per_kop", "1/kop"},
      {"defense.price_p50_ns", "ns"},
      {"defense.escalations", "count"},
      {"defense.tracked_principals", "count"},
      {"defense.benign_charge_p50_us", "us"},
      {"defense.extract_charged_h", "h"},
      {"defense.sybil_charged_h", "h"},
      {"sql.compile_p50_ns", "ns"},
      {"sql.cache_get_p50_ns", "ns"},
      {"sql.plan_cache_hit_ratio", "ratio"},
      {"sql.scan_rows_per_query", "rows"},
      {"storage.get_p50_ns", "ns"},
      {"storage.get_p99_ns", "ns"},
      {"storage.bufpool_hit_ratio", "ratio"},
      {"storage.pages_read_per_lookup", "pages"},
      {"storage.wal_bytes_per_write", "B"},
      {"storage.fsyncs_per_kwrite", "1/kop"},
      {"storage.fsync_p99_us", "us"},
      {"storage.mvcc_live_versions_peak", "count"},
      {"storage.reclaim_passes", "count"},
      {"obs.trace_overhead_pct", "%"},
  };
  return kSpecs;
}

void Sheet::Set(const std::string& name, double value,
                const std::string& note) {
  values_[name] = {value, note};
}

void Sheet::SetQuantile(const std::string& name, const Quantile& q) {
  char note[128];
  if (q.segments > 1) {
    std::snprintf(note, sizeof note,
                  "median of %zu segment p%gs; %zu samples, >=%zu beyond each",
                  q.segments, q.q * 100, q.n, q.beyond);
  } else {
    std::snprintf(note, sizeof note, "p%g of %zu samples, %zu beyond",
                  q.q * 100, q.n, q.beyond);
  }
  Set(name, q.value, note);
}

double Sheet::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.value;
}

bool Sheet::Print(const std::vector<MetricSpec>& specs,
                  bool require_all, bool skip_missing) const {
  bool complete = true;
  for (const MetricSpec& m : specs) {
    auto it = values_.find(m.name);
    if (it == values_.end()) {
      if (skip_missing) continue;
      std::printf("  %-34s %14s %-6s (not exercised by this workload)\n",
                  m.name, "0", m.unit);
      if (require_all) complete = false;
      continue;
    }
    std::printf("  %-34s %14.4f %-6s %s\n", m.name, it->second.value,
                m.unit, it->second.note.c_str());
    if (require_all && !(it->second.value > 0)) complete = false;
  }
  return complete;
}

std::string Sheet::Json(const std::vector<MetricSpec>& specs) const {
  std::string out = "{";
  for (size_t i = 0; i < specs.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, Get(specs[i].name),
                  specs[i].unit);
    out += buf;
  }
  return out + "}";
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof ru);
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

double MedianValue(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[RankIndex(v.size(), 0.5)];
}

std::vector<int64_t> PoissonSchedule(double rate_qps, size_t n,
                                     uint64_t seed) {
  tarpit::Rng rng(seed);
  std::vector<int64_t> at;
  at.reserve(n);
  double t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += rng.Exponential(rate_qps) * 1e9;
    at.push_back(static_cast<int64_t>(t));
  }
  return at;
}

bool CalibrateFloor(double rate_qps, double seconds, uint64_t seed,
                    Sheet* sheet) {
  const auto sched = PoissonSchedule(
      rate_qps, static_cast<size_t>(rate_qps * seconds) + 1, seed);
  std::vector<double> us;
  us.reserve(sched.size());
  const int64_t start = NowNs() + 1'000'000;
  for (int64_t offset : sched) {
    const int64_t intended = start + offset;
    WaitUntil(intended);
    // The no-op: completes the moment it is issued.
    us.push_back(NsTo(NowNs() - intended, 1e3));
  }
  auto [p50, tail] = Summarize(std::move(us));
  sheet->SetQuantile("harness.floor_p50_us", p50);
  sheet->SetQuantile("harness.floor_p99_us", tail);
  std::printf("# harness floor at %.0f qps: p50 %.3f us, p%g %.3f us\n",
              rate_qps, p50.value, tail.q * 100, tail.value);
  if (p50.value > kFloorBoundUs) {
    std::fprintf(stderr,
                 "perfbench: harness floor p50 %.3f us exceeds the %.1f us "
                 "bound; latencies would measure the harness\n",
                 p50.value, kFloorBoundUs);
    return false;
  }
  return true;
}

// ---- Per-layer replays -------------------------------------------------

namespace {

/// Adds one root span covering a whole replay.
void ReplaySpan(SpanLog* log, const char* name, int64_t t0, int64_t t1) {
  if (log == nullptr) return;
  Span s;
  s.name = name;
  s.start_ns = t0;
  s.end_ns = t1;
  log->AddTree(s, {});
}

}  // namespace

void ReplayStats(const std::vector<int64_t>& keys, uint64_t universe,
                 bool need_rank, Sheet* sheet, SpanLog* log) {
  tarpit::CountTracker inner(universe, 1.0);
  tarpit::ConcurrentCountTrackerOptions opts;
  opts.rank_reads = need_rank;
  tarpit::ConcurrentCountTracker tracker(&inner, opts);
  std::vector<double> ns;
  ns.reserve(keys.size());
  const int64_t t0 = NowNs();
  for (int64_t key : keys) {
    const int64_t a = NowNs();
    const tarpit::PopularityStats s = tracker.RecordAndStats(key, need_rank);
    const int64_t b = NowNs();
    if (s.count <= 0) std::abort();  // Just recorded: must be seen.
    ns.push_back(static_cast<double>(b - a));
  }
  ReplaySpan(log, "stats.replay", t0, NowNs());
  auto [p50, tail] = Summarize(std::move(ns));
  sheet->SetQuantile("stats.record_p50_ns", p50);
  sheet->SetQuantile("stats.record_p99_ns", tail);
}

void ReplayReputation(const std::vector<tarpit::RequestPrincipal>& who,
                      const std::vector<int64_t>& keys, uint64_t universe,
                      Sheet* sheet, SpanLog* log) {
  tarpit::ReputationStore store;
  std::vector<double> ns;
  ns.reserve(keys.size());
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < keys.size() && i < who.size(); ++i) {
    // The door prices with the wall clock; a replay-local clock keeps
    // decay meaningful without a syscall per access.
    const double now = static_cast<double>(i) * 1e-4;
    const int64_t a = NowNs();
    const double f =
        store.PenaltyFactor(who[i].identity, who[i].subnet24, now);
    store.ObserveAccess(who[i].identity, who[i].subnet24, keys[i], universe,
                        now);
    const int64_t b = NowNs();
    if (!(f >= 1.0)) std::abort();  // The seam's contract.
    ns.push_back(static_cast<double>(b - a));
  }
  ReplaySpan(log, "defense.replay", t0, NowNs());
  sheet->SetQuantile("defense.price_p50_ns", Summarize(std::move(ns)).first);
}

void ReplayPlanCache(tarpit::Database* db,
                     const std::vector<std::string>& statements,
                     Sheet* sheet, SpanLog* log) {
  if (statements.empty()) return;
  tarpit::PlanCache cache(statements.size() * 2 + 64, db);
  std::vector<double> cold, warm;
  const int64_t t0 = NowNs();
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& sql : statements) {
      const int64_t a = NowNs();
      auto r = cache.Get(sql);
      const int64_t b = NowNs();
      if (!r.ok()) std::abort();  // The workload's own statements.
      (pass == 0 ? cold : warm).push_back(static_cast<double>(b - a));
    }
  }
  ReplaySpan(log, "sql.replay", t0, NowNs());
  sheet->SetQuantile("sql.compile_p50_ns", Summarize(std::move(cold)).first);
  sheet->SetQuantile("sql.cache_get_p50_ns",
                     Summarize(std::move(warm)).first);
}

void ReplayTableGets(tarpit::Table* table, const std::vector<int64_t>& keys,
                     Sheet* sheet, SpanLog* log) {
  std::vector<double> ns;
  ns.reserve(keys.size());
  const uint64_t reads0 = table->DiskReads();
  const int64_t t0 = NowNs();
  for (int64_t key : keys) {
    const int64_t a = NowNs();
    auto row = table->GetByKey(key);
    const int64_t b = NowNs();
    if (!row.ok() || (*row)[0].AsInt() != key) std::abort();
    ns.push_back(static_cast<double>(b - a));
  }
  ReplaySpan(log, "storage.replay", t0, NowNs());
  const uint64_t reads = table->DiskReads() - reads0;
  auto [p50, tail] = Summarize(std::move(ns));
  sheet->SetQuantile("storage.get_p50_ns", p50);
  sheet->SetQuantile("storage.get_p99_ns", tail);
  sheet->Set("storage.pages_read_per_lookup",
             keys.empty() ? 0.0
                          : static_cast<double>(reads) /
                                static_cast<double>(keys.size()),
             std::to_string(reads) + " page reads");
}

void ReplayCodec(const std::vector<CodecPair>& frames, Sheet* sheet,
                 SpanLog* log) {
  std::vector<double> ns;
  ns.reserve(frames.size());
  tarpit::net::FrameDecoder decoder(1 << 20);
  const int64_t t0 = NowNs();
  for (const CodecPair& f : frames) {
    const int64_t a = NowNs();
    std::string request;
    tarpit::net::AppendFrame(&request, f.type, f.payload);
    decoder.Feed(f.response.data(), f.response.size());
    tarpit::net::Frame frame;
    tarpit::net::WireResponse resp;
    if (decoder.Pop(&frame) != tarpit::net::FrameDecoder::Next::kFrame ||
        !tarpit::net::ParseResponse(frame.payload, &resp)) {
      std::abort();  // Frames the workload itself received.
    }
    ns.push_back(static_cast<double>(NowNs() - a));
  }
  ReplaySpan(log, "net.codec_replay", t0, NowNs());
  sheet->SetQuantile("net.codec_p50_ns", Summarize(std::move(ns)).first);
}

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

double ReplayEcho(const std::vector<CodecPair>& frames, Sheet* sheet,
                  SpanLog* log) {
  auto lfd = tarpit::net::ListenTcp("127.0.0.1", 0);
  if (!lfd.ok()) std::abort();
  tarpit::net::UniqueFd listener(*lfd);
  const uint16_t port = tarpit::net::LocalPort(listener.get());
  std::thread echo([&listener] {
    pollfd p{listener.get(), POLLIN, 0};
    if (::poll(&p, 1, 5'000) <= 0) return;
    tarpit::net::UniqueFd fd(::accept(listener.get(), nullptr, nullptr));
    if (!fd.valid()) return;
    (void)tarpit::net::SetNoDelay(fd.get());
    char buf[16384];
    while (true) {
      const ssize_t n = ::recv(fd.get(), buf, sizeof buf, 0);
      if (n <= 0) return;
      if (!SendAll(fd.get(), std::string(buf, static_cast<size_t>(n)))) {
        return;
      }
    }
  });
  std::vector<double> us;
  const int64_t t0 = NowNs();
  {
    auto cfd = tarpit::net::ConnectTcp("127.0.0.1", port);
    if (!cfd.ok()) std::abort();
    tarpit::net::UniqueFd fd(*cfd);
    (void)tarpit::net::SetNoDelay(fd.get());
    char buf[16384];
    for (const CodecPair& f : frames) {
      std::string request;
      tarpit::net::AppendFrame(&request, f.type, f.payload);
      const int64_t a = NowNs();
      if (!SendAll(fd.get(), request)) std::abort();
      size_t got = 0;
      while (got < request.size()) {
        const ssize_t n = ::recv(fd.get(), buf, sizeof buf, 0);
        if (n <= 0) std::abort();
        got += static_cast<size_t>(n);
      }
      us.push_back(NsTo(NowNs() - a, 1e3));
    }
  }  // Closing the client ends the echo thread.
  echo.join();
  ReplaySpan(log, "net.echo_replay", t0, NowNs());
  const Quantile p50 = Summarize(std::move(us)).first;
  sheet->SetQuantile("net.echo_p50_us", p50);
  return p50.value;
}

int64_t SeriesSum(const tarpit::obs::RegistrySnapshot& snap,
                  const std::string& name) {
  int64_t total = 0;
  for (const auto& m : snap.metrics) {
    if (m.name == name && m.kind != tarpit::obs::MetricKind::kHistogram) {
      total += m.value;
    }
  }
  return total;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Merged snapshot of every histogram series named `name`.
tarpit::obs::HistogramSnapshot MergedHistogram(
    const tarpit::obs::RegistrySnapshot& snap, const std::string& name) {
  tarpit::obs::HistogramSnapshot out;
  for (const auto& m : snap.metrics) {
    if (m.name != name || m.kind != tarpit::obs::MetricKind::kHistogram) {
      continue;
    }
    const auto& h = m.histogram;
    if (out.count == 0) {
      out = h;
      continue;
    }
    if (h.count == 0 || h.sub_bits != out.sub_bits) continue;
    for (size_t i = 0; i < out.buckets.size() && i < h.buckets.size(); ++i) {
      out.buckets[i] += h.buckets[i];
    }
    out.count += h.count;
    out.sum += h.sum;
    out.min = std::min(out.min, h.min);
    out.max = std::max(out.max, h.max);
  }
  return out;
}

}  // namespace

LayerBaseline TakeBaseline(const tarpit::obs::MetricRegistry& registry,
                           tarpit::ConcurrentProtectedDatabase* db) {
  LayerBaseline b;
  b.snap = registry.Snapshot();
  b.row_hits = db->row_cache_hits();
  b.row_misses = db->row_cache_misses();
  b.epoch_flushes = db->stats_epoch_flushes();
  b.commits = db->mvcc_commits();
  b.batches = db->write_batches();
  b.fences = db->ddl_fences();
  return b;
}

void RegistryLayerMetrics(const tarpit::obs::MetricRegistry& registry,
                          const LayerBaseline& base,
                          tarpit::ConcurrentProtectedDatabase* db,
                          uint64_t reads, uint64_t writes, Sheet* sheet) {
  const auto snap = registry.Snapshot();
  auto delta = [&](const char* name) {
    return static_cast<double>(SeriesSum(snap, name) -
                               SeriesSum(base.snap, name));
  };
  const double hits = static_cast<double>(db->row_cache_hits() - base.row_hits);
  const double misses =
      static_cast<double>(db->row_cache_misses() - base.row_misses);
  sheet->Set("core.row_cache_hit_ratio", Ratio(hits, hits + misses));
  if (auto* sched = db->delay_scheduler()) {
    sheet->Set("core.parked_peak", static_cast<double>(sched->peak_parked()));
  }
  sheet->Set("core.ddl_fences", static_cast<double>(db->ddl_fences() - base.fences));
  const uint64_t batches = db->write_batches() - base.batches;
  if (batches > 0) {
    sheet->Set("core.write_batch_ops",
               Ratio(static_cast<double>(db->mvcc_commits() - base.commits),
                     static_cast<double>(batches)));
  }
  const uint64_t ops = reads + writes;
  sheet->Set("stats.epoch_flushes_per_kop",
             Ratio(static_cast<double>(db->stats_epoch_flushes() -
                                       base.epoch_flushes) *
                       1000.0,
                   static_cast<double>(ops)));

  sheet->Set("defense.escalations",
             delta("tarpit_reputation_escalations_total"));
  if (const auto* m = snap.Find("tarpit_reputation_tracked_principals",
                                {{"scope", "identity"}})) {
    sheet->Set("defense.tracked_principals", static_cast<double>(m->value));
  }

  const double pc_hits = delta("tarpit_plan_cache_hits_total");
  const double pc_misses = delta("tarpit_plan_cache_misses_total");
  if (pc_hits + pc_misses > 0) {
    sheet->Set("sql.plan_cache_hit_ratio",
               Ratio(pc_hits, pc_hits + pc_misses));
  }
  const auto scan = MergedHistogram(snap, "tarpit_scan_batch_rows");
  const auto scan0 = MergedHistogram(base.snap, "tarpit_scan_batch_rows");
  if (scan.count > scan0.count) {
    sheet->Set("sql.scan_rows_per_query",
               Ratio(static_cast<double>(scan.sum - scan0.sum),
                     static_cast<double>(scan.count - scan0.count)));
  }

  const double bp_hits = delta("tarpit_bufferpool_hits_total");
  const double bp_misses = delta("tarpit_bufferpool_misses_total");
  sheet->Set("storage.bufpool_hit_ratio",
             Ratio(bp_hits, bp_hits + bp_misses));
  if (writes > 0) {
    sheet->Set("storage.wal_bytes_per_write",
               Ratio(delta("tarpit_wal_append_bytes_total"),
                     static_cast<double>(writes)));
    const auto fsync = MergedHistogram(snap, "tarpit_wal_fsync_micros");
    const auto fsync0 = MergedHistogram(base.snap, "tarpit_wal_fsync_micros");
    sheet->Set("storage.fsyncs_per_kwrite",
               Ratio(static_cast<double>(fsync.count - fsync0.count) * 1000.0,
                     static_cast<double>(writes)));
    if (fsync.count > 0) {
      sheet->Set("storage.fsync_p99_us", fsync.Quantile(0.99));
    }
  }
  sheet->Set("storage.reclaim_passes",
             delta("tarpit_mvcc_reclaim_passes_total"));
}

void ReportSpans(const Args& args, const SpanLog& log, uint64_t requests) {
  const std::string path = args.out_dir + "/trace_" + args.workload + "_" +
                           std::to_string(args.seed) + ".json";
  const bool wrote = log.WriteChromeTrace(path);
  std::printf("# trace: %zu spans (%llu dropped) -> %s%s\n",
              log.spans().size(),
              static_cast<unsigned long long>(log.dropped()), path.c_str(),
              wrote ? "" : " (write failed)");
  std::printf("# layer self time (span minus the child spans it covers):\n");
  for (const auto& [layer, ns] : log.LayerSelfTimes()) {
    std::printf("#   %-10s %12.3f ms total  %10.3f us/request\n",
                layer.c_str(), static_cast<double>(ns) / 1e6,
                requests == 0 ? 0.0
                              : static_cast<double>(ns) / 1e3 /
                                    static_cast<double>(requests));
  }
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <extract_sim|point_read_sim|"
               "point_read_async|wire_sql_mixed> --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  UseTightTimers();  // The main thread is every workload's generator.
  Args args;
  args.out_dir = ".bench_out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--out") {
      args.out_dir = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || !(args.seconds > 0)) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.out_dir.c_str());
    return 1;
  }

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Sheet sheet;
  Outcomes outcomes;
  bool ok = false;
  if (args.workload == "point_read_async") {
    ok = RunPointReadAsync(args, &sheet, &outcomes);
  } else if (args.workload == "wire_sql_mixed") {
    ok = RunWireSqlMixed(args, &sheet, &outcomes);
  } else if (args.workload == "extract_sim") {
    ok = RunExtractSim(args, &sheet, &outcomes);
  } else if (args.workload == "point_read_sim") {
    ok = RunPointReadSim(args, &sheet, &outcomes);
  } else {
    return Usage();
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: set-up failed\n");
    return 1;
  }
  if (!args.trace) sheet.Set("peak_rss_mb", PeakRssMb());

  const auto& specs = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::printf("# %s metrics:\n", args.trace ? "per-layer" : "end-to-end");
  if (!sheet.Print(specs, /*require_all=*/!args.trace)) {
    std::fprintf(stderr, "perfbench: an end-to-end metric is missing or 0\n");
    return 1;
  }
  const auto& ungated = UngatedMetrics();
  if (std::any_of(ungated.begin(), ungated.end(),
                  [&](const MetricSpec& m) { return sheet.Has(m.name); })) {
    std::printf("# reported by this workload, not in BENCHMARK.json:\n");
    sheet.Print(ungated, /*require_all=*/false, /*skip_missing=*/true);
  }
  std::printf("# outcomes: attempted=%llu failed=%llu",
              static_cast<unsigned long long>(outcomes.attempted),
              static_cast<unsigned long long>(outcomes.failed()));
  for (int i = 1; i < static_cast<int>(Failure::kCount); ++i) {
    std::printf(" %s=%llu", FailureName(static_cast<Failure>(i)),
                static_cast<unsigned long long>(outcomes.by_kind[i]));
  }
  std::printf("\n");
  if (outcomes.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation attempted\n");
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              outcomes.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(outcomes.attempted),
              static_cast<unsigned long long>(outcomes.failed()),
              sheet.Json(specs).c_str());
  return 0;
}
