// point_read_async: the benign user's priced path. Open loop on the
// real clock; one generator thread calls GetByKeyAsync with a principal
// drawn from ~1,000 benign identities, on keys from the Calgary-like
// trace (12,179 objects, Zipf alpha 1.5: the table fits the row cache).
// Beta = 0 with a scale that charges popular objects below one wheel
// tick and caps at 10 ms, so served latency is charged delay plus tick
// rounding plus dispatch: `core` is loaded heavily, `stats` and
// `defense` lightly, and `net`, `sql` and `storage` are bypassed. The
// trace has no writes, so neither has the workload.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/clock.h"
#include "common/random.h"
#include "workload/calgary_trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tarpit::ConcurrentProtectedDatabase;
using tarpit::ProtectedResult;
using tarpit::RequestPrincipal;
using tarpit::Result;

constexpr uint64_t kObjects = 12'179;
constexpr double kAlpha = 1.5;
constexpr size_t kPrincipals = 1'000;
/// d(key) = kScale / count(key): a key seen 1,000 times costs 1 ms.
constexpr double kScale = 1.0;
constexpr double kCapSeconds = 0.010;
/// Well under the ~10k qps the generator sustains on an idle 4-vCPU
/// host (the door's compute runs on it), so the nominal figures stay
/// off the knee when neighbours steal CPU.
constexpr double kNominalQps = 1'000;
/// max_rate_qps latency limit on the overhead (served - charged) at the
/// ladder's percentile. One wheel tick of rounding is inherent; beyond
/// three is queueing.
constexpr double kOverheadLimitUs = 3'000;
const RateLadder kLadder{500, 1.05, 100};
/// Shares of --seconds: nominal segments, ladder probes (the rest is
/// the floor pass and draining).
constexpr double kNominalShare = 0.45;
constexpr double kLadderShare = 0.45;
constexpr size_t kSegments = 8;
constexpr int kProbes = 7;
constexpr size_t kWarmupRequests = 10'000;
constexpr size_t kStreamLength = 1 << 21;
constexpr int kSetups = 5;

/// The generated inputs: one request stream, consumed in order by
/// every phase of the run.
struct Inputs {
  std::vector<int64_t> keys;
  std::vector<uint16_t> principal;  // Index into the principal table.
  std::vector<RequestPrincipal> principals;
  size_t cursor = 0;

  size_t Next() {
    const size_t i = cursor % keys.size();
    ++cursor;
    return i;
  }
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  tarpit::CalgaryTraceConfig cfg;
  cfg.objects = kObjects;
  cfg.alpha = kAlpha;
  cfg.requests = kStreamLength;
  cfg.seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  for (const auto& r : tarpit::CalgaryTrace(cfg).Generate()) {
    in.keys.push_back(r.key);
  }
  tarpit::Rng rng(seed ^ 0x5EED0001ULL);
  for (size_t i = 0; i < kPrincipals; ++i) {
    // One /24 per benign principal: 10.<i>.<i>.0.
    in.principals.push_back(
        {1'000 + i, (10u << 24) | (static_cast<uint32_t>(i) << 8)});
  }
  in.principal.resize(in.keys.size());
  for (size_t i = 0; i < in.keys.size(); ++i) {
    in.principal[i] = static_cast<uint16_t>(rng.Uniform(kPrincipals));
  }
  return in;
}

/// One door with everything it needs alive.
struct Env {
  tarpit::RealClock clock;
  tarpit::obs::MetricRegistry registry;
  std::unique_ptr<tarpit::ReputationStore> reputation;
  std::unique_ptr<ConcurrentProtectedDatabase> db;
  std::string dir;

  ~Env() {
    db.reset();
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
  }
};

/// One request's timestamps and outcome.
struct Slot {
  int64_t intended = 0;
  int64_t call = 0;
  int64_t ret = 0;
  int64_t done = 0;
  double charged = 0;
  int64_t key = 0;
  Failure failure = Failure::kNone;
};

struct Phase {
  std::vector<Slot> slots;
  double wall_seconds = 0;
  int64_t live_versions_peak = 0;
};

/// Issues one request of the stream through the async door; the
/// completion fills `slot` and bumps `completed`.
void Issue(Env* env, Inputs* in, Slot* slot, std::atomic<size_t>* completed) {
  const size_t i = in->Next();
  slot->key = in->keys[i];
  const RequestPrincipal who = in->principals[in->principal[i]];
  auto done = [slot, completed](Result<ProtectedResult> r) {
    slot->done = NowNs();
    bool rows_ok = false;
    if (r.ok()) {
      slot->charged = r->delay_seconds;
      const auto& q = r->result;
      rows_ok = q.rows.size() == 1 && q.rows[0][0].AsInt() == slot->key;
    }
    slot->failure = Classify(r.ok(), slot->call, slot->done,
                             r.ok() ? r->delay_seconds : 0.0, rows_ok);
    completed->fetch_add(1, std::memory_order_release);
  };
  slot->call = NowNs();
  env->db->GetByKeyAsync(slot->key, who, std::move(done));
  slot->ret = NowNs();
}

/// Waits until `n` completions have landed. A request still pending
/// after 10 s (ten thousand times the cap) is a hang: the run aborts
/// rather than free slots a callback may still write.
void AwaitCompletions(const std::atomic<size_t>& completed, size_t n) {
  const int64_t deadline = NowNs() + 10'000'000'000;
  while (completed.load(std::memory_order_acquire) < n) {
    if (NowNs() > deadline) {
      std::fprintf(stderr, "perfbench: completions did not drain\n");
      std::abort();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Open-loop phase: `rate_qps` Poisson arrivals for `seconds`.
Phase RunPhase(Env* env, Inputs* in, double rate_qps, double seconds,
               uint64_t schedule_seed) {
  Phase ph;
  const auto sched = PoissonSchedule(
      rate_qps, static_cast<size_t>(rate_qps * seconds) + 1, schedule_seed);
  ph.slots.resize(sched.size());
  std::atomic<size_t> completed{0};
  tarpit::obs::Gauge* live =
      env->registry.GetGauge("tarpit_mvcc_live_versions");
  const int64_t start = NowNs() + 2'000'000;
  for (size_t k = 0; k < sched.size(); ++k) {
    Slot* slot = &ph.slots[k];
    slot->intended = start + sched[k];
    WaitUntil(slot->intended);
    Issue(env, in, slot, &completed);
    if ((k & 255) == 0) {
      ph.live_versions_peak = std::max(ph.live_versions_peak, live->Value());
    }
  }
  AwaitCompletions(completed, sched.size());
  ph.wall_seconds = static_cast<double>(NowNs() - start) / 1e9;
  return ph;
}

struct PhaseStats {
  std::vector<double> served_us, overhead_us, compute_us, sched_late_us,
      late_us, charge_us;
  double charged_seconds = 0;
};

PhaseStats Collect(const Phase& ph, Outcomes* outcomes) {
  PhaseStats s;
  for (const Slot& slot : ph.slots) {
    outcomes->Count(slot.failure);
    const double served = NsTo(slot.done - slot.intended, 1e3);
    const double charged_us = slot.charged * 1e6;
    s.charged_seconds += slot.charged;
    s.late_us.push_back(NsTo(slot.call - slot.intended, 1e3));
    s.compute_us.push_back(NsTo(slot.ret - slot.call, 1e3));
    s.served_us.push_back(served);
    s.overhead_us.push_back(served - charged_us);
    s.charge_us.push_back(charged_us);
    s.sched_late_us.push_back(
        NsTo(slot.done - slot.ret, 1e3) - charged_us);
  }
  return s;
}

/// Opens the door, creates and bulk-loads the catalogue, checkpoints
/// and warms popularity, row cache and reputation with the stream.
bool Setup(const Args& args, int index, Inputs* in, Env* env) {
  env->dir = args.out_dir + "/point_read_" + std::to_string(index);
  std::error_code ec;
  fs::remove_all(env->dir, ec);
  fs::create_directories(env->dir);
  tarpit::ReputationOptions ropts;
  ropts.metrics = &env->registry;
  env->reputation = std::make_unique<tarpit::ReputationStore>(ropts);
  tarpit::ProtectedDatabaseOptions dopts;
  dopts.mode = tarpit::DelayMode::kAccessPopularity;
  dopts.popularity.beta = 0.0;
  dopts.popularity.scale = kScale;
  dopts.popularity.bounds = {0.0, kCapSeconds};
  dopts.decay_per_request = 1.0;
  dopts.metrics = &env->registry;
  tarpit::ConcurrentDatabaseOptions copts;
  copts.async_stalls = true;
  copts.reputation = env->reputation.get();
  copts.metrics = &env->registry;
  auto opened = ConcurrentProtectedDatabase::Open(
      env->dir, "objects", &env->clock, dopts, copts);
  if (!opened.ok()) return false;
  env->db = std::move(*opened);
  if (!env->db
           ->ExecuteSql("CREATE TABLE objects (id INT PRIMARY KEY, "
                        "size INT)")
           .ok()) {
    return false;
  }
  tarpit::Rng rng(args.seed + 17);
  for (uint64_t id = 1; id <= kObjects; ++id) {
    const tarpit::Row row = {tarpit::Value(static_cast<int64_t>(id)),
                             tarpit::Value(static_cast<int64_t>(
                                 rng.Uniform(1 << 20)))};
    if (!env->db->BulkLoadRow(row).ok()) return false;
  }
  if (!env->db->Checkpoint().ok()) return false;
  // Warm-up: the stream's first requests, unpaced.
  in->cursor = 0;
  std::vector<Slot> slots(kWarmupRequests);
  std::atomic<size_t> completed{0};
  for (Slot& slot : slots) Issue(env, in, &slot, &completed);
  AwaitCompletions(completed, slots.size());
  for (const Slot& slot : slots) {
    if (slot.failure != Failure::kNone) return false;
  }
  return true;
}

/// Sets the latency metrics from the nominal segments, and reports
/// their p99 (not gated: host pauses decide it) for reference.
void SetServedMetrics(const std::vector<PhaseStats>& segments, Sheet* sheet) {
  std::vector<std::vector<double>> served, overhead;
  for (const PhaseStats& s : segments) {
    served.push_back(s.served_us);
    overhead.push_back(s.overhead_us);
  }
  const Segmented sv = SummarizeSegments(served, kGateTailQ);
  const Segmented ov = SummarizeSegments(overhead, kGateTailQ);
  sheet->SetQuantile("served_p50_us", sv.median);
  sheet->SetQuantile("served_p90_us", sv.tail);
  sheet->SetQuantile("overhead_p50_us", ov.median);
  sheet->SetQuantile("overhead_p90_us", ov.tail);
  std::printf("# p99 (median over segments, not gated): served %.1f us, "
              "overhead %.1f us\n",
              SummarizeSegments(served, 0.99).tail.value,
              SummarizeSegments(overhead, 0.99).tail.value);
}

/// Checks the door's ledger moved by exactly what the client was
/// charged across everything issued since `door_before` was read.
void CheckLedger(Env* env, double door_before, double client_seconds,
                 Outcomes* outcomes) {
  const double door = env->db->Metrics().total_delay_seconds - door_before;
  const bool ok = LedgerAgrees(client_seconds, door);
  std::printf("# ledger: client %.6f s, door %.6f s -> %s\n",
              client_seconds, door, ok ? "agree" : "MISMATCH");
  if (!ok) outcomes->AddFailure(Failure::kLedger);
}

bool RunUntraced(const Args& args, Inputs* in, Sheet* sheet,
                 Outcomes* outcomes) {
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetups; ++i) {
    env.reset();
    auto fresh = std::make_unique<Env>();
    const int64_t t0 = NowNs();
    if (!Setup(args, i, in, fresh.get())) return false;
    setup_s.push_back(NsTo(NowNs() - t0, 1e9));
    env = std::move(fresh);
  }
  sheet->Set("setup_s", MedianValue(setup_s),
             "median of " + std::to_string(kSetups) + " set-ups");
  if (!CalibrateFloor(kNominalQps, 0.03 * args.seconds, args.seed, sheet)) {
    return false;
  }
  const double door_before = env->db->Metrics().total_delay_seconds;
  double client_charged = 0;

  // Nominal-rate segments interleave with the ladder's probes, so both
  // sample the whole run rather than one stretch of it.
  std::vector<PhaseStats> segments;
  double nominal_wall = 0;
  size_t nominal_requests = 0;
  auto next_segment = [&] {
    if (segments.size() >= kSegments) return;
    const Phase ph =
        RunPhase(env.get(), in, kNominalQps,
                 kNominalShare * args.seconds / kSegments,
                 args.seed + 1'000 * segments.size());
    segments.push_back(Collect(ph, outcomes));
    client_charged += segments.back().charged_seconds;
    nominal_wall += ph.wall_seconds;
    nominal_requests += ph.slots.size();
  };
  std::vector<int> probed;
  const double probe_secs = kLadderShare * args.seconds / kProbes;
  const int best = HighestPassingRung(
      kLadder.rungs,
      [&](int k) {
        next_segment();
        const double rate = kLadder.Rate(k);
        const Phase ph = RunPhase(env.get(), in, rate, probe_secs,
                                  args.seed * 131 + static_cast<uint64_t>(k));
        Outcomes probe;
        const PhaseStats ps = Collect(ph, &probe);
        outcomes->Merge(probe);
        client_charged += ps.charged_seconds;
        const RungVerdict v =
            JudgeRung(ps.overhead_us, kOverheadLimitUs, probe.failed() == 0);
        std::printf("# ladder rung %d (%.0f qps): overhead p%g %.1f us, "
                    "-> %s\n",
                    k, rate, v.tail.q * 100, v.tail.value,
                    v.meets ? "meets" : "misses");
        return v.meets;
      },
      &probed);
  while (segments.size() < kSegments) next_segment();
  SetServedMetrics(segments, sheet);
  sheet->Set("throughput_qps",
             static_cast<double>(nominal_requests) / nominal_wall,
             "completed per wall second at the nominal rate");
  if (best < 0) {
    std::fprintf(stderr, "perfbench: even %.0f qps missed the latency "
                 "limit\n", kLadder.Rate(0));
    return false;
  }
  sheet->Set("max_rate_qps", kLadder.Rate(best),
             "rung " + std::to_string(best) + " of a 5% ladder, " +
                 std::to_string(probed.size()) + " probes");
  CheckLedger(env.get(), door_before, client_charged, outcomes);
  return true;
}

bool RunTraced(const Args& args, Inputs* in, Sheet* sheet,
               Outcomes* outcomes) {
  Env env;
  if (!Setup(args, 0, in, &env)) return false;
  if (!CalibrateFloor(kNominalQps, 0.05 * args.seconds, args.seed, sheet)) {
    return false;
  }
  const double door_before = env.db->Metrics().total_delay_seconds;
  double client_charged = 0;
  const size_t stream_from = in->cursor;
  const LayerBaseline base = TakeBaseline(env.registry, env.db.get());

  // Untraced then traced nominal phases: the difference is the
  // tracing's own cost.
  const Phase plain =
      RunPhase(&env, in, kNominalQps, 0.3 * args.seconds, args.seed);
  const PhaseStats ps = Collect(plain, outcomes);
  client_charged += ps.charged_seconds;

  SpanLog log(1 << 20);
  const Phase traced =
      RunPhase(&env, in, kNominalQps, 0.3 * args.seconds, args.seed + 1);
  for (size_t i = 0; i < traced.slots.size(); ++i) {
    const Slot& s = traced.slots[i];
    Span root{"harness.request", s.intended, s.done, -1, i};
    log.AddTree(root, {{"harness.pace", s.intended, s.call, -1, i},
                       {"core.compute", s.call, s.ret, -1, i},
                       {"core.park", s.ret, s.done, -1, i}});
  }
  const PhaseStats ts = Collect(traced, outcomes);
  client_charged += ts.charged_seconds;
  const double plain50 = Summarize(ps.served_us).first.value;
  const double traced50 = Summarize(ts.served_us).first.value;
  sheet->Set("obs.trace_overhead_pct", (traced50 - plain50) / plain50 * 100,
             "served p50 traced vs untraced");
  sheet->Set("storage.mvcc_live_versions_peak",
             static_cast<double>(std::max(plain.live_versions_peak,
                                          traced.live_versions_peak)));

  auto [late50, late99] = Summarize(ts.late_us);
  sheet->SetQuantile("harness.late_p99_us", late99);
  auto [c50, c99] = Summarize(ts.compute_us);
  sheet->SetQuantile("core.compute_p50_us", c50);
  sheet->SetQuantile("core.compute_p99_us", c99);
  auto [l50, l99] = Summarize(ts.sched_late_us);
  sheet->SetQuantile("core.sched_late_p50_us", l50);
  sheet->SetQuantile("core.sched_late_p99_us", l99);
  sheet->SetQuantile("defense.benign_charge_p50_us",
                     Summarize(ts.charge_us).first);

  // Zero-charge hop: DelayScheduler::Submit(0) on the door's wheel,
  // callback time minus return time.
  {
    tarpit::DelayScheduler* wheel = env.db->delay_scheduler();
    std::vector<double> hop;
    const int64_t t0 = NowNs();
    for (int i = 0; i < 2'000; ++i) {
      std::atomic<int64_t> fired{0};
      wheel->Submit(0.0, [&fired](bool) {
        fired.store(NowNs(), std::memory_order_release);
      });
      const int64_t ret = NowNs();
      int64_t at = 0;
      while ((at = fired.load(std::memory_order_acquire)) == 0) {
      }
      hop.push_back(NsTo(at - ret, 1e3));
    }
    log.AddTree({"core.submit_replay", t0, NowNs(), -1, 0}, {});
    sheet->SetQuantile("core.zero_hop_p50_us",
                       Summarize(std::move(hop)).first);
  }

  CheckLedger(&env, door_before, client_charged, outcomes);
  std::vector<int64_t> keys;
  std::vector<RequestPrincipal> who;
  for (size_t c = stream_from; c < in->cursor; ++c) {
    const size_t i = c % in->keys.size();
    keys.push_back(in->keys[i]);
    who.push_back(in->principals[in->principal[i]]);
  }
  ReplayStats(keys, kObjects, /*need_rank=*/false, sheet, &log);
  ReplayReputation(who, keys, kObjects, sheet, &log);
  ReplayTableGets(env.db->unsafe_inner()->table(), keys, sheet, &log);
  RegistryLayerMetrics(env.registry, base, env.db.get(), keys.size(),
                       /*writes=*/0, sheet);
  ReportSpans(args, log, traced.slots.size());
  return true;
}

}  // namespace

bool RunPointReadAsync(const Args& args, Sheet* sheet, Outcomes* outcomes) {
  Inputs in = MakeInputs(args.seed);
  return args.trace ? RunTraced(args, &in, sheet, outcomes)
                    : RunUntraced(args, &in, sheet, outcomes);
}

}  // namespace perfbench
