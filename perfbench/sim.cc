// The closed-loop, virtual-clock workloads. One thread replays a fixed
// request list through the blocking door GetByKey(key, who) and
// ExecuteSql on a VirtualClock: stalls are charged in virtual time and
// return at once, so wall time is engine cost alone and the charges are
// a pure function of the seed. Each repetition rebuilds the database and
// replays the same list, so its charges must repeat exactly.
//
// extract_sim: the paper's defense result. Benign users replay the
// box-office-like trace (634 films, weekly popularity churn, one weekly
// gross update per film on sale); halfway through the year a sequential
// extractor (one identity) and then a Sybil fleet (identities rotated
// every 20 queries across eight /24s) each sweep the whole table. Beta 1
// puts the rank index on the path, so `stats`, `defense` and pricing
// dominate.
//
// point_read_sim: the benign priced path of point_read_async without the
// real clock. Calgary-like keys (12,179 objects, Zipf 1.5) read by 1,000
// benign principals; the trace has no writes, so neither has the
// workload. Beta 0 keeps the rank index off the path, so `core` compute
// and `defense` pricing dominate.
//
// The traced run also replays the workload on the real clock, which the
// virtual-clock door never reaches: the benign charges it received are
// parked on a DelayScheduler wheel, and sampled requests make serial
// FrameClient round trips to a TarpitServer over a replica of its table.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/clock.h"
#include "common/random.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "workload/boxoffice_trace.h"
#include "workload/calgary_trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tarpit::ConcurrentProtectedDatabase;
using tarpit::RequestPrincipal;

constexpr size_t kPrincipals = 1'000;
constexpr int kMinReps = 3;
/// Offered rate of the real-clock replays (the wheel's Submit calls and
/// the no-op floor pass that checks their pacing).
constexpr double kReplayQps = 1'000;
/// Requests sampled evenly from the list for each real-clock replay.
constexpr size_t kReplayOps = 3'000;
/// The wire replay's one connection says Hello as this identity.
constexpr uint64_t kWireIdentity = 7;
/// One request of the replay, in the order it is issued.
struct Request {
  enum Kind : uint8_t { kBenign, kExtractor, kSybil, kUpdate } kind;
  int64_t key = 0;
  RequestPrincipal who;
  int64_t at_micros = 0;  // Virtual time it is due (benign and updates).
  double value = 0;       // New column value, kUpdate only.
};

/// A workload: the table, the policy, and the request list.
struct Sim {
  std::string name;
  std::string table;
  std::string column;  // The DOUBLE column updates write.
  uint64_t rows = 0;
  tarpit::PopularityDelayParams popularity;
  std::vector<Request> requests;
};

RequestPrincipal Benign(uint64_t p) {
  // One /24 per benign principal: 10.<p>.<p>.0.
  return {1'000 + p, (10u << 24) | (static_cast<uint32_t>(p) << 8)};
}

/// The box-office year's shape is fixed: its default seed draws one
/// 2002-like year, and a different year per seed would swing the request
/// count and the work per request far more than any change under test.
/// The run's seed relabels the films, assigns benign principals and so
/// orders the extractors' sweeps.
Sim MakeExtractSim(uint64_t seed) {
  constexpr int64_t kWeekMicros = 7LL * 24 * 3600 * 1'000'000;
  constexpr uint64_t kSybilRotateEvery = 20;
  constexpr uint32_t kSybilSubnets = 8;
  Sim sim;
  sim.name = "extract_sim";
  sim.table = "films";
  sim.column = "gross";
  sim.popularity.beta = 1.0;
  sim.popularity.scale = 0.01;
  sim.popularity.bounds = {0.0, 10.0};
  tarpit::BoxOfficeTraceConfig cfg;
  tarpit::BoxOfficeTrace trace(cfg);
  sim.rows = cfg.films;
  const auto weeks = trace.GenerateWeeklyRequests();
  tarpit::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 3);
  std::vector<int64_t> label(cfg.films + 1);
  for (uint64_t f = 0; f <= cfg.films; ++f) {
    label[f] = static_cast<int64_t>(f);
  }
  for (uint64_t f = cfg.films; f > 1; --f) {
    std::swap(label[f], label[1 + rng.Uniform(f)]);
  }
  auto& out = sim.requests;
  auto sweep = [&](Request::Kind kind) {
    for (uint64_t key = 1; key <= cfg.films; ++key) {
      Request r{kind, static_cast<int64_t>(key), {}, 0, 0};
      if (kind == Request::kExtractor) {
        r.who = {900'001, (192u << 24) | (168u << 16) | (1u << 8)};
      } else {
        const uint64_t generation = (key - 1) / kSybilRotateEvery;
        r.who = {800'000 + generation,
                 (172u << 24) | (16u << 16) |
                     (static_cast<uint32_t>(generation % kSybilSubnets) << 8)};
      }
      out.push_back(r);
    }
  };
  for (size_t w = 0; w < weeks.size(); ++w) {
    if (w == weeks.size() / 2) {
      sweep(Request::kExtractor);
      sweep(Request::kSybil);
    }
    const int64_t week_start = static_cast<int64_t>(w) * kWeekMicros;
    const auto gross = trace.WeekGross(static_cast<int>(w));
    for (size_t f = 0; f < gross.size(); ++f) {
      if (gross[f] <= 0) continue;
      out.push_back({Request::kUpdate, label[f + 1], {}, week_start,
                     gross[f]});
    }
    const auto& keys = weeks[w];
    for (size_t j = 0; j < keys.size(); ++j) {
      const double at = (static_cast<double>(j) + 0.5) *
                        static_cast<double>(kWeekMicros) /
                        static_cast<double>(keys.size());
      out.push_back({Request::kBenign, label[static_cast<size_t>(keys[j])],
                     Benign(rng.Uniform(kPrincipals)),
                     week_start + static_cast<int64_t>(at), 0});
    }
  }
  return sim;
}

/// The Calgary-like trace at its own request rate (725,091 requests a
/// year), cut to the first kRequests, every one a read.
Sim MakePointReadSim(uint64_t seed) {
  constexpr uint64_t kRequests = 40'000;
  Sim sim;
  sim.name = "point_read_sim";
  sim.table = "objects";
  sim.column = "size";
  // d(key) = 1 s / count(key): a key seen 1,000 times costs 1 ms.
  sim.popularity.beta = 0.0;
  sim.popularity.scale = 1.0;
  sim.popularity.bounds = {0.0, 0.010};
  tarpit::CalgaryTraceConfig cfg;
  sim.rows = cfg.objects;
  cfg.duration_seconds *= static_cast<double>(kRequests) /
                          static_cast<double>(cfg.requests);
  cfg.requests = kRequests;
  cfg.seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  tarpit::Rng rng(seed ^ 0x5EED0001ULL);
  const auto trace = tarpit::CalgaryTrace(cfg).Generate();
  for (const auto& t : trace) {
    sim.requests.push_back({Request::kBenign, t.key,
                            Benign(rng.Uniform(kPrincipals)),
                            static_cast<int64_t>(t.time_seconds * 1e6), 0});
  }
  return sim;
}

std::string UpdateSql(const Sim& sim, const Request& r) {
  return "UPDATE " + sim.table + " SET " + sim.column + " = " +
         std::to_string(r.value) + " WHERE id = " + std::to_string(r.key);
}

struct Env {
  tarpit::VirtualClock clock;
  tarpit::RealClock real_clock;  // The replica's.
  tarpit::obs::MetricRegistry registry;
  std::unique_ptr<tarpit::ReputationStore> reputation;
  std::unique_ptr<ConcurrentProtectedDatabase> db;
  std::unique_ptr<tarpit::net::TarpitServer> server;  // Replica only.
  std::string dir;

  ~Env() {
    if (server) server->Stop();
    server.reset();
    db.reset();
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
  }
};

/// Opens the door under `dir_name`, creates and bulk-loads the table and
/// checkpoints. A `replica` runs on the real clock with async stalls, a
/// 0 cap (every charge is zero) and a TarpitServer in front.
bool Setup(const Args& args, const Sim& sim, const std::string& dir_name,
           bool replica, Env* env) {
  env->dir = args.out_dir + "/" + sim.name + "_" + dir_name;
  std::error_code ec;
  fs::remove_all(env->dir, ec);
  fs::create_directories(env->dir);
  tarpit::ReputationOptions ropts;
  ropts.metrics = &env->registry;
  env->reputation = std::make_unique<tarpit::ReputationStore>(ropts);
  tarpit::ProtectedDatabaseOptions dopts;
  dopts.mode = tarpit::DelayMode::kAccessPopularity;
  dopts.popularity = sim.popularity;
  if (replica) dopts.popularity.bounds = {0.0, 0.0};
  dopts.decay_per_request = 1.0;
  dopts.metrics = &env->registry;
  tarpit::ConcurrentDatabaseOptions copts;
  copts.async_stalls = replica;
  copts.reputation = env->reputation.get();
  copts.metrics = &env->registry;
  tarpit::Clock* clock = replica ? static_cast<tarpit::Clock*>(&env->real_clock)
                                 : &env->clock;
  auto opened = ConcurrentProtectedDatabase::Open(env->dir, sim.table, clock,
                                                  dopts, copts);
  if (!opened.ok()) return false;
  env->db = std::move(*opened);
  if (!env->db
           ->ExecuteSql("CREATE TABLE " + sim.table + " (id INT PRIMARY KEY, " +
                        sim.column + " DOUBLE)")
           .ok()) {
    return false;
  }
  for (uint64_t id = 1; id <= sim.rows; ++id) {
    if (!env->db
             ->BulkLoadRow({tarpit::Value(static_cast<int64_t>(id)),
                            tarpit::Value(0.0)})
             .ok()) {
      return false;
    }
  }
  if (!env->db->Checkpoint().ok()) return false;
  if (!replica) return true;
  tarpit::net::TarpitServerOptions sopts;
  sopts.enable_http = false;
  sopts.num_event_loops = 1;  // One serial connection.
  sopts.reputation = env->reputation.get();
  sopts.metrics = &env->registry;
  env->server = std::make_unique<tarpit::net::TarpitServer>(
      env->db.get(), clock, sopts);
  return env->server->Start().ok();
}

/// What one repetition charged and measured.
struct Rep {
  double setup_s = 0;
  double wall_s = 0;
  size_t requests = 0;
  double extract_s = 0, sybil_s = 0, benign_s = 0;
  std::vector<double> served_us, write_us, benign_charge_us;
  std::vector<Span> spans;  // Filled only when tracing...
  LayerBaseline base;       // ...as are the end-of-set-up baseline
  int64_t live_versions_peak = 0;  // and the MVCC high-water mark.
};

/// Replays the request list once on `env`, timing every door call on
/// the wall clock and checking it on the virtual one.
void Replay(Env* env, const Sim& sim, bool trace, Rep* rep,
            Outcomes* outcomes) {
  const double door_before = env->db->Metrics().total_delay_seconds;
  double client = 0;
  tarpit::obs::Gauge* live =
      env->registry.GetGauge("tarpit_mvcc_live_versions");
  const int64_t t_start = NowNs();
  for (size_t i = 0; i < sim.requests.size(); ++i) {
    const Request& r = sim.requests[i];
    if (trace && (i & 255) == 0) {
      rep->live_versions_peak = std::max(rep->live_versions_peak,
                                         live->Value());
    }
    const int64_t t0 = NowNs();
    env->clock.AdvanceToMicros(r.at_micros);
    const int64_t v0 = env->clock.NowMicros();
    const int64_t a = NowNs();
    auto res = r.kind == Request::kUpdate
                   ? env->db->ExecuteSql(UpdateSql(sim, r))
                   : env->db->GetByKey(r.key, r.who);
    const int64_t b = NowNs();
    const int64_t v1 = env->clock.NowMicros();
    bool rows_ok = false;
    double charged = 0;
    if (res.ok()) {
      charged = res->delay_seconds;
      const auto& q = res->result;
      rows_ok = r.kind == Request::kUpdate
                    ? q.affected == 1
                    : q.rows.size() == 1 && q.rows[0][0].AsInt() == r.key;
    }
    // Served short is judged on the virtual clock the stall ran on.
    outcomes->Count(Classify(res.ok(), v0 * 1'000, v1 * 1'000, charged,
                             rows_ok));
    client += charged;
    const double wall_us = NsTo(b - a, 1e3);
    switch (r.kind) {
      case Request::kUpdate:
        rep->write_us.push_back(wall_us);
        break;
      case Request::kExtractor:
        rep->extract_s += charged;
        rep->served_us.push_back(wall_us);
        break;
      case Request::kSybil:
        rep->sybil_s += charged;
        rep->served_us.push_back(wall_us);
        break;
      case Request::kBenign:
        rep->benign_s += charged;
        rep->benign_charge_us.push_back(charged * 1e6);
        rep->served_us.push_back(wall_us);
        break;
    }
    if (trace) {
      rep->spans.push_back({"harness.request", t0, NowNs(), -1, i});
      rep->spans.push_back({"core.get", a, b, -1, i});
    }
  }
  rep->wall_s = NsTo(NowNs() - t_start, 1e9);
  rep->requests = sim.requests.size();
  const double door = env->db->Metrics().total_delay_seconds - door_before;
  if (!LedgerAgrees(client, door)) {
    std::printf("# ledger: client %.6f s, door %.6f s -> MISMATCH\n", client,
                door);
    outcomes->AddFailure(Failure::kLedger);
  }
}

/// Runs one repetition on a fresh database.
bool RunRep(const Args& args, const Sim& sim, int index, bool trace, Rep* rep,
            Outcomes* outcomes, std::unique_ptr<Env>* keep = nullptr) {
  auto env = std::make_unique<Env>();
  const int64_t t0 = NowNs();
  if (!Setup(args, sim, std::to_string(index), false, env.get())) {
    return false;
  }
  rep->setup_s = NsTo(NowNs() - t0, 1e9);
  if (trace) rep->base = TakeBaseline(env->registry, env->db.get());
  Replay(env.get(), sim, trace, rep, outcomes);
  if (keep != nullptr) *keep = std::move(env);
  return true;
}

/// A repeat of the same seed must charge bit-for-bit the same.
void CheckRepeat(const Rep& first, const Rep& rep, Outcomes* outcomes) {
  if (rep.extract_s != first.extract_s || rep.sybil_s != first.sybil_s ||
      rep.benign_s != first.benign_s) {
    std::printf("# repeat: charges differ (%.9f/%.9f/%.9f vs "
                "%.9f/%.9f/%.9f s)\n",
                rep.extract_s, rep.sybil_s, rep.benign_s, first.extract_s,
                first.sybil_s, first.benign_s);
    outcomes->AddFailure(Failure::kNotRepeated);
  }
}

void PrintDefense(const Rep& rep) {
  std::printf("# defense: extract_charged_h %.6f h, sybil_charged_h %.6f h, "
              "benign_charge_p50_us %.3f us (median of %zu benign "
              "requests)\n",
              rep.extract_s / 3600, rep.sybil_s / 3600,
              MedianValue(rep.benign_charge_us), rep.benign_charge_us.size());
}

bool RunUntraced(const Args& args, const Sim& sim, Sheet* sheet,
                 Outcomes* outcomes) {
  // Each repetition is one segment of the summary. Its samples are
  // dropped once it is summarized, so peak memory does not grow with
  // the number of repetitions the host fits into the run.
  Rep first;
  std::vector<double> setup, throughput;
  std::vector<Segmented> served, served99, writes;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  for (int i = 0; i < kMinReps || NowNs() < deadline; ++i) {
    Rep rep;
    if (!RunRep(args, sim, i, false, &rep, outcomes)) return false;
    setup.push_back(rep.setup_s);
    throughput.push_back(static_cast<double>(rep.requests) / rep.wall_s);
    served.push_back(SummarizeSegment(rep.served_us, kGateTailQ));
    served99.push_back(SummarizeSegment(rep.served_us, 0.99));
    writes.push_back(SummarizeSegment(std::move(rep.write_us), kGateTailQ));
    if (i == 0) {
      first = std::move(rep);
    } else {
      CheckRepeat(first, rep, outcomes);
    }
  }
  const std::string reps_note =
      "median of " + std::to_string(setup.size()) + " repetitions";
  sheet->Set("setup_s", MedianValue(setup), reps_note);
  const Segmented sv = CombineSegments(served, kGateTailQ);
  sheet->SetQuantile("served_p50_us", sv.median);
  sheet->SetQuantile("served_p90_us", sv.tail);
  std::printf("# p99 (median over repetitions, not gated): served %.1f us\n",
              CombineSegments(served99, 0.99).tail.value);
  const Segmented wr = CombineSegments(writes, kGateTailQ);
  if (wr.median.n > 0) {
    sheet->SetQuantile("write_p50_us", wr.median);
    sheet->SetQuantile("write_p90_us", wr.tail);
  }
  sheet->Set("throughput_qps", MedianValue(throughput), reps_note);
  PrintDefense(first);
  return true;
}

/// Indices of up to kReplayOps requests spread evenly over `n`.
std::vector<size_t> Sample(size_t n) {
  std::vector<size_t> out;
  const size_t stride = std::max<size_t>(1, n / kReplayOps);
  for (size_t i = 0; i < n && out.size() < kReplayOps; i += stride) {
    out.push_back(i);
  }
  return out;
}

/// core: parks sampled benign charges of the traced repetition, in
/// order and at their own lengths, on the replica's wheel at
/// kReplayQps Poisson arrivals. Sets core.sched_late_p50_us/p99_us
/// (callback - (return + charged)), core.parked_peak and
/// harness.late_p99_us (Submit call - intended time).
void ReplayWheel(tarpit::DelayScheduler* wheel,
                 const std::vector<double>& charges_us, uint64_t seed,
                 Sheet* sheet, Outcomes* outcomes, SpanLog* log) {
  std::vector<double> charges;
  double longest = 0;
  for (size_t i : Sample(charges_us.size())) {
    charges.push_back(charges_us[i] / 1e6);
    longest = std::max(longest, charges.back());
  }
  struct Park {
    int64_t intended = 0, call = 0, ret = 0;
    std::atomic<int64_t> fired{0};  // -1 when cancelled.
  };
  std::vector<Park> parks(charges.size());
  std::atomic<size_t> completed{0};
  const auto sched = PoissonSchedule(kReplayQps, charges.size(), seed);
  const int64_t start = NowNs() + 2'000'000;
  for (size_t k = 0; k < charges.size(); ++k) {
    Park* p = &parks[k];
    p->intended = start + sched[k];
    WaitUntil(p->intended);
    p->call = NowNs();
    wheel->Submit(charges[k], [p, &completed](bool cancelled) {
      p->fired.store(cancelled ? -1 : NowNs(), std::memory_order_release);
      completed.fetch_add(1, std::memory_order_release);
    });
    p->ret = NowNs();
  }
  // A park still pending 10 s past the longest charge is a hang: abort
  // rather than free state a callback may still write.
  const int64_t deadline =
      NowNs() + static_cast<int64_t>((longest + 10.0) * 1e9);
  while (completed.load(std::memory_order_acquire) < parks.size()) {
    if (NowNs() > deadline) {
      std::fprintf(stderr, "perfbench: wheel replay did not drain\n");
      std::abort();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::vector<double> late_us, sched_late_us;
  for (size_t k = 0; k < parks.size(); ++k) {
    const Park& p = parks[k];
    const int64_t fired = p.fired.load(std::memory_order_acquire);
    outcomes->Count(Classify(fired > 0, p.call, fired, charges[k], true));
    late_us.push_back(NsTo(p.call - p.intended, 1e3));
    sched_late_us.push_back(NsTo(fired - p.ret, 1e3) - charges[k] * 1e6);
    // The charged delay itself is the product, not a layer's cost: the
    // spans cover the Submit call and the wheel's lateness past it.
    const int64_t due = p.ret + std::llround(charges[k] * 1e9);
    log->AddTree({"core.submit", p.call, p.ret, -1, k}, {});
    log->AddTree({"core.sched_late", due, std::max(due, fired), -1, k}, {});
  }
  auto [l50, l99] = Summarize(std::move(sched_late_us));
  sheet->SetQuantile("core.sched_late_p50_us", l50);
  sheet->SetQuantile("core.sched_late_p99_us", l99);
  sheet->SetQuantile("harness.late_p99_us",
                     Summarize(std::move(late_us)).second);
  sheet->Set("core.parked_peak", static_cast<double>(wheel->peak_parked()),
             "wheel replay of " + std::to_string(parks.size()) +
                 " benign charges at " +
                 std::to_string(static_cast<int>(kReplayQps)) + " qps");
  std::printf("# wheel replay: %zu benign charges, longest %.6f s\n",
              parks.size(), longest);
}

/// True when a wire response carries what `r` must return: the key's
/// row for a read, one affected row for an update.
bool WireRowsMatch(const Request& r, const tarpit::net::WireResponse& resp) {
  if (r.kind == Request::kUpdate) {
    return resp.text.find("affected=1") != std::string::npos;
  }
  // A header line, then the row; its first field is the id.
  const size_t nl = resp.text.find('\n');
  return resp.row_count == 1 && nl != std::string::npos &&
         std::strtoll(resp.text.c_str() + nl + 1, nullptr, 10) == r.key;
}

/// net and core over the wire: sampled requests make serial FrameClient
/// round trips to the replica's server, then the same requests go
/// through the replica's async door in process. Sets net.rtt_p50_us/
/// p99_us, net.added_p50_us (wire p50 - door p50) and
/// core.zero_hop_p50_us (callback - return; every charge is zero), and
/// returns the received frames for the codec and echo replays.
bool ReplayWire(Env* replica, const Sim& sim, Sheet* sheet,
                Outcomes* outcomes, SpanLog* log,
                std::vector<CodecPair>* frames) {
  using tarpit::net::FrameType;
  const std::vector<size_t> picks = Sample(sim.requests.size());
  std::vector<double> rtt;
  {
    tarpit::net::FrameClient client;
    if (!client.Connect("127.0.0.1", replica->server->port()).ok() ||
        !client.Hello(kWireIdentity).ok()) {
      return false;
    }
    for (size_t i : picks) {
      const Request& r = sim.requests[i];
      const FrameType type =
          r.kind == Request::kUpdate ? FrameType::kQuery : FrameType::kGetKey;
      const std::string payload = r.kind == Request::kUpdate
                                      ? UpdateSql(sim, r)
                                      : tarpit::net::GetKeyPayload(r.key);
      const int64_t t0 = NowNs();
      const bool sent = client.SendFrame(type, payload).ok();
      auto f = client.RecvFrame(10.0);
      const int64_t t1 = NowNs();
      tarpit::net::WireResponse resp;
      const bool ok = sent && f.ok() && f->type == FrameType::kResponse &&
                      tarpit::net::ParseResponse(f->payload, &resp) &&
                      resp.status_code == 0;
      outcomes->Count(Classify(ok, t0, t1,
                               ok ? static_cast<double>(resp.delay_micros) / 1e6
                                  : 0.0,
                               ok && WireRowsMatch(r, resp)));
      rtt.push_back(NsTo(t1 - t0, 1e3));
      log->AddTree({"net.roundtrip", t0, t1, -1, i}, {});
      if (ok) {
        std::string response;
        tarpit::net::AppendFrame(&response, f->type, f->payload);
        frames->push_back({type, payload, std::move(response)});
      }
    }
  }
  std::vector<double> door_us, hop_us;
  const RequestPrincipal who{kWireIdentity, 0x7F000000u};
  for (size_t i : picks) {
    const Request& r = sim.requests[i];
    std::atomic<int64_t> fired{0};
    tarpit::Result<tarpit::ProtectedResult> result =
        tarpit::Status::Internal("unset");
    auto done = [&](tarpit::Result<tarpit::ProtectedResult> res) {
      result = std::move(res);
      fired.store(NowNs(), std::memory_order_release);
    };
    const int64_t t0 = NowNs();
    if (r.kind == Request::kUpdate) {
      replica->db->ExecuteSqlAsync(UpdateSql(sim, r), who, done);
    } else {
      replica->db->GetByKeyAsync(r.key, who, done);
    }
    const int64_t t1 = NowNs();
    int64_t t2 = 0;
    while ((t2 = fired.load(std::memory_order_acquire)) == 0) {
    }
    bool rows_ok = false;
    if (result.ok()) {
      const auto& q = result->result;
      rows_ok = r.kind == Request::kUpdate
                    ? q.affected == 1
                    : q.rows.size() == 1 && q.rows[0][0].AsInt() == r.key;
    }
    outcomes->Count(Classify(result.ok(), t0, t2,
                             result.ok() ? result->delay_seconds : 0.0,
                             rows_ok));
    door_us.push_back(NsTo(t2 - t0, 1e3));
    hop_us.push_back(NsTo(t2 - t1, 1e3));
    log->AddTree({"core.door", t0, t2, -1, i},
                 {{"core.compute", t0, t1, -1, i},
                  {"core.hop", t1, t2, -1, i}});
  }
  auto [rtt50, rtt99] = Summarize(std::move(rtt));
  const double door50 = Summarize(std::move(door_us)).first.value;
  sheet->SetQuantile("net.rtt_p50_us", rtt50);
  sheet->SetQuantile("net.rtt_p99_us", rtt99);
  sheet->Set("net.added_p50_us", rtt50.value - door50,
             "wire p50 minus in-process door p50 on the same requests");
  sheet->SetQuantile("core.zero_hop_p50_us",
                     Summarize(std::move(hop_us)).first);
  std::printf("# wire replay: %zu requests, wire p50 %.1f us, in-process "
              "door p50 %.1f us\n",
              picks.size(), rtt50.value, door50);
  return true;
}

bool RunTraced(const Args& args, const Sim& sim, Sheet* sheet,
               Outcomes* outcomes) {
  // A discarded warm-up repetition first, so neither half of the
  // plain/traced pair runs on a cold process.
  Rep warm;
  if (!RunRep(args, sim, 0, false, &warm, outcomes)) return false;
  Rep plain;
  if (!RunRep(args, sim, 1, false, &plain, outcomes)) return false;
  Rep traced;
  std::unique_ptr<Env> env;
  if (!RunRep(args, sim, 2, true, &traced, outcomes, &env)) return false;
  CheckRepeat(warm, plain, outcomes);
  CheckRepeat(warm, traced, outcomes);
  PrintDefense(traced);
  SpanLog log(traced.spans.size() + 8 * kReplayOps + 64);
  for (size_t i = 0; i + 1 < traced.spans.size(); i += 2) {
    log.AddTree(traced.spans[i], {traced.spans[i + 1]});
  }
  const double thr_plain = static_cast<double>(plain.requests) / plain.wall_s;
  const double thr_traced =
      static_cast<double>(traced.requests) / traced.wall_s;
  sheet->Set("obs.trace_overhead_pct", (thr_plain / thr_traced - 1) * 100,
             "throughput untraced vs traced, after a warm-up repetition");
  sheet->Set("storage.mvcc_live_versions_peak",
             static_cast<double>(traced.live_versions_peak));
  sheet->Set("defense.extract_charged_h", traced.extract_s / 3600);
  sheet->Set("defense.sybil_charged_h", traced.sybil_s / 3600);
  sheet->SetQuantile("defense.benign_charge_p50_us",
                     Summarize(traced.benign_charge_us).first);
  std::vector<double> compute;
  for (size_t i = 1; i < traced.spans.size(); i += 2) {
    compute.push_back(
        NsTo(traced.spans[i].end_ns - traced.spans[i].start_ns, 1e3));
  }
  auto [c50, c99] = Summarize(std::move(compute));
  sheet->SetQuantile("core.compute_p50_us", c50);
  sheet->SetQuantile("core.compute_p99_us", c99);

  std::vector<int64_t> keys;
  std::vector<RequestPrincipal> who;
  std::vector<std::string> statements;
  uint64_t writes = 0;
  for (const Request& r : sim.requests) {
    if (r.kind == Request::kUpdate) {
      ++writes;
      if (statements.size() < 3'000) statements.push_back(UpdateSql(sim, r));
      continue;
    }
    keys.push_back(r.key);
    who.push_back(r.who);
  }
  RegistryLayerMetrics(env->registry, traced.base, env->db.get(), keys.size(),
                       writes, sheet);
  ReplayStats(keys, sim.rows, sim.popularity.beta != 0.0, sheet, &log);
  ReplayReputation(who, keys, sim.rows, sheet, &log);
  tarpit::ProtectedDatabase* inner = env->db->unsafe_inner();
  ReplayPlanCache(inner->raw_database(), statements, sheet, &log);
  ReplayTableGets(inner->table(), keys, sheet, &log);

  // The real-clock replays, on a replica of the table.
  Env replica;
  if (!Setup(args, sim, "replica", true, &replica)) return false;
  if (!CalibrateFloor(kReplayQps, 1.0, args.seed, sheet)) return false;
  ReplayWheel(replica.db->delay_scheduler(), traced.benign_charge_us,
              args.seed, sheet, outcomes, &log);
  std::vector<CodecPair> frames;
  if (!ReplayWire(&replica, sim, sheet, outcomes, &log, &frames)) {
    return false;
  }
  ReplayCodec(frames, sheet, &log);
  ReplayEcho(frames, sheet, &log);
  ReportSpans(args, log, traced.requests);
  return true;
}

bool Run(const Args& args, const Sim& sim, Sheet* sheet, Outcomes* outcomes) {
  std::printf("# %s: %zu requests per repetition over %llu rows\n",
              sim.name.c_str(), sim.requests.size(),
              static_cast<unsigned long long>(sim.rows));
  return args.trace ? RunTraced(args, sim, sheet, outcomes)
                    : RunUntraced(args, sim, sheet, outcomes);
}

}  // namespace

bool RunExtractSim(const Args& args, Sheet* sheet, Outcomes* outcomes) {
  return Run(args, MakeExtractSim(args.seed), sheet, outcomes);
}

bool RunPointReadSim(const Args& args, Sheet* sheet, Outcomes* outcomes) {
  return Run(args, MakePointReadSim(args.seed), sheet, outcomes);
}

}  // namespace perfbench
