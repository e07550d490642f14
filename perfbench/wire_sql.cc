// wire_sql_mixed: the undelayed engine-cost path over loopback. Open
// loop; one generator thread drives 4 pipelined connections (each with
// a Hello identity) to a TarpitServer. Mix: 40% kGetKey, 20% pk SELECT,
// 10% "id >= a AND id <= b LIMIT 10", 20% pk UPDATE, 10% INSERT; reads
// near-uniform, update keys Zipf-skewed as in workload/mixed_workload.
// 65,536 rows over a buffer pool ~15x smaller and a small row cache, so
// `net`, `sql` and `storage` (pool misses, B+tree, MVCC group commit,
// WAL) carry the load. The policy is on (stats recorded, reputation
// consulted) with a 0 cap: every charge is zero and the scheduler is
// crossed as a zero-delay hop.

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <deque>
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
#include "net/socket.h"
#include "workload/key_generator.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tarpit::ConcurrentProtectedDatabase;
using tarpit::net::Frame;
using tarpit::net::FrameDecoder;
using tarpit::net::FrameType;
using tarpit::net::WireResponse;

constexpr int64_t kRows = 65'536;
constexpr size_t kConns = 4;
constexpr size_t kHeapPoolPages = 64;
constexpr size_t kIndexPoolPages = 32;
constexpr size_t kRowCachePerShard = 256;
constexpr double kUpdateAlpha = 1.0;
/// Well under the ~6k qps the door sustains on an idle 4-vCPU host, so
/// the nominal figures stay off the knee when neighbours steal CPU.
constexpr double kNominalQps = 600;
/// max_rate_qps latency limit on served latency at the ladder's
/// percentile (every charge is zero).
constexpr double kServedLimitUs = 5'000;
const RateLadder kLadder{500, 1.05, 100};
/// Shares of --seconds: nominal segments, ladder probes (the rest is
/// the floor pass and draining).
constexpr double kNominalShare = 0.45;
constexpr double kLadderShare = 0.45;
constexpr size_t kSegments = 8;
constexpr int kProbes = 7;
/// Local refusal threshold, under the server's 64-frame pipeline cap:
/// an open-loop request that would exceed it counts as a miss.
constexpr size_t kMaxDepth = 48;
constexpr size_t kWarmupOps = 4'000;
constexpr size_t kStreamLength = 1 << 20;
constexpr int kSetups = 3;
const std::string kPad(48, 'p');

enum class Kind : uint8_t { kGetKey, kSelect, kRange, kUpdate, kInsert };

struct Op {
  Kind kind = Kind::kGetKey;
  int64_t key = 0;  // Range start for kRange; unused for kInsert.
  double v = 0;
};

bool IsWrite(Kind k) { return k == Kind::kUpdate || k == Kind::kInsert; }

struct Inputs {
  std::vector<Op> ops;
  size_t cursor = 0;
  int64_t next_insert_id = kRows + 1;

  /// The next op of the stream with its INSERT id assigned.
  Op Next() {
    Op op = ops[cursor % ops.size()];
    ++cursor;
    if (op.kind == Kind::kInsert) op.key = next_insert_id++;
    return op;
  }
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  tarpit::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 7);
  tarpit::UniformKeyGenerator reads(kRows);
  tarpit::ZipfKeyGenerator updates(kRows, kUpdateAlpha);
  in.ops.reserve(kStreamLength);
  for (size_t i = 0; i < kStreamLength; ++i) {
    Op op;
    const uint64_t pick = rng.Uniform(10);
    op.kind = pick < 4   ? Kind::kGetKey
              : pick < 6 ? Kind::kSelect
              : pick < 7 ? Kind::kRange
              : pick < 9 ? Kind::kUpdate
                         : Kind::kInsert;
    switch (op.kind) {
      case Kind::kRange:
        op.key = 1 + static_cast<int64_t>(rng.Uniform(kRows - 20));
        break;
      case Kind::kUpdate:
        op.key = updates.Next(&rng);
        break;
      default:
        op.key = reads.Next(&rng);
    }
    op.v = static_cast<double>(rng.Uniform(1'000'000)) / 8.0;
    in.ops.push_back(op);
  }
  return in;
}

std::string Sql(const Op& op) {
  const std::string k = std::to_string(op.key);
  switch (op.kind) {
    case Kind::kSelect:
      return "SELECT * FROM items WHERE id = " + k;
    case Kind::kRange:
      return "SELECT * FROM items WHERE id >= " + k + " AND id <= " +
             std::to_string(op.key + 100) + " LIMIT 10";
    case Kind::kUpdate:
      return "UPDATE items SET v = " + std::to_string(op.v) +
             " WHERE id = " + k;
    case Kind::kInsert:
      return "INSERT INTO items VALUES (" + k + ", " + std::to_string(op.v) +
             ", '" + kPad + "')";
    case Kind::kGetKey:
      break;
  }
  return "";
}

FrameType TypeOf(const Op& op) {
  return op.kind == Kind::kGetKey ? FrameType::kGetKey : FrameType::kQuery;
}

std::string PayloadOf(const Op& op) {
  return op.kind == Kind::kGetKey ? tarpit::net::GetKeyPayload(op.key)
                                  : Sql(op);
}

/// One request frame, header included.
std::string RequestFrame(const Op& op) {
  std::string out;
  tarpit::net::AppendFrame(&out, TypeOf(op), PayloadOf(op));
  return out;
}

/// True when the rows match what `op` must return: the key's row for
/// point reads, the 10 consecutive ids from the start for the range,
/// "affected=1" for writes.
bool RowsMatch(const Op& op, uint32_t row_count, const std::string& text) {
  if (IsWrite(op.kind)) return text.find("affected=1") != std::string::npos;
  std::vector<int64_t> ids;
  size_t pos = 0;
  std::vector<std::string> lines;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    const size_t end = nl == std::string::npos ? text.size() : nl;
    lines.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  const size_t first = lines.size() == row_count + 1u ? 1 : 0;
  for (size_t i = first; i < lines.size(); ++i) {
    ids.push_back(std::strtoll(lines[i].c_str(), nullptr, 10));
  }
  const size_t want = op.kind == Kind::kRange ? 10 : 1;
  if (row_count != want || ids.size() != want) return false;
  for (size_t i = 0; i < want; ++i) {
    if (ids[i] != op.key + static_cast<int64_t>(i)) return false;
  }
  return true;
}

/// Judges one response frame for `op`.
Failure Judge(const Op& op, const Frame& f, int64_t sent, int64_t done,
              double* charged) {
  WireResponse resp;
  const bool ok = f.type == FrameType::kResponse &&
                  tarpit::net::ParseResponse(f.payload, &resp) &&
                  resp.status_code == 0;
  *charged = ok ? static_cast<double>(resp.delay_micros) / 1e6 : 0.0;
  return Classify(ok, sent, done, *charged,
                  ok && RowsMatch(op, resp.row_count, resp.text));
}

struct Env {
  tarpit::RealClock clock;
  tarpit::obs::MetricRegistry registry;
  std::unique_ptr<tarpit::ReputationStore> reputation;
  std::unique_ptr<ConcurrentProtectedDatabase> db;
  std::unique_ptr<tarpit::net::TarpitServer> server;
  std::vector<tarpit::net::UniqueFd> conns;
  std::string dir;

  ~Env() {
    conns.clear();
    if (server) server->Stop();
    server.reset();
    db.reset();
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
  }
};

/// Blocking read of one frame through `decoder`.
bool RecvFrame(int fd, FrameDecoder* decoder, Frame* out) {
  char buf[4096];
  while (true) {
    switch (decoder->Pop(out)) {
      case FrameDecoder::Next::kFrame:
        return true;
      case FrameDecoder::Next::kError:
        return false;
      case FrameDecoder::Next::kNeedMore:
        break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return false;
    decoder->Feed(buf, static_cast<size_t>(n));
  }
}

/// Connects and says Hello as `identity`.
bool OpenConn(uint16_t port, uint64_t identity, tarpit::net::UniqueFd* out) {
  auto fd = tarpit::net::ConnectTcp("127.0.0.1", port);
  if (!fd.ok()) return false;
  out->Reset(*fd);
  (void)tarpit::net::SetNoDelay(out->get());
  std::string hello;
  tarpit::net::AppendFrame(&hello, FrameType::kHello,
                           tarpit::net::HelloPayload(identity, 0));
  FrameDecoder decoder(1 << 20);
  Frame ack;
  return SendAll(out->get(), hello) &&
         RecvFrame(out->get(), &decoder, &ack) &&
         ack.type == FrameType::kHelloAck;
}

/// One request's timestamps and outcome.
struct Slot {
  Op op;
  int64_t intended = 0, sent = 0, sent_end = 0, done = 0;
  uint32_t depth = 0;  // Outstanding on its connection, itself included.
  double charged = 0;
  bool refused = false;
  Failure failure = Failure::kNone;
  std::string response;  // Raw frame, kept only when asked.
};

struct Phase {
  std::vector<Slot> slots;
  double wall_seconds = 0;
  int64_t live_versions_peak = 0;
};

/// Open-loop phase over the env's pipelined connections.
Phase RunPhase(Env* env, Inputs* in, double rate_qps, double seconds,
               uint64_t schedule_seed, bool keep_responses) {
  Phase ph;
  const auto sched = PoissonSchedule(
      rate_qps, static_cast<size_t>(rate_qps * seconds) + 1, schedule_seed);
  ph.slots.resize(sched.size());
  tarpit::obs::Gauge* live =
      env->registry.GetGauge("tarpit_mvcc_live_versions");
  struct ConnState {
    int fd;
    FrameDecoder decoder{1 << 20};
    std::deque<size_t> pending;
  };
  std::vector<ConnState> conns;
  conns.reserve(env->conns.size());
  for (auto& c : env->conns) {
    conns.emplace_back();
    conns.back().fd = c.get();
  }
  std::vector<pollfd> pfds(conns.size());
  for (size_t c = 0; c < conns.size(); ++c) {
    pfds[c] = {conns[c].fd, POLLIN, 0};
  }

  const int64_t start = NowNs() + 2'000'000;
  for (size_t k = 0; k < sched.size(); ++k) {
    ph.slots[k].intended = start + sched[k];
  }
  size_t next = 0, outstanding = 0;
  const int64_t give_up = start + sched.back() + 10'000'000'000;
  char buf[16384];
  while (next < ph.slots.size() || outstanding > 0) {
    int64_t now = NowNs();
    if (now > give_up) {
      std::fprintf(stderr, "perfbench: responses did not drain\n");
      std::abort();
    }
    if (next < ph.slots.size() && now >= ph.slots[next].intended) {
      Slot& s = ph.slots[next];
      ConnState& c = conns[next % conns.size()];
      s.op = in->Next();
      if (c.pending.size() >= kMaxDepth) {
        s.refused = true;
        s.sent = s.sent_end = s.done = now;
      } else {
        const std::string frame = RequestFrame(s.op);
        s.sent = NowNs();
        if (!SendAll(c.fd, frame)) std::abort();
        s.sent_end = NowNs();
        c.pending.push_back(next);
        s.depth = static_cast<uint32_t>(c.pending.size());
        ++outstanding;
      }
      if ((next & 255) == 0) {
        ph.live_versions_peak = std::max(ph.live_versions_peak, live->Value());
      }
      ++next;
      continue;
    }
    const int64_t wait = next < ph.slots.size()
                             ? ph.slots[next].intended - now
                             : 1'000'000;
    if (wait > kSpinNs) {
      const int64_t ns = wait - kSpinNs;
      timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                  static_cast<long>(ns % 1'000'000'000)};
      if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    }
    for (ConnState& c : conns) {
      while (true) {
        const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
        if (n <= 0) break;
        const int64_t t = NowNs();
        c.decoder.Feed(buf, static_cast<size_t>(n));
        Frame f;
        while (c.decoder.Pop(&f) == FrameDecoder::Next::kFrame) {
          if (f.type == FrameType::kProgress) continue;
          if (c.pending.empty()) std::abort();  // Unsolicited response.
          Slot& s = ph.slots[c.pending.front()];
          c.pending.pop_front();
          --outstanding;
          s.done = t;
          s.failure = Judge(s.op, f, s.sent, s.done, &s.charged);
          if (keep_responses) {
            tarpit::net::AppendFrame(&s.response, f.type, f.payload);
          }
        }
      }
    }
  }
  ph.wall_seconds = static_cast<double>(NowNs() - start) / 1e9;
  return ph;
}

struct PhaseStats {
  std::vector<double> served_us, write_us, late_us, depth;
  double charged_seconds = 0;
  size_t reads = 0, writes = 0, refused = 0;
};

PhaseStats Collect(const Phase& ph, Outcomes* outcomes) {
  PhaseStats s;
  for (const Slot& slot : ph.slots) {
    if (slot.refused) {
      ++s.refused;
      continue;
    }
    outcomes->Count(slot.failure);
    s.charged_seconds += slot.charged;
    const double served = NsTo(slot.done - slot.intended, 1e3);
    s.late_us.push_back(NsTo(slot.sent - slot.intended, 1e3));
    s.depth.push_back(slot.depth);
    s.served_us.push_back(served);
    if (IsWrite(slot.op.kind)) {
      ++s.writes;
      s.write_us.push_back(served);
    } else {
      ++s.reads;
    }
  }
  return s;
}

/// Opens the door, loads the table, checkpoints, starts the server,
/// connects the generator and warms up through a FrameClient.
bool Setup(const Args& args, int index, Inputs* in, Env* env,
           Outcomes* outcomes) {
  env->dir = args.out_dir + "/wire_" + std::to_string(index);
  std::error_code ec;
  fs::remove_all(env->dir, ec);
  fs::create_directories(env->dir);
  tarpit::ReputationOptions ropts;
  ropts.metrics = &env->registry;
  env->reputation = std::make_unique<tarpit::ReputationStore>(ropts);
  tarpit::ProtectedDatabaseOptions dopts;
  dopts.mode = tarpit::DelayMode::kAccessPopularity;
  dopts.popularity.beta = 0.0;
  dopts.popularity.scale = 1.0;
  dopts.popularity.bounds = {0.0, 0.0};
  dopts.decay_per_request = 1.0;
  dopts.table_options.heap_pool_pages = kHeapPoolPages;
  dopts.table_options.index_pool_pages = kIndexPoolPages;
  dopts.metrics = &env->registry;
  tarpit::ConcurrentDatabaseOptions copts;
  copts.async_stalls = true;
  copts.row_cache_capacity_per_shard = kRowCachePerShard;
  copts.reputation = env->reputation.get();
  copts.metrics = &env->registry;
  auto opened = ConcurrentProtectedDatabase::Open(env->dir, "items",
                                                  &env->clock, dopts, copts);
  if (!opened.ok()) return false;
  env->db = std::move(*opened);
  if (!env->db
           ->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE, "
                        "pad TEXT)")
           .ok()) {
    return false;
  }
  for (int64_t id = 1; id <= kRows; ++id) {
    const tarpit::Row row = {tarpit::Value(id),
                             tarpit::Value(static_cast<double>(id) * 0.5),
                             tarpit::Value(kPad)};
    if (!env->db->BulkLoadRow(row).ok()) return false;
  }
  if (!env->db->Checkpoint().ok()) return false;
  tarpit::net::TarpitServerOptions sopts;
  sopts.enable_http = false;
  sopts.reputation = env->reputation.get();
  sopts.metrics = &env->registry;
  env->server = std::make_unique<tarpit::net::TarpitServer>(
      env->db.get(), &env->clock, sopts);
  if (!env->server->Start().ok()) return false;
  env->conns.resize(kConns);
  for (size_t c = 0; c < kConns; ++c) {
    if (!OpenConn(env->server->port(), 1 + c, &env->conns[c])) return false;
  }
  // Warm-up: the stream's first ops, serial, through the stock client.
  tarpit::net::FrameClient client;
  if (!client.Connect("127.0.0.1", env->server->port()).ok() ||
      !client.Hello(kConns + 1).ok()) {
    return false;
  }
  in->cursor = 0;
  in->next_insert_id = kRows + 1;
  for (size_t i = 0; i < kWarmupOps; ++i) {
    const Op op = in->Next();
    const int64_t t0 = NowNs();
    auto r = op.kind == Kind::kGetKey ? client.GetByKey(op.key)
                                      : client.Query(Sql(op));
    const bool ok = r.ok() && r->status_code == 0;
    const Failure f =
        Classify(ok, t0, NowNs(), ok ? r->delay_micros / 1e6 : 0.0,
                 ok && RowsMatch(op, r->row_count, r->text));
    outcomes->Count(f);
    if (f != Failure::kNone) return false;
  }
  return true;
}

void CheckLedger(Env* env, double door_before, double client_seconds,
                 size_t requests, Outcomes* outcomes) {
  const double door = env->db->Metrics().total_delay_seconds - door_before;
  // The wire carries charges rounded up to whole microseconds.
  const bool ok = LedgerAgrees(client_seconds, door, 1e-4,
                               static_cast<double>(requests) * 1e-6);
  std::printf("# ledger: client %.6f s, door %.6f s over %zu requests -> %s\n",
              client_seconds, door, requests, ok ? "agree" : "MISMATCH");
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
    if (!Setup(args, i, in, fresh.get(), outcomes)) return false;
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
  size_t requests = 0;

  // Nominal-rate segments interleave with the ladder's probes, so both
  // sample the whole run rather than one stretch of it.
  std::vector<std::vector<double>> served, writes;
  double nominal_wall = 0;
  size_t nominal_requests = 0;
  bool refused_at_nominal = false;
  auto next_segment = [&] {
    if (served.size() >= kSegments) return;
    const Phase ph =
        RunPhase(env.get(), in, kNominalQps,
                 kNominalShare * args.seconds / kSegments,
                 args.seed + 1'000 * served.size(), false);
    const PhaseStats s = Collect(ph, outcomes);
    refused_at_nominal |= s.refused > 0;
    client_charged += s.charged_seconds;
    requests += s.reads + s.writes;
    served.push_back(s.served_us);
    writes.push_back(s.write_us);
    nominal_wall += ph.wall_seconds;
    nominal_requests += s.reads + s.writes;
  };
  std::vector<int> probed;
  const double probe_secs = kLadderShare * args.seconds / kProbes;
  const int best = HighestPassingRung(
      kLadder.rungs,
      [&](int k) {
        next_segment();
        const double rate = kLadder.Rate(k);
        const Phase ph = RunPhase(env.get(), in, rate, probe_secs,
                                  args.seed * 131 + static_cast<uint64_t>(k),
                                  false);
        Outcomes probe;
        const PhaseStats ps = Collect(ph, &probe);
        outcomes->Merge(probe);
        client_charged += ps.charged_seconds;
        requests += ps.reads + ps.writes;
        const RungVerdict v = JudgeRung(
            ps.served_us, kServedLimitUs,
            probe.failed() == 0 && ps.refused == 0);
        std::printf("# ladder rung %d (%.0f qps): served p%g %.1f us, "
                    "refused %zu -> %s\n",
                    k, rate, v.tail.q * 100, v.tail.value, ps.refused,
                    v.meets ? "meets" : "misses");
        return v.meets;
      },
      &probed);
  while (served.size() < kSegments) next_segment();
  if (refused_at_nominal) {
    std::fprintf(stderr, "perfbench: requests refused at the nominal rate\n");
    return false;
  }
  const Segmented sv = SummarizeSegments(served, kGateTailQ);
  const Segmented wr = SummarizeSegments(writes, kGateTailQ);
  sheet->SetQuantile("served_p50_us", sv.median);
  sheet->SetQuantile("served_p90_us", sv.tail);
  sheet->SetQuantile("write_p50_us", wr.median);
  sheet->SetQuantile("write_p90_us", wr.tail);
  std::printf("# p99 (median over segments, not gated): served %.1f us, "
              "write %.1f us\n",
              SummarizeSegments(served, 0.99).tail.value,
              SummarizeSegments(writes, 0.99).tail.value);
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
  CheckLedger(env.get(), door_before, client_charged, requests, outcomes);
  return true;
}

bool RunTraced(const Args& args, Inputs* in, Sheet* sheet,
               Outcomes* outcomes) {
  Env env;
  if (!Setup(args, 0, in, &env, outcomes)) return false;
  if (!CalibrateFloor(kNominalQps, 0.05 * args.seconds, args.seed, sheet)) {
    return false;
  }
  const double door_before = env.db->Metrics().total_delay_seconds;
  const LayerBaseline base = TakeBaseline(env.registry, env.db.get());
  double client_charged = 0;
  size_t requests = 0;
  uint64_t reads = 0, writes = 0;

  const Phase plain = RunPhase(&env, in, kNominalQps, 0.25 * args.seconds,
                               args.seed, false);
  const PhaseStats ps = Collect(plain, outcomes);
  SpanLog log(1 << 20);
  const Phase traced = RunPhase(&env, in, kNominalQps, 0.25 * args.seconds,
                                args.seed + 1, true);
  for (size_t i = 0; i < traced.slots.size(); ++i) {
    const Slot& s = traced.slots[i];
    if (s.refused) continue;
    log.AddTree({"harness.request", s.intended, s.done, -1, i},
                {{"harness.pace", s.intended, s.sent, -1, i},
                 {"net.send", s.sent, s.sent_end, -1, i},
                 {"net.roundtrip", s.sent_end, s.done, -1, i}});
  }
  const PhaseStats ts = Collect(traced, outcomes);
  for (const PhaseStats* p : {&ps, &ts}) {
    client_charged += p->charged_seconds;
    requests += p->reads + p->writes;
    reads += p->reads;
    writes += p->writes;
  }
  const double plain50 = Summarize(ps.served_us).first.value;
  const double traced50 = Summarize(ts.served_us).first.value;
  sheet->Set("obs.trace_overhead_pct", (traced50 - plain50) / plain50 * 100,
             "served p50 traced vs untraced");
  sheet->SetQuantile("harness.late_p99_us", Summarize(ts.late_us).second);
  sheet->SetQuantile("net.pipeline_depth_p99", Summarize(ts.depth).second);
  sheet->Set("storage.mvcc_live_versions_peak",
             static_cast<double>(std::max(plain.live_versions_peak,
                                          traced.live_versions_peak)));

  std::vector<CodecPair> frames;
  for (const Slot& s : traced.slots) {
    if (s.response.empty() || frames.size() >= 3'000) continue;
    frames.push_back({TypeOf(s.op), PayloadOf(s.op), s.response});
  }
  ReplayCodec(frames, sheet, &log);
  const double echo50 = ReplayEcho(frames, sheet, &log);

  // Serial round trips of the same op mix: over the wire through
  // FrameClient, then in-process through the async door.
  const size_t serial_ops = 3'000;
  const size_t serial_from = in->cursor;
  std::vector<double> rtt;
  {
    tarpit::net::FrameClient client;
    if (!client.Connect("127.0.0.1", env.server->port()).ok() ||
        !client.Hello(kConns + 1).ok()) {
      return false;
    }
    for (size_t i = 0; i < serial_ops; ++i) {
      const Op op = in->Next();
      const int64_t t0 = NowNs();
      auto r = op.kind == Kind::kGetKey ? client.GetByKey(op.key)
                                        : client.Query(Sql(op));
      const int64_t t1 = NowNs();
      const bool ok = r.ok() && r->status_code == 0;
      outcomes->Count(Classify(ok, t0, t1, ok ? r->delay_micros / 1e6 : 0.0,
                               ok && RowsMatch(op, r->row_count, r->text)));
      if (ok) client_charged += r->delay_micros / 1e6;
      ++requests;
      rtt.push_back(NsTo(t1 - t0, 1e3));
    }
  }
  auto [rtt50, rtt99] = Summarize(rtt);
  sheet->SetQuantile("net.rtt_p50_us", rtt50);
  sheet->SetQuantile("net.rtt_p99_us", rtt99);
  std::vector<double> door_us, compute_us, hop_us;
  {
    // Same kinds and keys; the INSERT ids continue past the wire's.
    const tarpit::RequestPrincipal who{kConns + 1, 0x7F000000u};
    in->cursor = serial_from;
    for (size_t i = 0; i < serial_ops; ++i) {
      const Op op = in->Next();
      std::atomic<int64_t> fired{0};
      tarpit::Result<tarpit::ProtectedResult> result =
          tarpit::Status::Internal("unset");
      auto done = [&](tarpit::Result<tarpit::ProtectedResult> r) {
        result = std::move(r);
        fired.store(NowNs(), std::memory_order_release);
      };
      const int64_t t0 = NowNs();
      if (op.kind == Kind::kGetKey) {
        env.db->GetByKeyAsync(op.key, who, done);
      } else {
        env.db->ExecuteSqlAsync(Sql(op), who, done);
      }
      const int64_t t1 = NowNs();
      int64_t t2 = 0;
      while ((t2 = fired.load(std::memory_order_acquire)) == 0) {
      }
      bool rows_ok = false;
      if (result.ok()) {
        client_charged += result->delay_seconds;
        const auto& q = result->result;
        if (IsWrite(op.kind)) {
          rows_ok = q.affected == 1;
        } else {
          const size_t want = op.kind == Kind::kRange ? 10 : 1;
          rows_ok = q.rows.size() == want;
          for (size_t r = 0; rows_ok && r < want; ++r) {
            rows_ok = q.rows[r][0].AsInt() == op.key + static_cast<int64_t>(r);
          }
        }
      }
      outcomes->Count(Classify(result.ok(), t0, t2,
                               result.ok() ? result->delay_seconds : 0.0,
                               rows_ok));
      ++requests;
      door_us.push_back(NsTo(t2 - t0, 1e3));
      compute_us.push_back(NsTo(t1 - t0, 1e3));
      hop_us.push_back(NsTo(t2 - t1, 1e3));
      log.AddTree({"harness.serial", t0, t2, -1, traced.slots.size() + i},
                  {{"core.compute", t0, t1, -1, 0},
                   {"core.park", t1, t2, -1, 0}});
    }
  }
  const double door50 = Summarize(door_us).first.value;
  sheet->Set("net.added_p50_us", rtt50.value - door50,
             "wire p50 minus in-process door p50 on the same ops");
  auto [c50, c99] = Summarize(compute_us);
  sheet->SetQuantile("core.compute_p50_us", c50);
  sheet->SetQuantile("core.compute_p99_us", c99);
  sheet->SetQuantile("core.zero_hop_p50_us", Summarize(hop_us).first);
  std::printf("# serial: wire p50 %.1f us, in-process door p50 %.1f us, "
              "loopback echo p50 %.1f us\n",
              rtt50.value, door50, echo50);
  CheckLedger(&env, door_before, client_charged, requests, outcomes);

  // Replays on the traced phase's inputs, after the server is stopped.
  std::vector<int64_t> keys;
  std::vector<tarpit::RequestPrincipal> who;
  std::vector<std::string> statements;
  for (const Slot& s : traced.slots) {
    if (s.refused) continue;
    if (s.op.kind != Kind::kGetKey && statements.size() < 3'000) {
      statements.push_back(Sql(s.op));
    }
    if (s.op.kind == Kind::kGetKey || s.op.kind == Kind::kSelect) {
      keys.push_back(s.op.key);
      who.push_back({1 + keys.size() % kConns, 0x7F000000u});
    }
  }
  env.conns.clear();
  env.server->Stop();
  RegistryLayerMetrics(env.registry, base, env.db.get(), reads, writes,
                       sheet);
  ReplayStats(keys, kRows, /*need_rank=*/false, sheet, &log);
  ReplayReputation(who, keys, kRows, sheet, &log);
  tarpit::ProtectedDatabase* inner = env.db->unsafe_inner();
  ReplayPlanCache(inner->raw_database(), statements, sheet, &log);
  ReplayTableGets(inner->table(), keys, sheet, &log);
  ReportSpans(args, log, traced.slots.size());
  return true;
}

}  // namespace

bool RunWireSqlMixed(const Args& args, Sheet* sheet, Outcomes* outcomes) {
  Inputs in = MakeInputs(args.seed);
  return args.trace ? RunTraced(args, &in, sheet, outcomes)
                    : RunUntraced(args, &in, sheet, outcomes);
}

}  // namespace perfbench
