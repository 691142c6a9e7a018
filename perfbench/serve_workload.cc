// serve-2view: an in-process serve::Service with two standing WCC views,
// fed by one open-loop generator thread with Poisson arrivals. Each
// ingest goes SerializeRequest -> ParseRequest -> Service::Ingest, and
// each view's ΔQ sink calls SerializeResponse, as the socket server does.
//
// A run is a sequence of windows, each on a fresh service (so every
// window starts from the same history length and the scratch directory
// is emptied between windows):
//   1. latency windows at a fixed rate below the knee (40 batches/s);
//   2. in the traced run, a capacity search: bisection over the offered
//      rate for the highest rate whose notify p99 meets the SLO without
//      a growing backlog;
//   3. overload windows well past the knee (600 batches/s).
// Every latency is timed from the batch's intended send time, fixed up
// front from the seed, so a stalled generator cannot hide queueing.
#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "algos/programs.h"
#include "common/metrics.h"
#include "common/metrics_registry.h"
#include "common/rng.h"
#include "gen/rmat.h"
#include "gen/workload.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "storage/csr.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using itg::Edge;
using itg::serve::Request;
using itg::serve::RequestOp;
using itg::serve::Response;
using itg::serve::ResponseType;

constexpr int kScale = 12;
constexpr size_t kBatchOps = 4;
constexpr int kViews = 2;
constexpr const char* kViewNames[kViews] = {"wcc_a", "wcc_b"};
constexpr double kLatencyRate = 40;    // batches/s, below the knee
constexpr double kOverloadRate = 600;  // batches/s, well past the knee
constexpr double kSloMs = 50;          // notify p99 limit of the capacity search
constexpr double kSearchLo = 20, kSearchHi = 640;
constexpr double kResolution = 1.06;   // stop bisecting at hi/lo <= this
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kLatencyWindows = 4;
constexpr int kOverloadWindows = 6;

// One ΔQ as the sink saw it.
struct Notice {
  uint64_t trace_id;
  int view;
  uint64_t digest;
  uint64_t seq;
  double view_ms;  // the view's RunIncremental time, from the message
  int supersteps;
  Clock::time_point start, end;  // sink entry, after SerializeResponse
};

struct WindowStats {
  double rate = 0;
  double seconds = 0;
  uint64_t sent = 0, failed = 0;
  bool oracle_ok = false;
  double setup_s = 0, create_s = 0, compile_ms = 0;
  std::vector<double> register_ms;
  // Per ΔQ (both views), from the intended send time; kInf = missed.
  std::vector<double> notify_ms;
  std::vector<double> ack_ms, ingest_us, decode_us, encode_us, late_ms;
  std::vector<double> view_ms, supersteps;
  uint64_t backlog_end = 0;
  uint64_t notified_in_window = 0;
  uint64_t ops_notified_in_window = 0;
  uint64_t queue_depth_max = 0;
  uint64_t backpressure_stalls = 0;
  double validate_us_p99 = 0, queue_wait_ms_p99 = 0, apply_ms_p50 = 0,
         view_run_ms_p50 = 0, stream_flush_us_p50 = 0;
  uint64_t ops = 0, disk_growth = 0;
  uint64_t read_bytes = 0, write_bytes = 0, page_reads = 0, hits = 0,
           misses = 0;
  // Traced run: per-batch latency split by tracing, and span coverage.
  std::vector<double> traced_batch_ms, untraced_batch_ms;
  double traced_covered_ms = 0;

  double NotifyP99() const { return Percentile(notify_ms, 99); }
  bool Sustained() const {
    return failed == 0 && oracle_ok && NotifyP99() <= kSloMs &&
           static_cast<double>(backlog_end) <=
               std::ceil(rate * kSloMs / 1e3) + 1;
  }
};

// Percentile from a registry histogram, interpolated linearly inside the
// bucket that holds the rank (the bucket bounds alone would quantize the
// reading to the bucket grid). Histograms of several views are pooled.
double HistPercentile(const std::vector<const itg::Histogram*>& hists,
                      double p) {
  using itg::Histogram;
  uint64_t n = 0;
  for (const Histogram* h : hists) n += h->count();
  if (n == 0) return 0;
  const double rank = p / 100.0 * static_cast<double>(n);
  double cum = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    double c = 0;
    for (const Histogram* h : hists) c += static_cast<double>(h->bucket_count(b));
    if (c == 0) continue;
    if (cum + c >= rank) {
      const double lo = static_cast<double>(Histogram::BucketLowerBound(b));
      const double hi = static_cast<double>(Histogram::BucketUpperBound(b)) + 1;
      return lo + (rank - cum) / c * (hi - lo);
    }
    cum += c;
  }
  return 0;
}

// The samples of several windows as one: latency samples and counts are
// pooled, per-window histogram readings are taken at their median.
WindowStats Pool(const std::vector<WindowStats>& ws) {
  WindowStats p = ws.front();
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  std::vector<double> validate, queue_wait, apply, view_run, flush;
  for (size_t i = 0; i < ws.size(); ++i) {
    const WindowStats& w = ws[i];
    validate.push_back(w.validate_us_p99);
    queue_wait.push_back(w.queue_wait_ms_p99);
    apply.push_back(w.apply_ms_p50);
    view_run.push_back(w.view_run_ms_p50);
    flush.push_back(w.stream_flush_us_p50);
    if (i == 0) continue;
    p.sent += w.sent;
    p.failed += w.failed;
    p.oracle_ok = p.oracle_ok && w.oracle_ok;
    for (auto [to, from] : {std::pair{&p.notify_ms, &w.notify_ms},
                            {&p.ack_ms, &w.ack_ms},
                            {&p.ingest_us, &w.ingest_us},
                            {&p.decode_us, &w.decode_us},
                            {&p.encode_us, &w.encode_us},
                            {&p.late_ms, &w.late_ms},
                            {&p.view_ms, &w.view_ms},
                            {&p.supersteps, &w.supersteps},
                            {&p.traced_batch_ms, &w.traced_batch_ms},
                            {&p.untraced_batch_ms, &w.untraced_batch_ms}}) {
      append(to, *from);
    }
    p.backlog_end += w.backlog_end;
    p.notified_in_window += w.notified_in_window;
    p.ops_notified_in_window += w.ops_notified_in_window;
    p.queue_depth_max = std::max(p.queue_depth_max, w.queue_depth_max);
    p.ops += w.ops;
    p.disk_growth += w.disk_growth;
    p.read_bytes += w.read_bytes;
    p.write_bytes += w.write_bytes;
    p.page_reads += w.page_reads;
    p.hits += w.hits;
    p.misses += w.misses;
    p.traced_covered_ms += w.traced_covered_ms;
  }
  p.validate_us_p99 = Median(validate);
  p.queue_wait_ms_p99 = Median(queue_wait);
  p.apply_ms_p50 = Median(apply);
  p.view_run_ms_p50 = Median(view_run);
  p.stream_flush_us_p50 = Median(flush);
  return p;
}

class ServeBench {
 public:
  ServeBench(const RunConfig& config, SpanLog* spans, PeakRss* peak)
      : config_(config), spans_(spans), peak_(peak) {
    itg::RmatOptions ropt;
    ropt.seed = kGraphSeed;
    all_edges_ = itg::GenerateRmat(kScale, ropt);
    num_vertices_ = itg::RmatVertices(kScale);
    itg::NamedProgram("wcc", &wcc_source_, &wcc_supersteps_);
  }

  // One window on a fresh service: `rate` batches/s for `seconds`.
  // `window` seeds the inputs and the arrival schedule; `traced` turns
  // on spans for every other batch pair (ABBA).
  WindowStats Run(int window, double rate, double seconds, bool traced);

 private:
  const RunConfig& config_;
  SpanLog* spans_;
  PeakRss* peak_;
  std::vector<Edge> all_edges_;
  itg::VertexId num_vertices_ = 0;
  std::string wcc_source_;
  int wcc_supersteps_ = -1;
};

WindowStats ServeBench::Run(int window, double rate, double seconds,
                            bool traced) {
  WindowStats w;
  w.rate = rate;
  w.seconds = seconds;
  const fs::path dir = config_.scratch / ("window" + std::to_string(window));
  fs::remove_all(dir);
  fs::create_directories(dir);

  // ---- inputs (gen: not timed), fixed before the window starts ----
  itg::MutationWorkload workload(all_edges_, 0.9,
                                 PartSeed(config_.seed, window),
                                 /*canonical=*/true);
  itg::Rng rng(config_.seed * 0x9E3779B97F4A7C15ull + window);
  std::vector<double> arrival_s;
  for (double at = 0;;) {
    at += -std::log(1.0 - rng.NextDouble()) / rate;
    if (at >= seconds) break;
    arrival_s.push_back(at);
  }
  std::vector<Request> requests(arrival_s.size());
  std::vector<uint64_t> batch_ops(arrival_s.size(), 0);
  for (size_t i = 0; i < requests.size(); ++i) {
    Request& req = requests[i];
    req.op = RequestOp::kIngest;
    const std::vector<itg::EdgeDelta> batch =
        workload.NextBatch(kBatchOps, kInsertShare);
    // A batch may delete an edge and insert it again. An ingest request
    // carries unordered insert and delete sets, so the pair, a no-op on
    // the graph, is left out.
    for (const itg::EdgeDelta& d : batch) {
      const bool cancelled =
          std::count_if(batch.begin(), batch.end(), [&](const itg::EdgeDelta& o) {
            return o.edge == d.edge;
          }) > 1;
      if (cancelled) continue;
      (d.mult > 0 ? req.inserts : req.deletes).push_back(d.edge);
      ++batch_ops[i];
      ++w.ops;
    }
  }
  const size_t n = requests.size();

  // ---- set-up: service (primary store) + two registered views ----
  itg::MetricsRegistry registry;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Notice> notices;
  auto sink_for = [&](int view) {
    return [&, view](const Response& delta) {
      const auto t0 = Clock::now();
      const std::string line = itg::serve::SerializeResponse(delta);
      const auto t1 = Clock::now();
      std::lock_guard<std::mutex> lock(mu);
      notices.push_back({delta.trace_id, view, delta.digest, delta.seq,
                         delta.seconds * 1e3, delta.supersteps, t0, t1});
      cv.notify_all();
    };
  };
  itg::serve::ServiceOptions sopt;
  sopt.scratch_dir = (dir / "service").string();
  sopt.num_threads = 1;
  sopt.registry = &registry;
  uint64_t register_digest[kViews] = {};
  std::vector<Edge> base = workload.initial_edges();
  const auto s0 = Clock::now();
  auto service_or =
      itg::serve::Service::Create(num_vertices_, std::move(base), sopt);
  const auto s1 = Clock::now();
  if (!service_or.ok()) {
    w.failed = 1;
    return w;
  }
  std::unique_ptr<itg::serve::Service> service = std::move(service_or).value();
  spans_->Add(traced, "serve.Service::Create", "serve", 0, -1, s0, s1);
  w.create_s = MsBetween(s0, s1) / 1e3;
  for (int v = 0; v < kViews; ++v) {
    Request reg;
    reg.op = RequestOp::kRegister;
    reg.query = kViewNames[v];
    reg.program = "wcc";
    reg.symmetric = true;
    const auto r0 = Clock::now();
    const Response ack = service->Register(reg, nullptr);
    const auto r1 = Clock::now();
    spans_->Add(traced, "serve.Register", "serve", 0, -1, r0, r1);
    w.register_ms.push_back(MsBetween(r0, r1));
    register_digest[v] = ack.digest;
    Request sub;
    sub.op = RequestOp::kSubscribe;
    sub.query = kViewNames[v];
    int sub_id = 0;
    const Response sub_ack = service->Subscribe(sub, sink_for(v), &sub_id);
    if (ack.type == ResponseType::kError || sub_ack.type == ResponseType::kError) {
      std::fprintf(stderr, "perfbench: register %s: %s\n", kViewNames[v],
                   ack.message.c_str());
      service->Drain();
      w.failed = 1;
      return w;
    }
  }
  w.setup_s = MsBetween(s0, Clock::now()) / 1e3;
  const uint64_t disk0 = DirBytes(dir);
  const IoSnapshot io0 = IoSnapshot::Take();

  // ---- open loop: one generator thread on the fixed schedule ----
  std::vector<Clock::time_point> intended(n), acked(n);
  std::vector<uint64_t> trace_ids(n, 0);
  std::vector<bool> sent(n, false), ok(n, false), traced_batch(n, false);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::thread generator([&] {
    for (size_t i = 0; i < n; ++i) {
      intended[i] = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(arrival_s[i]));
      std::this_thread::sleep_until(intended[i]);
      const auto t_send = Clock::now();
      // Past the window end the generator stops: what is left unsent is
      // backlog, not load.
      if (t_send > end) break;
      const bool on = traced && (i % 4 == 0 || i % 4 == 3);
      traced_batch[i] = on;
      const int64_t id = static_cast<int64_t>(i);
      const std::string line = itg::serve::SerializeRequest(requests[i]);
      const auto t_ser = Clock::now();
      auto parsed = itg::serve::ParseRequest(line);
      const auto t_parse = Clock::now();
      Response ack;
      if (parsed.ok()) {
        ack = service->Ingest(parsed.value());
      } else {
        ack = itg::serve::MakeError(RequestOp::kIngest, "", "parse_error",
                                    parsed.status().ToString());
      }
      const auto t_ack = Clock::now();
      sent[i] = true;
      acked[i] = t_ack;
      ok[i] = ack.type == ResponseType::kAck;
      trace_ids[i] = ack.trace_id;
      spans_->Add(on, "load.wait", "load", 1, id, intended[i], t_send);
      spans_->Add(on, "load.SerializeRequest", "load", 1, id, t_send, t_ser);
      spans_->Add(on, "protocol.ParseRequest", "protocol", 1, id, t_ser, t_parse);
      spans_->Add(on, "serve.Ingest", "serve", 1, id, t_parse, t_ack);
      w.late_ms.push_back(MsBetween(intended[i], t_send));
      w.decode_us.push_back(MsBetween(t_ser, t_parse) * 1e3);
      w.ingest_us.push_back(MsBetween(t_parse, t_ack) * 1e3);
      w.ack_ms.push_back(MsBetween(intended[i], t_ack));
      if (ok[i]) {
        w.queue_depth_max = std::max<uint64_t>(w.queue_depth_max, ack.queue_depth);
      } else {
        std::fprintf(stderr, "perfbench: ingest %zu rejected: %s %s\n", i,
                     ack.code.c_str(), ack.message.c_str());
      }
    }
  });
  generator.join();

  // ---- drain: wait for every acked batch's ΔQs (not timed) ----
  size_t expected = 0;
  for (size_t i = 0; i < n; ++i) expected += ok[i] ? kViews : 0;
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(20),
                [&] { return notices.size() >= expected; });
  }
  service->Drain();
  const IoSnapshot io1 = IoSnapshot::Take();
  const uint64_t disk1 = DirBytes(dir);
  w.disk_growth = disk1 - std::min(disk0, disk1);
  w.read_bytes = io1.read_bytes - io0.read_bytes;
  w.write_bytes = io1.write_bytes - io0.write_bytes;
  w.page_reads = io1.page_reads - io0.page_reads;
  w.hits = io1.hits - io0.hits;
  w.misses = io1.misses - io0.misses;

  // ---- match ΔQs to batches; latency, backlog and exactly-once ----
  std::map<uint64_t, size_t> batch_of;
  for (size_t i = 0; i < n; ++i) {
    if (ok[i]) batch_of[trace_ids[i]] = i;
  }
  std::vector<std::array<int, kViews>> seen(n, {0, 0});
  std::vector<std::array<Clock::time_point, kViews>> notified(n);
  std::vector<std::array<Clock::time_point, kViews>> sink_start(n);
  uint64_t last_seq[kViews] = {};
  uint64_t last_digest[kViews] = {register_digest[0], register_digest[1]};
  for (const Notice& nt : notices) {
    auto it = batch_of.find(nt.trace_id);
    if (it == batch_of.end()) {
      ++w.failed;  // a ΔQ for no acked batch
      continue;
    }
    const size_t i = it->second;
    ++seen[i][static_cast<size_t>(nt.view)];
    notified[i][static_cast<size_t>(nt.view)] = nt.end;
    sink_start[i][static_cast<size_t>(nt.view)] = nt.start;
    w.encode_us.push_back(MsBetween(nt.start, nt.end) * 1e3);
    w.view_ms.push_back(nt.view_ms);
    w.supersteps.push_back(nt.supersteps);
    if (nt.seq >= last_seq[nt.view]) {
      last_seq[nt.view] = nt.seq;
      last_digest[nt.view] = nt.digest;
    }
    const int64_t id = static_cast<int64_t>(i);
    spans_->Add(traced_batch[i], "protocol.SerializeResponse", "protocol", 2,
                id, nt.start, nt.end);
  }
  for (size_t i = 0; i < n; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(arrival_s[i]));
    bool all = ok[i];
    Clock::time_point last = due;
    for (int v = 0; v < kViews; ++v) {
      const size_t vi = static_cast<size_t>(v);
      if (ok[i] && seen[i][vi] == 1) {
        w.notify_ms.push_back(MsBetween(due, notified[i][vi]));
        last = std::max(last, notified[i][vi]);
      } else {
        all = false;
        if (sent[i]) w.notify_ms.push_back(kInf);
      }
    }
    if (!sent[i]) {
      ++w.backlog_end;  // due inside the window, never sent
      continue;
    }
    ++w.sent;
    if (!all) {
      ++w.failed;  // rejected, or not exactly one ΔQ per view
      ++w.backlog_end;
      continue;
    }
    if (last > end) {
      ++w.backlog_end;
    } else {
      ++w.notified_in_window;
      w.ops_notified_in_window += batch_ops[i];
    }
    if (traced) {
      // The service's own time between the ack and each view's ΔQ, seen
      // from outside: an asynchronous span of the Ingest call.
      const int track = 1000 + static_cast<int>(i % 64);
      const int64_t id = static_cast<int64_t>(i);
      spans_->Add(traced_batch[i], "serve.pipeline", "serve", track, id,
                  acked[i], sink_start[i][0]);
      spans_->Add(traced_batch[i], "serve.pipeline", "serve", track, id,
                  notified[i][0], sink_start[i][1]);
      const double ms = MsBetween(due, last);
      if (traced_batch[i]) {
        w.traced_batch_ms.push_back(ms);
        w.traced_covered_ms += spans_->CoveredMs(id, due, last);
      } else {
        w.untraced_batch_ms.push_back(ms);
      }
    }
  }

  // ---- per-stage histograms the service already keeps ----
  std::vector<const itg::Histogram*> view_run, flush;
  for (const char* v : kViewNames) {
    view_run.push_back(registry.histogram(
        std::string("serve.stage_latency_us.view_run.") + v));
    flush.push_back(registry.histogram(
        std::string("serve.stage_latency_us.stream_flush.") + v));
  }
  w.validate_us_p99 =
      HistPercentile({registry.histogram("serve.stage_latency_us.validate")}, 99);
  w.queue_wait_ms_p99 =
      HistPercentile({registry.histogram("serve.stage_latency_us.queue_wait")},
                     99) / 1e3;
  w.apply_ms_p50 =
      HistPercentile({registry.histogram("serve.stage_latency_us.apply")}, 50) /
      1e3;
  w.view_run_ms_p50 = HistPercentile(view_run, 50) / 1e3;
  w.stream_flush_us_p50 = HistPercentile(flush, 50);
  w.backpressure_stalls = registry.counter("serve.backpressure_stalls")->value();

  // ---- oracle: each view's final digest equals a fresh one-shot ----
  peak_->BeforeOracle();
  std::vector<Edge> edges;
  itg::DynamicGraphStore* primary = service->primary();
  if (primary->MaterializeEdges(primary->pool(), primary->latest(), &edges).ok()) {
    OneShotRef ref = FreshOneShot(wcc_source_, wcc_supersteps_, num_vertices_,
                                  itg::SymmetrizeEdges(edges), 1,
                                  (config_.scratch / "oracle").string());
    w.compile_ms = ref.compile_ms;
    w.oracle_ok = ref.ok;
    for (int v = 0; v < kViews; ++v) {
      w.oracle_ok = w.oracle_ok && last_digest[v] == ref.digest;
    }
  }
  if (!w.oracle_ok) ++w.failed;
  service.reset();
  fs::remove_all(dir);
  peak_->AfterOracle();
  return w;
}

}  // namespace

WorkloadOutput RunServeWorkload(const RunConfig& config) {
  WorkloadOutput out;
  Result& result = out.result;
  SpanLog spans(config.trace);
  PeakRss peak;
  ServeBench bench(config, &spans, &peak);

  // Time split of one run. Short windows on fresh services, several of
  // each kind: one window's pages (about 3.5 MB per batch) are deleted
  // before the kernel starts writing them back, so one window's disk
  // traffic does not slow the next. The capacity search runs in the
  // traced run only: its result spreads too widely across seeds to gate.
  const double latency_s = 0.15 * config.seconds;
  const double probe_s = 0.04 * config.seconds;
  const double overload_s = 0.04 * config.seconds;

  std::vector<WindowStats> windows;
  bool disk_stop = false;
  auto run = [&](double rate, double seconds, bool traced) -> WindowStats {
    if (FreeDiskBytes(config.scratch) < config.disk_floor_bytes) {
      std::fprintf(stderr, "perfbench: free disk below the floor; stopping\n");
      disk_stop = true;
    }
    windows.push_back(disk_stop ? WindowStats{}
                                : bench.Run(static_cast<int>(windows.size()),
                                            rate, seconds, traced));
    WindowStats& w = windows.back();
    if (disk_stop) w.failed = 1;
    std::fprintf(stderr,
                 "perfbench: window %zu rate %.1f/s sent %llu p99 %.2f ms "
                 "backlog %llu failed %llu%s\n",
                 windows.size() - 1, rate,
                 static_cast<unsigned long long>(w.sent), w.NotifyP99(),
                 static_cast<unsigned long long>(w.backlog_end),
                 static_cast<unsigned long long>(w.failed),
                 w.Sustained() ? " sustained" : "");
    return w;
  };

  // Warm-up: the first window of a process also pays for first-touch
  // page faults of the stores' buffer pools, which a long-running
  // service pays once. It is checked like every window but not measured.
  // It runs at the latency windows' rate: an overload window would leave
  // about 1 GB of pages to delete just before they start.
  run(kLatencyRate, overload_s, false);
  std::vector<WindowStats> latency_windows;
  for (int i = 0; i < kLatencyWindows; ++i) {
    latency_windows.push_back(run(kLatencyRate, latency_s, config.trace));
  }
  const WindowStats latency = Pool(latency_windows);
  // Capacity: bisection in log space over [kSearchLo, kSearchHi], with
  // the first latency window as the first probe.
  double lo = kSearchLo, hi = kSearchHi;
  (latency_windows[0].Sustained() ? lo : hi) = kLatencyRate;
  while (config.trace && hi / lo > kResolution && !disk_stop) {
    const double mid = std::sqrt(lo * hi);
    (run(mid, probe_s, false).Sustained() ? lo : hi) = mid;
  }
  std::vector<double> overload_ops_s, overload_bps;
  for (int i = 0; i < kOverloadWindows; ++i) {
    const WindowStats w = run(kOverloadRate, overload_s, false);
    overload_ops_s.push_back(
        Ratio(static_cast<double>(w.ops_notified_in_window), w.seconds));
    overload_bps.push_back(
        Ratio(static_cast<double>(w.notified_in_window), w.seconds));
  }

  std::vector<double> setup_s, create_s, register_ms, compile_ms;
  for (size_t i = 0; i < windows.size(); ++i) {
    const WindowStats& w = windows[i];
    result.attempted += w.sent;
    result.failed += w.failed;
    out.layer.backpressure_stalls += static_cast<double>(w.backpressure_stalls);
    out.layer.oracle_checks += 1;
    if (i == 0) continue;  // the warm-up window
    setup_s.push_back(w.setup_s);
    create_s.push_back(w.create_s);
    compile_ms.push_back(w.compile_ms);
    register_ms.insert(register_ms.end(), w.register_ms.begin(),
                       w.register_ms.end());
  }
  result.correct = result.failed == 0;

  const double capacity = lo;
  EndToEnd& e = out.e2e;
  e.setup_s = Median(setup_s);
  e.latency_ms_p50 = Percentile(latency.notify_ms, 50);
  e.latency_ms_p90 = Percentile(latency.notify_ms, 90);
  e.ops_per_s = Median(overload_ops_s);
  e.disk_bytes_per_op =
      Ratio(static_cast<double>(latency.disk_growth),
            static_cast<double>(latency.ops));
  e.peak_rss_mb = peak.Final();

  PerLayer& l = out.layer;
  const double batches = static_cast<double>(latency.sent);
  l.compile_ms = Median(compile_ms);
  l.create_s = Median(create_s);
  l.apply_ms_p50 = latency.apply_ms_p50;
  l.page_reads_per_step = Ratio(static_cast<double>(latency.page_reads), batches);
  l.pool_hit_rate = Ratio(static_cast<double>(latency.hits),
                          static_cast<double>(latency.hits + latency.misses));
  l.write_bytes_per_op = Ratio(static_cast<double>(latency.write_bytes),
                               static_cast<double>(latency.ops));
  l.read_bytes_per_op = Ratio(static_cast<double>(latency.read_bytes),
                              static_cast<double>(latency.ops));
  l.oneshot_ms = Median(register_ms);
  l.incremental_ms_p50 = Percentile(latency.view_ms, 50);
  l.supersteps_per_step = Ratio(Sum(latency.supersteps),
                                static_cast<double>(latency.supersteps.size()));
  {
    // Each window starts from a fresh service: growth within a window.
    std::vector<double> growth;
    for (const WindowStats& w : latency_windows) {
      growth.push_back(StepGrowth(w.view_ms));
    }
    l.step_growth = Median(growth);
  }
  l.ack_ms_p99 = Percentile(latency.ack_ms, 99);
  l.notify_ms_p99 = latency.NotifyP99();
  l.ingest_us_p99 = Percentile(latency.ingest_us, 99);
  l.validate_us_p99 = latency.validate_us_p99;
  l.queue_wait_ms_p99 = latency.queue_wait_ms_p99;
  l.view_run_ms_p50 = latency.view_run_ms_p50;
  l.stream_flush_us_p50 = latency.stream_flush_us_p50;
  l.queue_depth_max = static_cast<double>(latency.queue_depth_max);
  l.capacity_bps = capacity;
  l.overload_bps = Median(overload_bps);
  l.decode_us_p50 = Percentile(latency.decode_us, 50);
  l.encode_us_p50 = Percentile(latency.encode_us, 50);
  l.gen_late_ms_p99 = Percentile(latency.late_ms, 99);
  if (config.trace) {
    const size_t pairs = std::min(latency.traced_batch_ms.size(),
                                  latency.untraced_batch_ms.size());
    const auto& tr = latency.traced_batch_ms;
    const auto& un = latency.untraced_batch_ms;
    l.trace_overhead_share =
        Ratio(Sum({tr.begin(), tr.begin() + static_cast<long>(pairs)}),
              Sum({un.begin(), un.begin() + static_cast<long>(pairs)})) - 1;
    l.trace_coverage = Ratio(latency.traced_covered_ms, Sum(tr));
    FillTraceShares(spans, Sum(tr), &l);
    if (!config.trace_out.empty() && !spans.WriteChrome(config.trace_out)) {
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   config.trace_out.c_str());
    }
  }
  return out;
}

}  // namespace perfbench
