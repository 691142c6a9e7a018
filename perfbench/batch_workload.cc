// wcc-trickle and tc-burst: the engine driven directly, one closed-loop
// batch after another. A step is ApplyMutations of one batch plus the
// RunIncremental that brings the result up to date; the next batch is
// due when the previous step returns.
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "algos/programs.h"
#include "algos/reference.h"
#include "common/metrics.h"
#include "compiler/compiled_program.h"
#include "engine/engine.h"
#include "gen/rmat.h"
#include "gen/workload.h"
#include "storage/csr.h"
#include "storage/graph_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using itg::Edge;
using itg::EdgeDelta;

struct BatchSpec {
  const char* program;  // NamedProgram name
  int scale;            // rmat scale (|V| = 2^(scale-4), |E| = 2^scale)
  size_t batch_ops;     // undirected edge ops per batch
  int threads;
  int setups;           // set-ups per run; setup_s is their median
  // The last `episodes` set-ups each start an episode: a share of the
  // run's steps on that fresh store, from a G_0 and a mutation stream of
  // its own. The store is deleted when the next set-up starts, so the
  // scratch directory holds one episode's pages at a time.
  int episodes;
  int checkpoints;      // oracle checks inside an episode (plus one at its end)
  // Steps per second of --seconds. A run's work is fixed in advance, so
  // a faster program does not reach later, costlier steps than a slower
  // one (a step's cost grows with history); the rate makes a run take
  // about --seconds on a 4-vCPU machine when this benchmark was written.
  double steps_per_second;
};

BatchSpec SpecFor(const RunConfig& config) {
  if (config.workload == "wcc-trickle") {
    return config.tiny ? BatchSpec{"wcc", 12, 4, 1, 2, 2, 1, 50}
                       : BatchSpec{"wcc", 18, 4, 1, 8, 8, 0, 36};
  }
  return config.tiny ? BatchSpec{"tc", 12, 64, 2, 2, 1, 1, 50}
                     : BatchSpec{"tc", 17, 1024, 2, 5, 1, 2, 7.5};
}

// Both directions of every undirected op: the programs model undirected
// graphs as symmetric directed edge pairs.
std::vector<EdgeDelta> Directed(const std::vector<EdgeDelta>& batch) {
  std::vector<EdgeDelta> out;
  out.reserve(batch.size() * 2);
  for (const EdgeDelta& d : batch) {
    out.push_back(d);
    out.push_back({{d.edge.dst, d.edge.src}, d.mult});
  }
  return out;
}

struct System {
  std::unique_ptr<itg::CompiledProgram> program;
  std::unique_ptr<itg::DynamicGraphStore> store;
  std::unique_ptr<itg::Engine> engine;
};

}  // namespace

WorkloadOutput RunBatchWorkload(const RunConfig& config) {
  WorkloadOutput out;
  Result& result = out.result;
  const BatchSpec spec = SpecFor(config);
  SpanLog spans(config.trace);
  PeakRss peak;

  std::string source;
  int supersteps = -1;
  itg::NamedProgram(spec.program, &source, &supersteps);

  // ---- inputs (gen: not timed) ----
  itg::RmatOptions ropt;
  ropt.seed = kGraphSeed;
  const itg::VertexId nv = itg::RmatVertices(spec.scale);
  const std::vector<Edge> all_edges = itg::GenerateRmat(spec.scale, ropt);
  std::unique_ptr<itg::MutationWorkload> workload;
  std::vector<Edge> base;
  auto new_inputs = [&](int episode) {
    workload = std::make_unique<itg::MutationWorkload>(
        all_edges, 0.9, PartSeed(config.seed, episode), /*canonical=*/true);
    base = itg::SymmetrizeEdges(workload->initial_edges());
  };

  itg::EngineOptions eopt;
  eopt.fixed_supersteps = supersteps;
  eopt.num_threads = spec.threads;

  // ---- set-up: compile, store build, one-shot at G_0 ----
  const fs::path sys_dir = config.scratch / "system";
  const fs::path oracle_dir = config.scratch / "oracle";
  std::vector<double> setup_s, compile_ms, create_s, oneshot_ms;
  System sys;
  auto set_up = [&](int k) -> bool {
    sys = System{};
    fs::remove_all(sys_dir);
    fs::create_directories(sys_dir);
    std::vector<Edge> edges = base;
    const auto t0 = Clock::now();
    auto program_or = itg::CompileProgram(source);
    const auto t1 = Clock::now();
    if (!program_or.ok()) return false;
    sys.program = std::move(program_or).value();
    auto store_or = itg::DynamicGraphStore::Create(
        (sys_dir / "store").string(), nv, std::move(edges), {},
        &itg::GlobalMetrics());
    const auto t2 = Clock::now();
    if (!store_or.ok()) return false;
    sys.store = std::move(store_or).value();
    sys.engine = std::make_unique<itg::Engine>(sys.store.get(),
                                               sys.program.get(), eopt);
    const itg::Status s = sys.engine->RunOneShot(0);
    const auto t3 = Clock::now();
    if (!s.ok()) return false;
    spans.Add(true, "compiler.CompileProgram", "compiler", 0, -1, t0, t1);
    spans.Add(true, "storage.Create", "storage", 0, -1, t1, t2);
    spans.Add(true, "engine.RunOneShot", "engine", 0, -1, t2, t3);
    std::fprintf(stderr,
                 "perfbench: set-up %d: compile %.2f ms, store %.3f s, "
                 "one-shot %.1f ms in %d supersteps\n",
                 k, MsBetween(t0, t1), MsBetween(t1, t2) / 1e3,
                 MsBetween(t2, t3), sys.engine->last_stats().supersteps);
    setup_s.push_back(MsBetween(t0, t3) / 1e3);
    compile_ms.push_back(MsBetween(t0, t1));
    create_s.push_back(MsBetween(t1, t2) / 1e3);
    oneshot_ms.push_back(MsBetween(t2, t3));
    return true;
  };

  // Oracle: the incremental state at snapshot t must equal a fresh
  // one-shot over the same snapshot; at the end of an episode also the
  // reference algorithm. Its time is outside every timed metric.
  auto check = [&](itg::Timestamp t, bool final_check) {
    itg::Engine& engine = *sys.engine;
    itg::DynamicGraphStore& store = *sys.store;
    peak.BeforeOracle();
    const auto t0 = Clock::now();
    bool ok = false;
    std::vector<Edge> edges;
    if (store.MaterializeEdges(store.pool(), t, &edges).ok()) {
      OneShotRef ref = FreshOneShot(source, supersteps, nv, edges,
                                    spec.threads, oracle_dir.string());
      ok = ref.ok && ref.digest == engine.ComputeStateDigest();
      for (size_t g = 0; ok && g < ref.globals.size(); ++g) {
        ok = ref.globals[g] == engine.GlobalValue(static_cast<int>(g));
      }
      if (ok && final_check) {
        const itg::Csr graph = itg::Csr::FromEdges(nv, edges);
        if (std::string(spec.program) == "wcc") {
          const auto comp = itg::RefWcc(graph);
          const int attr = engine.AttrIndex("comp");
          for (itg::VertexId v = 0; ok && v < nv; ++v) {
            ok = engine.AttrValue(attr, v) == static_cast<double>(comp[v]);
          }
        } else {
          ok = engine.GlobalValue(engine.GlobalIndex("cnts"))[0] ==
               static_cast<double>(itg::RefTriangleCount(graph));
        }
      }
    }
    spans.Add(true, "oracle.check", "oracle", 0, -1, t0, Clock::now());
    peak.AfterOracle();
    out.layer.oracle_checks += 1;
    if (!ok) {
      result.correct = false;
      result.Fail();
    }
  };

  // ---- timed phase ----
  std::vector<double> apply_ms, incremental_ms, step_ms, growth;
  std::vector<double> traced_ms, untraced_ms;
  double traced_covered_ms = 0;
  double ss_wall_ns = 0, op_wall_ns = 0, busy_ns = 0, run_wall_ns = 0;
  double supersteps_sum = 0, recomputed = 0, edges_scanned = 0, windows = 0,
         emissions = 0, delta_emissions = 0, pruned = 0, steals = 0;
  uint64_t read_bytes = 0, write_bytes = 0, page_reads = 0, hits = 0,
           misses = 0, ops = 0, disk_growth = 0;
  const int64_t num_steps = std::max<int64_t>(
      1, std::llround(spec.steps_per_second * config.seconds));
  const int64_t episode_steps =
      std::max<int64_t>(1, num_steps / spec.episodes);
  // A program several times slower than the seed still ends within the
  // run's time limit; the steps it did not reach are not attempted.
  const double max_timed_ms = 4 * config.seconds * 1e3;
  double timed_ms = 0;
  int64_t step = 0;  // across episodes: the batch id of spans
  bool stop = false;
  for (int k = 0; k < spec.setups && !stop; ++k) {
    const int episode = k - (spec.setups - spec.episodes);
    if (k == 0 || episode > 0) new_inputs(std::max(0, episode));
    if (!set_up(k)) {
      std::fprintf(stderr, "perfbench: set-up %d failed\n", k);
      result.correct = false;
      result.Fail();
      return out;
    }
    if (episode < 0) continue;

    itg::Engine& engine = *sys.engine;
    itg::DynamicGraphStore& store = *sys.store;
    const int walk_op = sys.program->traverse.walk_op;
    const uint64_t disk0 = DirBytes(sys_dir);
    const size_t first_step = step_ms.size();
    int next_checkpoint = 1;
    itg::Timestamp t = 0;
    for (int64_t i = 0; i < episode_steps; ++i, ++step) {
      if (timed_ms >= max_timed_ms) {
        stop = true;
        break;
      }
      if (FreeDiskBytes(config.scratch) < config.disk_floor_bytes) {
        std::fprintf(stderr, "perfbench: free disk below the floor; stopping\n");
        result.Fail();
        stop = true;
        break;
      }
      const std::vector<EdgeDelta> undirected =
          workload->NextBatch(spec.batch_ops, kInsertShare);
      const std::vector<EdgeDelta> batch = Directed(undirected);
      // ABBA order of traced and untraced steps cancels the drift of a
      // step's cost with history out of trace.overhead_share.
      const bool traced = config.trace && (step % 4 == 0 || step % 4 == 3);
      ++result.attempted;
      const IoSnapshot io0 = IoSnapshot::Take();
      const auto ta = Clock::now();
      auto ts_or = store.ApplyMutations(batch);
      const auto tb = Clock::now();
      itg::Status s = ts_or.ok() ? engine.RunIncremental(*ts_or) : ts_or.status();
      const auto tc = Clock::now();
      const IoSnapshot io1 = IoSnapshot::Take();
      if (!s.ok()) {
        std::fprintf(stderr, "perfbench: step %lld failed: %s\n",
                     static_cast<long long>(step), s.ToString().c_str());
        result.correct = false;
        result.Fail();
        stop = true;
        break;
      }
      t = *ts_or;
      spans.Add(traced, "storage.ApplyMutations", "storage", 0, step, ta, tb);
      spans.Add(traced, "engine.RunIncremental", "engine", 0, step, tb, tc);
      const double ms = MsBetween(ta, tc);
      timed_ms += ms;
      ops += undirected.size();
      apply_ms.push_back(MsBetween(ta, tb));
      incremental_ms.push_back(MsBetween(tb, tc));
      step_ms.push_back(ms);
      if (config.trace) {
        (traced ? traced_ms : untraced_ms).push_back(ms);
        if (traced) traced_covered_ms += spans.CoveredMs(step, ta, tc);
      }

      const itg::RunStats& st = engine.last_stats();
      supersteps_sum += st.supersteps;
      recomputed += static_cast<double>(st.recomputed_vertices);
      edges_scanned += static_cast<double>(st.edges_scanned);
      windows += static_cast<double>(st.windows_loaded);
      emissions += static_cast<double>(st.emissions_applied);
      delta_emissions += static_cast<double>(st.delta_walk_emissions);
      pruned += static_cast<double>(st.delta_walks_pruned);
      steals += static_cast<double>(st.steals);
      busy_ns += static_cast<double>(st.busy_nanos);
      run_wall_ns += MsBetween(tb, tc) * 1e6 * st.threads;
      for (const auto& row : engine.last_profile().supersteps()) {
        ss_wall_ns += static_cast<double>(row.wall_nanos);
      }
      for (const auto& [id, entry] : engine.last_profile().ops()) {
        if (id != walk_op) op_wall_ns += static_cast<double>(entry.counters.wall_nanos);
      }
      read_bytes += io1.read_bytes - io0.read_bytes;
      write_bytes += io1.write_bytes - io0.write_bytes;
      page_reads += io1.page_reads - io0.page_reads;
      hits += io1.hits - io0.hits;
      misses += io1.misses - io0.misses;

      if (next_checkpoint <= spec.checkpoints &&
          (i + 1) * (spec.checkpoints + 1) >= episode_steps * next_checkpoint) {
        ++next_checkpoint;
        check(t, /*final_check=*/false);
      }
    }
    const uint64_t disk1 = DirBytes(sys_dir);
    disk_growth += disk1 - std::min(disk0, disk1);
    check(t, /*final_check=*/true);
    growth.push_back(StepGrowth({step_ms.begin() + static_cast<long>(first_step),
                                 step_ms.end()}));
  }
  sys = System{};
  fs::remove_all(sys_dir);
  std::fprintf(stderr,
               "perfbench: %zu steps, step ms p10 %.2f p50 %.2f p75 %.2f "
               "p90 %.2f p99 %.2f\n",
               step_ms.size(), Percentile(step_ms, 10), Percentile(step_ms, 50),
               Percentile(step_ms, 75), Percentile(step_ms, 90),
               Percentile(step_ms, 99));

  const double steps = static_cast<double>(step_ms.size());
  EndToEnd& e = out.e2e;
  e.setup_s = Median(setup_s);
  e.latency_ms_p50 = Percentile(step_ms, 50);
  e.latency_ms_p90 = Percentile(step_ms, 90);
  e.ops_per_s = Ratio(static_cast<double>(ops), timed_ms / 1e3);
  e.disk_bytes_per_op = Ratio(static_cast<double>(disk_growth),
                              static_cast<double>(ops));
  e.peak_rss_mb = peak.Final();

  PerLayer& l = out.layer;
  l.compile_ms = Median(compile_ms);
  l.create_s = Median(create_s);
  l.apply_ms_p50 = Percentile(apply_ms, 50);
  l.page_reads_per_step = Ratio(static_cast<double>(page_reads), steps);
  l.pool_hit_rate = Ratio(static_cast<double>(hits),
                          static_cast<double>(hits + misses));
  l.write_bytes_per_op = Ratio(static_cast<double>(write_bytes),
                               static_cast<double>(ops));
  l.read_bytes_per_op = Ratio(static_cast<double>(read_bytes),
                              static_cast<double>(ops));
  l.oneshot_ms = Median(oneshot_ms);
  l.incremental_ms_p50 = Percentile(incremental_ms, 50);
  l.supersteps_per_step = Ratio(supersteps_sum, steps);
  l.recomputed_vertices_per_step = Ratio(recomputed, steps);
  l.superstep_share = Ratio(ss_wall_ns, Sum(incremental_ms) * 1e6);
  l.unattributed_share = Ratio(ss_wall_ns - op_wall_ns, ss_wall_ns);
  l.step_growth = Median(growth);
  l.edges_scanned_per_step = Ratio(edges_scanned, steps);
  l.windows_loaded_per_step = Ratio(windows, steps);
  l.emissions_per_step = Ratio(emissions, steps);
  l.delta_walk_emissions_per_step = Ratio(delta_emissions, steps);
  l.prune_share = Ratio(pruned, edges_scanned);
  l.busy_share = Ratio(busy_ns, run_wall_ns);
  l.steals_per_step = Ratio(steals, steps);
  if (config.trace) {
    const size_t pairs = std::min(traced_ms.size(), untraced_ms.size());
    const double traced_sum = Sum(traced_ms);
    l.trace_overhead_share =
        Ratio(Sum({traced_ms.begin(), traced_ms.begin() + static_cast<long>(pairs)}),
              Sum({untraced_ms.begin(), untraced_ms.begin() + static_cast<long>(pairs)})) -
        1;
    l.trace_coverage = Ratio(traced_covered_ms, traced_sum);
    FillTraceShares(spans, traced_sum, &l);
    if (!config.trace_out.empty() && !spans.WriteChrome(config.trace_out)) {
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   config.trace_out.c_str());
    }
  }
  if (peak.reset_failed()) {
    std::fprintf(stderr,
                 "perfbench: peak RSS could not be reset; it includes the "
                 "oracle\n");
  }
  return out;
}

}  // namespace perfbench
