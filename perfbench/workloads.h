// The benchmark's workloads and the metric sets every workload reports.
//
// Every workload fills the same two structs, so a run prints exactly the
// metric names BENCHMARK.json lists. A layer a workload does not exercise
// (the serving pipeline in the batch workloads, the engine's internal
// counters that the serving API does not expose) reads 0.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/types.h"

namespace perfbench {

// The input graphs are fixed datasets (like `--graph rmat:S`); the seed
// picks G_0 out of them and drives the mutation stream.
inline constexpr uint64_t kGraphSeed = 42;
// The paper's 75:25 insert:delete mix.
inline constexpr double kInsertShare = 0.75;

/// Seed of the inputs (G_0 and mutation stream) of part `index` of a run:
/// a batch workload's episode or a serving window. Part 0 uses the run's
/// seed itself. Parts with inputs of their own average the cost
/// differences between inputs within one run.
inline uint64_t PartSeed(uint64_t seed, int index) {
  return seed + 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(index);
}

/// Storage counters the program already exposes, for deltas around the
/// calls the benchmark times.
struct IoSnapshot {
  uint64_t read_bytes, write_bytes, page_reads, hits, misses;
  static IoSnapshot Take() {
    itg::Metrics& m = itg::GlobalMetrics();
    return {m.read_bytes(), m.write_bytes(), m.page_reads(),
            m.registry().counter("buffer_pool.hits")->value(),
            m.registry().counter("buffer_pool.misses")->value()};
  }
};

/// What a user of the system sees. Definitions per workload are in
/// perfbench/README.md.
struct EndToEnd {
  double setup_s = 0;
  double latency_ms_p50 = 0;
  double latency_ms_p90 = 0;
  double ops_per_s = 0;
  double disk_bytes_per_op = 0;
  double peak_rss_mb = 0;
};

/// Single-layer numbers of the traced run.
struct PerLayer {
  double compile_ms = 0;
  double create_s = 0;
  double apply_ms_p50 = 0;
  double page_reads_per_step = 0;
  double pool_hit_rate = 0;
  double write_bytes_per_op = 0;
  double read_bytes_per_op = 0;

  double oneshot_ms = 0;
  double incremental_ms_p50 = 0;
  double supersteps_per_step = 0;
  double recomputed_vertices_per_step = 0;
  double superstep_share = 0;
  double unattributed_share = 0;
  double step_growth = 0;
  double edges_scanned_per_step = 0;
  double windows_loaded_per_step = 0;
  double emissions_per_step = 0;
  double delta_walk_emissions_per_step = 0;
  double prune_share = 0;
  double busy_share = 0;
  double steals_per_step = 0;

  double ack_ms_p99 = 0;
  double notify_ms_p99 = 0;
  double ingest_us_p99 = 0;
  double validate_us_p99 = 0;
  double queue_wait_ms_p99 = 0;
  double view_run_ms_p50 = 0;
  double stream_flush_us_p50 = 0;
  double queue_depth_max = 0;
  double backpressure_stalls = 0;
  double capacity_bps = 0;
  double overload_bps = 0;
  double decode_us_p50 = 0;
  double encode_us_p50 = 0;
  double gen_late_ms_p99 = 0;

  double oracle_checks = 0;
  double trace_overhead_share = 0;
  double trace_coverage = 0;
  /// Self time of each layer's spans as a share of the traced batches'
  /// timed wall time.
  double self_share_storage = 0;
  double self_share_engine = 0;
  double self_share_serve = 0;
  double self_share_protocol = 0;
  double self_share_load = 0;
};

struct WorkloadOutput {
  Result result;
  EndToEnd e2e;
  PerLayer layer;
};

WorkloadOutput RunBatchWorkload(const RunConfig& config);
WorkloadOutput RunServeWorkload(const RunConfig& config);

/// Correctness oracle: digest (and global values) of a fresh one-shot
/// run of `source` over `edges`, in its own store under `dir` (deleted
/// afterwards). Also returns the compile time, so every workload reports
/// the compiler layer.
struct OneShotRef {
  bool ok = false;
  uint64_t digest = 0;
  std::vector<std::vector<double>> globals;
  double compile_ms = 0;
};
OneShotRef FreshOneShot(const std::string& source, int fixed_supersteps,
                        itg::VertexId num_vertices,
                        std::vector<itg::Edge> edges, int threads,
                        const std::string& dir);

/// Fills the per-layer self-time shares from a span log and prints them.
void FillTraceShares(const SpanLog& spans, double traced_wall_ms,
                     PerLayer* layer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
