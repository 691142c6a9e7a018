// The repo benchmark's workload driver. perfbench/run.py builds it and
// runs one workload per process:
//
//   perfbench --workload <wcc-trickle|tc-burst|serve-2view> --seed N
//             --seconds S --trace 0|1 --scratch DIR [--trace-out FILE]
//             [--tiny]
//
// The last line of stdout is the result object. --trace 0 prints the
// end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

using perfbench::EndToEnd;
using perfbench::PerLayer;
using perfbench::Result;

void AddEndToEnd(const EndToEnd& e, Result* r) {
  r->Add("setup_s", e.setup_s, "s");
  r->Add("latency_ms_p50", e.latency_ms_p50, "ms");
  r->Add("latency_ms_p90", e.latency_ms_p90, "ms");
  r->Add("ops_per_s", e.ops_per_s, "1/s");
  r->Add("disk_bytes_per_op", e.disk_bytes_per_op, "B");
  r->Add("peak_rss_mb", e.peak_rss_mb, "MiB");
}

void AddPerLayer(const PerLayer& l, Result* r) {
  r->Add("compiler.compile_ms", l.compile_ms, "ms");
  r->Add("storage.create_s", l.create_s, "s");
  r->Add("storage.apply_ms_p50", l.apply_ms_p50, "ms");
  r->Add("storage.page_reads_per_step", l.page_reads_per_step, "count");
  r->Add("storage.pool_hit_rate", l.pool_hit_rate, "share");
  r->Add("storage.write_bytes_per_op", l.write_bytes_per_op, "B");
  r->Add("storage.read_bytes_per_op", l.read_bytes_per_op, "B");
  r->Add("engine.oneshot_ms", l.oneshot_ms, "ms");
  r->Add("engine.incremental_ms_p50", l.incremental_ms_p50, "ms");
  r->Add("engine.supersteps_per_step", l.supersteps_per_step, "count");
  r->Add("engine.recomputed_vertices_per_step",
         l.recomputed_vertices_per_step, "count");
  r->Add("engine.superstep_share", l.superstep_share, "share");
  r->Add("engine.unattributed_share", l.unattributed_share, "share");
  r->Add("engine.step_growth", l.step_growth, "ratio");
  r->Add("engine.edges_scanned_per_step", l.edges_scanned_per_step, "count");
  r->Add("engine.windows_loaded_per_step", l.windows_loaded_per_step,
         "count");
  r->Add("engine.emissions_per_step", l.emissions_per_step, "count");
  r->Add("engine.delta_walk_emissions_per_step",
         l.delta_walk_emissions_per_step, "count");
  r->Add("engine.prune_share", l.prune_share, "share");
  r->Add("engine.busy_share", l.busy_share, "share");
  r->Add("engine.steals_per_step", l.steals_per_step, "count");
  r->Add("serve.ack_ms_p99", l.ack_ms_p99, "ms");
  r->Add("serve.notify_ms_p99", l.notify_ms_p99, "ms");
  r->Add("serve.ingest_us_p99", l.ingest_us_p99, "us");
  r->Add("serve.validate_us_p99", l.validate_us_p99, "us");
  r->Add("serve.queue_wait_ms_p99", l.queue_wait_ms_p99, "ms");
  r->Add("serve.view_run_ms_p50", l.view_run_ms_p50, "ms");
  r->Add("serve.stream_flush_us_p50", l.stream_flush_us_p50, "us");
  r->Add("serve.queue_depth_max", l.queue_depth_max, "count");
  r->Add("serve.backpressure_stalls", l.backpressure_stalls, "count");
  r->Add("serve.capacity_bps", l.capacity_bps, "1/s");
  r->Add("serve.overload_bps", l.overload_bps, "1/s");
  r->Add("protocol.decode_us_p50", l.decode_us_p50, "us");
  r->Add("protocol.encode_us_p50", l.encode_us_p50, "us");
  r->Add("load.gen_late_ms_p99", l.gen_late_ms_p99, "ms");
  r->Add("oracle.checks", l.oracle_checks, "count");
  r->Add("trace.overhead_share", l.trace_overhead_share, "share");
  r->Add("trace.coverage", l.trace_coverage, "share");
  r->Add("trace.self_share.storage", l.self_share_storage, "share");
  r->Add("trace.self_share.engine", l.self_share_engine, "share");
  r->Add("trace.self_share.serve", l.self_share_serve, "share");
  r->Add("trace.self_share.protocol", l.self_share_protocol, "share");
  r->Add("trace.self_share.load", l.self_share_load, "share");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <wcc-trickle|tc-burst|serve-2view> "
               "--seed N --seconds S --trace 0|1 --scratch DIR "
               "[--trace-out FILE] [--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      config.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--scratch") {
      config.scratch = value;
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (config.scratch.empty() || !(config.seconds > 0)) return Usage();

  perfbench::WorkloadOutput out;
  if (config.workload == "wcc-trickle" || config.workload == "tc-burst") {
    out = perfbench::RunBatchWorkload(config);
  } else if (config.workload == "serve-2view") {
    out = perfbench::RunServeWorkload(config);
  } else {
    return Usage();
  }
  if (config.trace) {
    AddPerLayer(out.layer, &out.result);
  } else {
    AddEndToEnd(out.e2e, &out.result);
  }
  std::printf("%s\n", out.result.ToJson().c_str());
  return 0;
}
