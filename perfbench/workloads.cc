#include <filesystem>

#include "common/metrics.h"
#include "compiler/compiled_program.h"
#include "engine/engine.h"
#include "storage/graph_store.h"
#include "workloads.h"

namespace perfbench {

OneShotRef FreshOneShot(const std::string& source, int fixed_supersteps,
                        itg::VertexId num_vertices,
                        std::vector<itg::Edge> edges, int threads,
                        const std::string& dir) {
  OneShotRef ref;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    const auto t0 = Clock::now();
    auto program_or = itg::CompileProgram(source);
    ref.compile_ms = MsBetween(t0, Clock::now());
    // A private meter keeps the oracle's I/O out of the system's counters.
    itg::Metrics metrics;
    auto store_or = itg::DynamicGraphStore::Create(
        dir + "/store", num_vertices, std::move(edges), {}, &metrics);
    if (program_or.ok() && store_or.ok()) {
      itg::EngineOptions opt;
      opt.fixed_supersteps = fixed_supersteps;
      opt.record_history = false;
      opt.num_threads = threads;
      itg::Engine engine(store_or.value().get(), program_or.value().get(),
                         opt);
      if (engine.RunOneShot(0).ok()) {
        ref.ok = true;
        ref.digest = engine.ComputeStateDigest();
        for (size_t g = 0; g < program_or.value()->globals.size(); ++g) {
          ref.globals.push_back(engine.GlobalValue(static_cast<int>(g)));
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
  return ref;
}

void FillTraceShares(const SpanLog& spans, double traced_wall_ms,
                     PerLayer* layer) {
  for (const auto& [name, ms] : spans.SelfMsByLayer()) {
    const double share = Ratio(ms, traced_wall_ms);
    if (name == "storage") layer->self_share_storage = share;
    if (name == "engine") layer->self_share_engine = share;
    if (name == "serve") layer->self_share_serve = share;
    if (name == "protocol") layer->self_share_protocol = share;
    if (name == "load") layer->self_share_load = share;
    std::fprintf(stderr, "perfbench: self time %-9s %10.1f ms (%.3f of traced wall)\n",
                 name.c_str(), ms, share);
  }
}

}  // namespace perfbench
