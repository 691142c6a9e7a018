// Shared plumbing of the repo benchmark: statistics over samples, the
// result line, the in-memory span log of the traced run, and the
// process/disk probes (peak RSS, directory growth, free disk).
//
// The benchmark measures the program from outside: it only calls public
// functions of the measured modules and times each call itself.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Percentile `p` in [0, 100] with linear interpolation between closest
/// ranks; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}
double Sum(const std::vector<double>& values);
/// Median of the last tenth of a time series over the median of its
/// first tenth: how a step's cost grows with history. 0 below 2 samples.
double StepGrowth(const std::vector<double>& series);

/// Ratio that reads 0 instead of dividing by zero.
inline double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Size of the run and the knobs derived from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test size: tiny graphs and a short run.
  bool tiny = false;
  /// Scratch directory of this run (created and deleted by run.py).
  std::filesystem::path scratch;
  /// Where the traced run writes its Chrome trace (empty = nowhere).
  std::string trace_out;
  /// Free-disk floor: the run stops and counts as failed below it. A
  /// run's scratch directory peaks at about 0.5 GB (perfbench/README.md).
  uint64_t disk_floor_bytes = 1ull << 30;
};

/// The last line a run prints: outcome counts plus named metrics.
class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
  }
  void Fail(uint64_t n = 1) { failed += n; }

  /// One JSON object: correct, attempted, failed, metrics.
  std::string ToJson() const;

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// In-memory spans of the traced run: one per public call the benchmark
/// makes (layer = the module called), tagged with the batch they belong
/// to. Written once at the end in the Chrome trace format that
/// tools/trace_summary.py reads. Disabled logs record nothing.
class SpanLog {
 public:
  struct Span {
    const char* name;
    const char* layer;
    int tid;
    int64_t batch;  // -1 = set-up
    uint64_t start_ns;
    uint64_t end_ns;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Records [a, b] on track `tid` when `on` (and the log is enabled).
  void Add(bool on, const char* name, const char* layer, int tid,
           int64_t batch, Clock::time_point a, Clock::time_point b);

  /// Self time per layer over the spans of batches (set-up and oracle
  /// spans excluded): span duration minus the part covered by spans
  /// nested inside it on the same track.
  std::vector<std::pair<std::string, double>> SelfMsByLayer() const;
  /// Time within [a, b] covered by any span of `batch`.
  double CoveredMs(int64_t batch, Clock::time_point a,
                   Clock::time_point b) const;

  /// Writes {"traceEvents":[...]} to `path`; false on I/O error.
  bool WriteChrome(const std::string& path) const;

 private:
  uint64_t Nanos(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Bytes allocated on disk under `dir` (what du reports).
uint64_t DirBytes(const std::filesystem::path& dir);
/// Free bytes on the file system holding `path`; the largest value when
/// the file system does not say.
uint64_t FreeDiskBytes(const std::filesystem::path& path);

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();
/// Resets the kernel's peak-RSS mark to the current RSS, so memory the
/// correctness oracle used does not count as the system's peak. False
/// when the kernel refuses.
bool ResetPeakRss();

/// Tracks the system's peak RSS across phases separated by oracle runs.
class PeakRss {
 public:
  /// Call before an oracle run: folds the peak so far into the maximum.
  void BeforeOracle() { peak_mb_ = std::max(peak_mb_, PeakRssMb()); }
  /// Call after an oracle run: forgets the oracle's peak.
  void AfterOracle() {
    if (!ResetPeakRss()) reset_failed_ = true;
  }
  double Final() const { return std::max(peak_mb_, PeakRssMb()); }
  bool reset_failed() const { return reset_failed_; }

 private:
  double peak_mb_ = 0;
  bool reset_failed_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
