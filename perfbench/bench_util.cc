#include "bench_util.h"

#include <sys/stat.h>
#include <sys/statvfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Sum(const std::vector<double>& values) {
  double s = 0;
  for (double v : values) s += v;
  return s;
}

double StepGrowth(const std::vector<double>& series) {
  if (series.size() < 2) return 0;
  const long tenth = static_cast<long>(std::max<size_t>(1, series.size() / 10));
  return Ratio(Median({series.end() - tenth, series.end()}),
               Median({series.begin(), series.begin() + tenth}));
}

namespace {

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Result::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) out += ", ";
    AppendEscaped(metrics_[i].first, &out);
    out += ": {\"value\": " + Number(metrics_[i].second.first) +
           ", \"unit\": ";
    AppendEscaped(metrics_[i].second.second, &out);
    out += "}";
  }
  out += "}}";
  return out;
}

uint64_t SpanLog::Nanos(Clock::time_point t) const {
  return t <= epoch_ ? 0
                     : static_cast<uint64_t>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               t - epoch_)
                               .count());
}

void SpanLog::Add(bool on, const char* name, const char* layer, int tid,
                  int64_t batch, Clock::time_point a, Clock::time_point b) {
  if (!on || !enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, layer, tid, batch, Nanos(a), Nanos(std::max(a, b))});
}

std::vector<std::pair<std::string, double>> SpanLog::SelfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> sorted;
  for (const Span& s : spans_) {
    if (s.batch >= 0) sorted.push_back(s);
  }
  // Per track, parents sort before the children they contain.
  std::sort(sorted.begin(), sorted.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  std::map<std::string, double> self_ns;
  std::vector<size_t> stack;
  for (size_t i = 0; i < sorted.size(); ++i) {
    const Span& s = sorted[i];
    while (!stack.empty() && (sorted[stack.back()].tid != s.tid ||
                              sorted[stack.back()].end_ns <= s.start_ns)) {
      stack.pop_back();
    }
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    self_ns[s.layer] += dur;
    if (!stack.empty()) {
      const Span& parent = sorted[stack.back()];
      const uint64_t end = std::min(parent.end_ns, s.end_ns);
      self_ns[parent.layer] -= static_cast<double>(end - s.start_ns);
    }
    stack.push_back(i);
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [layer, ns] : self_ns) out.push_back({layer, ns / 1e6});
  return out;
}

double SpanLog::CoveredMs(int64_t batch, Clock::time_point a,
                          Clock::time_point b) const {
  const uint64_t lo = Nanos(a), hi = Nanos(b);
  std::vector<std::pair<uint64_t, uint64_t>> iv;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      if (s.batch != batch) continue;
      const uint64_t x = std::max(lo, s.start_ns), y = std::min(hi, s.end_ns);
      if (x < y) iv.push_back({x, y});
    }
  }
  std::sort(iv.begin(), iv.end());
  uint64_t covered = 0, cur_end = 0;
  for (const auto& [x, y] : iv) {
    const uint64_t from = std::max(x, cur_end);
    if (y > from) covered += y - from;
    cur_end = std::max(cur_end, y);
  }
  return static_cast<double>(covered) / 1e6;
}

bool SpanLog::WriteChrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << (i ? "," : "") << "{\"name\":\"" << s.name << "\",\"cat\":\""
       << s.layer << "\",\"ph\":\"X\"," << buf << "\"tid\":" << s.tid
       << ",\"args\":{\"value\":" << s.batch << "}}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
  std::ofstream f(path);
  f << os.str();
  return static_cast<bool>(f);
}

uint64_t DirBytes(const std::filesystem::path& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    struct stat st;
    if (::lstat(it->path().c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_blocks) * 512;
    }
  }
  return total;
}

uint64_t FreeDiskBytes(const std::filesystem::path& path) {
  struct statvfs vfs;
  if (::statvfs(path.c_str(), &vfs) != 0) {
    return std::numeric_limits<uint64_t>::max();
  }
  return static_cast<uint64_t>(vfs.f_bavail) * vfs.f_frsize;
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

}  // namespace perfbench
