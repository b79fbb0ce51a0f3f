#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

size_t CountBeyond(const std::vector<double>& sorted, double value) {
  return static_cast<size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), value));
}

bool PercentileSupported(const std::vector<double>& sorted, double q) {
  return !sorted.empty() &&
         CountBeyond(sorted, Percentile(sorted, q)) >= kMinSamplesBeyond;
}

namespace {

// Latencies per time block, each sorted (none when t1 <= t0).
std::vector<std::vector<double>> SplitBlocks(const std::vector<Sample>& samples,
                                             double t0, double t1,
                                             int blocks) {
  std::vector<std::vector<double>> out(static_cast<size_t>(blocks));
  if (t1 <= t0) return {};
  for (const Sample& s : samples) {
    double f = (s.end - t0) / (t1 - t0) * blocks;
    int b = std::clamp(static_cast<int>(std::floor(f)), 0, blocks - 1);
    out[static_cast<size_t>(b)].push_back(s.latency);
  }
  for (auto& v : out) std::sort(v.begin(), v.end());
  return out;
}

}  // namespace

double BlockedPercentile(const std::vector<Sample>& samples, double t0,
                         double t1, double q, int max_blocks, int* blocks) {
  for (int b = std::max(1, max_blocks); b > 1; --b) {
    std::vector<std::vector<double>> split = SplitBlocks(samples, t0, t1, b);
    bool supported = !split.empty();
    std::vector<double> per_block;
    for (const auto& v : split) {
      supported = supported && PercentileSupported(v, q);
      per_block.push_back(Percentile(v, q));
    }
    if (supported) {
      if (blocks != nullptr) *blocks = b;
      return Median(per_block);
    }
  }
  std::vector<double> all;
  for (const Sample& s : samples) all.push_back(s.latency);
  std::sort(all.begin(), all.end());
  if (blocks != nullptr) *blocks = 1;
  return Percentile(all, q);
}

double BlockedRate(const std::vector<double>& ends, double t0, double t1,
                   int blocks) {
  if (t1 <= t0 || blocks < 1) return 0;
  std::vector<double> counts(static_cast<size_t>(blocks), 0.0);
  for (double e : ends) {
    double f = (e - t0) / (t1 - t0) * blocks;
    counts[static_cast<size_t>(
        std::clamp(static_cast<int>(std::floor(f)), 0, blocks - 1))] += 1;
  }
  for (double& c : counts) c /= (t1 - t0) / blocks;
  return Median(counts);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  if (values.empty()) return 0;
  size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

ProcStatus ReadProcStatus() {
  ProcStatus st;
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      in >> st.peak_rss_mb;
      st.peak_rss_mb /= 1024.0;  // kB -> MB
    } else if (key == "VmRSS:") {
      in >> st.rss_mb;
      st.rss_mb /= 1024.0;
    } else if (key == "VmSize:") {
      in >> st.vm_size_mb;
      st.vm_size_mb /= 1024.0;
    } else if (key == "Threads:") {
      in >> st.threads;
    }
    in.ignore(1 << 20, '\n');
  }
  return st;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

HostCpu ReadHostCpu() {
  HostCpu h;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return h;
  // user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8; ++i) {
    double v = 0;
    if (!(in >> v)) break;
    h.total += v;
    if (i == 7) h.steal = v;
  }
  return h;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

}  // namespace perfbench
