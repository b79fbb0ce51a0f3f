// Measurement helpers for the end-to-end benchmark: clocks, nearest-rank
// percentiles with the "ten samples beyond" support rule, and process
// counters read from /proc (peak RSS, threads) and getrusage (CPU time).

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic seconds (steady_clock).
double Now();

// Nearest-rank percentile of an ascending sample: the smallest value with
// at least `q` of the samples at or below it. 0 for an empty sample.
double Percentile(const std::vector<double>& sorted, double q);

// Samples strictly greater than `value` in an ascending sample.
size_t CountBeyond(const std::vector<double>& sorted, double value);

// A tail percentile is reported only when at least this many samples lie
// beyond it; with fewer, one stray sample moves it.
constexpr size_t kMinSamplesBeyond = 10;

// True when the q-th percentile of `sorted` leaves at least
// kMinSamplesBeyond samples strictly beyond it.
bool PercentileSupported(const std::vector<double>& sorted, double q);

// One op's completion time and latency.
struct Sample {
  double end = 0;
  double latency = 0;
};

// A run-level timing robust to host bursts that cover a minority of the
// run: [t0, t1) is cut into the largest number of equal time blocks, at
// most `max_blocks`, in which every block keeps kMinSamplesBeyond samples
// strictly beyond its q-th percentile (ops are placed by completion time);
// the result is the median of the blocks' percentiles. With one block it
// is the plain percentile of the whole run. `blocks` receives the count.
double BlockedPercentile(const std::vector<Sample>& samples, double t0,
                         double t1, double q, int max_blocks, int* blocks);

// Median over `blocks` equal time blocks of [t0, t1) of completions per
// second (`ends` are completion times).
double BlockedRate(const std::vector<double>& ends, double t0, double t1,
                   int blocks);

// Median of an unsorted sample (0 for an empty one).
double Median(std::vector<double> values);

struct ProcStatus {
  double peak_rss_mb = 0;  // VmHWM
  double rss_mb = 0;       // VmRSS
  double vm_size_mb = 0;   // VmSize: includes stacks of unjoined threads
  int threads = 0;         // live threads
};

ProcStatus ReadProcStatus();

// Process user + system CPU seconds so far.
double CpuSeconds();

// Host-wide CPU jiffies from /proc/stat: all states, and time stolen by
// the hypervisor (other guests), for the result stamp.
struct HostCpu {
  double total = 0;
  double steal = 0;
};

HostCpu ReadHostCpu();

// "model name" of the first CPU in /proc/cpuinfo ("unknown" if absent).
std::string CpuModel();

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
