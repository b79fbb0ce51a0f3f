// The benchmark's five workloads, each run through the program's public
// API with the program's defaults (load strategy, query and extraction
// threads, result cache), setting only deployment values: the listen
// address, the spill directory, and — for the sweeps — the record-cache
// budget.
//
//   interactive_hot  one closed-loop caller of Warehouse::Query: small
//                    Q1-style window queries over a warmed working set
//                    plus metadata browsing on mseed.files.
//   sweep_cold       one closed-loop caller: Q2-style network/channel
//                    group-bys and day-wide aggregates swept over a
//                    repository whose decoded data is several times the
//                    record-cache budget.
//   serve_keepalive  an in-process QueryServer on loopback driven by
//                    keep-alive HTTP/1.1 client sessions with repeats.
//   serve_sweep      the sweep_cold scans served to the same sessions.
//   ingest_refresh   an open-loop writer appending packets and rolling
//                    segment files (with Warehouse::Refresh) beside a
//                    closed-loop reader of the live channels.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string repo_root;  // generated repository, read only
  std::string work_dir;   // per-run scratch directory (created, removed)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutput {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  // Machine, inputs and deployment values the result was measured with.
  std::vector<std::pair<std::string, std::string>> stamp;
  // Failed checks and unsupported statistics, one line each.
  std::vector<std::string> problems;
};

lazyetl::Result<RunOutput> RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
