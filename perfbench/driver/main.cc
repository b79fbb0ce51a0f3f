// perfbench_driver: runs one workload of the end-to-end benchmark and
// prints its metrics. Normally started by perfbench/run.py, which builds
// it, prepares the repository and forwards the arguments.
//
//   perfbench_driver --generate --repo DIR --seed N
//       generate (or reuse) the seeded repository under DIR
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --repo DIR --work DIR [--commit SHA]
//       run workload W; the last stdout line is the JSON result
//       {"correct":..,"attempted":..,"failed":..,"metrics":{..}}

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "measure.h"
#include "repo.h"
#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --generate --repo DIR --seed N\n"
               "       perfbench_driver --workload W --seed N --seconds S "
               "--trace 0|1 --repo DIR --work DIR [--commit SHA]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool generate = false;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--generate") {
      generate = true;
      continue;
    }
    if ((v = value()) == nullptr) return Usage();
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(v);
    } else if (a == "--trace") {
      cfg.trace = std::atoi(v) != 0;
    } else if (a == "--repo") {
      cfg.repo_root = v;
    } else if (a == "--work") {
      cfg.work_dir = v;
    } else if (a == "--commit") {
      commit = v;
    } else {
      return Usage();
    }
  }
  if (cfg.repo_root.empty()) return Usage();

  if (generate) {
    lazyetl::Status st = perfbench::EnsureRepository(cfg.repo_root, cfg.seed);
    if (!st.ok()) {
      std::fprintf(stderr, "generate: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (cfg.workload.empty() || cfg.work_dir.empty() || cfg.seconds <= 0) {
    return Usage();
  }

  auto totals = perfbench::MeasureRepository(cfg.repo_root);
  if (!totals.ok()) {
    std::fprintf(stderr, "repository: %s\n", totals.status().ToString().c_str());
    return 1;
  }
  auto run = perfbench::RunWorkload(cfg);
  if (!run.ok()) {
    std::fprintf(stderr, "run: %s\n", run.status().ToString().c_str());
    return 1;
  }

  std::vector<std::pair<std::string, std::string>> stamp = {
      {"workload", cfg.workload},
      {"seed", std::to_string(cfg.seed)},
      {"seconds", std::to_string(cfg.seconds)},
      {"trace", cfg.trace ? "1" : "0"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", perfbench::CpuModel()},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"commit", commit},
      {"repo_files", std::to_string(totals->files)},
      {"repo_samples", std::to_string(totals->samples)},
      {"repo_disk_bytes", std::to_string(totals->disk_bytes)},
      // Each decoded sample is an int64 time plus an int32 value.
      {"repo_decoded_bytes", std::to_string(totals->samples * 12)},
  };
  stamp.insert(stamp.end(), run->stamp.begin(), run->stamp.end());
  std::string line = "stamp {";
  for (size_t i = 0; i < stamp.size(); ++i) {
    if (i) line += ",";
    line += JsonString(stamp[i].first) + ":" + JsonString(stamp[i].second);
  }
  std::printf("%s}\n", line.c_str());
  for (const std::string& p : run->problems) std::printf("problem %s\n", p.c_str());
  for (const perfbench::Metric& m : run->metrics) {
    std::printf("metric %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::string result = "{\"correct\":";
  result += run->correct ? "true" : "false";
  result += ",\"attempted\":" + std::to_string(run->attempted);
  result += ",\"failed\":" + std::to_string(run->failed);
  result += ",\"metrics\":{";
  for (size_t i = 0; i < run->metrics.size(); ++i) {
    const perfbench::Metric& m = run->metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i) result += ",";
    result += JsonString(m.name) + ":{\"value\":" + value +
              ",\"unit\":" + JsonString(m.unit) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  return 0;
}
