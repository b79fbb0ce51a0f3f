// The benchmark's generated repository: a fixed SDS layout whose
// waveforms (and nothing else) depend on the seed, so every seed gives the
// program the same amount of work. Also the independent reference model
// the answers are checked against: file identities follow from the
// layout, and sample values are recomputed with mseed::GenerateSeismogram
// exactly as the generator wrote them.

#ifndef PERFBENCH_REPO_H_
#define PERFBENCH_REPO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "mseed/repository.h"

namespace perfbench {

namespace mseed = lazyetl::mseed;

// Layout: kNetworks x kStationsPerNetwork stations, three channels each,
// kDays days of kSegmentsPerDay files covering kSegmentSeconds each.
inline constexpr const char* kNetworks[] = {"NL", "GE", "KO", "II"};
inline constexpr int kNumNetworks = 4;
inline constexpr int kStationsPerNetwork = 8;
inline constexpr const char* kChannels[] = {"BHZ", "BHN", "BHE"};
inline constexpr int kNumChannels = 3;
inline constexpr int kDays = 7;
inline constexpr int kSegmentsPerDay = 6;
inline constexpr double kSegmentSeconds = 80.0;
inline constexpr double kSampleRate = 40.0;
inline constexpr int kStartYear = 2010;
inline constexpr int kStartDayOfYear = 10;

// Station code of station `s` of network `n` (unique across networks).
std::string StationCode(int n, int s);

mseed::RepositoryConfig MakeRepositoryConfig(uint64_t seed);

// Midnight (UTC) of day `d` of the layout.
lazyetl::NanoTime DayStart(int d);

// One waveform file of the layout.
struct FileRef {
  int network = 0, station = 0, channel = 0, day = 0, segment = 0;
  std::string path;
  lazyetl::NanoTime start = 0;
  size_t num_samples = 0;
};

// Every waveform file, in generator order.
std::vector<FileRef> ListFiles(const std::string& root);

// The samples the generator wrote into `file`.
std::vector<int32_t> FileSamples(const FileRef& file, uint64_t seed);

// Repository-wide totals for the result stamp.
struct RepoTotals {
  size_t files = 0;
  uint64_t samples = 0;
  uint64_t disk_bytes = 0;  // every regular file under the root
};

lazyetl::Result<RepoTotals> MeasureRepository(const std::string& root);

// Generates the layout under `root` unless a previous generation with the
// same seed completed there (marked by a stamp file).
lazyetl::Status EnsureRepository(const std::string& root, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_REPO_H_
