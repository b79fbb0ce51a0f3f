#include "repo.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/macros.h"
#include "mseed/synth.h"

namespace fs = std::filesystem;

namespace perfbench {

using lazyetl::NanoTime;
using lazyetl::Result;
using lazyetl::Status;

std::string StationCode(int n, int s) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "%c%02d", 'A' + n, s);
  return buf;
}

mseed::RepositoryConfig MakeRepositoryConfig(uint64_t seed) {
  mseed::RepositoryConfig cfg;
  for (int n = 0; n < kNumNetworks; ++n) {
    for (int s = 0; s < kStationsPerNetwork; ++s) {
      mseed::StationSpec st;
      st.network = kNetworks[n];
      st.station = StationCode(n, s);
      st.location = "00";
      st.channels.assign(kChannels, kChannels + kNumChannels);
      st.sample_rate = kSampleRate;
      st.latitude = 40.0 + n + 0.1 * s;
      st.longitude = 5.0 + 2 * n + 0.1 * s;
      st.site_name = "BENCH SITE " + st.station;
      cfg.stations.push_back(std::move(st));
    }
  }
  cfg.start_year = kStartYear;
  cfg.start_day_of_year = kStartDayOfYear;
  cfg.num_days = kDays;
  cfg.segments_per_day = kSegmentsPerDay;
  cfg.seconds_per_segment = kSegmentSeconds;
  cfg.synth.seed = seed;
  return cfg;
}

NanoTime DayStart(int d) {
  lazyetl::CivilTime ct;
  ct.year = kStartYear;
  // The layout never crosses a month boundary: January 10 + kDays.
  ct.month = 1;
  ct.day = kStartDayOfYear + d;
  return *lazyetl::CivilToNano(ct);
}

std::vector<FileRef> ListFiles(const std::string& root) {
  std::vector<FileRef> files;
  const size_t n = static_cast<size_t>(kSegmentSeconds * kSampleRate);
  for (int net = 0; net < kNumNetworks; ++net) {
    for (int s = 0; s < kStationsPerNetwork; ++s) {
      std::string sta = StationCode(net, s);
      for (int c = 0; c < kNumChannels; ++c) {
        for (int d = 0; d < kDays; ++d) {
          for (int seg = 0; seg < kSegmentsPerDay; ++seg) {
            FileRef f;
            f.network = net;
            f.station = s;
            f.channel = c;
            f.day = d;
            f.segment = seg;
            f.start = DayStart(d) + static_cast<NanoTime>(
                                        seg * kSegmentSeconds * 1e9);
            f.num_samples = n;
            char year[8];
            std::snprintf(year, sizeof(year), "%04d", kStartYear);
            f.path = (fs::path(root) / year / kNetworks[net] / sta /
                      (std::string(kChannels[c]) + ".D") /
                      mseed::SdsFilename(kNetworks[net], sta, "00",
                                         kChannels[c], 'D', kStartYear,
                                         kStartDayOfYear + d, seg,
                                         kSegmentsPerDay))
                         .string();
            files.push_back(std::move(f));
          }
        }
      }
    }
  }
  return files;
}

std::vector<int32_t> FileSamples(const FileRef& file, uint64_t seed) {
  mseed::SynthOptions synth;
  synth.sample_rate = kSampleRate;
  synth.seed = mseed::ChannelDaySeed(
                   kNetworks[file.network],
                   StationCode(file.network, file.station), "00",
                   kChannels[file.channel], kStartYear,
                   kStartDayOfYear + file.day, seed) +
               static_cast<uint64_t>(file.segment);
  return mseed::GenerateSeismogram(file.num_samples, synth);
}

Result<RepoTotals> MeasureRepository(const std::string& root) {
  RepoTotals t;
  for (const FileRef& f : ListFiles(root)) {
    ++t.files;
    t.samples += f.num_samples;
  }
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file()) t.disk_bytes += it->file_size();
  }
  if (ec) return Status::IOError("cannot scan " + root + ": " + ec.message());
  return t;
}

Status EnsureRepository(const std::string& root, uint64_t seed) {
  const std::string stamp_path = root + ".complete";
  {
    std::ifstream stamp(stamp_path);
    uint64_t stamped = 0;
    if (stamp >> stamped && stamped == seed && fs::exists(root)) {
      return Status::OK();
    }
  }
  std::error_code ec;
  fs::remove(stamp_path, ec);
  fs::remove_all(root, ec);
  auto repo = mseed::GenerateRepository(root, MakeRepositoryConfig(seed));
  if (!repo.ok()) return repo.status();
  std::vector<FileRef> model = ListFiles(root);
  bool same = repo->files.size() == model.size();
  for (size_t i = 0; same && i < model.size(); ++i) {
    same = repo->files[i].path == model[i].path &&
           repo->files[i].start_time == model[i].start &&
           repo->files[i].num_samples == model[i].num_samples;
  }
  if (!same) return Status::Internal("generated layout differs from the model");
  std::ofstream stamp(stamp_path);
  stamp << seed << "\n";
  if (!stamp.good()) return Status::IOError("cannot write " + stamp_path);
  return Status::OK();
}

}  // namespace perfbench
