#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstring>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <thread>

#include "common/macros.h"
#include "common/time.h"
#include "core/warehouse.h"
#include "http_client.h"
#include "measure.h"
#include "mseed/reader.h"
#include "mseed/synth.h"
#include "mseed/writer.h"
#include "repo.h"
#include "server/client.h"
#include "server/json.h"
#include "server/server.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "trace.h"

namespace fs = std::filesystem;

namespace perfbench {
namespace {

namespace core = lazyetl::core;
namespace engine = lazyetl::engine;
namespace server = lazyetl::server;
namespace storage = lazyetl::storage;
namespace sqlns = lazyetl::sql;
using lazyetl::NanoTime;
using lazyetl::Result;
using lazyetl::Status;

// Set-ups per run; setup_s is their median. The first kSetupsBefore run
// before the timed phase, the rest after it, so setup_s samples the host
// at both ends of the run rather than only in its first seconds.
constexpr int kSetups = 21;
constexpr int kSetupsBefore = 11;
// Time blocks per timed phase for the run-level timings (see
// BlockedPercentile): a host burst in two of five blocks moves no figure.
constexpr int kBlocks = 5;
// interactive_hot / serve_keepalive: warmed channel-days and op mix.
constexpr int kWorkingSet = 16;
constexpr double kBrowseShare = 0.2;
// sweep_cold: record-cache budget, a fraction of the decoded repository.
constexpr uint64_t kSweepCacheBudget = 32ULL << 20;
// serve_keepalive: share of requests repeating an earlier one of the same
// session, and a fresh connection every kFreshEvery-th request.
constexpr double kRepeatShare = 0.5;
constexpr int kFreshEvery = 4;
constexpr int kMaxSessions = 4;
// Leading segment files of the day each sweep op reads: all six in
// sweep_cold; three in serve_sweep, so four sessions of half-size scans
// load the CPU as lightly as two of full size would, while giving the run
// enough requests for a blocked p99 (see BlockedPercentile).
constexpr int kSweepSegments = kSegmentsPerDay;
constexpr int kServedSweepSegments = 3;
// ingest_refresh: live channels, the writer's fixed schedule (one 10-s
// packet every kWriterPeriod seconds, round-robin over the channels), and
// a new segment file plus Refresh() every kRollEvery-th write of a channel.
constexpr int kLiveChannels = 4;
constexpr double kWriterPeriod = 0.05;
constexpr int kRollEvery = 20;
constexpr size_t kPacketSamples = 400;
constexpr size_t kLiveInitialSamples = 2400;
constexpr int64_t kWindowSamples = 1200;  // "latest 30 s" reader window
// The reader paces itself to one query per kReaderPeriod: with a free-
// running reader the share of queries that find a freshly appended file
// (and re-extract it) would depend on the reader's own speed, amplifying
// host noise into every figure.
constexpr double kReaderPeriod = 0.005;
// A failed or refused op misses every latency limit.
constexpr double kFailedLatency = 1e6;
constexpr NanoTime kMs = 1'000'000;
constexpr NanoTime kDayNanos = 86'400'000'000'000LL;
constexpr double kMiB = 1024.0 * 1024.0;

std::string Ts(NanoTime t) { return lazyetl::FormatTimestamp(t); }

class Rng {
 public:
  Rng(uint64_t seed, uint64_t salt)
      : gen_(seed * 0x9E3779B97F4A7C15ULL + salt * 0xD1B54A32D192ED03ULL) {}
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : gen_() % n; }
  double Unit() { return static_cast<double>(gen_() >> 11) * 0x1.0p-53; }

 private:
  std::mt19937_64 gen_;
};

// --- Ops and their answers ---------------------------------------------------

enum class OpKind {
  kWindow,       // Q1-style window aggregate on one channel-day
  kBrowse,       // metadata browsing on mseed.files
  kSweepGroup,   // Q2-style per-station min/max over a network/channel/day
  kSweepWindow,  // per-station count/sum over most of a day
  kLiveCount,    // count + newest sample of a live channel
  kLiveWindow,   // count over the latest window of a live channel
  kAppend,       // writer: append one packet
  kRoll,         // writer: new segment file + Refresh()
};

bool IsWrite(OpKind k) { return k == OpKind::kAppend || k == OpKind::kRoll; }

// An op's parameters; SqlFor() renders its SQL, so the op log stays small
// and the harness barely moves peak_rss_mb.
struct QuerySpec {
  OpKind kind = OpKind::kWindow;
  int network = 0, station = 0, channel = 0, day = 0;
  // kWindow, kSweepWindow: sample-time bounds; kBrowse, kSweepGroup: file
  // start-time bounds; kLiveWindow: t0 = sample-time bound; kLiveCount:
  // t1 = as-of sample time.
  NanoTime t0 = 0, t1 = 0;
};

std::string LiveStation(int c) { return "L" + std::to_string(c); }

std::string SqlFor(const QuerySpec& q) {
  const std::string sta = StationCode(q.network, q.station);
  const std::string chan = kChannels[q.channel];
  const NanoTime day = DayStart(q.day);
  switch (q.kind) {
    case OpKind::kWindow:
      return "SELECT COUNT(*), AVG(D.sample_value), MIN(D.sample_value), "
             "MAX(D.sample_value) FROM mseed.dataview WHERE F.station = '" +
             sta + "' AND F.channel = '" + chan + "' AND R.start_time >= '" +
             Ts(day) + "' AND R.start_time < '" + Ts(day + kDayNanos) +
             "' AND D.sample_time > '" + Ts(q.t0) + "' AND D.sample_time < '" +
             Ts(q.t1) + "'";
    case OpKind::kBrowse:
      return "SELECT network, station, COUNT(*), SUM(file_size) FROM "
             "mseed.files WHERE channel = '" +
             chan + "' AND start_time >= '" + Ts(q.t0) +
             "' AND start_time < '" + Ts(q.t1) +
             "' GROUP BY network, station ORDER BY network, station";
    case OpKind::kSweepGroup:
      return "SELECT F.station, COUNT(*), MIN(D.sample_value), "
             "MAX(D.sample_value) FROM mseed.dataview WHERE F.network = '" +
             std::string(kNetworks[q.network]) + "' AND F.channel = '" + chan +
             "' AND F.start_time >= '" + Ts(q.t0) + "' AND F.start_time < '" +
             Ts(q.t1) + "' GROUP BY F.station ORDER BY F.station";
    case OpKind::kSweepWindow:
      return "SELECT F.station, COUNT(*), SUM(D.sample_value) FROM "
             "mseed.dataview WHERE F.network = '" +
             std::string(kNetworks[q.network]) + "' AND F.channel = '" + chan +
             "' AND D.sample_time > '" + Ts(q.t0) + "' AND D.sample_time < '" +
             Ts(q.t1) + "' GROUP BY F.station ORDER BY F.station";
    case OpKind::kLiveCount:
      return "SELECT COUNT(*), MAX(D.sample_time) FROM mseed.dataview WHERE "
             "F.station = '" +
             LiveStation(q.station) +
             "' AND F.channel = 'BHZ' AND D.sample_time <= '" + Ts(q.t1) + "'";
    case OpKind::kLiveWindow:
      return "SELECT COUNT(*), MIN(D.sample_value), MAX(D.sample_value) FROM "
             "mseed.dataview WHERE F.station = '" +
             LiveStation(q.station) +
             "' AND F.channel = 'BHZ' AND D.sample_time > '" + Ts(q.t0) + "'";
    default:
      return "";
  }
}

struct Counters {
  double parse = 0, bind = 0, plan = 0, execute = 0, extract = 0;
  double queue_wait = 0;
  double records_extracted = 0, bytes_read = 0, files_opened = 0;
  double cache_hits = 0, cache_misses = 0, cache_stale = 0;
  double morsels_pruned = 0, query_threads = 0, peak_intermediate = 0;
  bool result_cache_hit = false;
};

Counters CountersOf(const engine::ExecutionReport& r) {
  Counters c;
  c.parse = r.parse_seconds;
  c.bind = r.bind_seconds;
  c.plan = r.plan_seconds;
  c.execute = r.execute_seconds;
  c.extract = r.extract_seconds;
  c.queue_wait = r.queue_wait_seconds;
  c.records_extracted = static_cast<double>(r.records_extracted);
  c.bytes_read = static_cast<double>(r.bytes_read);
  c.files_opened = static_cast<double>(r.files_opened);
  c.cache_hits = static_cast<double>(r.cache_hits);
  c.cache_misses = static_cast<double>(r.cache_misses);
  c.cache_stale = static_cast<double>(r.cache_stale);
  c.morsels_pruned = static_cast<double>(r.morsels_pruned);
  c.query_threads = static_cast<double>(r.query_threads);
  c.peak_intermediate = static_cast<double>(r.peak_intermediate_bytes);
  c.result_cache_hit = r.result_cache_hit;
  return c;
}

struct Op {
  uint64_t id = 0;
  QuerySpec q;
  // Latency runs from `start` (the call, the request send, or — for the
  // open-loop writer — the time the write was due) to `end`.
  double start = 0, end = 0;
  double began = 0;  // writer: when the write actually started
  bool ok = true;
  std::string error;
  bool has_report = false;
  Counters c;
  std::vector<std::string> rows;  // answer rows as JSON texts "[v,...]"
  bool saw_end = false;
  uint64_t end_rows = 0;
  double ttfb = 0, stream = 0;
  uint64_t body_bytes = 0;
  bool repeat = false;
  int64_t lo = 0, hi = 0;  // ingest: bounds on the answer's count

  double Latency() const { return ok ? end - start : kFailedLatency; }
};

// --- Reference model ----------------------------------------------------------

struct Agg {
  int64_t count = 0;
  int64_t sum = 0;
  int32_t min = INT32_MAX;
  int32_t max = INT32_MIN;
};

// Answers recomputed from the generator (mseed::GenerateSeismogram) and the
// layout, independently of the warehouse.
class Reference {
 public:
  Reference(const std::string& root, uint64_t seed)
      : seed_(seed), files_(ListFiles(root)) {}

  static size_t Index(int net, int sta, int chan, int day, int seg) {
    return static_cast<size_t>(
        (((net * kStationsPerNetwork + sta) * kNumChannels + chan) * kDays +
         day) *
            kSegmentsPerDay +
        seg);
  }

  // Samples of one station/channel/day with t0 < time < t1.
  Agg Window(int net, int sta, int chan, int day, NanoTime t0, NanoTime t1) {
    Agg a;
    for (int seg = 0; seg < kSegmentsPerDay; ++seg) {
      size_t i = Index(net, sta, chan, day, seg);
      const std::vector<int32_t>& s = Samples(i);
      for (size_t k = 0; k < s.size(); ++k) {
        NanoTime t = mseed::SampleTimeAt(files_[i].start, kSampleRate, k);
        if (t <= t0 || t >= t1) continue;
        ++a.count;
        a.sum += s[k];
        a.min = std::min(a.min, s[k]);
        a.max = std::max(a.max, s[k]);
      }
    }
    return a;
  }

  // Every sample of the station/channel/day files starting in [t0, t1).
  Agg Files(int net, int sta, int chan, int day, NanoTime t0, NanoTime t1) {
    Agg a;
    for (int seg = 0; seg < kSegmentsPerDay; ++seg) {
      size_t i = Index(net, sta, chan, day, seg);
      if (files_[i].start < t0 || files_[i].start >= t1) continue;
      for (int32_t v : Samples(i)) {
        ++a.count;
        a.sum += v;
        a.min = std::min(a.min, v);
        a.max = std::max(a.max, v);
      }
    }
    return a;
  }

  const std::vector<FileRef>& files() const { return files_; }

  uint64_t FileSize(size_t i) {
    auto it = sizes_.find(i);
    if (it != sizes_.end()) return it->second;
    std::error_code ec;
    uint64_t size = fs::file_size(files_[i].path, ec);
    return sizes_[i] = ec ? 0 : size;
  }

 private:
  const std::vector<int32_t>& Samples(size_t i) {
    auto it = samples_.find(i);
    if (it != samples_.end()) return it->second;
    return samples_[i] = FileSamples(files_[i], seed_);
  }

  uint64_t seed_;
  std::vector<FileRef> files_;
  std::map<size_t, std::vector<int32_t>> samples_;
  std::map<size_t, uint64_t> sizes_;
};

// The cells of one JSON row "[v,v,...]" (strings unquoted; the
// benchmark's answers hold no commas or escapes inside strings).
std::vector<std::string> Cells(const std::string& row) {
  std::vector<std::string> cells;
  std::string cur;
  for (size_t i = 1; i + 1 < row.size(); ++i) {
    if (row[i] == ',') {
      cells.push_back(cur);
      cur.clear();
    } else if (row[i] != '"') {
      cur += row[i];
    }
  }
  if (row.size() > 2) cells.push_back(cur);
  return cells;
}

int64_t Int(const std::string& cell) {
  return std::strtoll(cell.c_str(), nullptr, 10);
}

std::string Describe(const std::vector<std::string>& rows) {
  std::string s = std::to_string(rows.size()) + " rows";
  for (size_t r = 0; r < std::min<size_t>(rows.size(), 2); ++r) {
    s += " " + rows[r];
  }
  return s;
}

bool Near(const std::string& cell, double want) {
  double got = std::strtod(cell.c_str(), nullptr);
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

// Checks an interactive/sweep answer against the reference; "" = correct.
std::string CheckAnswer(const QuerySpec& q,
                        const std::vector<std::string>& rows, Reference* ref) {
  switch (q.kind) {
    case OpKind::kWindow: {
      Agg a = ref->Window(q.network, q.station, q.channel, q.day, q.t0, q.t1);
      std::vector<std::string> c =
          rows.size() == 1 ? Cells(rows[0]) : std::vector<std::string>();
      if (c.size() != 4 || a.count == 0 || Int(c[0]) != a.count ||
          !Near(c[1], static_cast<double>(a.sum) /
                          static_cast<double>(a.count)) ||
          Int(c[2]) != a.min || Int(c[3]) != a.max) {
        return "window answer " + Describe(rows) + ", want count " +
               std::to_string(a.count);
      }
      return "";
    }
    case OpKind::kBrowse: {
      std::map<std::pair<std::string, std::string>, std::pair<int64_t, int64_t>>
          want;
      for (size_t i = 0; i < ref->files().size(); ++i) {
        const FileRef& f = ref->files()[i];
        if (f.channel != q.channel || f.start < q.t0 || f.start >= q.t1) {
          continue;
        }
        auto& g = want[{kNetworks[f.network], StationCode(f.network, f.station)}];
        g.first += 1;
        g.second += static_cast<int64_t>(ref->FileSize(i));
      }
      if (rows.size() != want.size()) {
        return "browse answer " + Describe(rows) + ", want " +
               std::to_string(want.size()) + " groups";
      }
      size_t r = 0;
      for (const auto& [key, g] : want) {
        std::vector<std::string> c = Cells(rows[r]);
        if (c.size() != 4 || c[0] != key.first || c[1] != key.second ||
            Int(c[2]) != g.first || Int(c[3]) != g.second) {
          return "browse row " + std::to_string(r) + " differs: " + rows[r];
        }
        ++r;
      }
      return "";
    }
    case OpKind::kSweepGroup:
    case OpKind::kSweepWindow: {
      if (rows.size() != static_cast<size_t>(kStationsPerNetwork)) {
        return "sweep answer " + Describe(rows);
      }
      // Group ops select files on their start time; window ops select
      // samples by time.
      const bool group = q.kind == OpKind::kSweepGroup;
      for (int s = 0; s < kStationsPerNetwork; ++s) {
        Agg a = group
                    ? ref->Files(q.network, s, q.channel, q.day, q.t0, q.t1)
                    : ref->Window(q.network, s, q.channel, q.day, q.t0, q.t1);
        std::vector<std::string> c = Cells(rows[static_cast<size_t>(s)]);
        bool same = c.size() == (group ? 4u : 3u) &&
                    c[0] == StationCode(q.network, s) && Int(c[1]) == a.count;
        if (same && group) {
          same = Int(c[2]) == a.min && Int(c[3]) == a.max;
        } else if (same) {
          same = Int(c[2]) == a.sum;
        }
        if (!same) {
          return "sweep row " + std::to_string(s) + " differs: " +
                 rows[static_cast<size_t>(s)];
        }
      }
      return "";
    }
    default:
      return "unexpected op kind";
  }
}

// --- The Q1-style mix shared by interactive_hot and serve_keepalive ----------

struct ChannelDay {
  int network, station, channel, day;
};

std::vector<ChannelDay> PickWorkingSet(uint64_t seed) {
  Rng rng(seed, 11);
  std::set<std::tuple<int, int, int, int>> seen;
  std::vector<ChannelDay> ws;
  while (ws.size() < static_cast<size_t>(kWorkingSet)) {
    ChannelDay cd{static_cast<int>(rng.Below(kNumNetworks)),
                  static_cast<int>(rng.Below(kStationsPerNetwork)),
                  static_cast<int>(rng.Below(kNumChannels)),
                  static_cast<int>(rng.Below(kDays))};
    if (seen.insert({cd.network, cd.station, cd.channel, cd.day}).second) {
      ws.push_back(cd);
    }
  }
  return ws;
}

std::string DayCountSql(const ChannelDay& cd) {
  return "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = '" +
         StationCode(cd.network, cd.station) + "' AND F.channel = '" +
         kChannels[cd.channel] + "' AND R.start_time >= '" +
         Ts(DayStart(cd.day)) + "' AND R.start_time < '" +
         Ts(DayStart(cd.day) + kDayNanos) + "'";
}

class QueryMix {
 public:
  QueryMix(const std::vector<ChannelDay>* ws, uint64_t seed, uint64_t salt)
      : ws_(ws), rng_(seed, salt) {}

  QuerySpec Next() {
    return rng_.Unit() < kBrowseShare ? Browse() : Window();
  }

 private:
  // Seconds-long window on one warmed channel-day; millisecond offsets
  // make every op's SQL distinct.
  QuerySpec Window() {
    const ChannelDay& cd = (*ws_)[rng_.Below(ws_->size())];
    QuerySpec q;
    q.kind = OpKind::kWindow;
    q.network = cd.network;
    q.station = cd.station;
    q.channel = cd.channel;
    q.day = cd.day;
    const NanoTime data = static_cast<NanoTime>(
        kSegmentsPerDay * kSegmentSeconds * 1e9);
    const NanoTime len = static_cast<NanoTime>(2000 + rng_.Below(8001)) * kMs;
    q.t0 = DayStart(cd.day) +
           static_cast<NanoTime>(1 + rng_.Below(static_cast<uint64_t>(
                                         (data - len) / kMs - 1))) *
               kMs;
    q.t1 = q.t0 + len;
    return q;
  }

  // Files of one channel whose start lies in a 1–3 day range.
  QuerySpec Browse() {
    QuerySpec q;
    q.kind = OpKind::kBrowse;
    q.channel = static_cast<int>(rng_.Below(kNumChannels));
    q.day = static_cast<int>(rng_.Below(kDays));
    q.t0 = DayStart(q.day) + static_cast<NanoTime>(rng_.Below(400000)) * kMs;
    q.t1 = q.t0 + static_cast<NanoTime>(1 + rng_.Below(2)) * kDayNanos +
           static_cast<NanoTime>(rng_.Below(86'400'000)) * kMs;
    return q;
  }

  const std::vector<ChannelDay>* ws_;
  Rng rng_;
};

// --- Layer probes (traced runs only, after the op, outside its latency) ------

void AttachCounters(Tracer* t, int64_t span, const Counters& c) {
  if (span < 0) return;
  t->Count(span, "parse_s", c.parse);
  t->Count(span, "bind_s", c.bind);
  t->Count(span, "plan_s", c.plan);
  t->Count(span, "execute_s", c.execute);
  t->Count(span, "extract_s", c.extract);
  t->Count(span, "queue_wait_s", c.queue_wait);
  t->Count(span, "records_extracted", c.records_extracted);
  t->Count(span, "cache_hits", c.cache_hits);
  t->Count(span, "cache_misses", c.cache_misses);
}

void ProbeLayers(core::Warehouse* wh, Tracer* t, uint64_t op,
                 const std::string& sql, const std::string& touched_file) {
  Result<sqlns::SelectStatement> stmt = lazyetl::Status::Internal("unset");
  {
    ScopedSpan s(t, "sql.Parse", op);
    stmt = sqlns::Parse(sql);
  }
  if (stmt.ok()) {
    ScopedSpan s(t, "sql.Bind", op);
    sqlns::Binder binder(&wh->catalog());
    (void)binder.Bind(*stmt);
  }
  {
    ScopedSpan s(t, "engine.Explain", op);
    (void)wh->Explain(sql);
  }
  if (touched_file.empty()) return;
  Result<mseed::FileMetadata> md = lazyetl::Status::Internal("unset");
  {
    ScopedSpan s(t, "mseed.ScanMetadata", op);
    md = mseed::ScanMetadata(touched_file);
  }
  if (!md.ok()) return;
  std::vector<size_t> all(md->records.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  ScopedSpan s(t, "mseed.ReadSelectedRecords", op);
  auto samples = mseed::ReadSelectedRecords(*md, all);
  t->Count(s.id(), "records", samples.ok() ? static_cast<double>(all.size())
                                           : 0.0);
}

// --- Workload base -----------------------------------------------------------

class Workload {
 public:
  explicit Workload(const RunConfig& cfg) : cfg_(cfg) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // One complete set-up: Warehouse::Open to the first timed op.
  virtual Status Setup(Tracer* tracer) = 0;
  // Releases everything Setup built.
  virtual void Teardown() { wh_.reset(); }
  // The timed phase: runs ops for `seconds` and appends them.
  virtual Status Run(double seconds, Tracer* tracer, std::vector<Op>* ops) = 0;
  // After the timed phase and the process sample, before validation.
  virtual void AfterRun() {}
  // Checks every answer; clears Op::ok with a reason.
  virtual void Validate(std::vector<Op>* ops) = 0;
  // Workload-specific per-layer values and stamp entries.
  virtual void Layers(const std::vector<Op>& /*ops*/,
                      const std::vector<Span>& /*spans*/,
                      std::map<std::string, double>* /*out*/) {}
  virtual void Stamp(RunOutput* out) {
    out->stamp.emplace_back("cache_budget_bytes",
                            std::to_string(options_.cache_budget_bytes));
    out->stamp.emplace_back("spill_dir", options_.spill_dir);
  }

  core::Warehouse* warehouse() { return wh_.get(); }
  const std::vector<double>& attach_seconds() const { return attach_s_; }
  const std::vector<double>& attach_bytes_per_file() const {
    return attach_bpf_;
  }

 protected:
  // The program's defaults plus the deployment values every workload sets.
  core::WarehouseOptions DefaultOptions() const {
    core::WarehouseOptions o;
    o.spill_dir = (fs::path(cfg_.work_dir) / "spill").string();
    return o;
  }

  Status OpenWarehouse(const core::WarehouseOptions& options, Tracer* tracer) {
    options_ = options;
    {
      ScopedSpan s(tracer, "core.Open", 0);
      LAZYETL_ASSIGN_OR_RETURN(wh_, core::Warehouse::Open(options));
    }
    double t0 = Now();
    ScopedSpan s(tracer, "core.AttachRepository", 0);
    LAZYETL_ASSIGN_OR_RETURN(core::LoadStats load,
                             wh_->AttachRepository(cfg_.repo_root));
    attach_s_.push_back(Now() - t0);
    attach_bpf_.push_back(load.files ? static_cast<double>(load.bytes_read) /
                                           static_cast<double>(load.files)
                                     : 0.0);
    return Status::OK();
  }

  Status Warm(const std::vector<ChannelDay>& ws, Tracer* tracer) {
    ScopedSpan s(tracer, "core.Warmup", 0);
    for (const ChannelDay& cd : ws) {
      LAZYETL_RETURN_NOT_OK(wh_->Query(DayCountSql(cd)).status());
    }
    return Status::OK();
  }

  // Checks every answer against the reference model.
  void CheckAll(std::vector<Op>* ops) {
    Reference ref(cfg_.repo_root, cfg_.seed);
    for (Op& op : *ops) {
      if (!op.ok) continue;
      std::string err = CheckAnswer(op.q, op.rows, &ref);
      if (!err.empty()) {
        op.ok = false;
        op.error = err;
      }
    }
  }

  // A closed loop with one caller: the next op starts when the previous
  // one returns.
  template <typename NextSpec>
  void ClosedLoop(double seconds, Tracer* tracer, std::vector<Op>* ops,
                  NextSpec next, bool decode_probe) {
    const double deadline = Now() + seconds;
    while (Now() < deadline) {
      Op op;
      op.id = next_op_++;
      op.q = next();
      QueryOp(tracer, &op, decode_probe);
      ops->push_back(std::move(op));
    }
  }

  // One in-process op through Warehouse::Query.
  void QueryOp(Tracer* tracer, Op* op, bool decode_probe) {
    int64_t root = tracer->Begin("op", op->id);
    op->start = Now();
    int64_t span = tracer->Begin("core.Query", op->id, root);
    Result<core::QueryResult> r = wh_->Query(SqlFor(op->q));
    tracer->End(span);
    op->end = Now();
    tracer->End(root);
    if (!r.ok()) {
      op->ok = false;
      op->error = r.status().ToString();
      return;
    }
    op->has_report = true;
    op->c = CountersOf(r->report);
    if (tracer->enabled()) {
      tracer->Count(root, "kind", static_cast<double>(op->q.kind));
      AttachCounters(tracer, span, op->c);
      ProbeLayers(wh_.get(), tracer, op->id, SqlFor(op->q),
                  decode_probe && !r->report.files_touched.empty()
                      ? r->report.files_touched.front()
                      : std::string());
    }
    op->rows = server::JsonRows(r->table);
  }

  const RunConfig& cfg_;
  core::WarehouseOptions options_;
  std::unique_ptr<core::Warehouse> wh_;
  std::vector<double> attach_s_, attach_bpf_;
  uint64_t next_op_ = 1;
};

// --- interactive_hot ---------------------------------------------------------

class InteractiveHot : public Workload {
 public:
  explicit InteractiveHot(const RunConfig& cfg)
      : Workload(cfg), ws_(PickWorkingSet(cfg.seed)) {}

  Status Setup(Tracer* tracer) override {
    LAZYETL_RETURN_NOT_OK(OpenWarehouse(DefaultOptions(), tracer));
    return Warm(ws_, tracer);
  }

  Status Run(double seconds, Tracer* tracer, std::vector<Op>* ops) override {
    QueryMix mix(&ws_, cfg_.seed, 100 + phase_++);
    ClosedLoop(seconds, tracer, ops, [&] { return mix.Next(); }, false);
    return Status::OK();
  }

  void Validate(std::vector<Op>* ops) override { CheckAll(ops); }

  void Stamp(RunOutput* out) override {
    Workload::Stamp(out);
    out->stamp.emplace_back("working_set_channel_days",
                            std::to_string(kWorkingSet));
    out->stamp.emplace_back("browse_share", std::to_string(kBrowseShare));
  }

 private:
  std::vector<ChannelDay> ws_;
  int phase_ = 0;
};

// --- sweep_cold ----------------------------------------------------------------

// The seeded sweep over every network/channel/day, shared by sweep_cold
// and serve_sweep. Thread-safe: serve_sweep's sessions share one order.
class SweepOrder {
 public:
  SweepOrder(uint64_t seed, int segments) : segments_(segments), rng_(seed, 21) {
    for (int n = 0; n < kNumNetworks; ++n) {
      for (int c = 0; c < kNumChannels; ++c) {
        for (int d = 0; d < kDays; ++d) groups_.push_back({n, 0, c, d});
      }
    }
    std::shuffle(groups_.begin(), groups_.end(),
                 std::mt19937_64(seed * 7919 + 3));
  }

  size_t groups() const { return groups_.size(); }

  // Decoded bytes of every sample the sweep reads (int64 time plus int32
  // value per sample), to set against the record-cache budget.
  uint64_t decoded_bytes() const {
    return static_cast<uint64_t>(groups_.size()) * kStationsPerNetwork *
           static_cast<uint64_t>(segments_) *
           static_cast<uint64_t>(kSegmentSeconds * kSampleRate) * 12;
  }

  // The next network/channel/day. Both shapes read every sample of the
  // day's first `segments` files for all 8 stations (153,600 samples for
  // six), so ops cost alike; random bounds keep every op's SQL distinct,
  // so the whole-result cache never answers one.
  QuerySpec Next() {
    std::lock_guard<std::mutex> lock(mu_);
    const ChannelDay& g = groups_[pos_++ % groups_.size()];
    QuerySpec q;
    q.network = g.network;
    q.channel = g.channel;
    q.day = g.day;
    const NanoTime day = DayStart(g.day);
    const NanoTime last_start =
        static_cast<NanoTime>((segments_ - 1) * kSegmentSeconds * 1e9);
    const NanoTime data =
        static_cast<NanoTime>(segments_ * kSegmentSeconds * 1e9);
    auto jitter = [&] {
      return static_cast<NanoTime>(1 + rng_.Below(80'000)) * kMs;
    };
    if (rng_.Below(2) == 0) {
      // Q2-style per-station min/max, files selected on metadata: those
      // starting before last_start + (0, 80 s].
      q.kind = OpKind::kSweepGroup;
      q.t0 = day - jitter() + kMs;
      q.t1 = day + last_start + jitter();
    } else {
      // Count/sum over the same samples, records selected on sample time:
      // t1 falls after the last sample and before the next file's first
      // (samples are 25 ms apart).
      q.kind = OpKind::kSweepWindow;
      q.t0 = day - jitter();
      q.t1 = day + data - static_cast<NanoTime>(rng_.Below(25)) * kMs;
    }
    return q;
  }

 private:
  const int segments_;
  std::mutex mu_;
  std::vector<ChannelDay> groups_;  // guarded by mu_ (with pos_ and rng_)
  size_t pos_ = 0;
  Rng rng_;
};

// One warm-up op through the code paths and thread pool, then a cold cache.
Status WarmCold(core::Warehouse* wh, SweepOrder* order, Tracer* tracer) {
  ScopedSpan s(tracer, "core.Warmup", 0);
  LAZYETL_RETURN_NOT_OK(wh->Query(SqlFor(order->Next())).status());
  wh->ClearCaches();
  return Status::OK();
}

class SweepCold : public Workload {
 public:
  explicit SweepCold(const RunConfig& cfg)
      : Workload(cfg), order_(cfg.seed, kSweepSegments) {}

  Status Setup(Tracer* tracer) override {
    core::WarehouseOptions o = DefaultOptions();
    o.cache_budget_bytes = kSweepCacheBudget;
    LAZYETL_RETURN_NOT_OK(OpenWarehouse(o, tracer));
    return WarmCold(wh_.get(), &order_, tracer);
  }

  Status Run(double seconds, Tracer* tracer, std::vector<Op>* ops) override {
    ClosedLoop(seconds, tracer, ops, [&] { return order_.Next(); }, true);
    return Status::OK();
  }

  void Validate(std::vector<Op>* ops) override { CheckAll(ops); }

  void Stamp(RunOutput* out) override {
    Workload::Stamp(out);
    out->stamp.emplace_back("sweep_groups", std::to_string(order_.groups()));
    out->stamp.emplace_back("sweep_decoded_bytes",
                            std::to_string(order_.decoded_bytes()));
  }

 private:
  SweepOrder order_;
};

// --- serve_keepalive, serve_sweep -------------------------------------------

// Keep-alive client sessions against an in-process QueryServer. The
// interactive mix (serve_keepalive) repeats half of a session's requests;
// the sweep mix (serve_sweep) serves the sweep_cold scans, every one
// distinct and cold.
class ServeKeepalive : public Workload {
 public:
  ServeKeepalive(const RunConfig& cfg, bool sweep)
      : Workload(cfg),
        sweep_(sweep),
        ws_(PickWorkingSet(cfg.seed)),
        order_(cfg.seed, kServedSweepSegments),
        files_(ListFiles(cfg.repo_root)) {
    unsigned hw = std::thread::hardware_concurrency();
    sessions_ = std::clamp<int>(hw == 0 ? 1 : static_cast<int>(hw), 1,
                                kMaxSessions);
  }

  Status Setup(Tracer* tracer) override {
    core::WarehouseOptions o = DefaultOptions();
    if (sweep_) o.cache_budget_bytes = kSweepCacheBudget;
    LAZYETL_RETURN_NOT_OK(OpenWarehouse(o, tracer));
    LAZYETL_RETURN_NOT_OK(sweep_ ? WarmCold(wh_.get(), &order_, tracer)
                                 : Warm(ws_, tracer));
    ScopedSpan s(tracer, "server.Start", 0);
    server::ServerOptions so;
    so.host = kHost;
    server_ = std::make_unique<server::QueryServer>(wh_.get(), so);
    return server_->Start();
  }

  void Teardown() override {
    server_.reset();
    Workload::Teardown();
  }

  Status Run(double seconds, Tracer* tracer, std::vector<Op>* ops) override {
    const double deadline = Now() + seconds;
    const int phase = phase_++;
    std::vector<std::vector<Op>> per_session(static_cast<size_t>(sessions_));
    for (auto& v : per_session) v.reserve(1 << 14);
    std::vector<std::thread> threads;
    for (int s = 0; s < sessions_; ++s) {
      threads.emplace_back([this, s, phase, deadline, tracer, &per_session] {
        Session(s, phase, deadline, tracer, &per_session[static_cast<size_t>(s)]);
      });
    }
    for (std::thread& t : threads) t.join();
    for (auto& v : per_session) {
      for (Op& op : v) ops->push_back(std::move(op));
    }
    return Status::OK();
  }

  void AfterRun() override {
    auto body = server::HttpGet(kHost, server_->port(), "/stats");
    if (!body.ok()) return;
    auto field = [&](const char* key) {
      size_t k = body->find(std::string("\"") + key + "\":");
      return k == std::string::npos
                 ? 0.0
                 : std::strtod(body->c_str() + k + std::strlen(key) + 3,
                               nullptr);
    };
    stats_connections_ = field("connections");
    stats_errors_ = field("queries_rejected") + field("mid_stream_errors");
  }

  // The end frame's count must match the rows streamed, and the rows must
  // match the reference. Interactive answers must also be row-identical to
  // Query() on the same warehouse (re-running every cold sweep scan would
  // take longer than the run).
  void Validate(std::vector<Op>* ops) override {
    for (Op& op : *ops) {
      if (op.ok && (!op.saw_end || op.end_rows != op.rows.size())) {
        op.ok = false;
        op.error = "end frame counts " + std::to_string(op.end_rows) +
                   " rows, stream carried " + std::to_string(op.rows.size());
      }
    }
    if (sweep_) return CheckAll(ops);
    Reference ref(cfg_.repo_root, cfg_.seed);
    std::map<std::string, std::pair<std::vector<std::string>, std::string>>
        expected;  // sql -> (rows, reference error)
    for (Op& op : *ops) {
      if (!op.ok) continue;
      const std::string sql = SqlFor(op.q);
      auto it = expected.find(sql);
      if (it == expected.end()) {
        auto r = wh_->Query(sql);
        std::pair<std::vector<std::string>, std::string> e;
        if (!r.ok()) {
          e.second = "Query() failed: " + r.status().ToString();
        } else {
          e.first = server::JsonRows(r->table);
          e.second = CheckAnswer(op.q, e.first, &ref);
        }
        it = expected.emplace(sql, std::move(e)).first;
      }
      if (!it->second.second.empty()) {
        op.ok = false;
        op.error = it->second.second;
      } else if (op.rows != it->second.first) {
        op.ok = false;
        op.error = "streamed rows differ from Query(): " +
                   std::to_string(op.rows.size()) + " rows, want " +
                   std::to_string(it->second.first.size());
      }
    }
  }

  void Layers(const std::vector<Op>& ops, const std::vector<Span>& /*spans*/,
              std::map<std::string, double>* out) override {
    std::vector<double> ttfb, stream;
    double bytes = 0, rows = 0, repeats = 0;
    for (const Op& op : ops) {
      if (!op.ok) continue;
      ttfb.push_back(op.ttfb * 1e3);
      stream.push_back(op.stream * 1e3);
      bytes += static_cast<double>(op.body_bytes);
      rows += static_cast<double>(op.rows.size());
      repeats += op.repeat;
    }
    (*out)["server.ttfb_ms"] = Median(ttfb);
    (*out)["server.stream_ms"] = Median(stream);
    (*out)["server.bytes_per_row"] = rows > 0 ? bytes / rows : 0;
    (*out)["server.connections"] = stats_connections_;
    (*out)["server.errors"] = stats_errors_;
    (*out)["server.repeat_share"] =
        ops.empty() ? 0 : repeats / static_cast<double>(ops.size());
  }

  void Stamp(RunOutput* out) override {
    Workload::Stamp(out);
    out->stamp.emplace_back("listen_address",
                            std::string(kHost) + ":" +
                                std::to_string(server_ ? server_->port() : 0));
    out->stamp.emplace_back("client_sessions", std::to_string(sessions_));
    out->stamp.emplace_back("fresh_connection_every",
                            std::to_string(kFreshEvery));
    out->stamp.emplace_back("repeat_share",
                            std::to_string(sweep_ ? 0.0 : kRepeatShare));
    if (sweep_) {
      out->stamp.emplace_back("sweep_decoded_bytes",
                              std::to_string(order_.decoded_bytes()));
    }
  }

 private:
  static constexpr const char* kHost = "127.0.0.1";

  // One client session: a persistent connection, replaced every
  // kFreshEvery-th request as a pooled client would.
  void Session(int s, int phase, double deadline, Tracer* tracer,
               std::vector<Op>* ops) {
    QueryMix mix(&ws_, cfg_.seed, 1000 + 16 * phase + s);
    Rng rng(cfg_.seed, 2000 + 16 * phase + s);
    std::vector<QuerySpec> history;
    HttpConnection conn;
    for (int n = 0; Now() < deadline; ++n) {
      Op op;
      op.id = next_id_.fetch_add(1);
      if (sweep_) {
        op.q = order_.Next();
      } else if (!history.empty() && rng.Unit() < kRepeatShare) {
        op.q = history[rng.Below(history.size())];
        op.repeat = true;
      } else {
        op.q = mix.Next();
        history.push_back(op.q);
      }
      if (n % kFreshEvery == 0) conn.Close();
      op.start = Now();
      double connected = op.start;
      if (!conn.connected()) {
        Status st = conn.Connect(kHost, server_->port());
        connected = Now();
        if (!st.ok()) {
          op.end = connected;
          op.ok = false;
          op.error = st.ToString();
          ops->push_back(std::move(op));
          continue;
        }
      }
      auto resp = conn.Query(SqlFor(op.q));
      if (!resp.ok()) {
        op.end = Now();
        op.ok = false;
        op.error = resp.status().ToString();
        conn.Close();
        ops->push_back(std::move(op));
        continue;
      }
      op.end = resp->done;
      op.ttfb = resp->first_byte - resp->sent;
      op.stream = resp->done - resp->first_byte;
      op.body_bytes = resp->body_bytes;
      op.saw_end = resp->saw_end;
      op.end_rows = resp->end_rows;
      op.c.queue_wait = resp->queue_wait_seconds;
      op.rows = std::move(resp->rows);
      if (!resp->error.empty()) {
        op.ok = false;
        op.error = resp->error;
      }
      if (tracer->enabled()) {
        int64_t root = tracer->Add("op", op.id, -1, op.start, op.end);
        if (connected > op.start) {
          tracer->Add("server.connect", op.id, root, op.start, connected);
        }
        tracer->Add("server.ttfb", op.id, root, resp->sent, resp->first_byte);
        int64_t st =
            tracer->Add("server.stream", op.id, root, resp->first_byte,
                        resp->done);
        tracer->Count(st, "rows", static_cast<double>(op.rows.size()));
        tracer->Count(st, "bytes", static_cast<double>(op.body_bytes));
        // A sweep op reads every file of its network/channel/day; probe
        // the decode of the first.
        ProbeLayers(wh_.get(), tracer, op.id, SqlFor(op.q),
                    sweep_ ? files_[Reference::Index(op.q.network, 0,
                                                     op.q.channel, op.q.day,
                                                     0)]
                                 .path
                           : std::string());
      }
      ops->push_back(std::move(op));
    }
  }

  const bool sweep_;
  std::vector<ChannelDay> ws_;
  SweepOrder order_;
  std::vector<FileRef> files_;
  int sessions_ = 1;
  int phase_ = 0;
  std::unique_ptr<server::QueryServer> server_;
  std::atomic<uint64_t> next_id_{1};
  double stats_connections_ = 0, stats_errors_ = 0;
};

// --- ingest_refresh ------------------------------------------------------------

class IngestRefresh : public Workload {
 public:
  explicit IngestRefresh(const RunConfig& cfg) : Workload(cfg) {}

  Status Setup(Tracer* tracer) override {
    LAZYETL_RETURN_NOT_OK(OpenWarehouse(DefaultOptions(), tracer));
    // A fresh live archive per set-up: the files it holds change.
    live_root_ = (fs::path(cfg_.work_dir) / ("live" + std::to_string(setups_++)))
                     .string();
    std::error_code ec;
    fs::remove_all(live_root_, ec);
    for (int c = 0; c < kLiveChannels; ++c) {
      Live& ch = live_[c];
      ch.station = LiveStation(c);
      ch.dir = (fs::path(live_root_) / "2010" / "LV" / ch.station / "BHZ.D")
                   .string();
      fs::create_directories(ch.dir, ec);
      if (ec) return Status::IOError("cannot create " + ch.dir);
      ch.base = mseed::SdsFilename("LV", ch.station, "00", "BHZ", 'D',
                                   kStartYear, kStartDayOfYear, 0, 1);
      ch.path = (fs::path(ch.dir) / ch.base).string();
      ch.segment = 0;
      ch.samples = 0;
      ch.next_seq = 1;
      ch.last_stamp = {};
      auto w = mseed::WriteMseedFile(ch.path, Packet(c, kLiveInitialSamples),
                                     mseed::WriterOptions{});
      if (!w.ok()) return w.status();
      ch.next_seq = static_cast<int32_t>(w->num_records) + 1;
      ch.samples = kLiveInitialSamples;
      ch.started.store(ch.samples);
      ch.committed.store(ch.samples);
    }
    {
      ScopedSpan s(tracer, "core.AttachRepository", 0);
      LAZYETL_RETURN_NOT_OK(wh_->AttachRepository(live_root_).status());
    }
    ScopedSpan s(tracer, "core.Warmup", 0);
    for (int c = 0; c < kLiveChannels; ++c) {
      QuerySpec q;
      q.kind = OpKind::kLiveCount;
      q.station = c;
      q.t1 = SampleTime(live_[c].samples - 1);
      LAZYETL_RETURN_NOT_OK(wh_->Query(SqlFor(q)).status());
    }
    return Status::OK();
  }

  Status Run(double seconds, Tracer* tracer, std::vector<Op>* ops) override {
    const double begin = Now();
    const double deadline = begin + seconds;
    std::vector<Op> writes;
    writes.reserve(1 << 12);
    std::thread writer(
        [&] { Writer(begin, deadline, tracer, &writes); });
    Rng rng(cfg_.seed, 300 + phase_++);
    for (int i = 0;; ++i) {
      // Closed loop with think time: query i starts at its tick or, when
      // the previous one ran late, as soon as that one returns.
      const double tick = begin + i * kReaderPeriod;
      if (tick >= deadline) break;
      const double now = Now();
      if (tick > now) {
        std::this_thread::sleep_for(std::chrono::duration<double>(tick - now));
      }
      Op op;
      op.id = next_op_++;
      op.q.station = static_cast<int>(rng.Below(kLiveChannels));
      Live& ch = live_[op.q.station];
      const int64_t before = ch.committed.load();
      const int64_t m = std::max<int64_t>(0, before - kWindowSamples);
      // A sub-sample-period jitter (samples are 25 ms apart) leaves the
      // answer unchanged but makes every op's SQL distinct, so each op
      // does the lazy-refresh and extraction work rather than hitting
      // the whole-result cache at a rate set by the reader's own speed.
      const NanoTime jitter = static_cast<NanoTime>(rng.Below(24'999'999));
      if (rng.Below(2) == 0) {
        // Count as of the newest packet committed before the query was
        // sent: exactly `before` samples.
        op.q.kind = OpKind::kLiveCount;
        op.q.t1 = SampleTime(before - 1) + jitter;
        op.lo = before;
      } else {
        // The latest 30 s committed before the query was sent, plus
        // whatever landed while it ran.
        op.q.kind = OpKind::kLiveWindow;
        op.q.t0 = SampleTime(m) + jitter;
        op.lo = before - m - 1;
      }
      QueryOp(tracer, &op, false);
      op.hi = op.q.kind == OpKind::kLiveCount ? before
                                              : ch.started.load() - m - 1;
      if (tracer->enabled()) ProbeRepeatedCount(op.q.station, op.id, tracer);
      ops->push_back(std::move(op));
    }
    writer.join();
    for (Op& w : writes) ops->push_back(std::move(w));
    return writer_status_;
  }

  // Each count lies between the samples committed before the query was
  // sent and those whose write had started when it completed (as-of counts
  // must be exact); a count's newest sample ends a gap-free series.
  void Validate(std::vector<Op>* ops) override {
    for (Op& op : *ops) {
      if (!op.ok || IsWrite(op.q.kind)) continue;
      std::vector<std::string> c =
          op.rows.size() == 1 ? Cells(op.rows[0]) : std::vector<std::string>();
      if (c.size() != 3 && c.size() != 2) {
        op.ok = false;
        op.error = "live answer " + Describe(op.rows);
        continue;
      }
      int64_t count = Int(c[0]);
      if (count < op.lo || count > op.hi) {
        op.ok = false;
        op.error = "live count " + std::to_string(count) + " outside [" +
                   std::to_string(op.lo) + ", " + std::to_string(op.hi) + "]";
      } else if (op.q.kind == OpKind::kLiveCount &&
                 Int(c[1]) != SampleTime(count - 1)) {
        op.ok = false;
        op.error = "newest sample " + c[1] + " is not sample " +
                   std::to_string(count - 1);
      }
    }
  }

  void Layers(const std::vector<Op>& ops, const std::vector<Span>& /*spans*/,
              std::map<std::string, double>* out) override {
    double late = 0;
    std::vector<double> refresh_ms;
    for (const Op& op : ops) {
      if (IsWrite(op.q.kind)) late = std::max(late, op.began - op.start);
    }
    for (const auto& [b, e] : refresh_spans_) refresh_ms.push_back((e - b) * 1e3);
    std::vector<double> overlapping;
    for (const Op& op : ops) {
      if (IsWrite(op.q.kind) || !op.ok) continue;
      for (const auto& [b, e] : refresh_spans_) {
        if (op.start < e && op.end > b) {
          overlapping.push_back((op.end - op.start) * 1e3);
          break;
        }
      }
    }
    (*out)["ingest.writer_late_ms"] = late * 1e3;
    (*out)["core.refresh_ms"] = Median(refresh_ms);
    (*out)["ingest.reader_during_refresh_ms"] = Median(overlapping);
    (*out)["ingest.refreshes"] = static_cast<double>(refresh_spans_.size());
    (*out)["core.stale_result_answers"] = stale_answers_;
  }

  void Stamp(RunOutput* out) override {
    Workload::Stamp(out);
    out->stamp.emplace_back("live_channels", std::to_string(kLiveChannels));
    out->stamp.emplace_back("writer_period_s", std::to_string(kWriterPeriod));
    out->stamp.emplace_back("roll_every", std::to_string(kRollEvery));
    out->stamp.emplace_back("reader_period_s", std::to_string(kReaderPeriod));
  }

 private:
  // The repeated count SQL of examples/near_realtime.cc, run outside the
  // op. An answer below the samples committed before it was sent is a
  // stale whole-result cache hit: a query that raced an append admitted
  // its result under the post-append mtime.
  void ProbeRepeatedCount(int c, uint64_t op, Tracer* tracer) {
    const int64_t before = live_[c].committed.load();
    ScopedSpan s(tracer, "core.Query.repeated_count", op);
    auto r = wh_->Query("SELECT COUNT(*) FROM mseed.dataview WHERE "
                        "F.station = '" + LiveStation(c) +
                        "' AND F.channel = 'BHZ'");
    if (r.ok() && r->table.num_rows() == 1 &&
        r->table.GetValue(0, 0).AsInt64() < before) {
      ++stale_answers_;
    }
  }

  struct Live {
    std::string station, dir, base, path;
    int segment = 0;
    int64_t samples = 0;  // writer-owned
    int32_t next_seq = 1;
    fs::file_time_type last_stamp{};
    std::atomic<int64_t> started{0};    // samples whose write has begun
    std::atomic<int64_t> committed{0};  // samples surely visible
  };

  static NanoTime SampleTime(int64_t index) {
    return mseed::SampleTimeAt(DayStart(0), kSampleRate,
                               static_cast<size_t>(std::max<int64_t>(0, index)));
  }

  // `n` samples continuing live channel `c`.
  mseed::TimeSeries Packet(int c, size_t n) const {
    const Live& ch = live_[c];
    mseed::TimeSeries ts;
    ts.network = "LV";
    ts.station = ch.station;
    ts.location = "00";
    ts.channel = "BHZ";
    ts.sample_rate = kSampleRate;
    ts.start_time = SampleTime(ch.samples);
    mseed::SynthOptions synth;
    synth.seed = cfg_.seed * 131 + static_cast<uint64_t>(c) * 7 +
                 static_cast<uint64_t>(ch.samples);
    ts.samples = mseed::GenerateSeismogram(n, synth);
    return ts;
  }

  // Open loop: write i is due at begin + i * kWriterPeriod whether or not
  // the previous one has finished; latency runs from the due time.
  void Writer(double begin, double deadline, Tracer* tracer,
              std::vector<Op>* out) {
    writer_status_ = Status::OK();
    for (int i = 0;; ++i) {
      const double due = begin + i * kWriterPeriod;
      if (due >= deadline) break;
      double now = Now();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
      }
      Op op;
      op.id = next_write_id_++;
      op.start = due;
      op.began = Now();
      op.q.station = i % kLiveChannels;
      // Each channel rolls every kRollEvery of its own writes, staggered
      // so the warehouse sees about one Refresh() per kRollEvery writes.
      const int k = i / kLiveChannels;
      op.q.kind = (k + op.q.station * (kRollEvery / kLiveChannels)) %
                              kRollEvery ==
                          kRollEvery - 1
                      ? OpKind::kRoll
                      : OpKind::kAppend;
      Status st =
          Write(op.q.station, op.q.kind == OpKind::kRoll, tracer, op.id);
      op.end = Now();
      if (!st.ok()) {
        op.ok = false;
        op.error = st.ToString();
        if (writer_status_.ok()) writer_status_ = st;
      }
      out->push_back(std::move(op));
      if (!st.ok()) break;
    }
  }

  Status Write(int c, bool roll, Tracer* tracer, uint64_t op) {
    Live& ch = live_[c];
    mseed::TimeSeries packet = Packet(c, kPacketSamples);
    ch.started.fetch_add(static_cast<int64_t>(kPacketSamples));
    if (roll) {
      ++ch.segment;
      char seg[16];
      std::snprintf(seg, sizeof(seg), ".%02d", ch.segment);
      ch.path = (fs::path(ch.dir) / (ch.base + seg)).string();
      {
        ScopedSpan s(tracer, "mseed.WriteMseedFile", op);
        LAZYETL_ASSIGN_OR_RETURN(
            auto w, mseed::WriteMseedFile(ch.path, packet, mseed::WriterOptions{}));
        ch.next_seq = static_cast<int32_t>(w.num_records) + 1;
      }
      double b = Now();
      {
        ScopedSpan s(tracer, "core.Refresh", op);
        LAZYETL_RETURN_NOT_OK(wh_->Refresh().status());
      }
      refresh_spans_.emplace_back(b, Now());
    } else {
      ScopedSpan s(tracer, "mseed.AppendToMseedFile", op);
      LAZYETL_ASSIGN_OR_RETURN(
          auto w, mseed::AppendToMseedFile(ch.path, packet,
                                           mseed::WriterOptions{}, ch.next_seq));
      ch.next_seq += static_cast<int32_t>(w.num_records);
      // As examples/near_realtime.cc does: give every append its own
      // mtime, since coarse filesystem timestamps can leave two appends
      // with one mtime and the lazy refresh detects changes by mtime.
      auto stamp = std::max(fs::file_time_type::clock::now(),
                            ch.last_stamp + std::chrono::microseconds(1));
      std::error_code ec;
      fs::last_write_time(ch.path, stamp, ec);
      if (ec) return Status::IOError("cannot stamp " + ch.path);
      ch.last_stamp = stamp;
    }
    ch.samples += static_cast<int64_t>(kPacketSamples);
    ch.committed.store(ch.samples);
    return Status::OK();
  }

  std::string live_root_;
  int setups_ = 0;
  int phase_ = 0;
  Live live_[kLiveChannels];
  uint64_t next_write_id_ = 1ULL << 40;  // apart from reader op ids
  Status writer_status_;
  std::vector<std::pair<double, double>> refresh_spans_;
  double stale_answers_ = 0;
};

// --- Metrics -------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Order and units match BENCHMARK.json (run.py checks that they do).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"qps", "1/s"},
    {"p50_ms", "ms"},         {"p90_ms", "ms"},
    {"p99_ms", "ms"},         {"peak_rss_mb", "MB"},
    {"cpu_ms_per_op", "ms"},  {"success_ratio", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.attach_s", "s"},
    {"core.attach_bytes_per_file", "B"},
    {"core.query_ms", "ms"},
    {"core.query_self_ms", "ms"},
    {"core.refresh_ms", "ms"},
    {"core.stale_records_per_op", "count"},
    {"core.stale_result_answers", "count"},
    {"sql.parse_ms", "ms"},
    {"sql.parse_report_ms", "ms"},
    {"sql.bind_ms", "ms"},
    {"engine.plan_ms", "ms"},
    {"engine.explain_ms", "ms"},
    {"engine.execute_ms", "ms"},
    {"engine.query_threads", "count"},
    {"engine.peak_intermediate_mb", "MB"},
    {"engine.morsels_pruned_per_op", "count"},
    {"engine.recycler_hit_ratio", "ratio"},
    {"engine.recycler_evictions_per_op", "count"},
    {"engine.recycler_resident_mb", "MB"},
    {"engine.result_cache_hit_ratio", "ratio"},
    {"mseed.extract_ms", "ms"},
    {"mseed.records_per_op", "count"},
    {"mseed.bytes_read_per_op", "B"},
    {"mseed.files_opened_per_op", "count"},
    {"mseed.decode_ms_per_record", "ms"},
    {"common.queue_wait_p50_ms", "ms"},
    {"common.queue_wait_p99_ms", "ms"},
    {"common.threads", "count"},
    {"common.vm_size_mb", "MB"},
    {"common.cpu_util", "ratio"},
    {"storage.catalog_mb", "MB"},
    {"server.ttfb_ms", "ms"},
    {"server.stream_ms", "ms"},
    {"server.bytes_per_row", "B"},
    {"server.connections", "count"},
    {"server.errors", "count"},
    {"server.repeat_share", "ratio"},
    {"ingest.writer_late_ms", "ms"},
    {"ingest.reader_during_refresh_ms", "ms"},
    {"ingest.refreshes", "count"},
    {"bench.op_self_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

std::vector<double> SortedLatenciesMs(const std::vector<Op>& ops) {
  std::vector<double> v;
  v.reserve(ops.size());
  for (const Op& op : ops) v.push_back(op.Latency() * 1e3);
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<double> SpanMs(const std::vector<Span>& spans, const char* name) {
  std::vector<double> v;
  for (const Span& s : spans) {
    if (s.name == name) v.push_back((s.end - s.start) * 1e3);
  }
  return v;
}

std::unique_ptr<Workload> MakeWorkload(const RunConfig& cfg) {
  if (cfg.workload == "interactive_hot") {
    return std::make_unique<InteractiveHot>(cfg);
  }
  if (cfg.workload == "sweep_cold") return std::make_unique<SweepCold>(cfg);
  if (cfg.workload == "serve_keepalive") {
    return std::make_unique<ServeKeepalive>(cfg, false);
  }
  if (cfg.workload == "serve_sweep") {
    return std::make_unique<ServeKeepalive>(cfg, true);
  }
  if (cfg.workload == "ingest_refresh") {
    return std::make_unique<IngestRefresh>(cfg);
  }
  return nullptr;
}

}  // namespace

Result<RunOutput> RunWorkload(const RunConfig& cfg) {
  std::unique_ptr<Workload> w = MakeWorkload(cfg);
  if (!w) return Status::InvalidArgument("unknown workload " + cfg.workload);
  std::error_code ec;
  fs::create_directories(cfg.work_dir, ec);
  if (ec) return Status::IOError("cannot create " + cfg.work_dir);

  Tracer tracer(cfg.trace);
  std::vector<double> setup_s;
  auto set_up = [&](int k) -> Status {
    if (k > 0) w->Teardown();
    double t0 = Now();
    LAZYETL_RETURN_NOT_OK(w->Setup(&tracer));
    setup_s.push_back(Now() - t0);
    return Status::OK();
  };
  for (int k = 0; k < kSetupsBefore; ++k) LAZYETL_RETURN_NOT_OK(set_up(k));

  // Traced runs first run half the time untraced, so the difference in
  // p50 is the tracing overhead.
  // Reserved up front so the op log never reallocates mid-run (untouched
  // capacity is not resident, so it does not count in peak_rss_mb).
  std::vector<Op> plain, ops;
  plain.reserve(1 << 17);
  ops.reserve(1 << 17);
  if (cfg.trace) {
    Tracer off(false);
    LAZYETL_RETURN_NOT_OK(w->Run(cfg.seconds / 2, &off, &plain));
  }
  core::WarehouseStats before = w->warehouse()->Stats();
  const HostCpu host0 = ReadHostCpu();
  const double cpu0 = CpuSeconds(), wall0 = Now();
  LAZYETL_RETURN_NOT_OK(
      w->Run(cfg.trace ? cfg.seconds / 2 : cfg.seconds, &tracer, &ops));
  const double wall1 = Now(), cpu1 = CpuSeconds();
  const HostCpu host1 = ReadHostCpu();
  const ProcStatus proc = ReadProcStatus();
  const core::WarehouseStats after = w->warehouse()->Stats();
  w->AfterRun();

  // Answers are checked outside the timed phase, after the sample above.
  w->Validate(&ops);
  if (cfg.trace) w->Validate(&plain);
  for (int k = kSetupsBefore; k < kSetups; ++k) {
    LAZYETL_RETURN_NOT_OK(set_up(k));
  }

  RunOutput out;
  size_t ok = 0;
  for (const std::vector<Op>* v : {&plain, &ops}) {
    for (const Op& op : *v) {
      ++out.attempted;
      if (op.ok) {
        ++ok;
      } else {
        if (out.failed < 5) {
          out.problems.push_back("op " + std::to_string(op.id) +
                                 " failed: " + op.error + " | " + SqlFor(op.q));
        }
        ++out.failed;
      }
    }
  }
  out.correct = out.failed == 0 && out.attempted > 0;

  const std::vector<double> lat = SortedLatenciesMs(ops);
  for (double q : {0.90, 0.99}) {
    if (!PercentileSupported(lat, q)) {
      out.problems.push_back(
          "p" + std::to_string(static_cast<int>(q * 100)) + " has only " +
          std::to_string(CountBeyond(lat, Percentile(lat, q))) +
          " samples beyond it (n=" + std::to_string(lat.size()) + ")");
    }
  }
  out.stamp.emplace_back("timed_ops", std::to_string(lat.size()));
  out.stamp.emplace_back(
      "p99_samples_beyond",
      std::to_string(CountBeyond(lat, Percentile(lat, 0.99))));
  out.stamp.emplace_back("setup_repeats", std::to_string(kSetups));
  out.stamp.emplace_back(
      "host_steal_share",
      std::to_string(host1.total > host0.total
                         ? (host1.steal - host0.steal) /
                               (host1.total - host0.total)
                         : 0.0));

  const double wall = wall1 - wall0;
  std::map<std::string, double> v;
  if (!cfg.trace) {
    std::vector<Sample> samples;
    std::vector<double> ok_ends;
    for (const Op& op : ops) {
      samples.push_back({op.end, op.Latency() * 1e3});
      if (op.ok) ok_ends.push_back(op.end);
    }
    int b50 = 1, b90 = 1, b99 = 1;
    v["setup_s"] = Median(setup_s);
    v["qps"] = BlockedRate(ok_ends, wall0, wall1, kBlocks);
    v["p50_ms"] = BlockedPercentile(samples, wall0, wall1, 0.50, kBlocks, &b50);
    v["p90_ms"] = BlockedPercentile(samples, wall0, wall1, 0.90, kBlocks, &b90);
    v["p99_ms"] = BlockedPercentile(samples, wall0, wall1, 0.99, kBlocks, &b99);
    out.stamp.emplace_back("blocks_p50_p90_p99", std::to_string(b50) + "," +
                                                     std::to_string(b90) + "," +
                                                     std::to_string(b99));
    v["peak_rss_mb"] = proc.peak_rss_mb;
    v["cpu_ms_per_op"] =
        ops.empty() ? 0 : (cpu1 - cpu0) * 1e3 / static_cast<double>(ops.size());
    v["success_ratio"] =
        out.attempted ? static_cast<double>(ok) / out.attempted : 0;
    for (const MetricDef& m : kEndToEnd) {
      out.metrics.push_back({m.name, v[m.name], m.unit});
    }
  } else {
    const std::vector<Span> spans = tracer.spans();
    const std::vector<double> self = SelfSeconds(spans);
    std::vector<double> parse, bind, plan, execute, extract, queue_wait,
        op_self;
    double stale = 0, threads = 0, pruned = 0, records = 0, bytes = 0,
           files = 0, peak_intermediate = 0,
           reports = 0, result_hits = 0;
    for (const Op& op : ops) {
      if (!op.has_report) {
        if (op.ok && !IsWrite(op.q.kind)) {
          queue_wait.push_back(op.c.queue_wait * 1e3);
        }
        continue;
      }
      ++reports;
      parse.push_back(op.c.parse * 1e3);
      bind.push_back(op.c.bind * 1e3);
      plan.push_back(op.c.plan * 1e3);
      execute.push_back(op.c.execute * 1e3);
      extract.push_back(op.c.extract * 1e3);
      queue_wait.push_back(op.c.queue_wait * 1e3);
      stale += op.c.cache_stale;
      threads += op.c.query_threads;
      pruned += op.c.morsels_pruned;
      records += op.c.records_extracted;
      bytes += op.c.bytes_read;
      files += op.c.files_opened;
      result_hits += op.c.result_cache_hit;
      peak_intermediate = std::max(peak_intermediate, op.c.peak_intermediate);
    }
    double decode_s = 0, decoded_records = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.name == "op") op_self.push_back(self[i] * 1e3);
      if (s.name == "mseed.ReadSelectedRecords") {
        decode_s += s.end - s.start;
        for (const auto& [k, x] : s.counters) {
          if (k == "records") decoded_records += x;
        }
      }
    }
    std::sort(queue_wait.begin(), queue_wait.end());
    auto per_op = [&](double x) { return reports > 0 ? x / reports : 0.0; };
    const double n_ops = static_cast<double>(std::max<size_t>(1, ops.size()));
    v["core.attach_s"] = Median(w->attach_seconds());
    v["core.attach_bytes_per_file"] = Median(w->attach_bytes_per_file());
    v["core.query_ms"] = Median(SpanMs(spans, "core.Query"));
    // The report's phases are the timed children of Query(); the rest
    // (admission, stale-file checks, cache probes and admission) is the
    // core layer's own time.
    std::vector<double> query_self;
    for (const Span& s : spans) {
      if (s.name != "core.Query") continue;
      double phases = 0;
      for (const auto& [k, x] : s.counters) {
        if (k == "parse_s" || k == "bind_s" || k == "plan_s" ||
            k == "execute_s") {
          phases += x;
        }
      }
      query_self.push_back((s.end - s.start - phases) * 1e3);
    }
    v["core.query_self_ms"] = Median(query_self);
    v["core.stale_records_per_op"] = per_op(stale);
    v["sql.parse_ms"] = Median(SpanMs(spans, "sql.Parse"));
    v["sql.parse_report_ms"] = Median(parse);
    v["sql.bind_ms"] = Median(bind);
    v["engine.plan_ms"] = Median(plan);
    v["engine.explain_ms"] = Median(SpanMs(spans, "engine.Explain"));
    v["engine.execute_ms"] = Median(execute);
    v["engine.query_threads"] = per_op(threads);
    v["engine.peak_intermediate_mb"] = peak_intermediate / kMiB;
    v["engine.morsels_pruned_per_op"] = per_op(pruned);
    // Record-cache activity from the warehouse counters, which also see
    // streamed queries (those carry no report to the client).
    const double cache_hits =
        static_cast<double>(after.cache.hits - before.cache.hits);
    const double cache_misses =
        static_cast<double>(after.cache.misses - before.cache.misses);
    v["engine.recycler_hit_ratio"] =
        cache_hits + cache_misses > 0
            ? cache_hits / (cache_hits + cache_misses)
            : 0;
    v["engine.recycler_evictions_per_op"] =
        static_cast<double>(after.cache.evictions - before.cache.evictions) /
        n_ops;
    v["engine.recycler_resident_mb"] =
        static_cast<double>(after.cache.current_bytes) / kMiB;
    // Streamed queries carry no report: count their hits on the warehouse.
    v["engine.result_cache_hit_ratio"] =
        reports > 0 ? result_hits / reports
                    : static_cast<double>(after.result_cache_hits -
                                          before.result_cache_hits) /
                          n_ops;
    v["mseed.extract_ms"] = Median(extract);
    v["mseed.records_per_op"] =
        reports > 0 ? per_op(records) : cache_misses / n_ops;
    v["mseed.bytes_read_per_op"] = per_op(bytes);
    v["mseed.files_opened_per_op"] = per_op(files);
    v["mseed.decode_ms_per_record"] =
        decoded_records > 0 ? decode_s * 1e3 / decoded_records : 0;
    v["common.queue_wait_p50_ms"] = Percentile(queue_wait, 0.50);
    v["common.queue_wait_p99_ms"] = Percentile(queue_wait, 0.99);
    v["common.threads"] = proc.threads;
    v["common.vm_size_mb"] = proc.vm_size_mb;
    v["common.cpu_util"] = wall > 0 ? (cpu1 - cpu0) / wall : 0;
    v["storage.catalog_mb"] = static_cast<double>(after.catalog_bytes) / kMiB;
    v["bench.op_self_ms"] = Median(op_self);
    v["trace.overhead_ms"] = Percentile(lat, 0.50) -
                             Percentile(SortedLatenciesMs(plain), 0.50);
    w->Layers(ops, spans, &v);
    for (const MetricDef& m : kPerLayer) {
      out.metrics.push_back({m.name, v[m.name], m.unit});
    }
    const std::string trace_path =
        (fs::path(cfg.work_dir).parent_path() /
         ("trace-" + cfg.workload + "-" + std::to_string(cfg.seed) + ".jsonl"))
            .string();
    if (!WriteSpans(trace_path, spans, self)) {
      out.problems.push_back("cannot write " + trace_path);
    }
    out.stamp.emplace_back("trace_file", trace_path);
    out.stamp.emplace_back("spans", std::to_string(spans.size()));
  }

  w->Stamp(&out);
  w->Teardown();
  fs::remove_all(cfg.work_dir, ec);
  return out;
}

}  // namespace perfbench
