// Streaming cursor + serving front-end: streamed results must equal
// materialized Query() results byte-for-byte (same JSON encoding on both
// sides) across thread counts, memory budgets and priorities; streaming
// must hold peak resident result bytes to O(window × batch); early Close
// (LIMIT satisfied, client disconnect) and mid-stream errors must release
// the admission slot, budget carve and spill directory exactly once; and
// the wire protocol must map admission headers and typed status codes
// faithfully — including queue timeouts, which are counted by
// Stats().queries_timed_out on the cursor path exactly as on Query().

#include <gtest/gtest.h>

#include <cstdlib>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/memory_budget.h"
#include "core/warehouse.h"
#include "server/client.h"
#include "server/json.h"
#include "server/server.h"
#include "storage/table.h"
#include "test_util.h"
#include "warehouse_test_util.h"

namespace lazyetl::core {
namespace {

namespace fs = std::filesystem;
using storage::Table;

// Multi-batch by construction: batch_rows is forced tiny so even the
// small demo repository streams tens of batches.
constexpr size_t kTestBatchRows = 128;

// The unsigned value of `key` in a flat JSON object such as GET /stats.
uint64_t StatField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing from " << json;
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

std::unique_ptr<Warehouse> OpenServing(const std::string& root,
                                       size_t query_threads,
                                       uint64_t memory_budget,
                                       size_t max_concurrent = 0,
                                       const std::string& spill_dir = "",
                                       size_t batch_rows = kTestBatchRows) {
  WarehouseOptions options;
  options.strategy = LoadStrategy::kLazy;
  options.query_threads = query_threads;
  options.memory_budget_bytes = memory_budget;
  options.max_concurrent_queries = max_concurrent;
  options.batch_rows = batch_rows;
  options.spill_dir = spill_dir;
  auto wh = Warehouse::Open(options);
  EXPECT_TRUE(wh.ok()) << wh.status().ToString();
  auto stats = (*wh)->AttachRepository(root);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return std::move(*wh);
}

const char* kParityQueries[] = {
    testing::kPaperQ1,
    testing::kPaperQ2,
    "SELECT file_id, station, channel FROM mseed.files ORDER BY file_id;",
    "SELECT D.sample_value FROM mseed.dataview "
    "WHERE F.station = 'ISK' AND F.channel = 'BHE';",
    "SELECT AVG(D.sample_value) FROM mseed.dataview "
    "WHERE F.station = 'ZZZ';",  // aggregate over empty input: one NULL row
    "SELECT file_id, station FROM mseed.files "
    "WHERE station = 'ZZZ';",  // genuinely empty result: zero rows
};

class ServeStreamTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    repo_dir_ = new testing::ScopedTempDir();
    testing::MustGenerate(repo_dir_->path(), testing::SmallRepoConfig());
  }
  static void TearDownTestSuite() {
    delete repo_dir_;
    repo_dir_ = nullptr;
  }
  static const std::string& repo() { return repo_dir_->path(); }

 private:
  static testing::ScopedTempDir* repo_dir_;
};

testing::ScopedTempDir* ServeStreamTest::repo_dir_ = nullptr;

// --- Parity: streamed ≡ materialized --------------------------------------

TEST_F(ServeStreamTest, StreamedMatchesMaterializedAcrossConfigs) {
  const size_t kThreads[] = {1, 8};
  const uint64_t kBudgets[] = {0, 1ULL << 20};
  const char* kPriorities[] = {"low", "high"};
  for (size_t threads : kThreads) {
    for (uint64_t budget : kBudgets) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " budget=" + std::to_string(budget));
      auto wh = OpenServing(repo(), threads, budget);
      server::QueryServer srv(wh.get());
      ASSERT_STATUS_OK(srv.Start());

      for (const char* sql : kParityQueries) {
        SCOPED_TRACE(sql);
        auto expected = wh->Query(sql);
        ASSERT_OK(expected);
        std::vector<std::string> expected_rows =
            server::JsonRows(expected->table);
        // Query() admitted its result; drop it so pass 0 streams an
        // executed query. Pass 1 is then answered from the whole-result
        // cache that pass 0 warmed — unless the result is wider than the
        // cursor's retention window, which is never admitted. Parity must
        // hold on both the execution and the cache path.
        wh->ClearCaches();
        const bool wide = expected->table.num_rows() >
                          wh->options().cursor_window_batches * kTestBatchRows;

        for (int pass = 0; pass < 2; ++pass) {
          const uint64_t hits_before = wh->Stats().result_cache_hits;
          server::ClientOptions copts;
          copts.priority = kPriorities[pass % 2];
          auto streamed =
              server::RunStreamedQuery("127.0.0.1", srv.port(), sql, copts);
          ASSERT_OK(streamed);
          ASSERT_EQ(streamed->http_status, 200) << streamed->error_body;
          EXPECT_TRUE(streamed->error_code.empty())
              << streamed->error_code << ": " << streamed->error_message;
          ASSERT_TRUE(streamed->saw_end);
          EXPECT_EQ(streamed->end_rows, expected->table.num_rows());
          EXPECT_FALSE(streamed->schema_json.empty());
          ASSERT_EQ(streamed->rows.size(), expected_rows.size());
          for (size_t r = 0; r < expected_rows.size(); ++r) {
            ASSERT_EQ(streamed->rows[r], expected_rows[r]) << "row " << r;
          }
          EXPECT_EQ(wh->Stats().result_cache_hits - hits_before,
                    pass == 1 && !wide ? 1u : 0u)
              << "pass " << pass;
        }
      }
      srv.Stop();
    }
  }
}

TEST_F(ServeStreamTest, BinaryFramesMatchNdjson) {
  auto wh = OpenServing(repo(), 2, 0);
  server::QueryServer srv(wh.get());
  ASSERT_STATUS_OK(srv.Start());
  const char* sql = kParityQueries[2];

  server::ClientOptions ndjson;
  auto a = server::RunStreamedQuery("127.0.0.1", srv.port(), sql, ndjson);
  server::ClientOptions frames;
  frames.binary_frames = true;
  auto b = server::RunStreamedQuery("127.0.0.1", srv.port(), sql, frames);
  ASSERT_OK(a);
  ASSERT_OK(b);
  ASSERT_EQ(a->http_status, 200);
  ASSERT_EQ(b->http_status, 200);
  ASSERT_TRUE(a->saw_end);
  ASSERT_TRUE(b->saw_end);
  EXPECT_EQ(a->schema_json, b->schema_json);
  EXPECT_EQ(a->rows, b->rows);
  EXPECT_EQ(a->end_rows, b->end_rows);
}

TEST_F(ServeStreamTest, EmptyResultStreamsSchemaThenEnd) {
  auto wh = OpenServing(repo(), 2, 0);
  server::QueryServer srv(wh.get());
  ASSERT_STATUS_OK(srv.Start());
  auto streamed =
      server::RunStreamedQuery("127.0.0.1", srv.port(), kParityQueries[5]);
  ASSERT_OK(streamed);
  ASSERT_EQ(streamed->http_status, 200) << streamed->error_body;
  EXPECT_FALSE(streamed->schema_json.empty());
  EXPECT_EQ(streamed->rows.size(), 0u);
  EXPECT_EQ(streamed->batch_frames, 0u);
  ASSERT_TRUE(streamed->saw_end);
  EXPECT_EQ(streamed->end_rows, 0u);
}

// --- Streaming memory: O(batch), not O(result) ----------------------------

TEST_F(ServeStreamTest, PeakBufferedBytesStayFarBelowMaterialized) {
  // A wide scan whose materialized result dwarfs one batch. The cursor's
  // peak resident result bytes (drive loop -> consumer) must sit at least
  // 10x below the materialized table, both serial and parallel. A cursor
  // retains at most its backpressure window for whole-result admission, so
  // this stream is never admitted; Query() follows the same admission rule:
  // it returns every row but admits nothing, and its repeat is a miss.
  const char* sql =
      "SELECT D.sample_value, D.sample_time FROM mseed.dataview "
      "WHERE F.channel = 'BHZ';";
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto wh = OpenServing(repo(), threads, 0);
    // Stream before materializing: a prior Query() would admit the whole
    // result into the recycler and the cursor would answer from cache
    // (zero execution buffering) instead of exercising the drive loop.
    auto cursor = wh->OpenCursor(sql);
    ASSERT_OK(cursor);
    Table batch;
    uint64_t rows = 0;
    while (true) {
      auto more = (*cursor)->Next(&batch);
      ASSERT_OK(more);
      if (!*more) break;
      rows += batch.num_rows();
    }
    const uint64_t peak = (*cursor)->peak_buffered_bytes();
    EXPECT_EQ(wh->Stats().result_cache.entries, 0u);

    auto expected = wh->Query(sql);
    ASSERT_OK(expected);
    EXPECT_FALSE(expected->report.result_cache_hit);
    EXPECT_EQ(wh->Stats().result_cache.entries, 0u);
    auto repeat = wh->Query(sql);
    ASSERT_OK(repeat);
    EXPECT_FALSE(repeat->report.result_cache_hit);
    EXPECT_EQ(repeat->table.num_rows(), expected->table.num_rows());
    EXPECT_EQ(wh->Stats().result_cache.entries, 0u);
    const uint64_t materialized = expected->table.MemoryBytes();
    ASSERT_GT(expected->table.num_rows(), 20u * kTestBatchRows);
    ASSERT_GT(expected->table.num_rows(),
              wh->options().cursor_window_batches * kTestBatchRows);
    EXPECT_EQ(rows, expected->table.num_rows());
    EXPECT_GT(peak, 0u);
    EXPECT_LE(peak * 10, materialized)
        << "peak=" << peak << " materialized=" << materialized;
  }
}

// --- Early close / abandonment --------------------------------------------

TEST_F(ServeStreamTest, EarlyCloseReleasesTicketBudgetAndSpill) {
  testing::ScopedTempDir spill_dir;
  common::MemoryBudget& global = common::MemoryBudget::Process();
  {
    auto wh = OpenServing(repo(), 4, 1ULL << 20, /*max_concurrent=*/2,
                          spill_dir.path());
    const char* sql =
        "SELECT D.sample_value, D.sample_time FROM mseed.dataview "
        "WHERE F.channel = 'BHZ' ORDER BY D.sample_value;";

    for (int round = 0; round < 3; ++round) {
      auto cursor = wh->OpenCursor(sql);
      ASSERT_OK(cursor);
      Table first;
      auto more = (*cursor)->Next(&first);
      ASSERT_OK(more);
      // Abandon mid-stream: the slot frees immediately (a second cursor
      // admits on a 2-slot scheduler while the first is still open).
      (*cursor)->Close();
      EXPECT_EQ(wh->Stats().queries_active, 0u);
    }
    // Dropping the handle without Close (client disconnect) releases too.
    {
      auto cursor = wh->OpenCursor(sql);
      ASSERT_OK(cursor);
      Table first;
      ASSERT_OK((*cursor)->Next(&first));
    }
    EXPECT_EQ(wh->Stats().queries_active, 0u);
    // Abandoned spilling queries left no spill directories behind.
    size_t leftover = 0;
    for (auto it = fs::recursive_directory_iterator(spill_dir.path());
         it != fs::recursive_directory_iterator(); ++it) {
      ++leftover;
    }
    EXPECT_EQ(leftover, 0u) << "orphaned spill state under "
                            << spill_dir.path();
  }
  // The warehouse is gone: every budget reservation (cursor state
  // included) must have been returned to the process-global budget.
  EXPECT_EQ(global.used(), 0u);
}

// --- Mid-stream errors ----------------------------------------------------

// Zeroes every byte of every mSEED file in place: size and mtime are
// preserved, so both staleness passes (the pre-plan candidate refresh,
// which compares mtime AND size, and the record stream's open-time mtime
// check) keep trusting the loaded metadata — OpenCursor succeeds, and the
// failure surfaces where deferred extraction first decodes a record
// (Steim frames of zeros hold zero samples), strictly mid-stream.
void CorruptRepositoryKeepingStat(const std::string& root) {
  for (auto it = fs::recursive_directory_iterator(root);
       it != fs::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file()) continue;
    auto mtime = fs::last_write_time(it->path());
    std::vector<char> zeros(fs::file_size(it->path()), 0);
    std::ofstream out(it->path(), std::ios::binary | std::ios::in);
    out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
    out.close();
    fs::last_write_time(it->path(), mtime);
  }
}

TEST_F(ServeStreamTest, MidStreamErrorPropagatesAndReleases) {
  // Private repository copy — this test destroys the data.
  testing::ScopedTempDir dir;
  testing::MustGenerate(dir.path(), testing::SmallRepoConfig());
  auto wh = OpenServing(dir.path(), 2, 0);
  server::QueryServer srv(wh.get());
  ASSERT_STATUS_OK(srv.Start());

  CorruptRepositoryKeepingStat(dir.path());

  // Cursor path: the error is typed, sticky, and releasing.
  auto cursor = wh->OpenCursor(kParityQueries[3]);
  ASSERT_OK(cursor);
  Table batch;
  Status error = Status::OK();
  while (true) {
    auto more = (*cursor)->Next(&batch);
    if (!more.ok()) {
      error = more.status();
      break;
    }
    if (!*more) break;
  }
  EXPECT_FALSE(error.ok()) << "corrupted repository still extracted";
  EXPECT_EQ(wh->Stats().queries_active, 0u);

  // Wire path: the 200 is already committed when extraction fails, so
  // the typed code must arrive as an in-stream error frame.
  auto streamed =
      server::RunStreamedQuery("127.0.0.1", srv.port(), kParityQueries[3]);
  ASSERT_OK(streamed);
  ASSERT_EQ(streamed->http_status, 200);
  EXPECT_FALSE(streamed->saw_end);
  EXPECT_FALSE(streamed->error_code.empty());
  EXPECT_EQ(streamed->error_code, StatusCodeToString(error.code()));
  EXPECT_EQ(wh->Stats().queries_active, 0u);
}

// --- Wire protocol --------------------------------------------------------

TEST_F(ServeStreamTest, ProtocolMapsHeadersAndErrors) {
  auto wh = OpenServing(repo(), 2, 0, /*max_concurrent=*/1);
  server::QueryServer srv(wh.get());
  ASSERT_STATUS_OK(srv.Start());

  auto health = server::HttpGet("127.0.0.1", srv.port(), "/healthz");
  ASSERT_OK(health);
  EXPECT_EQ(*health, "ok\n");

  // Unknown endpoint.
  auto missing = server::HttpGet("127.0.0.1", srv.port(), "/nope");
  EXPECT_FALSE(missing.ok());

  // Parse and bind errors are typed pre-stream failures: HTTP 400.
  auto bad_sql =
      server::RunStreamedQuery("127.0.0.1", srv.port(), "SELEC nonsense");
  ASSERT_OK(bad_sql);
  EXPECT_EQ(bad_sql->http_status, 400);
  EXPECT_NE(bad_sql->error_body.find("parse-error"), std::string::npos)
      << bad_sql->error_body;
  auto bad_table = server::RunStreamedQuery(
      "127.0.0.1", srv.port(), "SELECT x FROM no.such_table;");
  ASSERT_OK(bad_table);
  EXPECT_EQ(bad_table->http_status, 400);

  // Malformed admission headers fail before admission.
  server::ClientOptions bad_priority;
  bad_priority.priority = "urgent";
  auto rejected = server::RunStreamedQuery("127.0.0.1", srv.port(),
                                           kParityQueries[0], bad_priority);
  ASSERT_OK(rejected);
  EXPECT_EQ(rejected->http_status, 400);

  // Valid headers reach the report: client id and priority round-trip.
  server::ClientOptions tagged;
  tagged.priority = "high";
  tagged.client_id = "tenant-42";
  auto ok = server::RunStreamedQuery("127.0.0.1", srv.port(),
                                     kParityQueries[1], tagged);
  ASSERT_OK(ok);
  ASSERT_EQ(ok->http_status, 200) << ok->error_body;
  EXPECT_TRUE(ok->saw_end);
  EXPECT_GT(ok->ticket, 0u);
}

TEST_F(ServeStreamTest, QueueTimeoutIs503AndCounted) {
  auto wh = OpenServing(repo(), 2, 0, /*max_concurrent=*/1);
  server::QueryServer srv(wh.get());
  ASSERT_STATUS_OK(srv.Start());

  const uint64_t timed_out_before = wh->Stats().queries_timed_out;
  // Hold the only slot with an open cursor, mid-stream.
  auto holder = wh->OpenCursor(kParityQueries[3]);
  ASSERT_OK(holder);
  Table first;
  ASSERT_OK((*holder)->Next(&first));

  server::ClientOptions opts;
  opts.queue_timeout_ms = 50;
  auto blocked = server::RunStreamedQuery("127.0.0.1", srv.port(),
                                          kParityQueries[0], opts);
  ASSERT_OK(blocked);
  EXPECT_EQ(blocked->http_status, 503);
  EXPECT_NE(blocked->error_body.find("deadline-exceeded"), std::string::npos)
      << blocked->error_body;
  // Cursor-path timeouts count in the same scheduler stat as Query().
  EXPECT_EQ(wh->Stats().queries_timed_out, timed_out_before + 1);

  (*holder)->Close();
  // The slot freed: the same request now succeeds.
  auto after = server::RunStreamedQuery("127.0.0.1", srv.port(),
                                        kParityQueries[0], opts);
  ASSERT_OK(after);
  EXPECT_EQ(after->http_status, 200) << after->error_body;

  auto stats = server::HttpGet("127.0.0.1", srv.port(), "/stats");
  ASSERT_OK(stats);
  EXPECT_NE(stats->find("\"queries_timed_out\":1"), std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("\"journal_queue_overflows\":0}"), std::string::npos)
      << *stats;

  // Cache and drive counters agree with the warehouse's own; both cache
  // tiers report the same fields.
  const WarehouseStats ws = wh->Stats();
  const std::pair<std::string, engine::CacheStats> tiers[] = {
      {"record_cache", ws.cache}, {"result_cache", ws.result_cache}};
  for (const auto& [tier, c] : tiers) {
    SCOPED_TRACE(tier);
    EXPECT_EQ(StatField(*stats, tier + "_hits"), c.hits);
    EXPECT_EQ(StatField(*stats, tier + "_misses"), c.misses);
    EXPECT_EQ(StatField(*stats, tier + "_stale"), c.stale);
    EXPECT_EQ(StatField(*stats, tier + "_evictions"), c.evictions);
    EXPECT_EQ(StatField(*stats, tier + "_resident_bytes"), c.current_bytes);
    EXPECT_EQ(StatField(*stats, tier + "_entries"), c.entries);
    EXPECT_GT(c.misses, 0u);
    EXPECT_GT(c.current_bytes, 0u);
  }
  EXPECT_EQ(ws.result_cache_hits, ws.result_cache.hits);
  // The completed one-row query was admitted; the abandoned one was not.
  EXPECT_EQ(ws.result_cache.entries, 1u);
  EXPECT_EQ(StatField(*stats, "serial_drives"), ws.serial_drives);
  EXPECT_EQ(StatField(*stats, "parallel_drives"), ws.parallel_drives);
  EXPECT_GT(ws.serial_drives, 0u);
}

// --- Concurrent serving over the socket -----------------------------------

TEST_F(ServeStreamTest, ConcurrentClientsStreamConsistently) {
  auto wh = OpenServing(repo(), 2, 0, /*max_concurrent=*/4);
  server::QueryServer srv(wh.get());
  ASSERT_STATUS_OK(srv.Start());

  auto expected = wh->Query(kParityQueries[2]);
  ASSERT_OK(expected);
  std::vector<std::string> expected_rows = server::JsonRows(expected->table);

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  const char* priorities[] = {"low", "normal", "high"};
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      server::ClientOptions opts;
      opts.priority = priorities[t % 3];
      opts.client_id = "client-" + std::to_string(t % 2);
      auto streamed = server::RunStreamedQuery("127.0.0.1", srv.port(),
                                               kParityQueries[2], opts);
      if (!streamed.ok()) {
        failures[t] = streamed.status().ToString();
        return;
      }
      if (streamed->http_status != 200 || !streamed->saw_end ||
          streamed->rows != expected_rows) {
        failures[t] = "stream mismatch (http " +
                      std::to_string(streamed->http_status) + ")";
      }
    });
  }
  for (auto& c : clients) c.join();
  for (int t = 0; t < kClients; ++t) {
    EXPECT_TRUE(failures[t].empty()) << "client " << t << ": " << failures[t];
  }
  srv.Stop();
  EXPECT_EQ(wh->Stats().queries_active, 0u);
  EXPECT_EQ(srv.counters().queries_ok, static_cast<uint64_t>(kClients));
}

// --- Connection threads are reaped ----------------------------------------

// This process's virtual size in KiB, from /proc/self/status.
uint64_t VmSizeKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  return 0;
}

TEST_F(ServeStreamTest, SequentialConnectionsDoNotGrowVirtualMemory) {
  // Every one-shot connection gets its own thread. Threads that exited
  // but were never joined keep their stack mappings (8 MiB each by
  // default), so without reaping 2,000 connections would grow VmSize by
  // ~16 GB while the live thread count stays flat.
  auto wh = OpenServing(repo(), 1, 0);
  server::QueryServer srv(wh.get());
  ASSERT_STATUS_OK(srv.Start());
  const char* sql = kParityQueries[2];
  ASSERT_OK(server::RunStreamedQuery("127.0.0.1", srv.port(), sql));
  const uint64_t before_kib = VmSizeKiB();
  ASSERT_GT(before_kib, 0u);

  constexpr int kConnections = 2000;
  for (int i = 0; i < kConnections; ++i) {
    auto streamed = server::RunStreamedQuery("127.0.0.1", srv.port(), sql);
    ASSERT_OK(streamed);
    ASSERT_EQ(streamed->http_status, 200) << streamed->error_body;
  }
  const uint64_t after_kib = VmSizeKiB();
  EXPECT_LT(after_kib, before_kib + 256 * 1024)
      << "VmSize grew from " << before_kib << " KiB to " << after_kib
      << " KiB over " << kConnections << " connections";
  srv.Stop();
  EXPECT_EQ(srv.counters().queries_ok, uint64_t{kConnections} + 1);
}

}  // namespace
}  // namespace lazyetl::core
