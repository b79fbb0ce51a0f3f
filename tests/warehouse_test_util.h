// Helpers for warehouse-level tests: generate a small deterministic
// repository and open warehouses over it.

#ifndef LAZYETL_TESTS_WAREHOUSE_TEST_UTIL_H_
#define LAZYETL_TESTS_WAREHOUSE_TEST_UTIL_H_

#include <memory>
#include <string>

#include "common/macros.h"
#include "core/warehouse.h"
#include "mseed/repository.h"
#include "test_util.h"

namespace lazyetl::testing {

// Small demo repository: 5 stations x 2-3 channels x 2 days x 30 s at
// 40 Hz — a few dozen files, a few records each.
inline mseed::RepositoryConfig SmallRepoConfig() {
  mseed::RepositoryConfig cfg = mseed::DefaultDemoConfig();
  cfg.num_days = 2;
  cfg.seconds_per_segment = 30.0;
  return cfg;
}

inline mseed::GeneratedRepository MustGenerate(
    const std::string& root, const mseed::RepositoryConfig& cfg) {
  auto repo = mseed::GenerateRepository(root, cfg);
  EXPECT_TRUE(repo.ok()) << repo.status().ToString();
  return *repo;
}

inline std::unique_ptr<core::Warehouse> MustOpen(
    core::LoadStrategy strategy, const std::string& root,
    uint64_t cache_budget = 64ULL << 20, bool result_cache = true) {
  core::WarehouseOptions options;
  options.strategy = strategy;
  options.cache_budget_bytes = cache_budget;
  options.enable_result_cache = result_cache;
  auto wh = core::Warehouse::Open(options);
  EXPECT_TRUE(wh.ok()) << wh.status().ToString();
  auto stats = (*wh)->AttachRepository(root);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return std::move(*wh);
}

// Drains OpenCursor(sql) into one table plus the final report — the
// streamed counterpart of Query(sql).
inline Result<core::QueryResult> DrainCursor(
    core::Warehouse* wh, const std::string& sql,
    const core::QueryOptions& options = {}) {
  LAZYETL_ASSIGN_OR_RETURN(auto cursor, wh->OpenCursor(sql, options));
  core::QueryResult out;
  storage::Table batch;
  for (bool first = true;; first = false) {
    LAZYETL_ASSIGN_OR_RETURN(bool more, cursor->Next(&batch));
    if (!more) break;
    if (first) {
      out.table = batch;
    } else {
      LAZYETL_RETURN_NOT_OK(out.table.AppendTable(batch));
    }
  }
  out.report = cursor->report();
  return out;
}

// The two queries of the paper's Fig. 1, adapted to the generated
// repository's day (2010-01-10, doy 10).
inline const char* kPaperQ1 =
    "SELECT AVG(D.sample_value) "
    "FROM mseed.dataview "
    "WHERE F.station = 'ISK' "
    "AND F.channel = 'BHE' "
    "AND R.start_time > '2010-01-10T00:00:00.000' "
    "AND R.start_time < '2010-01-10T23:59:59.999' "
    "AND D.sample_time > '2010-01-10T00:00:10.000' "
    "AND D.sample_time < '2010-01-10T00:00:12.000';";

inline const char* kPaperQ2 =
    "SELECT F.station, "
    "MIN(D.sample_value), MAX(D.sample_value) "
    "FROM mseed.dataview "
    "WHERE F.network = 'NL' "
    "AND F.channel = 'BHZ' "
    "GROUP BY F.station;";

}  // namespace lazyetl::testing

#endif  // LAZYETL_TESTS_WAREHOUSE_TEST_UTIL_H_
