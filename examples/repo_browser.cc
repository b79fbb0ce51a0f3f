// Interactive repository browser: the textual analog of the demo GUI
// (Fig. 2). Lets you
//   (1) attach a repository with metadata-only loading,
//   (2) browse metadata and navigate the data with ad-hoc SQL,
//   (4,6) inspect query plans before/after compile-time reorganisation and
//         after the run-time rewrite,
//   (5)   see which files lazy extraction touched,
//   (7)   inspect the cache contents,
//   (8)   dump the operation log.
//
// Usage: repo_browser <repository-dir> [--eager|--lazy|--filename-only]
// Commands:  \tables  \cache  \log  \stats  \plan <sql>  \refresh  \quit
// Anything else is executed as SQL.

#include <iostream>
#include <sstream>
#include <string>

#include "common/log.h"
#include "common/string_util.h"
#include "core/warehouse.h"

namespace {

using lazyetl::core::LoadStrategy;
using lazyetl::core::Warehouse;
using lazyetl::core::WarehouseOptions;

void PrintHelp() {
  std::cout <<
      "commands:\n"
      "  <sql>;         run a query (tables: mseed.files, mseed.records,\n"
      "                 mseed.data; view: mseed.dataview with F/R/D)\n"
      "  \\plan <sql>   show plans without caring about the result\n"
      "  \\tables       list catalog tables and views\n"
      "  \\cache        show recycler cache contents (demo point 7)\n"
      "  \\log          show the operation log (demo point 8)\n"
      "  \\stats        warehouse statistics\n"
      "  \\refresh      re-scan the repository for changes\n"
      "  \\help         this text\n"
      "  \\quit         exit\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: repo_browser <repository-dir> "
                 "[--eager|--lazy|--filename-only]\n";
    return 2;
  }
  std::string root = argv[1];
  LoadStrategy strategy = LoadStrategy::kLazy;
  if (argc > 2) {
    std::string flag = argv[2];
    if (flag == "--eager") strategy = LoadStrategy::kEager;
    if (flag == "--filename-only") strategy = LoadStrategy::kLazyFilenameOnly;
  }

  WarehouseOptions options;
  options.strategy = strategy;
  auto wh = Warehouse::Open(options);
  if (!wh.ok()) {
    std::cerr << wh.status().ToString() << "\n";
    return 1;
  }
  auto load = (*wh)->AttachRepository(root);
  if (!load.ok()) {
    std::cerr << load.status().ToString() << "\n";
    return 1;
  }
  std::printf(
      "attached %s (%s): %zu files, %zu records, %.3f ms, %llu bytes read\n",
      root.c_str(), lazyetl::core::LoadStrategyToString(strategy),
      load->files, load->records, load->seconds * 1e3,
      static_cast<unsigned long long>(load->bytes_read));
  PrintHelp();

  std::string line;
  std::string buffer;
  while (true) {
    std::cout << (buffer.empty() ? "lazyetl> " : "     ... ") << std::flush;
    if (!std::getline(std::cin, line)) break;
    std::string trimmed = lazyetl::Trim(line);
    if (trimmed.empty()) continue;

    if (trimmed[0] == '\\') {
      std::istringstream iss(trimmed);
      std::string cmd;
      iss >> cmd;
      if (cmd == "\\quit" || cmd == "\\q") break;
      if (cmd == "\\help") {
        PrintHelp();
      } else if (cmd == "\\tables") {
        for (const auto& name : (*wh)->catalog().TableNames()) {
          auto t = (*wh)->catalog().GetTable(name);
          std::printf("  table %-16s %8zu rows\n", name.c_str(),
                      t.ok() ? (*t)->num_rows() : 0);
        }
        for (const auto& name : (*wh)->catalog().ViewNames()) {
          std::printf("  view  %s\n", name.c_str());
        }
      } else if (cmd == "\\stats") {
        auto s = (*wh)->Stats();
        std::printf(
            "  strategy %s | files %zu (hydrated %zu) | repo %llu B | "
            "catalog %llu B\n",
            lazyetl::core::LoadStrategyToString(s.strategy), s.num_files,
            s.num_hydrated_files,
            static_cast<unsigned long long>(s.repository_bytes),
            static_cast<unsigned long long>(s.catalog_bytes));
        auto tier = [](const char* name, const lazyetl::engine::CacheStats& c) {
          std::printf(
              "  %s: %llu/%llu B, %llu entries, hits %llu misses %llu "
              "stale %llu evictions %llu\n",
              name, static_cast<unsigned long long>(c.current_bytes),
              static_cast<unsigned long long>(c.budget_bytes),
              static_cast<unsigned long long>(c.entries),
              static_cast<unsigned long long>(c.hits),
              static_cast<unsigned long long>(c.misses),
              static_cast<unsigned long long>(c.stale),
              static_cast<unsigned long long>(c.evictions));
        };
        tier("record cache", s.cache);
        tier("result cache", s.result_cache);
      } else if (cmd == "\\log") {
        for (const auto& e : lazyetl::OperationLog::Global().Entries()) {
          std::printf("  [%5lld] %-14s %s\n",
                      static_cast<long long>(e.seq),
                      lazyetl::LogCategoryToString(e.category),
                      e.message.c_str());
        }
      } else if (cmd == "\\cache") {
        // Both tiers, least recently used first: record keys as file and
        // seq_no (a run of one file's records on one line), results as SQL.
        auto s = (*wh)->Stats();
        const lazyetl::core::CacheContents contents = (*wh)->CachedKeys();
        std::printf("  record cache: %zu records, %llu/%llu B\n",
                    contents.records.size(),
                    static_cast<unsigned long long>(s.cache.current_bytes),
                    static_cast<unsigned long long>(s.cache.budget_bytes));
        for (size_t i = 0; i < contents.records.size(); ++i) {
          const auto& key = contents.records[i];
          const bool same_file =
              i > 0 && contents.records[i - 1].file_id == key.file_id;
          if (same_file) {
            std::printf(", %lld", static_cast<long long>(key.seq_no));
          } else {
            std::printf("%s    file %lld: seq_no %lld", i > 0 ? "\n" : "",
                        static_cast<long long>(key.file_id),
                        static_cast<long long>(key.seq_no));
          }
        }
        if (!contents.records.empty()) std::printf("\n");
        std::printf("  result cache: %zu results, %llu/%llu B\n",
                    contents.results.size(),
                    static_cast<unsigned long long>(
                        s.result_cache.current_bytes),
                    static_cast<unsigned long long>(
                        s.result_cache.budget_bytes));
        for (const std::string& sql : contents.results) {
          std::printf("    %s\n", sql.c_str());
        }
      } else if (cmd == "\\refresh") {
        auto r = (*wh)->Refresh();
        if (!r.ok()) {
          std::cout << "  " << r.status().ToString() << "\n";
        } else {
          std::printf("  new %zu, modified %zu, deleted %zu in %.3f ms\n",
                      r->new_files, r->modified_files, r->deleted_files,
                      r->seconds * 1e3);
        }
      } else if (cmd == "\\plan") {
        std::string sql;
        std::getline(iss, sql);
        auto report = (*wh)->Explain(lazyetl::Trim(sql));
        if (!report.ok()) {
          std::cout << "  " << report.status().ToString() << "\n";
        } else {
          std::cout << "--- plan (naive) ---\n" << report->plan_before;
          std::cout << "--- plan (metadata-first) ---\n"
                    << report->plan_after;
          std::cout << "(run the query to see the run-time rewrite)\n";
        }
      } else {
        std::cout << "  unknown command; try \\help\n";
      }
      continue;
    }

    // Accumulate SQL until a trailing semicolon.
    buffer += (buffer.empty() ? "" : " ") + trimmed;
    if (buffer.back() != ';') continue;
    std::string sql;
    std::swap(sql, buffer);

    auto result = (*wh)->Query(sql);
    if (!result.ok()) {
      std::cout << result.status().ToString() << "\n";
      continue;
    }
    std::cout << result->table.ToString(40);
    const auto& rep = result->report;
    std::printf(
        "(%llu rows, %.3f ms; requested %llu records, cache hits %llu, "
        "extracted %llu from %llu files%s)\n",
        static_cast<unsigned long long>(rep.result_rows),
        rep.total_seconds * 1e3,
        static_cast<unsigned long long>(rep.records_requested),
        static_cast<unsigned long long>(rep.cache_hits),
        static_cast<unsigned long long>(rep.records_extracted),
        static_cast<unsigned long long>(rep.files_opened),
        rep.result_cache_hit ? "; served from result cache" : "");
    for (const auto& path : rep.files_touched) {
      std::cout << "  touched: " << path << "\n";
    }
  }
  return 0;
}
