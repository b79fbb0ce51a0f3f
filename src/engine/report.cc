#include "engine/report.h"

#include <cstdio>
#include <sstream>

namespace lazyetl::engine {

std::string ExecutionReport::ToString() const {
  std::ostringstream os;
  os << "query: " << sql << "\n";
  os << "result rows: " << result_rows << "\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "timings: parse %.3fms bind %.3fms plan %.3fms exec %.3fms "
                "(extract %.3fms) total %.3fms",
                parse_seconds * 1e3, bind_seconds * 1e3, plan_seconds * 1e3,
                execute_seconds * 1e3, extract_seconds * 1e3,
                total_seconds * 1e3);
  os << buf << "\n";
  os << "lazy extraction: requested " << records_requested
     << " records | cache hits " << cache_hits << " misses " << cache_misses
     << " stale " << cache_stale << " | files opened " << files_opened
     << " | records extracted " << records_extracted << " ("
     << samples_extracted << " samples, " << bytes_read << " bytes read)\n";
  if (files_stat_checked > 0 || files_statted > 0) {
    os << "lazy refresh: checked " << files_stat_checked << " files ("
       << files_statted << " statted)\n";
  }
  if (files_hydrated > 0) {
    os << "deferred metadata: hydrated " << files_hydrated << " files\n";
  }
  if (result_cache_hit) {
    os << "result served from recycler cache\n";
  }
  if (query_threads > 1) {
    os << "query threads: " << query_threads << " (drive loops: "
       << serial_drives << " serial, " << parallel_drives << " parallel)\n";
  }
  if (ticket_id > 0) {
    std::snprintf(buf, sizeof(buf),
                  "scheduler: ticket %llu | queue wait %.3fms | admitted "
                  "budget %llu B",
                  static_cast<unsigned long long>(ticket_id),
                  queue_wait_seconds * 1e3,
                  static_cast<unsigned long long>(admitted_budget_bytes));
    os << buf;
    os << " | priority " << priority;
    if (!client_id.empty()) os << " | client " << client_id;
    if (estimated_footprint_bytes > 0) {
      os << " | estimated footprint " << estimated_footprint_bytes << " B";
    }
    os << "\n";
  }
  if (memory_budget_bytes > 0) {
    os << "memory budget: " << memory_budget_bytes << " B | spilled "
       << spilled_bytes << " B in " << spill_files << " files";
    if (spill_compressed_bytes > 0 && spill_compressed_bytes != spilled_bytes) {
      os << " (" << spill_compressed_bytes << " B on disk)";
    }
    if (spill_write_wait_seconds > 0) {
      std::snprintf(buf, sizeof(buf), " | write wait %.3fms",
                    spill_write_wait_seconds * 1e3);
      os << buf;
    }
    os << "\n";
  }
  if (join_builds > 0) {
    std::snprintf(buf, sizeof(buf),
                  "hash join: %llu builds | build %.3fms probe %.3fms",
                  static_cast<unsigned long long>(join_builds),
                  join_build_seconds * 1e3, join_probe_seconds * 1e3);
    os << buf;
    if (probe_rows_bloom_filtered > 0) {
      os << " | bloom skipped " << probe_rows_bloom_filtered << " probe rows";
    }
    os << "\n";
  }
  if (morsel_rows > 0) {
    os << "morsel rows: " << morsel_rows << "\n";
  }
  if (!operator_stats.empty()) {
    os << "--- operator pipeline ---\n";
    for (const auto& op : operator_stats) {
      std::snprintf(buf, sizeof(buf),
                    "%s: %llu batches, %llu rows, peak batch %llu B, "
                    "state %llu B, %.3fms (self %.3fms)",
                    op.op.c_str(),
                    static_cast<unsigned long long>(op.batches),
                    static_cast<unsigned long long>(op.rows),
                    static_cast<unsigned long long>(op.peak_batch_bytes),
                    static_cast<unsigned long long>(op.state_bytes),
                    op.seconds * 1e3, op.self_seconds * 1e3);
      os << buf;
      if (op.spilled_bytes > 0 || op.partitions > 0) {
        std::snprintf(buf, sizeof(buf),
                      " | spilled %llu B, %llu files, %llu partitions",
                      static_cast<unsigned long long>(op.spilled_bytes),
                      static_cast<unsigned long long>(op.spill_files),
                      static_cast<unsigned long long>(op.partitions));
        os << buf;
        if (op.spill_compressed_bytes > 0 &&
            op.spill_compressed_bytes != op.spilled_bytes) {
          std::snprintf(buf, sizeof(buf), " (%llu B on disk)",
                        static_cast<unsigned long long>(
                            op.spill_compressed_bytes));
          os << buf;
        }
      }
      if (op.morsels_pruned > 0) {
        std::snprintf(buf, sizeof(buf), " | pruned %llu morsels (%llu rows)",
                      static_cast<unsigned long long>(op.morsels_pruned),
                      static_cast<unsigned long long>(op.rows_pruned));
        os << buf;
      }
      if (op.join_builds > 0) {
        std::snprintf(
            buf, sizeof(buf),
            " | %llu join builds (build %.3fms probe %.3fms)",
            static_cast<unsigned long long>(op.join_builds),
            op.join_build_seconds * 1e3, op.join_probe_seconds * 1e3);
        os << buf;
      }
      if (op.rows_bloom_filtered > 0) {
        std::snprintf(buf, sizeof(buf), " | bloom skipped %llu rows",
                      static_cast<unsigned long long>(op.rows_bloom_filtered));
        os << buf;
      }
      os << "\n";
    }
    os << "peak intermediate bytes: " << peak_intermediate_bytes << "\n";
  }
  if (!plan_before.empty()) {
    os << "--- plan (naive) ---\n" << plan_before;
    os << "--- plan (metadata-first) ---\n" << plan_after;
    if (!plan_runtime.empty()) {
      os << "--- plan (after run-time rewrite) ---\n" << plan_runtime;
    }
  }
  return os.str();
}

}  // namespace lazyetl::engine
