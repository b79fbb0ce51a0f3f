// ExecutionReport: the introspection artifact of a query.
//
// The demo lets the audience observe (4) query plans and the changes made
// to them during lazy extraction, (5) which files were touched, (6) plans
// generated on the fly for lazy transformation, and (7) cache contents and
// updates. The engine and the lazy-ETL layer record all of that here.

#ifndef LAZYETL_ENGINE_REPORT_H_
#define LAZYETL_ENGINE_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace lazyetl::engine {

// Per-operator pipeline counters, one entry per operator instance in the
// executed batch pipeline (pre-order: parents before children). Counters
// are aggregated thread-safely, so batch/row totals are exact at any
// query_threads setting; `seconds` sums the time of every worker inside
// Open() and Next() (inclusive of children), which under parallel
// execution can exceed wall-clock time. `self_seconds` is `seconds` minus
// the children's `seconds` (clamped at 0): exact when the query runs
// serially, where the self times of a plan sum to its root's `seconds`;
// an approximation under parallel drive, where children run on workers
// the parent's clock does not see.
struct OperatorStats {
  std::string op;            // e.g. "Filter", "Scan(mseed.files)"
  uint64_t batches = 0;      // batches emitted
  uint64_t rows = 0;         // rows emitted
  uint64_t peak_batch_bytes = 0;  // largest single emitted batch
  uint64_t state_bytes = 0;  // materialised state (pipeline breakers)
  // Memory governance: bytes spilled to disk when the operator's state
  // exceeded the memory budget, the number of spill files written, and the
  // number of Grace partitions processed (0 on the in-memory path).
  uint64_t spilled_bytes = 0;
  uint64_t spill_files = 0;
  uint64_t partitions = 0;
  // Spill I/O detail: physical bytes after per-column compression
  // (spilled_bytes stays the logical, uncompressed-equivalent volume) and
  // the time the operator was blocked on spill writes (0 when the async
  // writer fully overlapped them with the consume phase).
  uint64_t spill_compressed_bytes = 0;
  double spill_write_wait_seconds = 0;
  // Zone-map pruning (scan stage of a fused FilterScan): morsels skipped
  // because chunk statistics proved no row could satisfy the predicate,
  // and the rows those morsels covered (never touched).
  uint64_t morsels_pruned = 0;
  uint64_t rows_pruned = 0;
  // Hash join: build-side indexes constructed by this operator (the
  // in-memory path builds one; the Grace path builds one per joined
  // partition), and the time spent building them vs. probing them
  // (approximate: probe time is the batched lookup itself, excluding the
  // gather of matched rows).
  uint64_t join_builds = 0;
  double join_build_seconds = 0;
  double join_probe_seconds = 0;
  // Bloom semi-join pushdown (probe-side scan): rows dropped before they
  // ever reached the join because their key hash was provably absent from
  // the build side.
  uint64_t rows_bloom_filtered = 0;
  // Workers of the drive loop that pulled this operator (1 = serial); 0
  // when its parent pulled it directly.
  uint64_t drive_workers = 0;
  double seconds = 0;        // aggregate worker time inside Open()/Next()
  double self_seconds = 0;   // `seconds` minus the children's `seconds`
};

struct ExecutionReport {
  std::string sql;

  // Compile-time plans: as naively derived from the query, and after the
  // optimizer reorganised it so metadata predicates apply first (§3.1).
  std::string plan_before;
  std::string plan_after;
  // Run-time plan: after the rewriting operator replaced the LazyDataScan
  // placeholder with cache-access / file-extraction operators.
  std::string plan_runtime;

  // Lazy extraction counters.
  uint64_t records_requested = 0;   // distinct (file, record) pairs needed
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_stale = 0;         // cached but outdated (file modified)
  uint64_t files_opened = 0;
  std::vector<std::string> files_touched;  // paths read during extraction
  uint64_t records_extracted = 0;
  uint64_t samples_extracted = 0;
  uint64_t bytes_read = 0;

  // Lazy refresh at query time: candidate files checked for staleness, and
  // the real stats this query's freshness checks made (the change journal
  // answers the rest from memory).
  uint64_t files_stat_checked = 0;
  uint64_t files_statted = 0;

  // Deferred metadata (filename-only initial loading).
  uint64_t files_hydrated = 0;

  // Whole-result recycling.
  bool result_cache_hit = false;

  uint64_t result_rows = 0;

  // Batch pipeline introspection: one entry per operator, and an upper
  // bound on the intermediate bytes live at any point of the execution
  // (sum over operators of materialised state + largest emitted batch).
  std::vector<OperatorStats> operator_stats;
  uint64_t peak_intermediate_bytes = 0;
  // The most workers any drive loop of the query used (1 = all serial):
  // each loop sizes its workers from its input's morsel count, capped at
  // the configured query_threads. And how many loops ran serially and on
  // several workers.
  uint64_t query_threads = 1;
  uint64_t serial_drives = 0;
  uint64_t parallel_drives = 0;
  // Memory governance: the resolved per-query budget (0 = unlimited) and
  // spill totals summed over the pipeline's operators.
  uint64_t memory_budget_bytes = 0;
  uint64_t spilled_bytes = 0;
  uint64_t spill_files = 0;
  // Spill I/O totals: physical bytes on disk after compression and
  // producer time blocked on spill writes (see OperatorStats).
  uint64_t spill_compressed_bytes = 0;
  double spill_write_wait_seconds = 0;
  // Resolved rows-per-morsel of the drive loop (batch_rows after the
  // LAZYETL_MORSEL_ROWS override).
  uint64_t morsel_rows = 0;
  // Zone-map pruning totals summed over the pipeline's scans.
  uint64_t morsels_pruned = 0;
  uint64_t rows_pruned = 0;
  // Hash join: build indexes constructed, probe rows skipped by the Bloom
  // semi-join pushdown, and the summed build/probe phase timings of every
  // join in the pipeline.
  uint64_t join_builds = 0;
  uint64_t probe_rows_bloom_filtered = 0;
  double join_build_seconds = 0;
  double join_probe_seconds = 0;

  // Concurrent serving: the scheduler admission ticket (0 when no
  // scheduler was involved), how long the query waited in the admission
  // queue (monotonic clock; includes time blocked on footprint headroom,
  // not just the slot wait), and the per-query budget the scheduler
  // carved from the global cap (0 = unlimited).
  uint64_t ticket_id = 0;
  double queue_wait_seconds = 0;
  uint64_t admitted_budget_bytes = 0;
  // Workload-aware admission: the query's priority class, its fair-share
  // client id ("" = the anonymous tenant), and the plan-derived footprint
  // estimate admission was gated on (0 = estimation off).
  std::string priority = "normal";
  std::string client_id;
  uint64_t estimated_footprint_bytes = 0;

  // Phase timings in seconds.
  double parse_seconds = 0;
  double bind_seconds = 0;
  double plan_seconds = 0;
  double execute_seconds = 0;
  double extract_seconds = 0;  // part of execute spent in lazy extraction
  double total_seconds = 0;

  std::string ToString() const;
};

}  // namespace lazyetl::engine

#endif  // LAZYETL_ENGINE_REPORT_H_
