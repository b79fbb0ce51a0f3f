// Executor: a thin driver over the streaming batch pipeline.
//
// Plans execute as a pull-based tree of BatchOperators (engine/operators/)
// exchanging fixed-size batches, so peak intermediate memory of pipelined
// plans is bounded by O(batch size × pipeline depth) instead of the full
// qualifying set. The LazyDataScan operator realises the paper's run-time
// plan modification (§3.1): after the metadata side of the plan has
// executed, the rewriting step inspects the qualifying (file_id, seq_no)
// pairs and asks the LazyDataProvider for exactly those records; the
// provider serves them from the recycler cache or extracts them from the
// source files — file by file, feeding the pipeline as a stream. The
// "plan after rewrite" — which records came from cache, which files were
// opened — is recorded in the ExecutionReport, along with per-operator
// batch/row/time counters.

#ifndef LAZYETL_ENGINE_EXECUTOR_H_
#define LAZYETL_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "engine/plan.h"
#include "engine/recycler.h"
#include "engine/report.h"
#include "storage/catalog.h"

namespace lazyetl::engine {

// Rows per pipeline batch (the vectorized execution sweet spot: large
// enough to amortise per-batch overhead, small enough to stay cache- and
// memory-friendly).
inline constexpr size_t kDefaultBatchRows = 4096;

// "Cannot tell": the morsel or chunk count of a source that does not know
// it in advance.
inline constexpr size_t kUnknownMorsels = SIZE_MAX;

// The rows of one record within a chunk: from first_row up to the next
// run's first row (or the chunk's end). Every sample of a record shares
// its keys, so a chunk lists them once per run instead of once per row.
struct RecordRun {
  int64_t file_id = 0;
  int64_t seq_no = 0;
  uint32_t first_row = 0;
};

// A chunk of extracted samples: the requested columns, and the record runs
// its rows come in (ascending first_row, none empty).
struct RecordChunk {
  storage::Table table;
  std::vector<RecordRun> runs;
};

// A pull stream of record chunks produced by lazy extraction. Chunks
// arrive file-by-file, each at most the requested batch size, so the
// engine never holds more than a bounded window of extracted data.
// Streams emit at least one (possibly empty) chunk before end-of-stream
// so the schema always reaches the consumer.
class RecordStream {
 public:
  virtual ~RecordStream() = default;

  // Fills *out with the next chunk; returns false at end of stream.
  virtual Result<bool> Next(RecordChunk* out) = 0;

  // The chunks the stream will emit (at most), known once it is created;
  // kUnknownMorsels when it cannot tell.
  virtual size_t chunks() const { return kUnknownMorsels; }
};

// Supplies actual data at query time (implemented by the lazy ETL layer).
class LazyDataProvider {
 public:
  virtual ~LazyDataProvider() = default;

  // Streams `columns` (named by output_name) for exactly the requested
  // records, file-by-file in chunks of at most `batch_rows` rows, keeping
  // of each record only the samples whose times fall in `times`. Expected
  // columns are a subset of the data table's schema (file_id, seq_no,
  // sample_time, sample_value); none means all four.
  virtual Result<std::unique_ptr<RecordStream>> StreamRecords(
      const std::vector<RecordKey>& keys,
      const std::vector<ScanColumn>& columns, const SampleTimeRange& times,
      size_t batch_rows, ExecutionReport* report) = 0;

  // The §3.1 worst case: every record of the repository.
  virtual Result<std::unique_ptr<RecordStream>> StreamAllRecords(
      const std::vector<ScanColumn>& columns, size_t batch_rows,
      ExecutionReport* report) = 0;
};

struct ExecutorOptions {
  // Rows per pipeline batch. SIZE_MAX reproduces whole-table intermediates
  // (the materialize-everything baseline, useful for comparison).
  size_t batch_rows = kDefaultBatchRows;
  // Most worker threads a drive loop of the batch pipeline may use
  // (morsel-driven parallelism: sources hand out disjoint batch-sized
  // morsels, pipeline breakers merge per-batch partial states
  // deterministically; each loop sizes its workers from its input's
  // morsel count). 0 = hardware_concurrency; 1 = the serial execution
  // path. Results are deterministic at any
  // setting; floating-point SUM/AVG combine per-batch partials in batch
  // order under parallelism, which can differ from the serial row-order
  // sum in the last few ulps.
  size_t query_threads = 0;
  // Memory governance: per-query cap on resident pipeline-breaker state
  // (Sort / Aggregate / Distinct / HashJoin build). 0 = unlimited (the
  // in-memory fast paths; the LAZYETL_MEMORY_BUDGET environment variable,
  // if set, supplies the cap instead). With a finite budget, breakers
  // spill state to temp files under `spill_dir` and stream it back —
  // results stay byte-identical to the unbudgeted run at any thread
  // count.
  uint64_t memory_budget_bytes = 0;
  // Directory for spill files; "" = LAZYETL_SPILL_DIR, else the system
  // temp directory. Each query gets its own subdirectory, removed when
  // the query finishes (crash-orphaned directories are swept by the next
  // spilling query).
  std::string spill_dir;
};

class QueryContext;
class BatchCursor;
class BatchOperator;
struct Batch;
struct ExecContext;

// A suspended query execution: the operator tree stays open while the
// consumer pulls in-order batches through Next(). Produced by
// Executor::OpenCursor; Execute() is now a drain loop over one of these.
//
// Close() (implied by the destructor, idempotent) cancels the drive loop,
// closes the operator tree, finalizes the per-operator stats in the
// report exactly once, and — on the standalone path — releases the local
// QueryContext (budget + spill dir). Admitted queries release their
// QueryContext in the owner (core::QueryCursor). Single consumer: Next
// and Close are called from one thread at a time. The plan passed to
// OpenCursor must outlive the cursor (operators hold pointers into it).
class ExecutionCursor {
 public:
  ~ExecutionCursor();
  ExecutionCursor(const ExecutionCursor&) = delete;
  ExecutionCursor& operator=(const ExecutionCursor&) = delete;

  // Fills *out with the next in-order batch; returns false at end of
  // stream (after finalizing the report). The first batch always carries
  // the schema. Errors finalize the report (without per-operator stats,
  // matching Execute) and are sticky.
  Result<bool> Next(Batch* out);

  // Tears down the pipeline: cancel + join the drive loop, close the
  // operator tree, finalize the report, release standalone context state.
  // Exactly-once and safe mid-stream (client disconnect).
  void Close();

  // Peak result batches/bytes buffered between producers and the
  // consumer; see BatchCursor. Stable after Close()/exhaustion.
  uint64_t peak_buffered_batches() const;
  uint64_t peak_buffered_bytes() const;

 private:
  friend class Executor;
  ExecutionCursor();
  void Finalize(bool with_stats);

  std::unique_ptr<QueryContext> local_ctx_;  // standalone path only
  QueryContext* qctx_ = nullptr;
  ExecutionReport* report_ = nullptr;
  std::unique_ptr<ExecContext> exec_ctx_;
  std::unique_ptr<BatchOperator> root_;
  std::unique_ptr<BatchCursor> cursor_;
  uint64_t peak_buffered_batches_ = 0;
  uint64_t peak_buffered_bytes_ = 0;
  bool finalized_ = false;
  bool closed_ = false;
  bool finished_ = false;
};

class Executor {
 public:
  // `provider` may be null (pure eager warehouse); executing a
  // LazyDataScan without a provider is an execution error.
  Executor(const storage::Catalog* catalog, LazyDataProvider* provider,
           ExecutorOptions options = {})
      : catalog_(catalog), provider_(provider), options_(options) {}

  // Builds the batch-operator tree for `plan`, drains it, and assembles
  // the result table. Per-operator counters land in `report`. `qctx`
  // supplies the per-query budget/spill state (admission-controlled
  // serving, see engine/query_context.h); when null, a standalone context
  // is constructed from the options (budget from
  // memory_budget_bytes, else the LAZYETL_MEMORY_BUDGET environment
  // variable, chained to the process-global budget).
  Result<storage::Table> Execute(const PlanNode& plan,
                                 ExecutionReport* report,
                                 QueryContext* qctx = nullptr);

  // Streaming form of Execute: builds and opens the operator tree, then
  // returns a cursor yielding in-order batches. `window_batches` bounds
  // the batches buffered ahead of the consumer (backpressure; 0 =
  // unbounded). `plan` (and `report`/`qctx`, when given) must outlive the
  // cursor.
  Result<std::unique_ptr<ExecutionCursor>> OpenCursor(
      const PlanNode& plan, ExecutionReport* report,
      QueryContext* qctx = nullptr, size_t window_batches = 0);

 private:
  const storage::Catalog* catalog_;
  LazyDataProvider* provider_;
  ExecutorOptions options_;
};

// Joins two materialised tables on equal key columns (hash join; build on
// left). Exposed for reuse by the LazyDataScan implementation and tests.
Result<storage::Table> HashJoinTables(const storage::Table& left,
                                      const storage::Table& right,
                                      const std::vector<std::string>& left_keys,
                                      const std::vector<std::string>& right_keys);

}  // namespace lazyetl::engine

#endif  // LAZYETL_ENGINE_EXECUTOR_H_
