// BatchCursor: the resumable, pull-side form of the morsel-driven drive
// loop. Where DrainToTableOrdered runs the drive loop to completion and
// collects a Table, a BatchCursor suspends it: the consumer calls Next()
// to receive batches one at a time, in serial seq order, while `threads`
// workers keep pulling morsels in the background.
//
// Backpressure: the in-order ready queue is bounded by
// Options::window_batches. When the consumer falls behind, producers
// block inside the drive loop before handing over more flushable batches
// — a slow client suspends morsel dispatch instead of buffering the
// result unboundedly. Out-of-order batches awaiting their predecessors
// (the reassembly `pending` map) are transient and bounded by worker
// skew, exactly as in DrainToTableOrdered.
//
// Early Close() (consumer abandons the stream — client disconnect, LIMIT
// satisfied upstream) cancels the drive loop: blocked producers wake,
// workers observe the failure flag and stop pulling morsels, and the
// driver thread is joined before Close() returns. Close() is idempotent
// and implied by the destructor. The cursor does NOT own the operator
// tree — the caller closes it after the cursor is closed.

#ifndef LAZYETL_ENGINE_OPERATORS_BATCH_CURSOR_H_
#define LAZYETL_ENGINE_OPERATORS_BATCH_CURSOR_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "engine/operators/operator.h"

namespace lazyetl::engine {

class BatchCursor {
 public:
  struct Options {
    // Upper bound on the drive loop's workers; the loop uses
    // DriveWorkers(op, threads). One worker (a small input, a
    // parallel-unsafe root, threads <= 1) selects the inline serial mode,
    // which buffers nothing.
    size_t threads = 1;
    // Backpressure window: maximum batches held in the cursor (in-order
    // ready queue + out-of-order reassembly buffer) before producers
    // suspend — the laggard worker the flush horizon waits on is exempt,
    // so a seq gap always fills. 0 = unbounded (the materializing drain,
    // which consumes as fast as batches flush).
    size_t window_batches = 0;
  };

  // The operator tree must already be Open()ed and must outlive the
  // cursor. The drive loop starts lazily on the first Next().
  BatchCursor(BatchOperator* op, Options options);
  ~BatchCursor();

  BatchCursor(const BatchCursor&) = delete;
  BatchCursor& operator=(const BatchCursor&) = delete;

  // Fills *out with the next in-order batch; returns false at end of
  // stream. The first batch always carries the schema (possibly with zero
  // rows). After an error or Close(), returns the error / false. Single
  // consumer: Next and Close must be called from one thread at a time.
  Result<bool> Next(Batch* out);

  // Cancels the drive loop and joins the driver thread. Safe to call at
  // any point (before the first Next, mid-stream, after exhaustion);
  // idempotent. After Close, Next returns end-of-stream.
  void Close();

  // Peak batches/bytes resident in the cursor (ready queue + reassembly
  // buffer) — the serving-path analogue of peak_intermediate_bytes. With
  // a non-zero window, total buffered batches stay within window_batches
  // plus one in-flight delivery per worker.
  uint64_t peak_buffered_batches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_buffered_batches_;
  }
  uint64_t peak_buffered_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_buffered_bytes_;
  }

 private:
  void Start();
  void DriveLoop();
  // Moves every flushable pending batch (seq <= safe watermark) into the
  // ready queue, waiting for window space as needed. Returns false when
  // cancelled. Called under `mu_` (the lock is released while waiting).
  bool FlushLocked(std::unique_lock<std::mutex>& lock);
  int64_t SafeSeqLocked() const;
  void NoteBufferedLocked();

  BatchOperator* op_;
  Options opts_;
  bool parallel_ = false;
  bool started_ = false;
  bool closed_ = false;

  // Serial mode: Next() pulls the operator directly.
  bool serial_done_ = false;

  // Parallel mode: a driver thread runs ParallelDrain; its sink reassembles
  // seq order through per-worker watermarks (see DrainToTableOrdered) and
  // feeds the bounded ready queue the consumer pops from.
  std::thread driver_;
  mutable std::mutex mu_;
  std::condition_variable ready_cv_;  // consumer waits: batch ready / done
  std::condition_variable space_cv_;  // producers wait: window space / close
  std::deque<Batch> ready_;
  std::map<uint64_t, Batch> pending_;
  std::vector<int64_t> watermark_;
  std::vector<bool> finished_;
  bool producer_done_ = false;
  bool cancelled_ = false;
  Status error_;  // first drive-loop error, delivered after drained batches

  uint64_t buffered_bytes_ = 0;
  uint64_t peak_buffered_batches_ = 0;
  uint64_t peak_buffered_bytes_ = 0;
};

}  // namespace lazyetl::engine

#endif  // LAZYETL_ENGINE_OPERATORS_BATCH_CURSOR_H_
