#include "engine/operators/batch_cursor.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace lazyetl::engine {

namespace {
constexpr int64_t kNoneDelivered = -1;
}  // namespace

BatchCursor::BatchCursor(BatchOperator* op, Options options)
    : op_(op), opts_(options) {}

BatchCursor::~BatchCursor() { Close(); }

void BatchCursor::Start() {
  started_ = true;
  opts_.threads = DriveWorkers(op_, opts_.threads);
  parallel_ = opts_.threads > 1;
  if (!parallel_) return;
  watermark_.assign(opts_.threads, kNoneDelivered);
  finished_.assign(opts_.threads, false);
  driver_ = std::thread([this] { DriveLoop(); });
}

// Safe flush horizon: any pending seq at or below the minimum watermark of
// the unfinished workers can never be preceded by a still-missing batch
// (each worker delivers strictly increasing seqs).
int64_t BatchCursor::SafeSeqLocked() const {
  int64_t safe = std::numeric_limits<int64_t>::max();
  for (size_t w = 0; w < watermark_.size(); ++w) {
    if (!finished_[w]) safe = std::min(safe, watermark_[w]);
  }
  return safe;
}

void BatchCursor::NoteBufferedLocked() {
  uint64_t batches = ready_.size() + pending_.size();
  if (batches > peak_buffered_batches_) peak_buffered_batches_ = batches;
  if (buffered_bytes_ > peak_buffered_bytes_) {
    peak_buffered_bytes_ = buffered_bytes_;
  }
}

bool BatchCursor::FlushLocked(std::unique_lock<std::mutex>& lock) {
  while (!cancelled_ && !pending_.empty() &&
         static_cast<int64_t>(pending_.begin()->first) <= SafeSeqLocked()) {
    if (opts_.window_batches > 0 && ready_.size() >= opts_.window_batches) {
      // Backpressure: the consumer is behind. Suspend this producer until
      // it pops a batch (or the cursor is closed) — morsel dispatch stops
      // with it, so nothing buffers unboundedly.
      space_cv_.wait(lock, [&] {
        return cancelled_ || ready_.size() < opts_.window_batches;
      });
      continue;
    }
    ready_.push_back(std::move(pending_.begin()->second));
    pending_.erase(pending_.begin());
    ready_cv_.notify_one();
  }
  return !cancelled_;
}

void BatchCursor::DriveLoop() {
  Status st = ParallelDrain(
      op_, opts_.threads,
      [this](size_t worker, Batch&& batch) -> Status {
        std::unique_lock<std::mutex> lock(mu_);
        if (cancelled_) return Status::ExecutionError("batch cursor closed");
        watermark_[worker] = static_cast<int64_t>(batch.seq);
        buffered_bytes_ += batch.view.ViewedBytes();
        pending_.emplace(batch.seq, std::move(batch));
        NoteBufferedLocked();
        if (!FlushLocked(lock)) {
          return Status::ExecutionError("batch cursor closed");
        }
        // This delivery may have advanced the flush horizon: peers
        // suspended in the reorder wait below re-evaluate who the
        // laggard is.
        space_cv_.notify_all();
        // Reorder-window backpressure: FlushLocked bounds the in-order
        // ready queue, but a worker running far ahead of the laggard
        // would still pile out-of-order batches into pending_ without
        // limit. Suspend it until total buffered state is back inside
        // the window — except the laggard itself (the worker every
        // flush is waiting on), which must keep producing or no seq
        // gap ever fills.
        if (opts_.window_batches > 0) {
          space_cv_.wait(lock, [&] {
            return cancelled_ ||
                   ready_.size() + pending_.size() <= opts_.window_batches ||
                   watermark_[worker] <= SafeSeqLocked();
          });
          if (cancelled_) {
            return Status::ExecutionError("batch cursor closed");
          }
        }
        return Status::OK();
      },
      [this](size_t worker) {
        std::unique_lock<std::mutex> lock(mu_);
        finished_[worker] = true;
        FlushLocked(lock);
        // A finished (or failed) worker leaves the watermark set: a new
        // laggard may emerge, and waiters keyed on it must wake.
        space_cv_.notify_all();
      });

  std::unique_lock<std::mutex> lock(mu_);
  // After a clean join everything still pending is fully ordered: stream
  // it out, still honoring the window. On failure st carries the first
  // error and the pending remainder is dropped at Close. The
  // schema-restoring batch of an empty parallel phase arrived through
  // the sink above.
  std::fill(finished_.begin(), finished_.end(), true);
  if (st.ok()) {
    FlushLocked(lock);
  } else if (!cancelled_ && error_.ok()) {
    error_ = st;
  }
  producer_done_ = true;
  ready_cv_.notify_all();
}

Result<bool> BatchCursor::Next(Batch* out) {
  if (closed_) return false;
  if (!started_) Start();

  if (!parallel_) {
    if (serial_done_) return false;
    auto more = op_->Next(out);
    if (!more.ok() || !*more) {
      serial_done_ = true;
      return more;
    }
    // Serial mode buffers exactly the batch in flight.
    uint64_t bytes = out->view.ViewedBytes();
    if (peak_buffered_batches_ == 0) peak_buffered_batches_ = 1;
    if (bytes > peak_buffered_bytes_) peak_buffered_bytes_ = bytes;
    return more;
  }

  std::unique_lock<std::mutex> lock(mu_);
  ready_cv_.wait(lock, [&] { return !ready_.empty() || producer_done_; });
  if (!ready_.empty()) {
    *out = std::move(ready_.front());
    ready_.pop_front();
    uint64_t bytes = out->view.ViewedBytes();
    buffered_bytes_ -= std::min(buffered_bytes_, bytes);
    space_cv_.notify_all();
    return true;
  }
  if (!error_.ok()) return error_;
  return false;
}

void BatchCursor::Close() {
  if (closed_) return;
  closed_ = true;
  if (!started_ || !parallel_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
    ready_.clear();
    pending_.clear();
    buffered_bytes_ = 0;
  }
  space_cv_.notify_all();
  ready_cv_.notify_all();
  if (driver_.joinable()) driver_.join();
}

}  // namespace lazyetl::engine
