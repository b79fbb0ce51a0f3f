// Benchmark-side tracing: a span around each public call the benchmark
// makes into the program (name, start, end, parent span, op id), kept in
// memory and written out when the run ends. Spans are recorded from the
// benchmark's own code only; nothing is instrumented inside the program.
//
// A layer's self time is its span's duration minus the part of that
// interval covered by its direct children (children may overlap each
// other, e.g. parallel client sessions under one parent).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  int64_t id = 0;
  int64_t parent = -1;  // -1 = root
  uint64_t op = 0;      // op id shared by every span of one operation
  std::string name;     // "<layer>.<call>", e.g. "core.Query"
  double start = 0;
  double end = 0;
  // Report counters attached to the span whose call returned them.
  std::vector<std::pair<std::string, double>> counters;
};

// Thread-safe span recorder. When disabled every call is a no-op and
// Begin returns -1, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  int64_t Begin(std::string name, uint64_t op, int64_t parent = -1);
  void End(int64_t id);
  // Records a span whose interval was measured by the caller.
  int64_t Add(std::string name, uint64_t op, int64_t parent, double start,
              double end);
  void Count(int64_t id, std::string key, double value);

  // Snapshot of every recorded span, in id order.
  std::vector<Span> spans() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; spans_[i].id == i
};

// Begin/End bracket over a scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, uint64_t op,
             int64_t parent = -1)
      : tracer_(tracer), id_(tracer->Begin(std::move(name), op, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

// Self seconds of every span (indexed like `spans`, whose ids must equal
// their index): duration minus the union of its direct children's
// intervals clipped to the span.
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

// Writes one JSON object per span per line. Returns false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<double>& self_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
