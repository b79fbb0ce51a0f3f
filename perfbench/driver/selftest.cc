// Self-test of the benchmark's own arithmetic: the nearest-rank
// percentile and its "ten samples beyond" support rule, the blocked
// run-level percentiles, span self time, and the NDJSON stream decoder. Run with `python3 perfbench/run.py
// --selftest`; exits non-zero on the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "http_client.h"
#include "measure.h"
#include "trace.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Close(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestPercentiles() {
  using perfbench::CountBeyond;
  using perfbench::Percentile;
  using perfbench::PercentileSupported;
  CHECK(Percentile({}, 0.5) == 0);
  CHECK(Percentile({7}, 0.99) == 7);
  // Nearest rank: ceil(q * n).
  std::vector<double> v = Range(100);
  CHECK(Percentile(v, 0.50) == 50);
  CHECK(Percentile(v, 0.90) == 90);
  CHECK(Percentile(v, 0.99) == 99);
  CHECK(CountBeyond(v, 99) == 1);
  // 100 samples support p90 (10 beyond) but not p99 (1 beyond).
  CHECK(PercentileSupported(v, 0.90));
  CHECK(!PercentileSupported(v, 0.99));
  // 1000 distinct samples support p99 exactly: 10 beyond.
  std::vector<double> w = Range(1000);
  CHECK(Percentile(w, 0.99) == 990);
  CHECK(CountBeyond(w, 990) == 10);
  CHECK(PercentileSupported(w, 0.99));
  // 999 samples leave 9 beyond p99.
  std::vector<double> x = Range(999);
  CHECK(!PercentileSupported(x, 0.99));
  // Ties at the percentile are not "beyond" it.
  std::vector<double> ties(1000, 5.0);
  CHECK(Percentile(ties, 0.99) == 5.0);
  CHECK(CountBeyond(ties, 5.0) == 0);
  CHECK(!PercentileSupported(ties, 0.99));
  CHECK(perfbench::Median({3, 1, 2}) == 2);
  CHECK(perfbench::Median({4, 1, 2, 3}) == 2.5);
}

perfbench::Span MakeSpan(int64_t id, int64_t parent, double start,
                         double end) {
  perfbench::Span s;
  s.id = id;
  s.parent = parent;
  s.start = start;
  s.end = end;
  return s;
}

void TestBlocked() {
  using perfbench::BlockedPercentile;
  using perfbench::Sample;
  // 5 blocks of 100 ops over [0, 5): latency 1 ms, except a burst of 10 ms
  // in block 0 only; the blocked median ignores the burst.
  std::vector<Sample> s;
  for (int i = 0; i < 500; ++i) {
    double end = i / 100.0;
    s.push_back({end, (end < 1.0 && i % 2 ? 10.0 : 1.0) + i * 1e-6});
  }
  int blocks = 0;
  double p50 = BlockedPercentile(s, 0, 5, 0.5, 5, &blocks);
  CHECK(blocks == 5);
  CHECK(p50 < 1.01);
  // p90 of 100 ops per block leaves 10 beyond: still 5 blocks.
  BlockedPercentile(s, 0, 5, 0.9, 5, &blocks);
  CHECK(blocks == 5);
  // p99 needs 1000 ops per block: only the pooled percentile (1 block).
  double p99 = BlockedPercentile(s, 0, 5, 0.99, 5, &blocks);
  CHECK(blocks == 1);
  CHECK(p99 > 10.0 && p99 < 10.001);
  // Rates: 100 completions per 1-s block.
  std::vector<double> ends;
  for (const Sample& x : s) ends.push_back(x.end);
  CHECK(Close(perfbench::BlockedRate(ends, 0, 5, 5), 100));
}

void TestSelfTime() {
  // root [0,10]: children [1,3] and [2,5] overlap (union 4 s), plus [8,12]
  // which is clipped to [8,10]; the grandchild [1.5,2.5] counts only
  // against its own parent.
  std::vector<perfbench::Span> spans = {
      MakeSpan(0, -1, 0, 10), MakeSpan(1, 0, 1, 3),   MakeSpan(2, 0, 2, 5),
      MakeSpan(3, 0, 8, 12),  MakeSpan(4, 1, 1.5, 2.5), MakeSpan(5, -1, 20, 21),
  };
  std::vector<double> self = perfbench::SelfSeconds(spans);
  CHECK(self.size() == spans.size());
  CHECK(Close(self[0], 10 - 4 - 2));
  CHECK(Close(self[1], 2 - 1));
  CHECK(Close(self[2], 3));
  CHECK(Close(self[3], 4));
  CHECK(Close(self[4], 1));
  CHECK(Close(self[5], 1));
  // Children covering the whole parent leave no self time.
  std::vector<perfbench::Span> full = {MakeSpan(0, -1, 0, 2),
                                       MakeSpan(1, 0, 0, 1),
                                       MakeSpan(2, 0, 1, 2)};
  CHECK(Close(perfbench::SelfSeconds(full)[0], 0));

  perfbench::Tracer off(false);
  CHECK(off.Begin("x", 1) == -1);
  CHECK(off.spans().empty());
  perfbench::Tracer on(true);
  int64_t a = on.Begin("a", 7);
  int64_t b = on.Add("b", 7, a, 1.0, 2.0);
  on.End(a);
  CHECK(a == 0 && b == 1);
  CHECK(on.spans().size() == 2 && on.spans()[1].parent == 0);
}

void TestNdjson() {
  perfbench::StreamedResponse r;
  const std::string body =
      "{\"type\":\"schema\",\"columns\":[{\"name\":\"a\",\"type\":\"string\"}]}\n"
      "{\"type\":\"batch\",\"rows\":[[\"x]\",1],[\"y\\\"[\",2]]}\n"
      "{\"type\":\"end\",\"rows\":2,\"ticket\":3,\"queue_wait_seconds\":0.25,"
      "\"peak_buffered_bytes\":9}\n";
  CHECK(perfbench::DecodeNdjson(body, &r));
  CHECK(r.rows.size() == 2);
  CHECK(r.rows.size() == 2 && r.rows[0] == "[\"x]\",1]");
  CHECK(r.rows.size() == 2 && r.rows[1] == "[\"y\\\"[\",2]");
  CHECK(r.saw_end && r.end_rows == 2 && Close(r.queue_wait_seconds, 0.25));
  perfbench::StreamedResponse bad;
  CHECK(!perfbench::DecodeNdjson("{\"type\":\"batch\"}", &bad));
}

}  // namespace

int main() {
  TestPercentiles();
  TestBlocked();
  TestSelfTime();
  TestNdjson();
  if (failures) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
