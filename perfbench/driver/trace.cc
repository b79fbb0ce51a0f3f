#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "measure.h"

namespace perfbench {

int64_t Tracer::Begin(std::string name, uint64_t op, int64_t parent) {
  if (!enabled_) return -1;
  double start = Now();
  return Add(std::move(name), op, parent, start, start);
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  double end = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = end;
}

int64_t Tracer::Add(std::string name, uint64_t op, int64_t parent,
                    double start, double end) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<int64_t>(spans_.size());
  s.parent = parent;
  s.op = op;
  s.name = std::move(name);
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::Count(int64_t id, std::string key, double value) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].counters.emplace_back(std::move(key), value);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[static_cast<size_t>(s.parent)];
    double lo = std::max(s.start, p.start);
    double hi = std::min(s.end, p.end);
    if (hi > lo) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, spans[i].end - spans[i].start - covered);
  }
  return self;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<double>& self_seconds) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%lld,\"parent\":%lld,\"op\":%llu,\"name\":\"%s\","
                 "\"start\":%.9f,\"end\":%.9f,\"self\":%.9f",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.name.c_str(), s.start,
                 s.end, i < self_seconds.size() ? self_seconds[i] : 0.0);
    for (const auto& [key, value] : s.counters) {
      std::fprintf(f, ",\"%s\":%.9g", key.c_str(), value);
    }
    std::fputs("}\n", f);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
