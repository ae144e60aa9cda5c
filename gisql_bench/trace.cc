#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace gbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Record(const char* name, uint64_t id, uint64_t parent,
                    uint64_t op, int64_t start_ns, int64_t end_ns,
                    int64_t bytes) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.op = op;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.bytes = bytes;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = all.empty() ? 0 : all.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    // Source spans run on worker threads: give them their own track.
    const bool source = std::string(s.name) == "source.handle";
    const int tid = s.parent == 0 ? 1 : (source ? 2 : 3);
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"op\":%llu,\"bytes\":%lld}}\n",
                 i == 0 ? "" : ",", s.name, tid,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.bytes));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

gisql::Result<std::vector<uint8_t>> SourceProbe::Handle(
    uint8_t opcode, const std::vector<uint8_t>& request,
    double* processing_ms) {
  const uint64_t call = tracer_->current_call();
  const uint64_t op = tracer_->current_op();
  const int64_t t0 = NowNs();
  auto reply = source_->Handle(opcode, request, processing_ms);
  const int64_t t1 = NowNs();
  const int64_t bytes =
      reply.ok() ? static_cast<int64_t>(reply->size()) : 0;
  tracer_->Record("source.handle", tracer_->NewId(), call, op, t0, t1, bytes);
  return reply;
}

int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                    int64_t lo, int64_t hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_lo = 0;
  int64_t cur_hi = 0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace gbench
