/// \file trace.h
/// \brief In-memory spans recorded from outside gisql: around each call
/// into its public API, around a replay of each statement's planning
/// stages, and around every source request (through SourceProbe). Spans
/// are kept in memory and written out when the run ends.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/sim_network.h"
#include "source/component_source.h"

namespace gbench {

/// \brief Monotonic wall clock in nanoseconds.
int64_t NowNs();

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  ///< the call span that caused it (0 for calls)
  uint64_t op = 0;      ///< the op every span of one request shares
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t bytes = 0;    ///< reply bytes, on source spans
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }

  /// The call in flight on the caller thread; source probes running on
  /// worker threads read it to parent their spans.
  void SetCurrent(uint64_t call, uint64_t op) {
    current_op_.store(op);
    current_call_.store(call);
  }
  uint64_t current_call() const { return current_call_.load(); }
  uint64_t current_op() const { return current_op_.load(); }

  void Record(const char* name, uint64_t id, uint64_t parent, uint64_t op,
              int64_t start_ns, int64_t end_ns, int64_t bytes);

  /// All spans so far (copy, taken under the lock).
  std::vector<Span> spans() const;

  /// Writes the spans as Chrome trace_event JSON; false on I/O error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> current_call_{0};
  std::atomic<uint64_t> current_op_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// \brief Thread-safe RpcHandler standing in for a source on the
/// simulated network: it times each request into ComponentSource::Handle
/// and records it as a "source.handle" span under the current call.
class SourceProbe : public gisql::RpcHandler {
 public:
  SourceProbe(gisql::ComponentSource* source, Tracer* tracer)
      : source_(source), tracer_(tracer) {}
  SourceProbe(const SourceProbe&) = delete;
  SourceProbe& operator=(const SourceProbe&) = delete;

  gisql::Result<std::vector<uint8_t>> Handle(
      uint8_t opcode, const std::vector<uint8_t>& request,
      double* processing_ms) override;

 private:
  gisql::ComponentSource* source_;
  Tracer* tracer_;
};

/// \brief Total length of the union of [start, end) intervals, each
/// clipped to [lo, hi).
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                    int64_t lo, int64_t hi);

}  // namespace gbench
