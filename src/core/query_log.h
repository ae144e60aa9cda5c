/// \file query_log.h
/// \brief Bounded ring buffer of recently executed queries, backing the
/// `gis.queries` system table.
///
/// The mediator's statement pipeline appends exactly one entry per
/// statement that reaches it: executed (SELECT and EXPLAIN ANALYZE,
/// including cache hits), shed (admission, memory budget, cursor
/// limit) or failed (parse, plan, execute or cursor open — `error`
/// names the status code). A cursor's one entry is written when it
/// drains, closes or expires. Plain EXPLAIN never executes and is not
/// logged. The buffer keeps the most recent `capacity` entries; ids
/// are monotonically increasing across the system's lifetime, so
/// `SELECT MAX(id) FROM gis.queries` counts total logged statements
/// even after eviction.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace gisql {

/// \brief One logged query: the statement plus its accounting (all from
/// the simulation, fully deterministic).
struct QueryLogEntry {
  int64_t id = 0;               ///< 1-based, monotonically increasing
  std::string sql;              ///< statement text as submitted
  double elapsed_ms = 0.0;      ///< simulated end-to-end latency
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  int64_t messages = 0;
  int64_t retries = 0;
  bool cache_hit = false;
  int64_t rows = 0;             ///< result rows returned
  int64_t trace_root = 0;       ///< root span id (0 when tracing is off)
  double admission_wait_ms = 0.0;  ///< simulated time spent queued
  /// Why the governor refused this query ("" = it ran). Admission and
  /// cursor-limit sheds carry zero traffic; a memory-budget abort
  /// carries what it moved before the budget stopped it.
  std::string shed_reason;
  /// Status-code name of the failure that ended the statement (e.g.
  /// "NetworkError"); "" when it succeeded or was shed. Its traffic
  /// up to the failure is charged like any other statement's.
  std::string error;
  /// Accountable principal the statement is charged to (never empty;
  /// unnamed callers land on the "default" tenant).
  std::string tenant = "default";
  int priority = 1;        ///< 0 background, 1 normal, 2 interactive
  /// Simulated completion instant (arrival + wait + elapsed). Shed
  /// entries finish at their refusal time.
  double finish_ms = 0.0;
  /// Literal-stripped template hash (sql/fingerprint.h), stamped once
  /// at the pipeline's record stage. Two entries share a fingerprint
  /// iff they are the same statement template with different literals
  /// — the key for hot-template detection in the advisor and in user
  /// queries over gis.queries.
  std::string fingerprint;
};

/// \brief Thread-safe fixed-capacity ring of QueryLogEntry.
class QueryLog {
 public:
  static constexpr size_t kDefaultCapacity = 256;
  static constexpr size_t kMaxCapacity = 1u << 20;

  explicit QueryLog(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// \brief Ring capacity from GISQL_QUERY_LOG_CAPACITY (clamped to
  /// [1, kMaxCapacity]; unset or unparsable falls back to the
  /// default). Long scenario runs need a window wider than 256 to
  /// retain a full SLO slow window of queries.
  static size_t CapacityFromEnv();

  /// \brief Appends one entry, assigning its id; evicts the oldest
  /// entry once the ring is full.
  void Append(QueryLogEntry entry);

  /// \brief Retained entries, oldest first.
  std::vector<QueryLogEntry> Snapshot() const;

  size_t capacity() const { return capacity_; }

  /// \brief Entries ever appended (ids run 1..total_appended()).
  int64_t total_appended() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  int64_t next_id_ = 1;
  std::vector<QueryLogEntry> ring_;  ///< grows to capacity_, then wraps
  size_t head_ = 0;                  ///< index of the oldest entry
};

}  // namespace gisql
