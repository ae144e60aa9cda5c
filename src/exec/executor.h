/// \file executor.h
/// \brief The mediator's execution engine: one pull operator per plan
/// node, shipping fragments over the simulated network and
/// compensating with local operators (the Volcano iterator, with
/// batches).
///
/// Every operator's Next() yields a chunk — rows, the columnar copy
/// when one arrived off the wire, the chunk's simulated elapsed ms, and
/// a done flag. How the fragment leaves fetch is fixed once per tree:
///
///   - Whole mode (Executor(ctx), then Execute): each leaf ships its
///     fragment in one kExecuteFragmentColumnar (or kExecuteFragment)
///     RPC, so every operator answers in a single, final chunk and a
///     materialized result is just a full drain of the root.
///   - Cursor mode (Executor(ctx, chunk_rows, tokens), then Open/Next):
///     a streamable plan's leaves open a source cursor and fetch it
///     chunk by chunk (kOpenCursor, kFetchChunk, kCloseCursor), so the
///     mediator holds O(chunk). A non-streamable cursor result is
///     drained in whole mode first and served from the batch operator.
///
/// Simulated-time model: each chunk reports the elapsed simulated
/// milliseconds spent producing it. Independent remote fetches (union
/// members and both sides of a ship-strategy join, in whole mode)
/// overlap and contribute their maximum; dependent stages (semijoin
/// reduction, local operators over fetched data) add up. Mediator CPU
/// is charged per row processed.

#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/retry_policy.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/source_sequencer.h"
#include "net/sim_network.h"
#include "planner/plan.h"
#include "types/column_batch.h"

namespace gisql {

class SystemTableProvider;
class MemoryGrant;
class CircuitBreakerRegistry;
class SourceHealthTracker;

/// \brief Execution environment handed to the executor.
struct ExecContext {
  SimNetwork* net = nullptr;
  std::string mediator_host = "mediator";
  /// Source of gis.* virtual-table snapshots (catalog/system_tables.h).
  /// Not owned; may be null, in which case kVirtualScan nodes error.
  const SystemTableProvider* system_tables = nullptr;
  double mediator_cpu_us_per_row = 0.05;
  int64_t semijoin_max_keys = 100000;
  /// EXPLAIN ANALYZE support: record actual rows / simulated ms onto
  /// each plan node as it executes.
  bool record_actuals = false;
  /// Dispatch independent subtrees (union members, both sides of a
  /// ship-strategy join) on worker threads. Results and simulated-time
  /// accounting are identical either way; this only changes wall time.
  /// Requires `pool`; without one, execution stays serial.
  bool parallel_execution = true;
  /// Bounded worker pool for parallel_execution. Not owned; the pool
  /// outlives every query using it (GlobalSystem owns one per system).
  /// The executor never creates threads of its own, so concurrency is
  /// capped at the pool size no matter how bushy the plan is.
  ThreadPool* pool = nullptr;
  /// Fetch remote fragments with the columnar wire encoding
  /// (kExecuteFragmentColumnar). Sources answer row-encoded when a
  /// fragment's values do not fit their declared column types, so this
  /// is safe to leave on; off forces the classic row encoding (A/B).
  bool columnar_wire = true;
  /// Run vectorized kernels (filter / aggregate / join hashing) over
  /// fragment results that arrived columnar, falling back per operator
  /// when an expression is outside the vectorizable subset.
  bool vectorized_execution = true;
  /// Retry/backoff applied to every remote fragment call. The default
  /// (one attempt, no backoff) makes replica failover pay exactly one
  /// detection timeout per dead host; chaos runs raise max_attempts so
  /// transient faults are absorbed before failing over.
  RetryPolicy retry_policy = RetryPolicy::NoRetry();
  /// Query-lifecycle tracing (common/trace.h). When set, every operator
  /// records a span [subtree start, subtree end] on the simulated
  /// clock, with per-attempt network sub-spans below remote fragments.
  /// Span content (rows, bytes, timings) is identical between serial
  /// and pooled execution; only recording order differs, and exports
  /// render in canonical order. Not owned.
  TraceCollector* trace = nullptr;
  /// Span to parent the plan root under (e.g. the "execute" lifecycle
  /// span), and the simulated time at which execution begins.
  uint64_t trace_parent = 0;
  double trace_start_ms = 0.0;
  /// Per-query memory grant (sched/memory_budget.h). Operators charge
  /// an estimate of every batch they materialize; a crossed cap aborts
  /// the query with Status::Overloaded. Not owned; null = unbudgeted.
  MemoryGrant* memory = nullptr;
  /// Health tracker consulted when ordering replica candidates (see
  /// health_aware_routing). Not owned; may be null.
  const SourceHealthTracker* health = nullptr;
  /// Per-source circuit breakers (sched/circuit_breaker.h): an open
  /// breaker makes a fragment leaf skip the candidate at zero network
  /// cost. Not owned; null or disabled = classic behavior.
  CircuitBreakerRegistry* breakers = nullptr;
  /// Reorder a replicated view's failover candidates so suspect
  /// sources are tried after healthy ones (stable, name tie-break).
  /// Plan order is preserved while every candidate is healthy.
  bool health_aware_routing = true;
  /// MVCC read context stamped onto every shipped fragment:
  /// snapshot_ts > 0 pins reads to that global snapshot, txn_id lets
  /// sources overlay the transaction's own staged writes
  /// (read-your-writes). Both 0 = classic latest-committed reads.
  uint64_t snapshot_ts = 0;
  uint64_t txn_id = 0;
};

/// \brief Where a remote fragment may run, in try order, as (source,
/// exported table) pairs: the planned primary, then the alternates of
/// a replicated view in catalog order. Under health-aware routing a
/// suspect source (sustained failure streak — likely down) is tried
/// after the healthy replicas instead of first, saving the
/// detection-timeout burn its attempt would cost. The sort is stable,
/// so plan order survives while everyone is healthy, and demoted
/// candidates tie-break on name so the order never depends on
/// container layout. The pointers borrow from `node` and `table`.
std::vector<std::pair<const std::string*, const std::string*>>
FragmentCandidates(const ExecContext& ctx, const PlanNode& node,
                   const std::string& table);

/// \brief One chunk of an operator's output plus its simulated cost.
struct ExecOutput {
  RowBatch batch;
  double elapsed_ms = 0.0;
  /// When the rows arrived via the columnar wire encoding, the decoded
  /// columns ride along (same rows as `batch`) so the parent operator
  /// can run vectorized kernels without re-pivoting.
  std::shared_ptr<const ColumnBatch> columnar;
  /// True on the last chunk (which may still carry rows, or be empty
  /// for an empty result).
  bool done = false;
};

/// \brief True when `plan` can run in cursor mode: Filter / Project /
/// Limit / UnionAll chains over RemoteFragment leaves (a semijoin
/// marker without injected keys counts as a plain fragment). Blocking
/// operators (join, aggregate, sort, distinct), values and virtual
/// scans make a plan non-streamable.
bool IsStreamablePlan(const PlanNodePtr& plan);

class Operator;

class Executor {
 public:
  /// \brief Whole mode: Execute() runs a plan to completion.
  explicit Executor(ExecContext ctx);
  /// \brief Cursor mode: Open() builds a pull tree whose fragment leaves
  /// stream through source cursors of `chunk_rows` rows. Cursor trees
  /// run serially (the client drives the pulls), untraced and
  /// unbudgeted — the cursor's owner charges each chunk. Source-cursor
  /// idempotency tokens are drawn from `*next_token`, one per fragment
  /// leaf in plan pre-order (the caller owns the counter and never
  /// reuses values; may be null for a batch-only tree).
  Executor(ExecContext ctx, int64_t chunk_rows, uint64_t* next_token);
  ~Executor();

  /// \brief Whole mode: a full drain of the plan's tree.
  Result<ExecOutput> Execute(const PlanNodePtr& plan);

  /// \brief Cursor mode: builds the tree of a streamable plan. No
  /// network traffic happens here: each leaf opens its source cursor on
  /// its first pull, so union members are staged one at a time.
  Status Open(PlanNodePtr plan);
  /// \brief Cursor mode: a tree of one batch operator serving `rows` (a
  /// drained non-streamable result) in chunk_rows slices.
  void Open(RowBatch rows);
  /// \brief Cursor mode: the root's next chunk. Must not be called again
  /// after a chunk with done == true.
  Result<ExecOutput> Next();
  /// \brief Releases remote cursors (idempotent). Returns the simulated
  /// milliseconds the close RPCs cost.
  double Close();

 private:
  friend class Operator;

  Result<std::unique_ptr<Operator>> Build(const PlanNodePtr& node);

  ExecContext ctx_;
  /// Rows per chunk at the leaves; 0 = whole mode.
  int64_t chunk_rows_ = 0;
  uint64_t* next_token_ = nullptr;
  /// Orders same-source fragment executions into plan pre-order under
  /// pooled execution, so source-side buffer-pool metrics replay
  /// byte-identically between serial and parallel runs.
  SourceSequencer sequencer_;
  /// Keeps the plan nodes the operators reference alive.
  PlanNodePtr plan_;
  std::unique_ptr<Operator> root_;
};

}  // namespace gisql
