/// \file executor.h
/// \brief The mediator's execution engine: interprets a decomposed plan,
/// shipping fragments over the simulated network and compensating with
/// local operators.
///
/// Simulated-time model: each node reports the elapsed simulated
/// milliseconds of its subtree. Independent remote fetches (union
/// members, both sides of a ship-strategy join) overlap and contribute
/// their maximum; dependent stages (semijoin reduction, local operators
/// over fetched data) add up. Mediator CPU is charged per row processed.

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
  /// breaker makes ExecFragment skip the candidate at zero network
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

/// \brief A materialized result plus its simulated cost.
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

struct ExecOutput {
  RowBatch batch;
  double elapsed_ms = 0.0;
  /// When the result arrived via the columnar wire encoding, the
  /// decoded columns ride along (same rows as `batch`) so the parent
  /// operator can run vectorized kernels without re-pivoting.
  std::shared_ptr<const ColumnBatch> columnar;
};

class Executor {
 public:
  explicit Executor(ExecContext ctx) : ctx_(std::move(ctx)) {}

  /// \brief Executes a decomposed plan to completion.
  Result<ExecOutput> Execute(const PlanNodePtr& plan);

 private:
  /// Execution methods thread two tracing arguments: `t0`, the
  /// simulated time at which this subtree begins (children of
  /// overlapping fetches share their parent's t0; dependent stages
  /// start after what they depend on), and the span to attach to —
  /// `parent` for methods that open their own node span, `self` (the
  /// already-open span of `node`) for the per-kind bodies.
  Result<ExecOutput> Exec(const PlanNode& node, double t0, uint64_t parent);
  Result<ExecOutput> ExecImpl(const PlanNode& node, double t0,
                              uint64_t self);
  Result<ExecOutput> ExecFragment(const PlanNode& node,
                                  const FragmentPlan& frag, double t0,
                                  uint64_t self);
  Result<ExecOutput> ExecUnionAll(const PlanNode& node, double t0,
                                  uint64_t self);
  Result<ExecOutput> ExecJoin(const PlanNode& node, double t0,
                              uint64_t self);
  Result<ExecOutput> ExecAggregate(const PlanNode& node, double t0,
                                   uint64_t self);

  /// Applies a Filter/Project node's operation to an already-computed
  /// child output (shared by Exec and the semijoin probe path).
  Result<ExecOutput> ApplyFilter(const PlanNode& node, ExecOutput child);
  Result<ExecOutput> ApplyProject(const PlanNode& node, ExecOutput child);

  /// Executes the probe side of a semijoin-reduced join, pushing the
  /// collected build keys through any mediator-side compensation chain
  /// (Project/Filter) down to the marked fragment.
  Result<ExecOutput> ExecSemijoinProbe(const PlanNode& node,
                                       const std::vector<Value>& keys,
                                       double t0, uint64_t parent);

  /// Opens the operator span for `node` (0 when tracing is off).
  uint64_t BeginNodeSpan(const PlanNode& node, double t0, uint64_t parent);
  /// Closes the span and records EXPLAIN ANALYZE actuals onto the node.
  void FinishNodeSpan(const PlanNode& node, uint64_t span, double t0,
                      const Result<ExecOutput>& out);

  double CpuMs(size_t rows) const {
    return static_cast<double>(rows) * ctx_.mediator_cpu_us_per_row / 1e3;
  }

  /// Charges `rows` materialized rows of `width` columns against the
  /// query's memory grant (no-op when unbudgeted).
  Status ChargeMemory(size_t rows, size_t width, const char* what);

  ExecContext ctx_;
  /// Orders same-source fragment executions into plan pre-order under
  /// pooled execution, so source-side buffer-pool metrics replay
  /// byte-identically between serial and parallel runs.
  SourceSequencer sequencer_;
};

}  // namespace gisql
