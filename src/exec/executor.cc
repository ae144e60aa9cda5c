#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <unordered_map>
#include <unordered_set>

#include "catalog/system_tables.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/source_health.h"
#include "exec/hash_aggregate.h"
#include "exec/vectorized.h"
#include "expr/eval.h"
#include "net/retry.h"
#include "sched/circuit_breaker.h"
#include "sched/memory_budget.h"
#include "wire/cursor.h"
#include "wire/protocol.h"
#include "wire/serde.h"

namespace gisql {

std::vector<std::pair<const std::string*, const std::string*>>
FragmentCandidates(const ExecContext& ctx, const PlanNode& node,
                   const std::string& table) {
  std::vector<std::pair<const std::string*, const std::string*>> candidates;
  candidates.emplace_back(&node.fragment_source, &table);
  for (const auto& alt : node.scan_alternates) {
    candidates.emplace_back(&alt.source, &alt.exported_name);
  }
  if (ctx.health_aware_routing && ctx.health != nullptr &&
      candidates.size() > 1) {
    auto penalty = [&](const std::string* source) {
      return ctx.health->StateOf(*source) == SourceHealthState::kSuspect ? 1
                                                                         : 0;
    };
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](const auto& a, const auto& b) {
                       const int pa = penalty(a.first), pb = penalty(b.first);
                       if (pa != pb) return pa < pb;
                       return pa > 0 && *a.first < *b.first;
                     });
  }
  return candidates;
}

bool IsStreamablePlan(const PlanNodePtr& plan) {
  if (plan == nullptr) return false;
  switch (plan->kind) {
    case PlanKind::kRemoteFragment:
      // A semijoin reduction with injected keys only exists below a
      // join — a blocking parent — so in practice this always streams;
      // the guard keeps the invariant local.
      return !(plan->fragment.semijoin_column >= 0 &&
               !plan->fragment.semijoin_values.empty());
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kLimit:
    case PlanKind::kUnionAll:
      return std::all_of(plan->children.begin(), plan->children.end(),
                         IsStreamablePlan);
    default:
      return false;
  }
}

/// \brief A pull operator: the executable form of one plan node.
class Operator {
 public:
  Operator(Executor* ex, const PlanNode* node) : ex_(ex), node_(node) {}
  virtual ~Operator() = default;
  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// \brief The next chunk. `t0` is the simulated time at which this
  /// pull begins (children of overlapping fetches share their parent's
  /// t0; dependent stages start after what they depend on) and
  /// `parent` the span to attach this operator's span to.
  Result<ExecOutput> Next(double t0, uint64_t parent) {
    if (!ctx().record_actuals && ctx().trace == nullptr) {
      return Pull(t0, parent);
    }
    const uint64_t span = BeginSpan(t0, parent);
    Result<ExecOutput> out = Pull(t0, span != 0 ? span : parent);
    FinishSpan(span, t0, out);
    return out;
  }

  /// \brief Releases remote cursors below (idempotent). Returns the
  /// simulated milliseconds the close RPCs cost.
  virtual double Close() {
    double ms = 0.0;
    for (auto& child : children) ms += child->Close();
    return ms;
  }

  /// \brief Semijoin hand-off: a join passes the build side's keys to
  /// its probe subtree. Filter and Project pass them down, the marked
  /// fragment leaf keeps them, every other kind ignores them.
  virtual void TakeSemijoinKeys(std::vector<Value> keys) {
    if (node_->kind == PlanKind::kFilter ||
        node_->kind == PlanKind::kProject) {
      children[0]->TakeSemijoinKeys(std::move(keys));
    }
  }

  std::vector<std::unique_ptr<Operator>> children;

 protected:
  /// The operator's body; `self` is the span its own work attaches to.
  virtual Result<ExecOutput> Pull(double t0, uint64_t self) = 0;

  const ExecContext& ctx() const { return ex_->ctx_; }
  bool cursor_mode() const { return ex_->chunk_rows_ > 0; }
  int64_t chunk_rows() const { return ex_->chunk_rows_; }
  SourceSequencer& sequencer() { return ex_->sequencer_; }
  const SchemaPtr& schema() const { return node_->output_schema; }

  double CpuMs(size_t rows) const {
    return static_cast<double>(rows) * ctx().mediator_cpu_us_per_row / 1e3;
  }

  /// Charges `rows` materialized rows of this node's width against the
  /// query's memory grant (no-op when unbudgeted).
  Status ChargeMemory(size_t rows, const char* what) {
    if (ctx().memory == nullptr) return Status::OK();
    return ctx().memory->Charge(
        EstimateRowBytes(static_cast<int64_t>(rows),
                         static_cast<int64_t>(schema()->num_fields())),
        what);
  }

  /// An empty final chunk under this node's schema.
  ExecOutput Finished() const {
    ExecOutput out;
    out.batch = RowBatch(schema());
    out.done = true;
    return out;
  }

  Executor* ex_;
  /// Null only for the batch operator serving a drained result.
  const PlanNode* node_;

 private:
  uint64_t BeginSpan(double t0, uint64_t parent) {
    if (ctx().trace == nullptr) return 0;
    const PlanNode& node = *node_;
    std::string label;
    if (node.kind == PlanKind::kRemoteFragment) {
      label = "fragment " + node.fragment.table + " @" + node.fragment_source;
    } else if (node.kind == PlanKind::kVirtualScan) {
      label = "system " + node.scan_global_name;
    } else {
      label = PlanKindName(node.kind);
    }
    const uint64_t span =
        ctx().trace->Begin(std::move(label), "operator", parent, t0);
    if (node.kind == PlanKind::kRemoteFragment) {
      ctx().trace->SetHost(span, node.fragment_source);
    }
    return span;
  }

  /// Closes the span and records EXPLAIN ANALYZE actuals onto the node.
  void FinishSpan(uint64_t span, double t0, const Result<ExecOutput>& out) {
    TraceCollector* trace = ctx().trace;
    if (out.ok()) {
      if (ctx().record_actuals) {
        node_->actual_rows = static_cast<double>(out->batch.num_rows());
        node_->actual_ms = out->elapsed_ms;
      }
      if (trace != nullptr) {
        trace->SetRows(span, out->batch.num_rows());
        trace->End(span, t0 + out->elapsed_ms);
      }
    } else if (trace != nullptr) {
      trace->SetNote(span, out.status().message());
      trace->End(span, t0);
    }
  }
};

namespace {

/// Pulls `op` until its final chunk and concatenates the chunks; in
/// whole mode the first chunk is already final.
Result<ExecOutput> Drain(Operator& op, double t0, uint64_t parent) {
  GISQL_ASSIGN_OR_RETURN(ExecOutput out, op.Next(t0, parent));
  while (!out.done) {
    GISQL_ASSIGN_OR_RETURN(ExecOutput more,
                           op.Next(t0 + out.elapsed_ms, parent));
    out.columnar = nullptr;
    for (auto& row : more.batch.rows()) out.batch.Append(std::move(row));
    out.elapsed_ms += more.elapsed_ms;
    out.done = more.done;
  }
  return out;
}

/// Leaf: a fragment shipped to its source — in one RPC (whole mode) or
/// through a source cursor fetched chunk by chunk (cursor mode). Both
/// modes share one replica-failover loop. In cursor mode failover
/// happens only at open, before any row has been delivered: once chunks
/// flow, the leaf is pinned to its source (a replica would restart the
/// scan and duplicate rows).
class FragmentOp : public Operator {
 public:
  FragmentOp(Executor* ex, const PlanNode* node, uint64_t token)
      : Operator(ex, node),
        token_(token),
        // Decorrelates backoff jitter between the fragments of one
        // query (and, by token, between the cursors of a plan).
        nonce_(HashString(node->fragment.table) ^ token) {}

  void TakeSemijoinKeys(std::vector<Value> keys) override {
    keys_ = std::move(keys);
    has_keys_ = true;
  }

  double Close() override {
    if (!opened_ || closed_) return 0.0;
    closed_ = true;
    ByteWriter writer;
    wire::WriteCloseCursorRequest(&writer, {cursor_id_});
    // Best effort: an unreachable source keeps the cursor until its
    // own staging limit recycles it; the mediator-side lease has
    // already been settled by the caller.
    RetryResult call = CallWithRetry(
        *ctx().net, ctx().retry_policy, ctx().mediator_host, source_,
        static_cast<uint8_t>(wire::Opcode::kCloseCursor), writer.Release(),
        nonce_ ^ 1);
    if (!call.ok()) {
      GISQL_LOG(kWarn) << "close of cursor " << cursor_id_ << " at '"
                       << source_ << "' failed: " << call.status.message();
    }
    return call.elapsed_ms;
  }

 protected:
  Result<ExecOutput> Pull(double t0, uint64_t self) override {
    if (cursor_mode()) return PullChunk(t0, self);
    // Wait for this fragment's turn on its planned source (no-op when
    // sequencing is off); held until the response is in.
    SourceSequencer::Turn turn = sequencer().Acquire(node_);
    double spent_ms = 0.0;
    const wire::Opcode opcode = ctx().columnar_wire
                                    ? wire::Opcode::kExecuteFragmentColumnar
                                    : wire::Opcode::kExecuteFragment;
    GISQL_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                           CallReplicas(opcode, t0, self, &spent_ms));
    ByteReader reader(payload);
    wire::ResultBatch result;
    if (ctx().columnar_wire) {
      GISQL_ASSIGN_OR_RETURN(result, wire::ReadResultBatch(&reader));
    } else {
      GISQL_ASSIGN_OR_RETURN(result.rows, wire::ReadBatch(&reader));
    }
    GISQL_ASSIGN_OR_RETURN(ExecOutput out, Adopt(std::move(result)));
    // Page-stats trailer (sources with paged storage append it after
    // the batch payload; absence just leaves the actuals unset).
    if (!reader.AtEnd()) {
      GISQL_ASSIGN_OR_RETURN(uint64_t page_hits, reader.GetVarint());
      GISQL_ASSIGN_OR_RETURN(uint64_t page_misses, reader.GetVarint());
      GISQL_ASSIGN_OR_RETURN(uint64_t evictions, reader.GetVarint());
      GISQL_ASSIGN_OR_RETURN(double disk_us, reader.GetDouble());
      if (ctx().record_actuals) {
        node_->actual_page_hits = static_cast<int64_t>(page_hits);
        node_->actual_page_misses = static_cast<int64_t>(page_misses);
        node_->actual_evictions = static_cast<int64_t>(evictions);
        node_->actual_disk_ms = disk_us / 1e3;
      }
    }
    out.elapsed_ms = spent_ms;
    out.done = true;
    GISQL_RETURN_NOT_OK(
        ChargeMemory(out.batch.num_rows(), "a fragment result"));
    return out;
  }

 private:
  /// Cursor mode: opens the source cursor on the first pull, then
  /// fetches the next chunk.
  Result<ExecOutput> PullChunk(double t0, uint64_t self) {
    if (exhausted_) return Finished();
    double spent_ms = 0.0;
    if (!opened_) {
      GISQL_ASSIGN_OR_RETURN(
          std::vector<uint8_t> payload,
          CallReplicas(wire::Opcode::kOpenCursor, t0, self, &spent_ms));
      ByteReader reader(payload);
      GISQL_ASSIGN_OR_RETURN(wire::OpenCursorResponse resp,
                             wire::ReadOpenCursorResponse(&reader));
      cursor_id_ = resp.cursor_id;
      opened_ = true;
    }
    ByteWriter writer;
    wire::WriteFetchChunkRequest(&writer, {cursor_id_, next_seq_});
    RetryResult call = CallWithRetry(
        *ctx().net, ctx().retry_policy, ctx().mediator_host, source_,
        static_cast<uint8_t>(wire::Opcode::kFetchChunk), writer.Release(),
        nonce_);
    GISQL_RETURN_NOT_OK(call.status);
    ByteReader reader(call.payload);
    GISQL_ASSIGN_OR_RETURN(wire::CursorChunk chunk,
                           wire::ReadCursorChunk(&reader));
    if (chunk.cursor_id != cursor_id_ || chunk.seq != next_seq_) {
      return Status::ExecutionError(
          "cursor ", cursor_id_, " answered chunk ", chunk.seq,
          " of cursor ", chunk.cursor_id, ", expected chunk ", next_seq_,
          " from source '", source_, "'");
    }
    const bool done = chunk.done;
    GISQL_ASSIGN_OR_RETURN(ExecOutput out, Adopt(std::move(chunk)));
    ++next_seq_;
    exhausted_ = done;
    out.elapsed_ms = spent_ms + call.elapsed_ms;
    out.done = done;
    return out;
  }

  /// The fragment as shipped: build keys handed over by a semijoin
  /// become its reduction (too many keys ship it whole), and a
  /// decomposer marker without keys — e.g. the plain path of a join
  /// that fell back to shipping — executes as a plain fragment.
  FragmentPlan Shipped() const {
    FragmentPlan frag = node_->fragment;
    if (has_keys_) {
      if (static_cast<int64_t>(keys_.size()) > ctx().semijoin_max_keys) {
        frag.semijoin_column = -1;
      } else if (frag.semijoin_column >= 0) {
        frag.semijoin_values = keys_;
      }
    }
    if (frag.semijoin_column >= 0 && frag.semijoin_values.empty()) {
      frag.semijoin_column = -1;
    }
    frag.snapshot_ts = ctx().snapshot_ts;
    frag.txn_id = ctx().txn_id;
    return frag;
  }

  /// Sends the fragment to each candidate replica in turn until one
  /// answers. Each candidate gets the full retry budget; exhausting a
  /// candidate on a transport failure moves to the next replica, while
  /// an application error would repeat identically elsewhere and ends
  /// the loop. All attempts and backoffs charge `*spent_ms` on the same
  /// simulated clock (E11 failover and E15 chaos share this path). On
  /// success `source_` names the replica that answered.
  Result<std::vector<uint8_t>> CallReplicas(wire::Opcode opcode, double t0,
                                            uint64_t self, double* spent_ms) {
    const FragmentPlan frag = Shipped();
    const auto candidates = FragmentCandidates(ctx(), *node_, frag.table);
    TraceCollector* trace = ctx().trace;
    Status last;
    std::string tried;
    // Node-level network actuals, accumulated across all candidates and
    // attempts (failed ones included — their traffic was charged too).
    int64_t total_sent = 0;
    int64_t total_received = 0;
    int64_t total_attempts = 0;
    auto record_net_actuals = [&] {
      if (!ctx().record_actuals) return;
      node_->actual_bytes_sent = total_sent;
      node_->actual_bytes_received = total_received;
      node_->actual_messages = total_attempts;
      node_->actual_attempts = total_attempts;
    };
    for (size_t i = 0; i < candidates.size(); ++i) {
      const std::string& source = *candidates[i].first;
      // An open breaker answers before the wire does: no message, no
      // bytes, no simulated time — the skip is free by construction and
      // the E17 bench asserts it stays that way.
      if (ctx().breakers != nullptr && ctx().breakers->ShouldSkip(source)) {
        last = Status::NetworkError("circuit breaker open for source '",
                                    source, "'");
        if (trace != nullptr) {
          const uint64_t sk =
              trace->Begin("breaker.skip", "net", self, t0 + *spent_ms);
          trace->SetHost(sk, source);
          trace->End(sk, t0 + *spent_ms);
        }
        tried += tried.empty() ? source : ", " + source;
        if (i + 1 < candidates.size()) {
          GISQL_LOG(kInfo) << "breaker open for '" << source
                           << "'; skipping to replica '"
                           << *candidates[i + 1].first << "'";
        }
        continue;
      }
      FragmentPlan attempt = frag;
      attempt.table = *candidates[i].second;
      std::vector<uint8_t> request;
      if (opcode == wire::Opcode::kOpenCursor) {
        ByteWriter writer;
        wire::WriteOpenCursorRequest(
            &writer, {token_, chunk_rows(), std::move(attempt)});
        request = writer.Release();
      } else {
        request = wire::SerializeFragment(attempt);
      }
      if (trace != nullptr) {
        // Wire-encode marker: free on the simulated clock, but it shows
        // what the mediator shipped before any network time was spent.
        const uint64_t enc =
            trace->Begin("encode", "net", self, t0 + *spent_ms);
        trace->SetHost(enc, source);
        trace->AddIo(enc, static_cast<int64_t>(request.size()), 0, 0, 0, 0);
        trace->End(enc, t0 + *spent_ms);
      }
      RetryResult call = CallWithRetry(
          *ctx().net, ctx().retry_policy, ctx().mediator_host, source,
          static_cast<uint8_t>(opcode), request, nonce_,
          TraceSink{trace, self, t0 + *spent_ms});
      *spent_ms += call.elapsed_ms;
      total_sent += call.bytes_sent;
      total_received += call.bytes_received;
      total_attempts += call.attempts;
      if (trace != nullptr) {
        trace->AddIo(self, call.bytes_sent, call.bytes_received,
                     call.attempts, call.attempts,
                     call.attempts > 0 ? call.attempts - 1 : 0);
      }
      if (call.ok()) {
        record_net_actuals();
        source_ = source;
        return std::move(call.payload);
      }
      last = std::move(call.status);
      if (!last.IsNetworkError()) {
        record_net_actuals();
        return last;
      }
      tried += tried.empty() ? source : ", " + source;
      if (i + 1 < candidates.size()) {
        GISQL_LOG(kWarn) << "source '" << source
                         << "' unreachable; failing over to replica '"
                         << *candidates[i + 1].first << "'";
      }
    }
    record_net_actuals();
    if (candidates.size() > 1) {
      return Status::NetworkError("all replicas of '", frag.table,
                                  "' unreachable (tried ", tried,
                                  "); last error: ", last.message());
    }
    return last;
  }

  /// Checks a decoded result's arity and adopts the plan's (qualified)
  /// schema for downstream resolution.
  Result<ExecOutput> Adopt(wire::ResultBatch result) const {
    if (result.rows.schema()->num_fields() != schema()->num_fields()) {
      return Status::ExecutionError(
          "fragment result arity ", result.rows.schema()->num_fields(),
          " does not match plan arity ", schema()->num_fields(),
          " from source '", source_, "'");
    }
    ExecOutput out;
    if (result.columnar != nullptr) {
      result.columnar->AdoptSchema(schema());
      out.columnar = std::move(result.columnar);
    }
    out.batch = RowBatch(schema(), std::move(result.rows.rows()));
    return out;
  }

  const uint64_t token_;
  const uint64_t nonce_;
  std::vector<Value> keys_;
  bool has_keys_ = false;
  std::string source_;
  // Cursor mode only.
  bool opened_ = false;
  bool closed_ = false;
  bool exhausted_ = false;
  uint64_t cursor_id_ = 0;
  uint64_t next_seq_ = 0;
};

/// Serves a batch — kValues rows, a kVirtualScan snapshot, or a drained
/// result (the spool of a non-streamable cursor) — whole in whole mode,
/// in chunk_rows slices in cursor mode. Served rows move out.
class BatchOp : public Operator {
 public:
  BatchOp(Executor* ex, const PlanNode* node) : Operator(ex, node) {}
  BatchOp(Executor* ex, RowBatch rows)
      : Operator(ex, nullptr), batch_(std::move(rows)), loaded_(true) {}

 protected:
  Result<ExecOutput> Pull(double, uint64_t) override {
    ExecOutput out;
    if (!loaded_) {
      GISQL_RETURN_NOT_OK(Load(&out.elapsed_ms));
      loaded_ = true;
    }
    auto& rows = batch_.rows();
    const size_t left = rows.size() - pos_;
    const size_t take =
        cursor_mode() ? std::min(left, static_cast<size_t>(chunk_rows()))
                      : left;
    if (take == rows.size()) {
      out.batch = std::move(batch_);
    } else {
      auto first = std::make_move_iterator(rows.begin() + pos_);
      out.batch =
          RowBatch(batch_.schema(), std::vector<Row>(first, first + take));
    }
    pos_ += take;
    out.done = take == left;
    return out;
  }

 private:
  Status Load(double* elapsed_ms) {
    if (node_->kind == PlanKind::kValues) {
      batch_ = RowBatch(schema(), node_->values_rows);
      return Status::OK();
    }
    if (ctx().system_tables == nullptr) {
      return Status::Internal("virtual scan of '", node_->scan_global_name,
                              "' without a system-table provider");
    }
    GISQL_ASSIGN_OR_RETURN(
        RowBatch snap, ctx().system_tables->Snapshot(node_->scan_global_name));
    // Re-shape under the plan's (qualified) schema; rows are already
    // positionally aligned. Mediator-local: CPU cost only, no wire.
    batch_ = RowBatch(schema(), std::move(snap.rows()));
    *elapsed_ms = CpuMs(batch_.num_rows());
    return ChargeMemory(batch_.num_rows(), "a system-table snapshot");
  }

  RowBatch batch_;
  bool loaded_ = false;
  size_t pos_ = 0;
};

/// Concatenates member results in plan order, coercing member values to
/// the view's column types. The only mode-dependent combine: in whole
/// mode the members overlap (on the worker pool when there is one) and
/// the union costs its slowest member plus CPU; in cursor mode they run
/// one after another, so only one source cursor is staged at a time,
/// and a member's close is charged to the chunk that exhausted it.
class UnionOp : public Operator {
 public:
  using Operator::Operator;

 protected:
  Result<ExecOutput> Pull(double t0, uint64_t self) override {
    if (!cursor_mode()) return PullAll(t0, self);
    double elapsed_ms = 0.0;
    while (current_ < children.size()) {
      GISQL_ASSIGN_OR_RETURN(ExecOutput in, children[current_]->Next(t0, self));
      elapsed_ms += in.elapsed_ms;
      if (in.done) elapsed_ms += children[current_++]->Close();
      // Empty chunks surface only as the final one.
      if (in.batch.empty() && current_ < children.size()) continue;
      ExecOutput out;
      out.batch = RowBatch(schema());
      GISQL_RETURN_NOT_OK(Coerce(std::move(in), &out.batch));
      out.elapsed_ms = elapsed_ms + CpuMs(out.batch.num_rows());
      out.done = current_ >= children.size();
      return out;
    }
    return Finished();
  }

 private:
  Result<ExecOutput> PullAll(double t0, uint64_t self) {
    // Members fetch concurrently on the bounded pool (their simulated
    // costs already combine as a max; the workers only buy wall-clock
    // overlap). Every member's span starts at t0 — overlap is the
    // simulated semantics — and results append in member order, so
    // output is deterministic regardless of completion order.
    std::vector<Result<ExecOutput>> parts(children.size(),
                                          Result<ExecOutput>(ExecOutput{}));
    if (ctx().parallel_execution && ctx().pool != nullptr &&
        children.size() > 1) {
      TaskGroup group(ctx().pool);
      for (size_t i = 0; i < children.size(); ++i) {
        group.Spawn([this, &parts, t0, self, i] {
          parts[i] = Drain(*children[i], t0, self);
        });
      }
      group.Wait();
    } else {
      for (size_t i = 0; i < children.size(); ++i) {
        parts[i] = Drain(*children[i], t0, self);
      }
    }
    ExecOutput out;
    out.batch = RowBatch(schema());
    double slowest = 0.0;
    for (auto& part : parts) {
      GISQL_RETURN_NOT_OK(part.status());
      slowest = std::max(slowest, part->elapsed_ms);
      GISQL_RETURN_NOT_OK(Coerce(std::move(*part), &out.batch));
    }
    out.elapsed_ms = slowest + CpuMs(out.batch.num_rows());
    out.done = true;
    GISQL_RETURN_NOT_OK(ChargeMemory(out.batch.num_rows(), "a union result"));
    return out;
  }

  /// Appends a member chunk's rows to `out`, cast to the view's types.
  Status Coerce(ExecOutput part, RowBatch* out) const {
    const size_t width = schema()->num_fields();
    // Columnar members expose per-column value types, so when every
    // column already matches the view type the per-value cast checks
    // vanish for the whole member.
    bool already_coerced = ctx().vectorized_execution &&
                           part.columnar != nullptr &&
                           part.columnar->num_columns() >= width;
    for (size_t c = 0; already_coerced && c < width; ++c) {
      const TypeId type = part.columnar->column(c).type;
      already_coerced =
          type == schema()->field(c).type || type == TypeId::kNull;
    }
    for (auto& row : part.batch.rows()) {
      if (!already_coerced) {
        for (size_t c = 0; c < width && c < row.size(); ++c) {
          const TypeId want = schema()->field(c).type;
          if (!row[c].is_null() && row[c].type() != want) {
            GISQL_ASSIGN_OR_RETURN(row[c], row[c].CastTo(want));
          }
        }
      }
      out->Append(std::move(row));
    }
    return Status::OK();
  }

  size_t current_ = 0;  ///< cursor mode: the member being read
};

/// Predicate filter, one chunk in, at most one (possibly smaller)
/// chunk out.
class FilterOp : public Operator {
 public:
  using Operator::Operator;

 protected:
  Result<ExecOutput> Pull(double t0, uint64_t self) override {
    GISQL_ASSIGN_OR_RETURN(ExecOutput in, children[0]->Next(t0, self));
    ExecOutput out;
    out.batch = RowBatch(schema());
    out.elapsed_ms = in.elapsed_ms + CpuMs(in.batch.num_rows());
    out.done = in.done;
    auto& rows = in.batch.rows();
    // Vectorized path: evaluate the predicate over the columnar copy
    // into a selection vector, then gather the surviving rows. The
    // vectorizable subset is total and replicates the row evaluator's
    // Kleene semantics, so the selected set is identical.
    if (ctx().vectorized_execution && in.columnar != nullptr &&
        IsVectorizablePredicate(*node_->filter, *in.columnar)) {
      GISQL_ASSIGN_OR_RETURN(
          ColumnRef pred, EvalPredicateColumnar(*node_->filter, *in.columnar));
      const std::vector<uint32_t> sel =
          SelectTrue(pred.get(), in.columnar->num_rows());
      out.batch.Reserve(sel.size());
      for (uint32_t r : sel) out.batch.Append(std::move(rows[r]));
      return out;
    }
    for (auto& row : rows) {
      GISQL_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*node_->filter, row));
      if (keep) out.batch.Append(std::move(row));
    }
    return out;
  }
};

/// Computed columns, one chunk in, one chunk out.
class ProjectOp : public Operator {
 public:
  using Operator::Operator;

 protected:
  Result<ExecOutput> Pull(double t0, uint64_t self) override {
    GISQL_ASSIGN_OR_RETURN(ExecOutput in, children[0]->Next(t0, self));
    ExecOutput out;
    out.batch = RowBatch(schema());
    out.batch.Reserve(in.batch.num_rows());
    for (const auto& row : in.batch.rows()) {
      Row projected;
      projected.reserve(node_->projections.size());
      for (const auto& p : node_->projections) {
        GISQL_ASSIGN_OR_RETURN(Value v, EvalExpr(*p, row));
        projected.push_back(std::move(v));
      }
      out.batch.Append(std::move(projected));
    }
    out.elapsed_ms = in.elapsed_ms + CpuMs(in.batch.num_rows());
    out.done = in.done;
    GISQL_RETURN_NOT_OK(
        ChargeMemory(out.batch.num_rows(), "a projected result"));
    return out;
  }
};

/// Limit/offset. Skips offset-consumed chunks without surfacing
/// empties, and closes the child early when the limit is reached: rows
/// past it are never fetched.
class LimitOp : public Operator {
 public:
  LimitOp(Executor* ex, const PlanNode* node)
      : Operator(ex, node), skip_(node->offset), remaining_(node->limit) {}

 protected:
  Result<ExecOutput> Pull(double t0, uint64_t self) override {
    if (done_) return Finished();
    ExecOutput out;
    while (true) {
      GISQL_ASSIGN_OR_RETURN(ExecOutput in, children[0]->Next(t0, self));
      out.elapsed_ms += in.elapsed_ms;
      auto& rows = in.batch.rows();
      const int64_t drop = std::min(skip_, static_cast<int64_t>(rows.size()));
      rows.erase(rows.begin(), rows.begin() + drop);
      skip_ -= drop;
      if (remaining_ >= 0) {
        if (static_cast<int64_t>(rows.size()) > remaining_) {
          rows.resize(static_cast<size_t>(remaining_));
        }
        remaining_ -= static_cast<int64_t>(rows.size());
      }
      const bool limit_hit = remaining_ == 0;
      if (limit_hit && !in.done) out.elapsed_ms += children[0]->Close();
      done_ = in.done || limit_hit;
      if (done_ || !rows.empty()) {
        out.batch = RowBatch(schema(), std::move(rows));
        out.done = done_;
        return out;
      }
    }
  }

 private:
  bool done_ = false;
  int64_t skip_;
  int64_t remaining_;  ///< -1 = no limit, only offset
};

class SortOp : public Operator {
 public:
  using Operator::Operator;

 protected:
  Result<ExecOutput> Pull(double t0, uint64_t self) override {
    GISQL_ASSIGN_OR_RETURN(ExecOutput in, Drain(*children[0], t0, self));
    // Sort scratch is proportional to the input it permutes.
    GISQL_RETURN_NOT_OK(ChargeMemory(in.batch.num_rows(), "a sort buffer"));
    auto& rows = in.batch.rows();
    std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
      for (size_t i = 0; i < node_->sort_columns.size(); ++i) {
        const size_t c = node_->sort_columns[i];
        const int cmp = a[c].Compare(b[c]);
        if (cmp != 0) return node_->sort_ascending[i] ? cmp < 0 : cmp > 0;
      }
      return false;
    });
    // Sorting costs ~n log n row touches.
    const double n = static_cast<double>(rows.size());
    ExecOutput out;
    out.elapsed_ms =
        in.elapsed_ms +
        CpuMs(static_cast<size_t>(n * std::max(1.0, std::log2(n + 1))));
    out.batch = RowBatch(schema(), std::move(rows));
    out.done = true;
    return out;
  }
};

class DistinctOp : public Operator {
 public:
  using Operator::Operator;

 protected:
  Result<ExecOutput> Pull(double t0, uint64_t self) override {
    GISQL_ASSIGN_OR_RETURN(ExecOutput in, Drain(*children[0], t0, self));
    // Buckets hold indexes into the output batch (stable under growth).
    std::unordered_map<uint64_t, std::vector<size_t>> seen;
    ExecOutput out;
    out.batch = RowBatch(schema());
    std::vector<size_t> all_cols(schema()->num_fields());
    for (size_t i = 0; i < all_cols.size(); ++i) all_cols[i] = i;
    for (auto& row : in.batch.rows()) {
      auto& bucket = seen[HashRowKeys(row, all_cols)];
      const bool duplicate =
          std::any_of(bucket.begin(), bucket.end(), [&](size_t prev) {
            return CompareRowKeys(row, out.batch.rows()[prev], all_cols) == 0;
          });
      if (duplicate) continue;
      bucket.push_back(out.batch.num_rows());
      out.batch.Append(std::move(row));
    }
    out.elapsed_ms = in.elapsed_ms + CpuMs(in.batch.num_rows());
    out.done = true;
    GISQL_RETURN_NOT_OK(
        ChargeMemory(out.batch.num_rows(), "a distinct result"));
    return out;
  }
};

class AggregateOp : public Operator {
 public:
  using Operator::Operator;

 protected:
  Result<ExecOutput> Pull(double t0, uint64_t self) override {
    GISQL_ASSIGN_OR_RETURN(ExecOutput in, Drain(*children[0], t0, self));
    ExecOutput out;
    out.elapsed_ms = in.elapsed_ms + CpuMs(in.batch.num_rows());
    out.done = true;
    // Vectorized path: group keys and aggregate inputs computed over
    // contiguous columns, no per-cell Value materialization.
    if (ctx().vectorized_execution && in.columnar != nullptr &&
        CanVectorizeAggregate(node_->group_by, node_->aggregates,
                              *in.columnar)) {
      GISQL_ASSIGN_OR_RETURN(
          out.batch, HashAggregateColumnar(*in.columnar, node_->group_by,
                                           node_->aggregates, schema()));
    } else {
      std::vector<const Row*> rows;
      rows.reserve(in.batch.num_rows());
      for (const auto& row : in.batch.rows()) rows.push_back(&row);
      GISQL_ASSIGN_OR_RETURN(out.batch,
                             HashAggregate(rows, node_->group_by,
                                           node_->aggregates, schema()));
    }
    GISQL_RETURN_NOT_OK(
        ChargeMemory(out.batch.num_rows(), "an aggregate result"));
    return out;
  }
};

class JoinOp : public Operator {
 public:
  using Operator::Operator;

 protected:
  Result<ExecOutput> Pull(double t0, uint64_t self) override {
    const PlanNode& node = *node_;
    // Ship-strategy joins fetch both sides independently: overlap them
    // on the pool. Semijoin needs the left result first, so it stays
    // serial. Either way both ship-side spans start at t0 (simulated
    // overlap); the semijoin probe starts only after the build side
    // arrived.
    ExecOutput left;
    ExecOutput right;
    bool sequential = false;
    if (ctx().parallel_execution && ctx().pool != nullptr &&
        node.join_strategy == JoinStrategy::kShip) {
      Result<ExecOutput> right_result(ExecOutput{});
      {
        TaskGroup group(ctx().pool);
        group.Spawn([this, &right_result, t0, self] {
          right_result = Drain(*children[1], t0, self);
        });
        Result<ExecOutput> left_result = Drain(*children[0], t0, self);
        group.Wait();
        GISQL_RETURN_NOT_OK(left_result.status());
        left = std::move(*left_result);
      }
      GISQL_RETURN_NOT_OK(right_result.status());
      right = std::move(*right_result);
    } else {
      Result<ExecOutput> left_result = Drain(*children[0], t0, self);
      if (!left_result.ok()) {
        // The right subtree will never run; free its sequencer tickets
        // so concurrent same-source fragments elsewhere don't wait.
        sequencer().SkipSubtree(node.children[1]);
        return left_result.status();
      }
      left = std::move(*left_result);
      double right_t0 = t0;
      if (node.join_strategy == JoinStrategy::kSemijoin &&
          !node.left_keys.empty()) {
        children[1]->TakeSemijoinKeys(BuildKeys(left.batch));
        sequential = true;  // the reduction depends on the left result
        right_t0 += left.elapsed_ms;
      }
      Result<ExecOutput> right_result = Drain(*children[1], right_t0, self);
      if (!right_result.ok()) {
        // The probe may have failed before reaching its fragments;
        // release whatever tickets it never claimed.
        sequencer().SkipSubtree(node.children[1]);
        return right_result.status();
      }
      right = std::move(*right_result);
    }
    const double fetch_ms = sequential
                                ? left.elapsed_ms + right.elapsed_ms
                                : std::max(left.elapsed_ms, right.elapsed_ms);
    return Join(left, right, fetch_ms);
  }

 private:
  /// Distinct non-null build-side key values, in a deterministic order
  /// for reproducible byte counts.
  std::vector<Value> BuildKeys(const RowBatch& left) const {
    struct ValueHash {
      size_t operator()(const Value& v) const { return v.Hash(); }
    };
    struct ValueEq {
      bool operator()(const Value& a, const Value& b) const {
        return a.Compare(b) == 0;
      }
    };
    std::unordered_set<Value, ValueHash, ValueEq> key_set;
    const size_t key_col = node_->left_keys[0];
    for (const auto& row : left.rows()) {
      if (!row[key_col].is_null()) key_set.insert(row[key_col]);
    }
    std::vector<Value> keys(key_set.begin(), key_set.end());
    std::sort(keys.begin(), keys.end(), [](const Value& a, const Value& b) {
      return a.Compare(b) < 0;
    });
    return keys;
  }

  Result<ExecOutput> Join(const ExecOutput& left, const ExecOutput& right,
                          double fetch_ms) {
    const PlanNode& node = *node_;
    // Build a hash table over the right side. When a side arrived
    // columnar, key hashes come from a bulk pass over the key columns
    // (HashKeysColumnar matches HashRowKeys cell for cell) instead of a
    // per-row, per-Value hash.
    std::unordered_map<uint64_t, std::vector<const Row*>> table;
    table.reserve(right.batch.num_rows());
    // Bucket and pointer overhead per build row; the rows themselves
    // were charged when their batch materialized.
    if (ctx().memory != nullptr) {
      GISQL_RETURN_NOT_OK(ctx().memory->Charge(
          48 * static_cast<int64_t>(right.batch.num_rows()),
          "a join hash table"));
    }
    auto keys_nonnull = [](const Row& row, const std::vector<size_t>& keys) {
      for (size_t k : keys) {
        if (row[k].is_null()) return false;
      }
      return true;
    };
    const bool hash_vectorized =
        ctx().vectorized_execution && !node.left_keys.empty();
    std::vector<uint64_t> right_hashes;
    if (hash_vectorized && right.columnar != nullptr) {
      right_hashes = HashKeysColumnar(*right.columnar, node.right_keys);
    }
    std::vector<uint64_t> left_hashes;
    if (hash_vectorized && left.columnar != nullptr) {
      left_hashes = HashKeysColumnar(*left.columnar, node.left_keys);
    }
    bool right_has_null_key = false;
    for (size_t r = 0; r < right.batch.num_rows(); ++r) {
      const Row& row = right.batch.rows()[r];
      if (!keys_nonnull(row, node.right_keys)) {
        right_has_null_key = true;
        continue;
      }
      table[right_hashes.empty() ? HashRowKeys(row, node.right_keys)
                                 : right_hashes[r]]
          .push_back(&row);
    }
    // The right rows whose keys equal `lrow`'s (verified by value:
    // hash collisions, cross-type equality).
    auto for_each_match = [&](const Row& lrow, size_t lidx,
                              auto&& fn) -> Status {
      auto it = table.find(left_hashes.empty()
                               ? HashRowKeys(lrow, node.left_keys)
                               : left_hashes[lidx]);
      if (it == table.end()) return Status::OK();
      for (const Row* rrow : it->second) {
        bool equal = true;
        for (size_t i = 0; i < node.left_keys.size(); ++i) {
          if (lrow[node.left_keys[i]].Compare(
                  (*rrow)[node.right_keys[i]]) != 0) {
            equal = false;
            break;
          }
        }
        if (equal) GISQL_RETURN_NOT_OK(fn(*rrow));
      }
      return Status::OK();
    };

    ExecOutput out;
    out.batch = RowBatch(schema());
    out.done = true;
    if (node.join_type == JoinType::kAnti) {
      // Null-aware anti-join (NOT IN semantics): a NULL anywhere on the
      // right makes every membership test UNKNOWN → nothing qualifies;
      // NULL probes are UNKNOWN too and drop.
      if (!right_has_null_key) {
        for (size_t l = 0; l < left.batch.num_rows(); ++l) {
          const Row& lrow = left.batch.rows()[l];
          if (!keys_nonnull(lrow, node.left_keys)) continue;
          bool matched = false;
          GISQL_RETURN_NOT_OK(for_each_match(lrow, l, [&](const Row&) {
            matched = true;
            return Status::OK();
          }));
          if (!matched) out.batch.Append(lrow);
        }
      }
      out.elapsed_ms =
          fetch_ms + CpuMs(left.batch.num_rows() + right.batch.num_rows());
      GISQL_RETURN_NOT_OK(
          ChargeMemory(out.batch.num_rows(), "an anti-join result"));
      return out;
    }

    const Schema& right_schema = *node.children[1]->output_schema;
    const bool cross = node.left_keys.empty();
    // Join output is charged in chunks *while* it grows, so a hostile
    // cross join hits its budget after the next chunk instead of after
    // materializing the full product.
    constexpr size_t kChargeChunk = 8192;
    size_t charged_rows = 0;
    auto charge_output = [&]() -> Status {
      const size_t n = out.batch.num_rows();
      if (n >= charged_rows + kChargeChunk) {
        GISQL_RETURN_NOT_OK(ChargeMemory(n - charged_rows, "a join result"));
        charged_rows = n;
      }
      return Status::OK();
    };
    for (size_t l = 0; l < left.batch.num_rows(); ++l) {
      const Row& lrow = left.batch.rows()[l];
      bool matched = false;
      auto try_match = [&](const Row& rrow) -> Status {
        Row combined = lrow;
        combined.insert(combined.end(), rrow.begin(), rrow.end());
        if (node.join_residual) {
          GISQL_ASSIGN_OR_RETURN(bool keep,
                                 EvalPredicate(*node.join_residual, combined));
          if (!keep) return Status::OK();
        }
        matched = true;
        out.batch.Append(std::move(combined));
        return charge_output();
      };
      if (cross) {
        for (const auto& rrow : right.batch.rows()) {
          GISQL_RETURN_NOT_OK(try_match(rrow));
        }
      } else if (keys_nonnull(lrow, node.left_keys)) {
        GISQL_RETURN_NOT_OK(for_each_match(lrow, l, try_match));
      }
      if (!matched && node.join_type == JoinType::kLeft) {
        Row combined = lrow;
        for (size_t i = 0; i < right_schema.num_fields(); ++i) {
          combined.push_back(Value::Null(right_schema.field(i).type));
        }
        out.batch.Append(std::move(combined));
        GISQL_RETURN_NOT_OK(charge_output());
      }
    }
    GISQL_RETURN_NOT_OK(
        ChargeMemory(out.batch.num_rows() - charged_rows, "a join result"));
    out.elapsed_ms = fetch_ms + CpuMs(left.batch.num_rows() +
                                      right.batch.num_rows() +
                                      out.batch.num_rows());
    return out;
  }
};

}  // namespace

Executor::Executor(ExecContext ctx) : ctx_(std::move(ctx)) {}

Executor::Executor(ExecContext ctx, int64_t chunk_rows, uint64_t* next_token)
    : ctx_(std::move(ctx)),
      chunk_rows_(std::max<int64_t>(1, chunk_rows)),
      next_token_(next_token) {
  ctx_.parallel_execution = false;
  ctx_.pool = nullptr;
  ctx_.memory = nullptr;
  ctx_.trace = nullptr;
  ctx_.record_actuals = false;
}

Executor::~Executor() = default;

Result<std::unique_ptr<Operator>> Executor::Build(const PlanNodePtr& node) {
  std::unique_ptr<Operator> op;
  switch (node->kind) {
    case PlanKind::kValues:
    case PlanKind::kVirtualScan:
      op = std::make_unique<BatchOp>(this, node.get());
      break;
    case PlanKind::kSourceScan:
      return Status::Internal(
          "SourceScan reached the executor; run the decomposer first");
    case PlanKind::kRemoteFragment:
      op = std::make_unique<FragmentOp>(
          this, node.get(), chunk_rows_ > 0 ? (*next_token_)++ : 0);
      break;
    case PlanKind::kUnionAll:
      op = std::make_unique<UnionOp>(this, node.get());
      break;
    case PlanKind::kFilter:
      op = std::make_unique<FilterOp>(this, node.get());
      break;
    case PlanKind::kProject:
      op = std::make_unique<ProjectOp>(this, node.get());
      break;
    case PlanKind::kJoin:
      op = std::make_unique<JoinOp>(this, node.get());
      break;
    case PlanKind::kAggregate:
      op = std::make_unique<AggregateOp>(this, node.get());
      break;
    case PlanKind::kSort:
      op = std::make_unique<SortOp>(this, node.get());
      break;
    case PlanKind::kLimit:
      op = std::make_unique<LimitOp>(this, node.get());
      break;
    case PlanKind::kDistinct:
      op = std::make_unique<DistinctOp>(this, node.get());
      break;
  }
  for (const auto& child : node->children) {
    GISQL_ASSIGN_OR_RETURN(std::unique_ptr<Operator> c, Build(child));
    op->children.push_back(std::move(c));
  }
  return op;
}

Result<ExecOutput> Executor::Execute(const PlanNodePtr& plan) {
  if (ctx_.net == nullptr) {
    return Status::InvalidArgument("executor requires a network");
  }
  // Serial execution already visits fragments in pre-order; only
  // pooled execution needs the explicit ordering.
  if (ctx_.parallel_execution && ctx_.pool != nullptr) {
    sequencer_.Plan(plan);
  }
  plan_ = plan;
  GISQL_ASSIGN_OR_RETURN(root_, Build(plan));
  return Drain(*root_, ctx_.trace_start_ms, ctx_.trace_parent);
}

Status Executor::Open(PlanNodePtr plan) {
  if (!IsStreamablePlan(plan)) {
    return Status::InvalidArgument("plan is not streamable");
  }
  plan_ = std::move(plan);
  GISQL_ASSIGN_OR_RETURN(root_, Build(plan_));
  return Status::OK();
}

void Executor::Open(RowBatch rows) {
  root_ = std::make_unique<BatchOp>(this, std::move(rows));
}

Result<ExecOutput> Executor::Next() { return root_->Next(0.0, 0); }

double Executor::Close() { return root_ != nullptr ? root_->Close() : 0.0; }

}  // namespace gisql
