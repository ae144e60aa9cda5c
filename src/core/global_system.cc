#include "core/global_system.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/bytes.h"
#include "net/retry.h"
#include "planner/cost_model.h"
#include "planner/decomposer.h"
#include "planner/logical_planner.h"
#include "planner/optimizer.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"
#include "wire/protocol.h"
#include "wire/serde.h"

namespace gisql {

namespace {

/// Mediator→source control-plane call under the system retry policy.
Result<std::vector<uint8_t>> RetriedCall(SimNetwork& net,
                                         const RetryPolicy& policy,
                                         const std::string& to,
                                         wire::Opcode op,
                                         const std::vector<uint8_t>& req) {
  RetryResult r = CallWithRetry(net, policy, GlobalSystem::kMediatorHost, to,
                                static_cast<uint8_t>(op), req);
  if (!r.ok()) return r.status;
  return std::move(r.payload);
}

}  // namespace

GlobalSystem::GlobalSystem(PlannerOptions options)
    : options_(options) {
  governor_.Configure(options_);
  network_.set_rpc_observer(&health_);
  // Every RPC outcome the health tracker ingests also feeds the
  // governor's per-source circuit breakers.
  health_.set_outcome_listener(&governor_.breakers());
  tenants_.set_max_tracked(options_.tenant_max_tracked);
  slo_.Configure(options_.slo_fast_window_ms, options_.slo_slow_window_ms,
                 options_.slo_burn_alert);
  flight_.Configure(
      options_.flight_ring > 0 ? static_cast<size_t>(options_.flight_ring) : 0,
      options_.flight_max_incidents > 0
          ? static_cast<size_t>(options_.flight_max_incidents)
          : 0,
      options_.flight_cooldown_ms, options_.flight_shed_spike,
      options_.flight_shed_window_ms);
  flight_.set_enabled(options_.flight_recorder);
  flight_.SetSystemSnapshotFn(
      [this](double now_ms) { return system_catalog_->IncidentJson(now_ms); });
  ConfigureAdvisor();
  system_catalog_ = std::make_unique<SystemCatalog>(
      &health_, &metrics_, &network_.metrics(), &query_log_, &catalog_,
      &governor_, &cursors_, &sources_, &txns_, &tenants_, &slo_, &flight_,
      advisor_.get());
  catalog_.RegisterSystemTableProvider(system_catalog_.get());
}

ThreadPool* GlobalSystem::WorkerPool() {
  if (!options_.parallel_execution) return nullptr;
  if (pool_ == nullptr) {
    const size_t n = options_.worker_threads > 0
                         ? static_cast<size_t>(options_.worker_threads)
                         : ThreadPool::DefaultThreads();
    pool_ = std::make_unique<ThreadPool>(n);
  }
  return pool_.get();
}

Result<ComponentSource*> GlobalSystem::CreateSource(const std::string& name,
                                                    SourceDialect dialect) {
  // Every source's buffer pool is charged against the mediator's global
  // memory budget, so pool growth and query grants share one regime.
  auto source = std::make_shared<ComponentSource>(
      name, dialect, /*cpu_us_per_row=*/0.05, StorageConfig::FromEnv(),
      &governor_.memory());
  source->set_vectorized_execution(options_.vectorized_execution);
  GISQL_RETURN_NOT_OK(network_.RegisterHost(name, source.get()));
  SourceInfo info;
  info.name = name;
  info.dialect = dialect;
  info.capabilities = source->capabilities();
  Status st = catalog_.RegisterSource(std::move(info));
  if (!st.ok()) {
    (void)network_.UnregisterHost(name);
    return st;
  }
  sources_.push_back(source);
  return source.get();
}

Result<ComponentSource*> GlobalSystem::GetSource(
    const std::string& name) const {
  for (const auto& s : sources_) {
    if (s->name() == name) return s.get();
  }
  return Status::NotFound("source '", name, "' does not exist");
}

Status GlobalSystem::ImportTable(const std::string& source_name,
                                 const std::string& exported_name,
                                 const std::string& global_name) {
  // Schema over the wire.
  ByteWriter req;
  req.PutString(exported_name);
  GISQL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> schema_payload,
      RetriedCall(network_, retry_policy_, source_name,
                  wire::Opcode::kGetSchema, req.data()));
  ByteReader schema_reader(schema_payload);
  GISQL_ASSIGN_OR_RETURN(Schema schema, wire::ReadSchema(&schema_reader));

  // Statistics over the wire.
  GISQL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> stats_payload,
      RetriedCall(network_, retry_policy_, source_name,
                  wire::Opcode::kGetStats, req.data()));
  ByteReader stats_reader(stats_payload);
  GISQL_ASSIGN_OR_RETURN(TableStats stats,
                         wire::ReadTableStats(&stats_reader));

  TableMapping mapping;
  mapping.global_name = global_name;
  mapping.source_name = source_name;
  mapping.exported_name = exported_name;
  mapping.schema =
      std::make_shared<Schema>(schema.WithQualifier(global_name));
  mapping.stats = std::move(stats);
  return catalog_.RegisterTable(std::move(mapping));
}

Status GlobalSystem::ImportSource(const std::string& source_name) {
  GISQL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> payload,
      RetriedCall(network_, retry_policy_, source_name,
                  wire::Opcode::kListTables, {}));
  ByteReader reader(payload);
  GISQL_ASSIGN_OR_RETURN(uint64_t n, reader.GetVarint());
  for (uint64_t i = 0; i < n; ++i) {
    GISQL_ASSIGN_OR_RETURN(std::string table, reader.GetString());
    std::string global_name = table;
    if (catalog_.HasTable(global_name) || catalog_.HasView(global_name)) {
      global_name = source_name + "_" + table;
    }
    GISQL_RETURN_NOT_OK(ImportTable(source_name, table, global_name));
  }
  return Status::OK();
}

Status GlobalSystem::RefreshStats(const std::string& global_name) {
  GISQL_ASSIGN_OR_RETURN(const TableMapping* mapping,
                         catalog_.GetTable(global_name));
  ByteWriter req;
  req.PutString(mapping->exported_name);
  GISQL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> payload,
      RetriedCall(network_, retry_policy_, mapping->source_name,
                  wire::Opcode::kGetStats, req.data()));
  ByteReader reader(payload);
  GISQL_ASSIGN_OR_RETURN(TableStats stats, wire::ReadTableStats(&reader));
  // Fresh statistics signal the source's data may have changed.
  if (cache_) cache_->InvalidateSource(mapping->source_name);
  return catalog_.UpdateStats(global_name, std::move(stats));
}

Status GlobalSystem::CreateUnionView(const std::string& name,
                                     const std::vector<std::string>& members) {
  return catalog_.CreateUnionView(name, members);
}

Status GlobalSystem::CreateReplicatedView(
    const std::string& name, const std::vector<std::string>& members) {
  return catalog_.CreateReplicatedView(name, members);
}

Status GlobalSystem::ExecuteAt(const std::string& source_name,
                               const std::string& sql) {
  ByteWriter req;
  req.PutString(sql);
  // Deliberately single-attempt: admin DDL/DML is not idempotent, so a
  // retry after a lost ack could apply it twice. Operators re-run.
  GISQL_ASSIGN_OR_RETURN(
      RpcResult rpc,
      network_.Call(kMediatorHost, source_name,
                    static_cast<uint8_t>(wire::Opcode::kAdminSql),
                    req.data()));
  (void)rpc;
  // The mediator just changed this source: drop dependent cache entries.
  if (cache_) cache_->InvalidateSource(source_name);
  return Status::OK();
}

Status GlobalSystem::ExecuteAtomically(
    const std::vector<GlobalWrite>& writes) {
  if (writes.empty()) return Status::OK();
  // One-shot 2PC rides the same transaction machinery as the
  // interactive API: a TransactionManager id (locks at the sources,
  // a gis.transactions row) and a commit timestamp stamping the rows.
  TxnInfo& t = txns_.Begin(governor_.now_ms());
  const uint64_t numeric_id = t.id;
  const uint64_t snapshot_ts = t.snapshot_ts;
  const std::string txn_id = "gtxn-" + std::to_string(numeric_id);

  // Every 2PC round retries under the system policy; the participant
  // side dedups (prepare by statement seq, commit by txn id), so
  // at-least-once delivery is safe.
  auto call = [&](const std::string& source, wire::Opcode op,
                  const std::string& sql, uint64_t stmt_seq,
                  std::vector<uint8_t>* payload) -> Status {
    ByteWriter req;
    req.PutString(txn_id);
    if (op == wire::Opcode::kTxnPrepare) {
      req.PutVarint(stmt_seq);
      req.PutString(sql);
      req.PutVarint(numeric_id);
      req.PutVarint(snapshot_ts);
    }
    RetryResult r =
        CallWithRetry(network_, retry_policy_, kMediatorHost, source,
                      static_cast<uint8_t>(op), req.data(), stmt_seq);
    if (payload != nullptr && r.ok()) *payload = std::move(r.payload);
    return r.status;
  };

  // Phase 1: prepare everywhere; on any failure, abort everyone we
  // reached (abort is idempotent, so aborting non-prepared hosts is
  // harmless).
  std::set<std::string> participants;
  for (const auto& w : writes) participants.insert(w.source);
  for (size_t i = 0; i < writes.size(); ++i) {
    const auto& w = writes[i];
    std::vector<uint8_t> payload;
    Status st = call(w.source, wire::Opcode::kTxnPrepare, w.sql, i, &payload);
    if (st.ok() && !payload.empty()) {
      // Lock verdict in the response trailer: a one-shot transaction
      // has nothing to wait for, so a conflict aborts it outright.
      ByteReader verdict(payload);
      auto flag = verdict.GetU8();
      if (flag.ok() && *flag != 0) {
        st = Status::Overloaded("row or table locks are held by a "
                                "concurrent transaction");
      }
    }
    if (!st.ok()) {
      for (const auto& p : participants) {
        (void)call(p, wire::Opcode::kTxnAbort, "", 0, nullptr);
      }
      txns_.MarkAborted(numeric_id,
                        "prepare failed at '" + w.source + "'",
                        governor_.now_ms());
      return Status(st.code(),
                    "global transaction aborted: prepare failed at '" +
                        w.source + "': " + st.message());
    }
    t.statements += 1;
    t.participants.insert(w.source);
  }

  // Phase 2: commit. Failures here leave the classic in-doubt state.
  return CommitAtParticipants(t);
}

Result<uint64_t> GlobalSystem::BeginTransaction() {
  if (txns_.active_count() >=
      static_cast<size_t>(options_.txn_max_active)) {
    return Status::Overloaded("transaction shed: ", txns_.active_count(),
                              " transactions already active (limit ",
                              options_.txn_max_active, ")");
  }
  return txns_.Begin(governor_.now_ms()).id;
}

Result<QueryResult> GlobalSystem::QueryInTxn(uint64_t txn_id,
                                             const std::string& sql) {
  GISQL_ASSIGN_OR_RETURN(TxnInfo * t, txns_.GetActive(txn_id));
  // Transactional statements are interactive-session work: default
  // tenant, closed-loop arrival at the current virtual clock.
  Pipeline p;
  p.advance_clock = true;
  p.snapshot_ts = t->snapshot_ts;
  p.txn_id = txn_id;
  Delivered out;
  GISQL_RETURN_NOT_OK(RunPipeline(sql, p, &out));
  t->statements += 1;
  return std::move(out.result);
}

Status GlobalSystem::TxnWrite(uint64_t txn_id, const std::string& source,
                              const std::string& sql) {
  GISQL_ASSIGN_OR_RETURN(TxnInfo * t, txns_.GetActive(txn_id));
  const std::string wire_id = "gtxn-" + std::to_string(t->id);

  for (int attempt = 0;; ++attempt) {
    ByteWriter req;
    req.PutString(wire_id);
    req.PutVarint(static_cast<uint64_t>(t->statements));
    req.PutString(sql);
    req.PutVarint(t->id);
    req.PutVarint(t->snapshot_ts);
    RetryResult r = CallWithRetry(
        network_, retry_policy_, kMediatorHost, source,
        static_cast<uint8_t>(wire::Opcode::kTxnPrepare), req.data(),
        static_cast<uint64_t>(t->statements));
    if (!r.ok()) {
      // A transport failure leaves the transaction active (the caller
      // may retry the statement); an application error — bad SQL, a
      // write-write conflict under first-committer-wins — aborts it,
      // releasing locks everywhere.
      if (!IsRetryableTransport(r.status)) {
        AbortAtParticipants(*t, r.status.message());
      }
      return r.status;
    }

    ByteReader verdict(r.payload);
    GISQL_ASSIGN_OR_RETURN(uint8_t conflicted, verdict.GetU8());
    if (conflicted == 0) {
      txns_.ClearWaits(t->id);
      t->statements += 1;
      t->participants.insert(source);
      return Status::OK();
    }

    // Lock conflict: the source reported the holders instead of
    // blocking. Record the waits-for edges and look for a cycle.
    GISQL_ASSIGN_OR_RETURN(uint64_t n, verdict.GetVarint());
    std::vector<uint64_t> holders;
    holders.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      GISQL_ASSIGN_OR_RETURN(uint64_t h, verdict.GetVarint());
      holders.push_back(h);
    }
    t->lock_waits += 1;
    txns_.CountLockWait();
    txns_.OnConflict(t->id, holders);
    if (trace_ != nullptr) {
      // Zero-width marker on the simulated clock: who waited on whom.
      const uint64_t span =
          trace_->Begin("lock.wait", "txn", 0, governor_.now_ms());
      std::string note = "txn " + std::to_string(t->id) + " blocked at '" +
                         source + "' by";
      for (uint64_t h : holders) note += " " + std::to_string(h);
      trace_->SetNote(span, note);
      trace_->End(span, governor_.now_ms());
    }

    const uint64_t victim = txns_.DetectCycleVictim(t->id);
    if (victim == 0) {
      // No deadlock — the statement would simply block. The simulation
      // is single-threaded, so waiting can never be satisfied inline;
      // the caller retries after the holder commits or aborts. The
      // waits-for edges stay recorded: this transaction still holds
      // its locks and still wants these, so a future conflict report
      // from the other side must be able to close the cycle.
      std::string who;
      for (uint64_t h : holders) {
        if (!who.empty()) who += ", ";
        who += std::to_string(h);
      }
      return Status::Overloaded("transaction ", t->id,
                                " would block at '", source,
                                "' on locks held by transaction(s) ", who);
    }
    if (victim == t->id) {
      AbortAtParticipants(*t, "deadlock victim");
      return Status::ExecutionError(
          "deadlock: transaction ", txn_id,
          " chosen as victim (youngest on the cycle) and aborted");
    }
    // Another transaction on the cycle is younger: abort it there and
    // retry this statement against the freed locks.
    auto victim_or = txns_.GetActive(victim);
    if (victim_or.ok()) {
      AbortAtParticipants(**victim_or, "deadlock victim");
    }
    txns_.ClearWaits(t->id);
    if (attempt + 1 >= options_.txn_max_prepare_retries) {
      return Status::Overloaded("transaction ", t->id, " still blocked at '",
                                source, "' after ", attempt + 1,
                                " prepare attempts");
    }
  }
}

Status GlobalSystem::CommitTransaction(uint64_t txn_id) {
  GISQL_ASSIGN_OR_RETURN(TxnInfo * t, txns_.GetActive(txn_id));
  return CommitAtParticipants(*t);
}

Status GlobalSystem::CommitAtParticipants(TxnInfo& t) {
  const uint64_t id = t.id;
  const std::string wire_id = "gtxn-" + std::to_string(id);
  const std::set<std::string> participants = t.participants;
  // Retire the transaction before computing the watermark so its own
  // snapshot no longer holds GC back; delivery failures below cannot
  // un-commit it (presumed commit — the classic in-doubt state).
  const uint64_t commit_ts = txns_.AllocateCommitTs();
  txns_.MarkCommitted(id, commit_ts, governor_.now_ms());
  const uint64_t watermark = options_.txn_gc ? txns_.Watermark() : 0;

  std::string in_doubt;
  for (const auto& p : participants) {
    ByteWriter req;
    req.PutString(wire_id);
    req.PutVarint(commit_ts);
    req.PutVarint(watermark);
    Status st =
        CallWithRetry(network_, retry_policy_, kMediatorHost, p,
                      static_cast<uint8_t>(wire::Opcode::kTxnCommit),
                      req.data())
            .status;
    if (!st.ok()) {
      if (!in_doubt.empty()) in_doubt += ", ";
      in_doubt += "'" + p + "' (" + st.message() + ")";
    }
    if (cache_) cache_->InvalidateSource(p);
  }
  if (!in_doubt.empty()) {
    return Status::Internal(
        "global transaction ", wire_id,
        " is in doubt: commit could not be delivered to ", in_doubt,
        "; staged rows remain there until the source is reachable and "
        "the commit is re-sent or aborted");
  }
  return Status::OK();
}

Status GlobalSystem::AbortTransaction(uint64_t txn_id,
                                      const std::string& reason) {
  GISQL_ASSIGN_OR_RETURN(TxnInfo * t, txns_.GetActive(txn_id));
  AbortAtParticipants(*t, reason.empty() ? "aborted by client" : reason);
  return Status::OK();
}

void GlobalSystem::AbortAtParticipants(TxnInfo& t,
                                       const std::string& reason) {
  const std::string wire_id = "gtxn-" + std::to_string(t.id);
  for (const auto& p : t.participants) {
    ByteWriter req;
    req.PutString(wire_id);
    // Best effort: abort is idempotent and a source that missed it
    // still drops the staged writes when an operator resolves it.
    (void)CallWithRetry(network_, retry_policy_, kMediatorHost, p,
                        static_cast<uint8_t>(wire::Opcode::kTxnAbort),
                        req.data());
  }
  txns_.MarkAborted(t.id, reason, governor_.now_ms());
}

std::string GlobalSystem::ExportPrometheus() const {
  // Two registries under distinct prefixes (their metric names overlap
  // only accidentally, but Prometheus forbids re-declaring a name), then
  // the labeled series the gis.* descriptors declare.
  return metrics_.ExportPrometheus("gisql") +
         network_.metrics().ExportPrometheus("gisql_net") +
         system_catalog_->ExportPrometheus();
}

int64_t GlobalSystem::BufferPoolResidentBytes() const {
  int64_t bytes = 0;
  for (const auto& source : sources_) {
    bytes += source->engine().pool().resident_bytes();
  }
  return bytes;
}

void GlobalSystem::EnableResultCache(size_t max_entries) {
  cache_ = std::make_unique<QueryCache>(max_entries);
  cache_->set_metrics(&metrics_);
}

void GlobalSystem::DisableResultCache() { cache_.reset(); }

void GlobalSystem::EnableTracing() {
  if (trace_ == nullptr) trace_ = std::make_unique<TraceCollector>();
}

void GlobalSystem::DisableTracing() { trace_.reset(); }

ExecContext GlobalSystem::MakeExecContext(MemoryGrant* grant) {
  ExecContext ctx;
  ctx.net = &network_;
  ctx.mediator_host = kMediatorHost;
  ctx.system_tables = system_catalog_.get();
  ctx.mediator_cpu_us_per_row = options_.mediator_cpu_us_per_row;
  ctx.semijoin_max_keys = options_.semijoin_max_keys;
  ctx.parallel_execution = options_.parallel_execution;
  ctx.pool = WorkerPool();
  ctx.columnar_wire = options_.columnar_wire;
  ctx.vectorized_execution = options_.vectorized_execution;
  ctx.retry_policy = retry_policy_;
  ctx.memory = grant;
  ctx.health = &health_;
  ctx.breakers = &governor_.breakers();
  ctx.health_aware_routing = options_.health_aware_routing;
  return ctx;
}

Result<PlanNodePtr> GlobalSystem::PlanQuery(const sql::SelectStmt& stmt,
                                            TraceCollector* trace,
                                            uint64_t parent) const {
  // Planning is mediator CPU only — free on the simulated clock — so
  // its stages record as zero-width markers at t=0.
  auto mark = [&](const char* stage) {
    if (trace != nullptr) trace->Begin(stage, "lifecycle", parent, 0.0);
  };

  mark("bind+plan");
  LogicalPlanner planner(catalog_);
  GISQL_ASSIGN_OR_RETURN(PlanNodePtr plan, planner.Plan(stmt));

  CostParams params;
  params.link = network_.default_link();
  params.mediator_cpu_us_per_row = options_.mediator_cpu_us_per_row;
  CostModel cost(catalog_, params);

  mark("optimize");
  Optimizer optimizer(catalog_, options_, &cost);
  GISQL_ASSIGN_OR_RETURN(plan, optimizer.Optimize(std::move(plan)));

  mark("decompose");
  Decomposer decomposer(catalog_, options_, &cost);
  return decomposer.Decompose(std::move(plan));
}

namespace {

/// Snapshot of the network counters a statement can move.
struct NetCounters {
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  int64_t messages = 0;
  int64_t retries = 0;

  static NetCounters Read(const SimNetwork& net) {
    NetCounters c;
    c.bytes_sent = net.metrics().Get("net.bytes_sent");
    c.bytes_received = net.metrics().Get("net.bytes_received");
    c.messages = net.metrics().Get("net.messages");
    c.retries = net.metrics().Get("net.retries");
    return c;
  }
};

/// Aggregate buffer-pool counters over every source.
struct PoolCounters {
  int64_t hits = 0;
  int64_t misses = 0;
  double disk_us = 0.0;

  static PoolCounters Read(const std::vector<ComponentSourcePtr>& sources) {
    PoolCounters c;
    for (const auto& s : sources) {
      const BufferPoolStats p = s->engine().pool().Snapshot();
      c.hits += p.hits;
      c.misses += p.misses;
      c.disk_us += p.disk_us;
    }
    return c;
  }
};

/// The one-column result of EXPLAIN and EXPLAIN ANALYZE.
RowBatch PlanTextBatch(const std::string& text) {
  RowBatch batch(std::make_shared<Schema>(
      std::vector<Field>{{"plan", TypeId::kString}}));
  batch.Append({Value::String(text)});
  return batch;
}

}  // namespace

template <typename Stage>
auto GlobalSystem::Metered(Traffic* traffic, Stage&& stage)
    -> decltype(stage()) {
  const NetCounters net = NetCounters::Read(network_);
  const PoolCounters pools = PoolCounters::Read(sources_);
  auto out = stage();
  const NetCounters net_after = NetCounters::Read(network_);
  const PoolCounters pools_after = PoolCounters::Read(sources_);
  traffic->bytes_sent += net_after.bytes_sent - net.bytes_sent;
  traffic->bytes_received += net_after.bytes_received - net.bytes_received;
  traffic->messages += net_after.messages - net.messages;
  traffic->retries += net_after.retries - net.retries;
  traffic->page_hits += pools_after.hits - pools.hits;
  traffic->page_misses += pools_after.misses - pools.misses;
  traffic->disk_ms += (pools_after.disk_us - pools.disk_us) / 1e3;
  return out;
}

Result<QueryResult> GlobalSystem::Query(const std::string& sql) {
  return Submit(sql, SubmitOptions());
}

Result<QueryResult> GlobalSystem::Submit(const std::string& sql,
                                         const SubmitOptions& submit) {
  Pipeline p;
  p.submit = &submit;
  p.admit = options_.admission_control;
  p.advance_clock = p.admit;
  p.tick_advisor = true;
  Delivered out;
  GISQL_RETURN_NOT_OK(RunPipeline(sql, p, &out));
  return std::move(out.result);
}

Result<uint64_t> GlobalSystem::OpenCursor(const std::string& sql,
                                          const CursorOptions& opts) {
  SweepExpiredCursors(governor_.now_ms());
  Pipeline p;
  p.delivery = Delivery::kCursor;
  p.chunk_rows =
      opts.chunk_rows > 0 ? opts.chunk_rows : options_.cursor_chunk_rows;
  if (p.chunk_rows <= 0) {
    return Status::InvalidArgument("cursor chunk_rows must be positive, got ",
                                   p.chunk_rows);
  }
  p.lease_ms = opts.lease_ms >= 0.0 ? opts.lease_ms : options_.cursor_lease_ms;
  p.submit = &opts.submit;
  // The admission slot covers only the open (which runs the whole plan
  // when it must spool); fetches happen outside it, so cursor_max_open
  // — not max_concurrent_queries — bounds concurrently open cursors.
  p.admit = options_.admission_control;
  p.advance_clock = p.admit;
  p.tick_advisor = true;
  Delivered out;
  GISQL_RETURN_NOT_OK(RunPipeline(sql, p, &out));
  return out.cursor_id;
}

Result<std::string> GlobalSystem::Explain(const std::string& sql) {
  Pipeline p;
  p.delivery = Delivery::kExplain;
  Delivered out;
  GISQL_RETURN_NOT_OK(RunPipeline(sql, p, &out));
  return std::move(out.result.metrics.plan_text);
}

Status GlobalSystem::RunPipeline(const std::string& sql, const Pipeline& p,
                                 Delivered* out) {
  Outcome o;
  o.sql = &sql;
  uint64_t ticket = 0;
  Status st = Admit(p, &o, &ticket);
  const bool admitted = st.ok();
  // The slot frees at the statement's simulated completion.
  auto release = [&](double end_ms) {
    if (p.admit) governor_.admission().Release(ticket, end_ms);
    if (p.advance_clock) governor_.AdvanceTo(end_ms);
  };
  bool record = p.delivery != Delivery::kExplain;
  if (admitted) {
    st = Process(sql, p, &o, out, &record);
    if (!st.ok()) {
      // A failure frees its slot at once (zero width). Overloaded means
      // the query memory budget aborted it: a shed, one count per query
      // (charge denials within a query are schedule-dependent; the
      // query-level outcome is not). Anything else is an error.
      release(o.qctx.start_ms);
      if (st.IsOverloaded()) {
        governor_.RecordMemoryShed();
        metrics_.Add("admission.shed", 1);
        o.shed_reason = ShedReasonName(ShedReason::kMemoryBudget);
      } else {
        o.error = StatusCodeToString(st.code());
      }
    }
  }
  if (record) {
    // Appended only after execution, so a gis.queries scan never
    // observes the statement currently running it.
    o.finish_ms = o.qctx.start_ms + o.elapsed_ms;
    Record(o);
  }
  if (admitted) {
    if (st.ok()) release(o.qctx.start_ms + o.elapsed_ms);
    // The advisor rides the statement clock: by this point the governor
    // has advanced past this statement's completion, so tick times —
    // and therefore decisions — replay identically for the same seed.
    if (p.tick_advisor) advisor_->Tick(governor_.now_ms());
  }
  return st;
}

Status GlobalSystem::Admit(const Pipeline& p, Outcome* o, uint64_t* ticket) {
  static const SubmitOptions kClosedLoop;
  const SubmitOptions& submit = p.submit != nullptr ? *p.submit : kClosedLoop;
  o->qctx.tenant = QueryContext::NormalizeTenant(submit.tenant);
  o->qctx.priority = submit.priority;
  // Closed-loop callers arrive at the completion time of the previous
  // statement, so a slot is always free and the governor is invisible;
  // open-loop callers pass explicit arrivals.
  o->qctx.arrival_ms =
      submit.arrival_ms >= 0 ? submit.arrival_ms : governor_.now_ms();
  o->qctx.start_ms = o->qctx.arrival_ms;

  // Refusals still land in gis.queries (with their reason and zero
  // traffic) so operators can see *what* was refused — and in the
  // tenant ledger, so noisy neighbors show up in their sheds. The
  // open-cursor cap is checked first, so a refused open allocates
  // nothing: no cursor, no grant, no admission ticket.
  if (p.delivery == Delivery::kCursor &&
      cursors_.OpenCount() >= static_cast<size_t>(options_.cursor_max_open)) {
    metrics_.Add("cursor.shed", 1);
    o->shed_reason = "cursor_limit";
    return Status::Overloaded("cursor shed: ", cursors_.OpenCount(),
                              " cursors already open (limit ",
                              options_.cursor_max_open, ")");
  }
  if (!p.admit) return Status::OK();
  AdmissionRequest req;
  req.arrival_ms = o->qctx.arrival_ms;
  req.priority = submit.priority;
  req.max_wait_ms = submit.max_wait_ms;
  const AdmissionDecision decision = governor_.admission().Admit(req);
  if (!decision.admitted) {
    metrics_.Add("admission.shed", 1);
    o->shed_reason = ShedReasonName(decision.reason);
    if (decision.reason == ShedReason::kDeadline) {
      return Status::Overloaded(
          "query shed: the admission queue would hold it for ",
          decision.wait_ms, " ms, past its ", "deadline (",
          decision.queued_ahead, " queries ahead)");
    }
    return Status::Overloaded(
        "query shed: the admission wait queue is full (",
        decision.queued_ahead, " queued, limit ",
        governor_.admission().config().queue_limit, ")");
  }
  metrics_.Add("admission.admitted", 1);
  metrics_.Observe("admission.wait_ms", decision.wait_ms);
  *ticket = decision.ticket;
  o->qctx.start_ms = decision.start_ms;
  o->admission_wait_ms = decision.wait_ms;
  return Status::OK();
}

Status GlobalSystem::Process(const std::string& sql, const Pipeline& p,
                             Outcome* o, Delivered* out, bool* record) {
  // Parse. A statement delivering rows owns the collector for its
  // duration; the spans stay readable until the next one (or
  // DisableTracing). Cursors and Explain() leave it alone.
  TraceCollector* tr =
      p.delivery == Delivery::kResult ? trace_.get() : nullptr;
  uint64_t root = 0;
  if (tr != nullptr) {
    tr->Clear();
    root = tr->Begin("query", "lifecycle", 0, 0.0);
    tr->SetNote(root, sql);
    tr->Begin("parse", "lifecycle", root, 0.0);
    o->trace_root = static_cast<int64_t>(root);
  }
  GISQL_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  using Kind = sql::Statement::Kind;
  if (p.delivery == Delivery::kCursor && stmt.kind != Kind::kSelect) {
    return Status::InvalidArgument(
        "cursors serve SELECT statements; EXPLAIN and DDL/DML go "
        "through Query()/ExecuteAt()");
  }
  if (stmt.select == nullptr) {
    return Status::InvalidArgument(
        p.delivery == Delivery::kExplain
            ? "EXPLAIN requires a SELECT statement"
            : "the mediator accepts SELECT/EXPLAIN; DDL and DML run at the "
              "component sources");
  }
  QueryResult& result = out->result;
  result.metrics.admission_wait_ms = o->admission_wait_ms;
  if (p.delivery == Delivery::kExplain || stmt.kind == Kind::kExplain) {
    *record = false;  // plain EXPLAIN executes nothing
  }

  // Plan.
  GISQL_ASSIGN_OR_RETURN(PlanNodePtr plan, PlanQuery(*stmt.select, tr, root));
  if (!*record) {
    result.metrics.plan_text = plan->Explain();
    result.batch = PlanTextBatch(result.metrics.plan_text);
    return Status::OK();
  }
  const bool analyze = stmt.kind == Kind::kExplainAnalyze;

  // Cache lookup. The decomposed plan's canonical text identifies the
  // computation. gis.* snapshots change between executions by design,
  // and a transactional read is pinned to its snapshot, so neither is
  // served from nor inserted into the (latest-committed) cache. Cursors
  // bypass it too: a chunked delivery has nothing to insert, and
  // serving chunks from a cached batch would dodge the memory
  // accounting cursors exist to enforce.
  bool use_cache = cache_ != nullptr && p.delivery == Delivery::kResult &&
                   !analyze && p.snapshot_ts == 0 && p.txn_id == 0;
  if (use_cache) {
    VisitPlan(plan, [&](const PlanNodePtr& node) {
      if (node->kind == PlanKind::kVirtualScan) use_cache = false;
    });
  }
  std::string cache_key;
  if (use_cache) {
    cache_key = plan->Explain();
    const uint64_t lookup =
        tr != nullptr ? tr->Begin("cache.lookup", "lifecycle", root, 0.0) : 0;
    auto cached = cache_->Lookup(cache_key);
    if (tr != nullptr) tr->SetNote(lookup, cached ? "hit" : "miss");
    if (cached) {
      // Served from mediator memory: zero simulated latency, zero
      // traffic.
      result.batch = std::move(cached->batch);
      result.metrics.cache_hit = true;
      result.metrics.plan_text = cache_key + "(cache hit)\n";
      o->cache_hit = true;
      o->rows = static_cast<int64_t>(result.batch.num_rows());
      use_cache = false;  // nothing to insert
    }
  }

  // Execute: a streamable cursor's tree in cursor mode, pulled chunk by
  // chunk by FetchChunk; anything else drained in whole mode, charged
  // to the statement's memory grant (for a cursor, the drained result
  // is then served in chunk_rows slices).
  MemoryGrant grant = governor_.memory().NewGrant();
  const bool streaming =
      p.delivery == Delivery::kCursor && IsStreamablePlan(plan);
  std::unique_ptr<Executor> cursor;
  if (p.delivery == Delivery::kCursor) {
    cursor = std::make_unique<Executor>(MakeExecContext(nullptr),
                                        p.chunk_rows, cursors_.token_counter());
  }
  ExecOutput exec;
  uint64_t exec_span = 0;
  if (streaming) {
    GISQL_RETURN_NOT_OK(cursor->Open(plan));
  } else if (!o->cache_hit) {
    ExecContext ctx = MakeExecContext(&grant);
    ctx.snapshot_ts = p.snapshot_ts;
    ctx.txn_id = p.txn_id;
    ctx.record_actuals = analyze;
    if (tr != nullptr) {
      exec_span = tr->Begin("execute", "lifecycle", root, 0.0);
      ctx.trace = tr;
      ctx.trace_parent = exec_span;
    }
    Executor executor(ctx);
    GISQL_ASSIGN_OR_RETURN(
        exec, Metered(&o->traffic, [&] { return executor.Execute(plan); }));
    o->elapsed_ms = exec.elapsed_ms;
    o->mem_bytes = grant.used();
  }

  // Deliver.
  if (p.delivery == Delivery::kCursor) {
    if (!streaming) cursor->Open(std::move(exec.batch));
    const double opened_at = p.admit ? o->qctx.start_ms + o->elapsed_ms
                                     : governor_.now_ms();
    CursorManager::Entry& e =
        cursors_.Create(sql, streaming, p.chunk_rows, opened_at, p.lease_ms);
    e.exec = std::move(cursor);
    // The grant keeps a spool's full charge until the cursor dies — the
    // spool really is resident.
    e.grant = std::move(grant);
    // Pin the current snapshot for the cursor's lifetime: the GC
    // watermark cannot pass it, so version chains its scan could still
    // reference survive until the cursor finalizes.
    e.snapshot_pin = txns_.PinSnapshot();
    e.elapsed_ms = o->elapsed_ms;
    o->sql = &e.sql;
    cursor_outcomes_.emplace(e.id, *o);
    metrics_.Add("cursor.opened", 1);
    out->cursor_id = e.id;
    *record = false;  // FinalizeCursor records the cursor's whole life
    return Status::OK();
  }
  QueryMetrics& m = result.metrics;
  if (!o->cache_hit) {
    m.elapsed_ms = exec.elapsed_ms;
    m.bytes_sent = o->traffic.bytes_sent;
    m.bytes_received = o->traffic.bytes_received;
    m.messages = o->traffic.messages;
    m.retries = o->traffic.retries;
    o->rows = static_cast<int64_t>(exec.batch.num_rows());
    if (analyze) {
      m.plan_text = plan->Explain();
      m.plan_text += "Total: " + std::to_string(exec.batch.num_rows()) +
                     " row(s) in " + std::to_string(exec.elapsed_ms) +
                     " simulated ms\n";
      m.plan_text += "Network: " + std::to_string(m.bytes_sent) +
                     " bytes sent, " + std::to_string(m.bytes_received) +
                     " bytes received, " + std::to_string(m.messages) +
                     " message(s), " + std::to_string(m.retries) +
                     " retrie(s)\n";
      result.batch = PlanTextBatch(m.plan_text);
    } else {
      result.batch = std::move(exec.batch);
      m.plan_text = plan->Explain();
    }
  }
  metrics_.Add("query.count", 1);
  metrics_.Observe("query.ms", m.elapsed_ms);
  metrics_.Observe("query.bytes", static_cast<double>(m.bytes_received));
  if (tr != nullptr) {
    tr->SetRows(root, o->rows);
    if (exec_span != 0) tr->End(exec_span, m.elapsed_ms);
  }
  if (use_cache) {
    if (tr != nullptr) {
      tr->Begin("cache.insert", "lifecycle", root, m.elapsed_ms);
    }
    std::set<std::string> sources;
    std::set<std::string> tables;
    VisitPlan(plan, [&](const PlanNodePtr& node) {
      if (node->kind == PlanKind::kRemoteFragment) {
        sources.insert(node->fragment_source);
        if (!node->scan_global_name.empty()) {
          tables.insert(node->scan_global_name);
        }
        for (const auto& alt : node->scan_alternates) {
          sources.insert(alt.source);
          if (!alt.global_name.empty()) tables.insert(alt.global_name);
        }
      }
    });
    cache_->Insert(cache_key, result.batch, m.elapsed_ms, std::move(sources),
                   std::move(tables));
  }
  if (tr != nullptr) tr->End(root, m.elapsed_ms);
  return Status::OK();
}

void GlobalSystem::Record(const Outcome& o) {
  QueryLogEntry entry;
  entry.sql = *o.sql;
  entry.elapsed_ms = o.elapsed_ms;
  entry.bytes_sent = o.traffic.bytes_sent;
  entry.bytes_received = o.traffic.bytes_received;
  entry.messages = o.traffic.messages;
  entry.retries = o.traffic.retries;
  entry.cache_hit = o.cache_hit;
  entry.rows = o.rows;
  entry.trace_root = o.trace_root;
  entry.admission_wait_ms = o.admission_wait_ms;
  entry.shed_reason = o.shed_reason;
  entry.error = o.error;
  entry.tenant = o.qctx.tenant;
  entry.priority = o.qctx.priority;
  entry.finish_ms = o.finish_ms;
  // Template fingerprint: literals/whitespace normalized away, so the
  // advisor (and gis.queries readers) can group recurring shapes.
  entry.fingerprint = sql::FingerprintHex(entry.sql);
  const bool shed = !entry.shed_reason.empty();

  TenantCharge charge;
  charge.shed = shed;
  charge.cache_hit = o.cache_hit;
  charge.rows = o.rows;
  charge.elapsed_ms = o.elapsed_ms;
  charge.admission_wait_ms = o.admission_wait_ms;
  charge.bytes_sent = o.traffic.bytes_sent;
  charge.bytes_received = o.traffic.bytes_received;
  charge.messages = o.traffic.messages;
  charge.retries = o.traffic.retries;
  charge.mem_bytes = o.mem_bytes;
  charge.page_hits = o.traffic.page_hits;
  charge.page_misses = o.traffic.page_misses;
  charge.disk_ms = o.traffic.disk_ms;
  tenants_.Record(o.qctx.tenant, charge);

  QueryFrame frame;
  frame.tenant = o.qctx.tenant;
  frame.priority = o.qctx.priority;
  frame.finish_ms = o.finish_ms;
  frame.sojourn_ms = o.admission_wait_ms + o.elapsed_ms;
  frame.rows = o.rows;
  frame.bytes = o.traffic.bytes_sent + o.traffic.bytes_received;
  frame.cache_hit = o.cache_hit;
  frame.shed_reason = entry.shed_reason;
  frame.sql = entry.sql;

  // Append before feeding the triggers so an incident fired by this
  // very statement already sees it in gis.queries and the frame ring.
  query_log_.Append(std::move(entry));
  frame.query_id = query_log_.total_appended();
  flight_.RecordFrame(frame);

  if (options_.slo_enabled) {
    // Shed and failed statements are never good.
    for (const SloAlert& alert :
         slo_.Record(o.qctx.priority, o.finish_ms, frame.sojourn_ms,
                     shed || *o.error != '\0')) {
      flight_.OnSloAlert(alert.objective, alert.at_ms, alert.fast_burn,
                         alert.slow_burn);
    }
  }

  // Breaker-open trigger: polled per statement (deterministic — RPC
  // completion order within a statement is sequenced) rather than via
  // callbacks from network threads.
  const GovernorSnapshot g = governor_.Snapshot();
  if (g.breaker_transitions > seen_breaker_transitions_) {
    seen_breaker_transitions_ = g.breaker_transitions;
    std::vector<std::string> open;
    for (const auto& b : governor_.breakers().Snapshot()) {
      if (b.state == BreakerState::kOpen) open.push_back(b.source);
    }
    if (!open.empty()) {
      std::sort(open.begin(), open.end());
      std::string detail;
      for (const auto& s : open) {
        if (!detail.empty()) detail += ",";
        detail += s;
      }
      flight_.OnBreakerOpen(detail, o.finish_ms);
    }
  }
}

Result<GlobalSystem::CursorChunkResult> GlobalSystem::FetchChunk(
    uint64_t cursor_id) {
  const double now = governor_.now_ms();
  SweepExpiredCursors(now);
  CursorManager::Entry* e = cursors_.Find(cursor_id);
  if (e == nullptr) {
    return Status::NotFound("cursor ", cursor_id, " does not exist");
  }
  if (e->state != CursorManager::State::kOpen) {
    return Status::NotFound("cursor ", cursor_id, " is ",
                            CursorManager::StateName(e->state));
  }

  // Every fetch's traffic — failed attempts included — is the cursor's.
  Outcome& o = cursor_outcomes_.at(cursor_id);
  const Traffic before = o.traffic;
  Result<ExecOutput> chunk_or =
      Metered(&o.traffic, [&] { return e->exec->Next(); });
  if (!chunk_or.ok()) {
    // A transport error leaves the cursor open: the tree did not
    // advance, so a retried FetchChunk re-requests the same chunk and
    // the source's one-chunk re-serve window absorbs the duplicate.
    // Anything else is fatal to the cursor.
    if (!IsRetryableTransport(chunk_or.status())) {
      o.error = StatusCodeToString(chunk_or.status().code());
      FinalizeCursor(*e, CursorManager::State::kClosed);
    }
    return chunk_or.status();
  }
  ExecOutput chunk = std::move(chunk_or).ValueUnsafe();

  if (e->streaming) {
    // Re-grant per chunk: a fresh grant charged for just this chunk
    // replaces the previous chunk's (move-assign releases the old
    // charge first), keeping the cursor's booked footprint O(chunk).
    // The swap happens even when the charge is denied — a failed
    // Charge still books the bytes, and only release-through-the-grant
    // keeps the global budget consistent.
    const int64_t width =
        chunk.batch.schema() != nullptr
            ? static_cast<int64_t>(chunk.batch.schema()->fields().size())
            : 0;
    MemoryGrant next = governor_.memory().NewGrant();
    const Status charged = next.Charge(
        EstimateRowBytes(static_cast<int64_t>(chunk.batch.num_rows()), width),
        "a cursor chunk");
    e->grant = std::move(next);
    o.mem_bytes = std::max(o.mem_bytes, e->grant.used());
    if (!charged.ok()) {
      governor_.RecordMemoryShed();
      metrics_.Add("admission.shed", 1);
      o.shed_reason = ShedReasonName(ShedReason::kMemoryBudget);
      FinalizeCursor(*e, CursorManager::State::kClosed);
      return charged;
    }
  }

  e->chunks += 1;
  e->rows += static_cast<int64_t>(chunk.batch.num_rows());
  e->elapsed_ms += chunk.elapsed_ms;
  governor_.AdvanceTo(now + chunk.elapsed_ms);
  // Each successful fetch renews the lease from the advanced clock.
  e->lease_deadline_ms = governor_.now_ms() + e->lease_ms;
  metrics_.Add("cursor.chunks", 1);

  CursorChunkResult res;
  res.batch = std::move(chunk.batch);
  res.done = chunk.done;
  res.seq = static_cast<uint64_t>(e->chunks - 1);
  res.metrics.elapsed_ms = chunk.elapsed_ms;
  res.metrics.bytes_sent = o.traffic.bytes_sent - before.bytes_sent;
  res.metrics.bytes_received =
      o.traffic.bytes_received - before.bytes_received;
  res.metrics.messages = o.traffic.messages - before.messages;
  res.metrics.retries = o.traffic.retries - before.retries;
  if (chunk.done) FinalizeCursor(*e, CursorManager::State::kDrained);
  return res;
}

Status GlobalSystem::CloseCursor(uint64_t cursor_id) {
  SweepExpiredCursors(governor_.now_ms());
  CursorManager::Entry* e = cursors_.Find(cursor_id);
  // Idempotent end-to-end: unknown (pruned) and already-finished
  // cursors close successfully, mirroring the source-side contract.
  if (e == nullptr || e->state != CursorManager::State::kOpen) {
    return Status::OK();
  }
  FinalizeCursor(*e, CursorManager::State::kClosed);
  return Status::OK();
}

void GlobalSystem::SweepExpiredCursors(double now_ms) {
  for (uint64_t id : cursors_.ExpiredBefore(now_ms)) {
    CursorManager::Entry* e = cursors_.Find(id);
    if (e != nullptr) FinalizeCursor(*e, CursorManager::State::kExpired);
  }
}

void GlobalSystem::FinalizeCursor(CursorManager::Entry& entry,
                                  CursorManager::State state) {
  if (entry.state != CursorManager::State::kOpen) return;
  auto it = cursor_outcomes_.find(entry.id);
  Outcome& o = it->second;
  if (entry.exec != nullptr) {
    // Best-effort remote close; its traffic and time belong to the
    // cursor like any fetch's.
    const double close_ms =
        Metered(&o.traffic, [&] { return entry.exec->Close(); });
    entry.elapsed_ms += close_ms;
    governor_.AdvanceTo(governor_.now_ms() + close_ms);
  }
  // One gis.queries entry per cursor, written at end of life so it
  // carries the cursor's whole story. Drained, closed and expired all
  // finish "now", on the clock the close above already moved.
  o.elapsed_ms = entry.elapsed_ms;
  o.rows = entry.rows;
  o.finish_ms = governor_.now_ms();
  Record(o);
  switch (state) {
    case CursorManager::State::kDrained:
      metrics_.Add("cursor.drained", 1);
      break;
    case CursorManager::State::kExpired:
      metrics_.Add("cursor.expired", 1);
      break;
    default:
      metrics_.Add("cursor.closed", 1);
      break;
  }
  metrics_.Add("query.count", 1);
  metrics_.Observe("query.ms", entry.elapsed_ms);
  metrics_.Observe("query.bytes",
                   static_cast<double>(o.traffic.bytes_received));
  cursor_outcomes_.erase(it);
  // The snapshot pin releases together with the grant below — an
  // expired lease frees its spool memory and its version-chain hold
  // on the GC watermark in the same step.
  if (entry.snapshot_pin != 0) {
    txns_.UnpinSnapshot(entry.snapshot_pin);
    entry.snapshot_pin = 0;
  }
  // Releases the grant and may prune entries: the reference (and any
  // other finished entry's) is dead after this line.
  cursors_.Finalize(entry.id, state);
}

}  // namespace gisql
