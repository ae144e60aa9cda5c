#include "core/system_catalog.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/string_util.h"

namespace gisql {

namespace {

/// Appends every counter of one registry snapshot, labeled with the
/// registry name. The snapshot maps are sorted, so emission order is
/// deterministic. Gauges are deliberately absent — a gauge captures
/// "the value at some instant", and under pooled execution *which*
/// instant won a race is schedule-dependent; they render via
/// gis.gauges instead.
void AppendCounterRows(const std::string& registry,
                       const MetricsSnapshot& snap, RowBatch* out) {
  for (const auto& [name, value] : snap.counters) {
    out->Append({Value::String(registry), Value::String(name),
                 Value::String("counter"),
                 Value::Double(static_cast<double>(value))});
  }
}

void AppendGaugeRows(const std::string& registry, const MetricsSnapshot& snap,
                     RowBatch* out) {
  for (const auto& [name, value] : snap.gauges) {
    out->Append({Value::String(registry), Value::String(name),
                 Value::Double(value)});
  }
}

void AppendHistogramRows(const std::string& registry,
                         const MetricsSnapshot& snap, RowBatch* out) {
  for (const auto& [name, hist] : snap.histograms) {
    const HistogramSnapshot d = DigestHistogram(hist);
    out->Append({Value::String(registry), Value::String(name),
                 Value::Int(d.count), Value::Double(d.sum),
                 Value::Double(d.min), Value::Double(d.max),
                 Value::Double(d.p50), Value::Double(d.p95),
                 Value::Double(d.p99), Value::Double(d.p999)});
  }
}

}  // namespace

bool SystemCatalog::HasTable(const std::string& name) const {
  const auto names = SystemTableNames();
  return std::find(names.begin(), names.end(), ToLower(name)) != names.end();
}

Result<SchemaPtr> SystemCatalog::TableSchema(const std::string& name) const {
  return SystemTableSchema(name);
}

std::vector<std::string> SystemCatalog::TableNames() const {
  return SystemTableNames();
}

Result<RowBatch> SystemCatalog::Snapshot(const std::string& name) const {
  const std::string lower = ToLower(name);
  if (lower == "gis.sources") return SnapshotSources();
  if (lower == "gis.metrics") return SnapshotMetrics();
  if (lower == "gis.gauges") return SnapshotGauges();
  if (lower == "gis.histograms") return SnapshotHistograms();
  if (lower == "gis.queries") return SnapshotQueries();
  if (lower == "gis.admission") return SnapshotAdmission();
  if (lower == "gis.cursors") return SnapshotCursors();
  if (lower == "gis.storage") return SnapshotStorage();
  if (lower == "gis.transactions") return SnapshotTransactions();
  if (lower == "gis.tenants") return SnapshotTenants();
  if (lower == "gis.slo") return SnapshotSlo();
  if (lower == "gis.incidents") return SnapshotIncidents();
  if (lower == "gis.advisor") return SnapshotAdvisor();
  const auto schema = SystemTableSchema(name);
  return schema.status();  // NotFound with the known-table list
}

RowBatch SystemCatalog::SnapshotSources() const {
  RowBatch batch(SystemTableSchema("gis.sources").ValueUnsafe());
  // Every catalog-registered source gets a row even with zero traffic;
  // observed-but-unregistered hosts (none today) would also appear.
  std::set<std::string> names;
  for (const auto& n : catalog_->SourceNames()) names.insert(n);
  for (const auto& snap : health_->Snapshot()) names.insert(snap.source);
  for (const auto& n : names) {
    const SourceHealthSnapshot s = health_->SnapshotOf(n);
    const BreakerSnapshot b = governor_ != nullptr
                                  ? governor_->breakers().SnapshotOf(n)
                                  : BreakerSnapshot{};
    batch.Append({Value::String(n),
                  Value::String(SourceHealthStateName(s.state)),
                  Value::Int(s.requests), Value::Int(s.errors),
                  Value::Int(s.retries), Value::Int(s.consecutive_failures),
                  Value::Int(s.bytes_sent), Value::Int(s.bytes_received),
                  Value::Double(s.ewma_ms), Value::Double(s.p95_ms),
                  Value::String(s.last_error),
                  Value::String(BreakerStateName(b.state)),
                  Value::Int(b.skips), Value::Int(b.probes),
                  Value::Int(b.transitions)});
  }
  return batch;
}

RowBatch SystemCatalog::SnapshotMetrics() const {
  RowBatch batch(SystemTableSchema("gis.metrics").ValueUnsafe());
  AppendCounterRows("mediator", mediator_metrics_->SnapshotAll(), &batch);
  AppendCounterRows("network", network_metrics_->SnapshotAll(), &batch);
  return batch;
}

RowBatch SystemCatalog::SnapshotGauges() const {
  RowBatch batch(SystemTableSchema("gis.gauges").ValueUnsafe());
  AppendGaugeRows("mediator", mediator_metrics_->SnapshotAll(), &batch);
  AppendGaugeRows("network", network_metrics_->SnapshotAll(), &batch);
  return batch;
}

RowBatch SystemCatalog::SnapshotHistograms() const {
  RowBatch batch(SystemTableSchema("gis.histograms").ValueUnsafe());
  AppendHistogramRows("mediator", mediator_metrics_->SnapshotAll(), &batch);
  AppendHistogramRows("network", network_metrics_->SnapshotAll(), &batch);
  return batch;
}

RowBatch SystemCatalog::SnapshotQueries() const {
  RowBatch batch(SystemTableSchema("gis.queries").ValueUnsafe());
  for (const auto& e : query_log_->Snapshot()) {
    batch.Append({Value::Int(e.id), Value::String(e.sql),
                  Value::Double(e.elapsed_ms), Value::Int(e.bytes_sent),
                  Value::Int(e.bytes_received), Value::Int(e.messages),
                  Value::Int(e.retries), Value::Bool(e.cache_hit),
                  Value::Int(e.rows), Value::Int(e.trace_root),
                  Value::Double(e.admission_wait_ms),
                  Value::String(e.shed_reason), Value::String(e.tenant),
                  Value::Int(e.priority), Value::Double(e.finish_ms),
                  Value::String(e.fingerprint), Value::String(e.error)});
  }
  return batch;
}

RowBatch SystemCatalog::SnapshotAdmission() const {
  RowBatch batch(SystemTableSchema("gis.admission").ValueUnsafe());
  const GovernorSnapshot g =
      governor_ != nullptr ? governor_->Snapshot() : GovernorSnapshot{};
  batch.Append({Value::Int(g.admission_config.max_concurrent),
                Value::Int(g.admission_config.queue_limit),
                Value::Double(g.admission_config.max_wait_ms),
                Value::Int(g.admission.in_flight),
                Value::Int(g.admission.admitted),
                Value::Int(g.admission.queued),
                Value::Int(g.admission.shed_queue_full),
                Value::Int(g.admission.shed_deadline),
                Value::Int(g.shed_memory_budget),
                Value::Double(g.admission.total_wait_ms),
                Value::Int(g.mem_query_cap), Value::Int(g.mem_global_cap),
                Value::Int(g.mem_peak_bytes),
                Value::Bool(g.breaker_enabled), Value::Int(g.breakers_open),
                Value::Int(g.breaker_transitions),
                Value::Int(g.breaker_skips), Value::Int(g.breaker_probes)});
  return batch;
}

RowBatch SystemCatalog::SnapshotCursors() const {
  if (cursors_ == nullptr) {
    return RowBatch(SystemTableSchema("gis.cursors").ValueUnsafe());
  }
  return cursors_->Snapshot();
}

RowBatch SystemCatalog::SnapshotStorage() const {
  RowBatch batch(SystemTableSchema("gis.storage").ValueUnsafe());
  if (sources_ == nullptr) return batch;
  // One row per source's buffer pool, sorted by source name.
  std::vector<const ComponentSource*> ordered;
  ordered.reserve(sources_->size());
  for (const auto& s : *sources_) ordered.push_back(s.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const ComponentSource* a, const ComponentSource* b) {
              return a->name() < b->name();
            });
  for (const ComponentSource* s : ordered) {
    const BufferPoolStats p =
        const_cast<ComponentSource*>(s)->engine().pool().Snapshot();
    const int64_t accesses = p.hits + p.misses;
    batch.Append(
        {Value::String(s->name()),
         Value::Int(static_cast<int64_t>(p.page_size)),
         Value::Int(static_cast<int64_t>(p.pool_frames)),
         Value::Int(static_cast<int64_t>(p.frames_used)),
         Value::Int(p.pages_live), Value::Int(p.hits),
         Value::Int(p.misses), Value::Int(p.evictions),
         Value::Int(p.disk_reads), Value::Int(p.disk_writes),
         Value::Double(p.disk_us / 1e3),
         Value::Double(accesses > 0
                           ? static_cast<double>(p.hits) /
                                 static_cast<double>(accesses)
                           : 0.0)});
  }
  return batch;
}

RowBatch SystemCatalog::SnapshotTransactions() const {
  RowBatch batch(SystemTableSchema("gis.transactions").ValueUnsafe());
  if (txns_ == nullptr) return batch;
  // Active plus the bounded finished ring, ascending by id — the
  // manager's Snapshot order is already deterministic.
  for (const auto& t : txns_->Snapshot()) {
    std::string participants;
    for (const auto& p : t.participants) {
      if (!participants.empty()) participants += ",";
      participants += p;
    }
    batch.Append({Value::Int(static_cast<int64_t>(t.id)),
                  Value::String(TxnStateName(t.state)),
                  Value::Int(static_cast<int64_t>(t.snapshot_ts)),
                  Value::Int(static_cast<int64_t>(t.commit_ts)),
                  Value::Int(t.statements), Value::String(participants),
                  Value::Int(t.lock_waits), Value::String(t.abort_reason),
                  Value::Double(t.begin_ms), Value::Double(t.end_ms)});
  }
  return batch;
}

RowBatch SystemCatalog::SnapshotTenants() const {
  RowBatch batch(SystemTableSchema("gis.tenants").ValueUnsafe());
  if (tenants_ == nullptr) return batch;
  for (const auto& t : tenants_->SnapshotTenants()) {
    batch.Append({Value::String(t.tenant), Value::Int(t.queries),
                  Value::Int(t.sheds), Value::Int(t.cache_hits),
                  Value::Int(t.rows), Value::Double(t.elapsed_ms),
                  Value::Double(t.admission_wait_ms),
                  Value::Int(t.bytes_sent), Value::Int(t.bytes_received),
                  Value::Int(t.messages), Value::Int(t.retries),
                  Value::Int(t.mem_peak_bytes), Value::Int(t.page_hits),
                  Value::Int(t.page_misses), Value::Double(t.disk_ms)});
  }
  return batch;
}

RowBatch SystemCatalog::SnapshotSlo() const {
  RowBatch batch(SystemTableSchema("gis.slo").ValueUnsafe());
  if (slo_ == nullptr) return batch;
  for (const auto& s : slo_->Snapshot()) {
    batch.Append({Value::String(s.name), Value::Int(s.priority),
                  Value::Double(s.target_ms), Value::Double(s.goal),
                  Value::Int(s.fast_total), Value::Int(s.fast_good),
                  Value::Int(s.slow_total), Value::Int(s.slow_good),
                  Value::Double(s.fast_attainment),
                  Value::Double(s.slow_attainment),
                  Value::Double(s.fast_burn), Value::Double(s.slow_burn),
                  Value::Bool(s.alerting), Value::Int(s.alerts),
                  Value::Double(s.last_alert_ms)});
  }
  return batch;
}

RowBatch SystemCatalog::SnapshotIncidents() const {
  RowBatch batch(SystemTableSchema("gis.incidents").ValueUnsafe());
  if (flight_ == nullptr) return batch;
  for (const auto& i : flight_->Incidents()) {
    batch.Append({Value::Int(i.id), Value::Double(i.at_ms),
                  Value::String(i.trigger), Value::String(i.detail),
                  Value::String(i.json)});
  }
  return batch;
}

RowBatch SystemCatalog::SnapshotAdvisor() const {
  RowBatch batch(SystemTableSchema("gis.advisor").ValueUnsafe());
  if (advisor_ == nullptr) return batch;
  for (const auto& d : advisor_->Decisions()) {
    batch.Append({Value::Int(d.id), Value::Double(d.at_ms),
                  Value::String(d.kind), Value::String(d.target),
                  Value::String(d.evidence), Value::String(d.action),
                  Value::String(d.outcome)});
  }
  return batch;
}

}  // namespace gisql
