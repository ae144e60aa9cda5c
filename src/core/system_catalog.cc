#include "core/system_catalog.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <utility>

#include "common/string_util.h"
#include "obs/json.h"

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

/// A Prometheus sample: integers exactly, doubles with %.17g (round-
/// trippable, so the sample equals its gis.* cell), booleans as 0/1.
std::string SampleText(const Value& v) {
  switch (v.type()) {
    case TypeId::kBool: return v.AsBool() ? "1" : "0";
    case TypeId::kInt64: return JsonNum(v.AsInt());
    default: return JsonNum(v.AsDouble());
  }
}

std::string JsonValue(const Value& v) {
  switch (v.type()) {
    case TypeId::kBool: return v.AsBool() ? "true" : "false";
    case TypeId::kString: return JsonStr(v.AsString());
    default: return SampleText(v);
  }
}

void AppendLabel(std::string* labels, const std::string& name,
                 const std::string& value) {
  if (!labels->empty()) *labels += ",";
  *labels += name + "=\"" + EscapeLabelValue(value) + "\"";
}

}  // namespace

Result<RowBatch> SystemCatalog::Snapshot(const std::string& name) const {
  using SnapshotFn = RowBatch (SystemCatalog::*)() const;
  static const std::map<std::string, SnapshotFn> kSnapshots = {
      {"gis.admission", &SystemCatalog::SnapshotAdmission},
      {"gis.advisor", &SystemCatalog::SnapshotAdvisor},
      {"gis.cursors", &SystemCatalog::SnapshotCursors},
      {"gis.gauges", &SystemCatalog::SnapshotGauges},
      {"gis.histograms", &SystemCatalog::SnapshotHistograms},
      {"gis.incidents", &SystemCatalog::SnapshotIncidents},
      {"gis.metrics", &SystemCatalog::SnapshotMetrics},
      {"gis.queries", &SystemCatalog::SnapshotQueries},
      {"gis.slo", &SystemCatalog::SnapshotSlo},
      {"gis.sources", &SystemCatalog::SnapshotSources},
      {"gis.storage", &SystemCatalog::SnapshotStorage},
      {"gis.tenants", &SystemCatalog::SnapshotTenants},
      {"gis.totals", &SystemCatalog::SnapshotTotals},
      {"gis.transactions", &SystemCatalog::SnapshotTransactions},
  };
  const auto it = kSnapshots.find(ToLower(name));
  if (it != kSnapshots.end()) return (this->*it->second)();
  Status declared = SystemTableSchema(name).status();
  if (declared.ok()) return Status::Internal("'", name, "' has no snapshot");
  return declared;  // NotFound with the declared names
}

std::string SystemCatalog::ExportPrometheus() const {
  std::string out;
  for (const SystemTableDef& def : SystemTableDefs()) {
    if (def.prom_prefix.empty()) continue;
    const RowBatch batch = Snapshot(def.name).ValueUnsafe();
    const std::vector<Row>& rows = batch.rows();
    if (rows.empty()) continue;  // no samples, so no # TYPE lines either
    // Each row's label block, from its label columns in declared order.
    std::vector<std::string> labels(rows.size());
    for (size_t c = 0; c < def.columns.size(); ++c) {
      if (def.columns[c].role != ExportRole::kLabel) continue;
      for (size_t r = 0; r < rows.size(); ++r) {
        AppendLabel(&labels[r], def.columns[c].name, rows[r][c].AsString());
      }
    }
    for (size_t c = 0; c < def.columns.size(); ++c) {
      const SystemColumnDef& col = def.columns[c];
      if (col.role == ExportRole::kNone || col.role == ExportRole::kLabel) {
        continue;
      }
      const bool counter = col.role == ExportRole::kCounter;
      const bool state = col.role == ExportRole::kState;
      const std::string series =
          def.prom_prefix + "_" + col.name + (counter ? "_total" : "");
      out += "# TYPE " + series + (counter ? " counter\n" : " gauge\n");
      for (size_t r = 0; r < rows.size(); ++r) {
        const Value& v = rows[r][c];
        std::string label = labels[r];
        if (state) AppendLabel(&label, col.name, v.AsString());
        out += series + (label.empty() ? "" : "{" + label + "}") + " " +
               (state ? "1" : SampleText(v)) + "\n";
      }
    }
  }
  return out;
}

std::string SystemCatalog::IncidentJson(double now_ms) const {
  std::string out = "{\"now_ms\":" + JsonNum(now_ms);
  for (const SystemTableDef& def : SystemTableDefs()) {
    if (!def.in_incidents) continue;
    const RowBatch batch = Snapshot(def.name).ValueUnsafe();
    out += "," + JsonStr(def.name.substr(std::strlen(kSystemTablePrefix))) +
           ":[";
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      out += r == 0 ? "{" : ",{";
      for (size_t c = 0; c < def.columns.size(); ++c) {
        if (c > 0) out += ",";
        out += JsonStr(def.columns[c].name) + ":" +
               JsonValue(batch.rows()[r][c]);
      }
      out += "}";
    }
    out += "]";
  }
  return out + "}";
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
    const BreakerSnapshot b = governor_->breakers().SnapshotOf(n);
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
  const GovernorSnapshot g = governor_->Snapshot();
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
  return cursors_->Snapshot();
}

RowBatch SystemCatalog::SnapshotStorage() const {
  RowBatch batch(SystemTableSchema("gis.storage").ValueUnsafe());
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
  for (const auto& i : flight_->Incidents()) {
    batch.Append({Value::Int(i.id), Value::Double(i.at_ms),
                  Value::String(i.trigger), Value::String(i.detail),
                  Value::String(i.json)});
  }
  return batch;
}

RowBatch SystemCatalog::SnapshotTotals() const {
  RowBatch batch(SystemTableSchema("gis.totals").ValueUnsafe());
  const TxnCounters& tc = txns_->counters();
  const AdvisorCounters ac = advisor_->counters();
  batch.Append({Value::Int(static_cast<int64_t>(txns_->active_count())),
                Value::Int(tc.started), Value::Int(tc.committed),
                Value::Int(tc.aborted), Value::Int(tc.deadlocks),
                Value::Int(tc.lock_waits),
                Value::Int(static_cast<int64_t>(txns_->Watermark())),
                Value::Int(static_cast<int64_t>(txns_->pinned_snapshots())),
                Value::Int(ac.ticks), Value::Int(ac.decisions),
                Value::Int(ac.materializations), Value::Int(ac.evictions),
                Value::Int(ac.placements), Value::Int(ac.tunings),
                Value::Int(ac.failures),
                Value::Int(flight_->incidents_captured())});
  return batch;
}

RowBatch SystemCatalog::SnapshotAdvisor() const {
  RowBatch batch(SystemTableSchema("gis.advisor").ValueUnsafe());
  for (const auto& d : advisor_->Decisions()) {
    batch.Append({Value::Int(d.id), Value::Double(d.at_ms),
                  Value::String(d.kind), Value::String(d.target),
                  Value::String(d.evidence), Value::String(d.action),
                  Value::String(d.outcome)});
  }
  return batch;
}

}  // namespace gisql
