/// \file system_catalog.h
/// \brief The mediator's concrete SystemTableProvider: snapshots live
/// mediator state into `gis.*` row batches, and renders those rows as
/// the Prometheus exposition and the incident-JSON system section.

#pragma once

#include <vector>

#include "advisor/advisor.h"
#include "catalog/catalog.h"
#include "catalog/system_tables.h"
#include "common/metrics.h"
#include "core/cursor_manager.h"
#include "core/query_log.h"
#include "core/source_health.h"
#include "obs/flight_recorder.h"
#include "obs/slo.h"
#include "obs/tenant_accountant.h"
#include "sched/governor.h"
#include "source/component_source.h"
#include "txn/transaction_manager.h"

namespace gisql {

/// \brief Serves the built-in `gis.*` tables from live mediator state.
///
/// Owned by GlobalSystem, which registers it in the Catalog and threads
/// it into ExecContext. All referenced state outlives the provider
/// (they are sibling members of the same GlobalSystem). Snapshots are
/// deterministically ordered: sources and metric names sort
/// lexicographically, query-log entries ascend by id.
class SystemCatalog : public SystemTableProvider {
 public:
  SystemCatalog(const SourceHealthTracker* health,
                const MetricsRegistry* mediator_metrics,
                const MetricsRegistry* network_metrics,
                const QueryLog* query_log, const Catalog* catalog,
                const ResourceGovernor* governor,
                const CursorManager* cursors,
                const std::vector<ComponentSourcePtr>* sources,
                const TransactionManager* txns,
                const TenantAccountant* tenants, const SloEngine* slo,
                const FlightRecorder* flight, const Advisor* advisor)
      : health_(health),
        mediator_metrics_(mediator_metrics),
        network_metrics_(network_metrics),
        query_log_(query_log),
        catalog_(catalog),
        governor_(governor),
        cursors_(cursors),
        sources_(sources),
        txns_(txns),
        tenants_(tenants),
        slo_(slo),
        flight_(flight),
        advisor_(advisor) {}

  Result<RowBatch> Snapshot(const std::string& name) const override;

  /// \brief Prometheus text of every table declaring a prefix, derived
  /// from its descriptor by the rules on ExportRole; every label value
  /// is escaped and every sample printed with %.17g.
  std::string ExportPrometheus() const;

  /// \brief The `"system"` object of an incident: `now_ms` plus, per
  /// table flagged in_incidents, its rows as an array of JSON objects
  /// keyed by the table name without `gis.` (deterministic fields only).
  std::string IncidentJson(double now_ms) const;

 private:
  RowBatch SnapshotSources() const;
  RowBatch SnapshotMetrics() const;
  RowBatch SnapshotGauges() const;
  RowBatch SnapshotHistograms() const;
  RowBatch SnapshotQueries() const;
  RowBatch SnapshotAdmission() const;
  RowBatch SnapshotCursors() const;
  RowBatch SnapshotStorage() const;
  RowBatch SnapshotTransactions() const;
  RowBatch SnapshotTenants() const;
  RowBatch SnapshotSlo() const;
  RowBatch SnapshotIncidents() const;
  RowBatch SnapshotAdvisor() const;
  RowBatch SnapshotTotals() const;

  const SourceHealthTracker* health_;
  const MetricsRegistry* mediator_metrics_;
  const MetricsRegistry* network_metrics_;
  const QueryLog* query_log_;
  const Catalog* catalog_;
  const ResourceGovernor* governor_;
  const CursorManager* cursors_;
  const std::vector<ComponentSourcePtr>* sources_;
  const TransactionManager* txns_;
  const TenantAccountant* tenants_;
  const SloEngine* slo_;
  const FlightRecorder* flight_;
  const Advisor* advisor_;
};

}  // namespace gisql
