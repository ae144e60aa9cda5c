/// \file system_tables.h
/// \brief The `gis.*` virtual system tables: names, schemas, and the
/// provider interface the planner and executor consume.
///
/// The mediator's own state — source health, metrics, histograms, the
/// query log — is exposed through the global schema itself, as virtual
/// tables under the reserved `gis.` prefix:
///
///   gis.sources     one row per registered component source, with its
///                   health counters, derived state, and circuit-
///                   breaker view;
///   gis.metrics     every *counter* of the mediator and network
///                   registries (monotone, schedule-independent);
///   gis.gauges      the point-in-time gauges, quarantined here so
///                   gis.metrics snapshots stay deterministic under
///                   pooled execution;
///   gis.histograms  digests (count/sum/min/max/p50/p95/p99) of every
///                   registry histogram;
///   gis.queries     the bounded ring of recently logged statements,
///                   with admission wait, shed reason and error;
///   gis.admission   one row: the resource governor's limits and
///                   admit/shed/budget/breaker counters;
///   gis.tenants     per-tenant attribution rows whose column sums
///                   provably equal the global counters;
///   gis.slo         one row per service-level objective: rolling
///                   attainment and error-budget burn rates;
///   gis.incidents   flight-recorder captures — one JSON snapshot per
///                   deterministic trigger firing.
///
/// A query over them runs through the ordinary parse → bind → plan →
/// optimize → execute pipeline: the logical planner resolves a `gis.`
/// name against the provider registered in the Catalog and emits a
/// VirtualTableScan leaf; the executor materializes it by snapshotting
/// live state at the mediator — zero network cost, so observing the
/// system never perturbs the experiment being observed.
///
/// This header lives in catalog/ and depends only on types/; the
/// concrete provider wiring mediator internals together is
/// core/system_catalog.h.

#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "types/row.h"
#include "types/schema.h"

namespace gisql {

/// \brief Reserved name prefix of the virtual system tables.
inline constexpr const char* kSystemTablePrefix = "gis.";

/// \brief True when `name` (any case) starts with the `gis.` prefix.
bool IsSystemTableName(const std::string& name);

/// \brief Canonical (lower-case) names of the built-in system tables.
std::vector<std::string> SystemTableNames();

/// \brief Schema of one built-in system table; NotFound for names
/// outside SystemTableNames(). Fields carry no qualifier — the planner
/// qualifies them with the query's alias (or the table name).
Result<SchemaPtr> SystemTableSchema(const std::string& name);

/// \brief Source of virtual-table snapshots, registered in the Catalog
/// and handed to the executor through ExecContext.
///
/// Implementations snapshot live state at call time; two scans of the
/// same table may legitimately differ (which is why query plans
/// containing a virtual scan bypass the result cache). Snapshot rows
/// must match TableSchema positionally and be deterministically
/// ordered.
class SystemTableProvider {
 public:
  virtual ~SystemTableProvider() = default;

  /// \brief True when `name` (canonical lower-case) is served here.
  virtual bool HasTable(const std::string& name) const = 0;

  /// \brief Schema for `name`; NotFound when absent.
  virtual Result<SchemaPtr> TableSchema(const std::string& name) const = 0;

  /// \brief Materializes the current state of `name`.
  virtual Result<RowBatch> Snapshot(const std::string& name) const = 0;

  /// \brief All served table names (canonical lower-case, sorted).
  virtual std::vector<std::string> TableNames() const = 0;
};

}  // namespace gisql
