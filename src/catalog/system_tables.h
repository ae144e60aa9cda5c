/// \file system_tables.h
/// \brief The `gis.*` virtual system tables: one descriptor per table,
/// and the snapshot interface the executor consumes.
///
/// The mediator's own state — source health, metrics, the query log,
/// the governor, transactions, tenants, SLOs, incidents, the advisor —
/// is exposed through the global schema itself, as virtual tables
/// under the reserved `gis.` prefix. SystemTableDefs() is the single
/// declaration of every such table: its name, its columns (name, type,
/// export role) and an optional Prometheus prefix. Everything else is
/// derived from that list — the table names, the schemas the planner
/// binds against, the known-table lists in error messages, the labeled
/// Prometheus series, and the system section of incident JSON. One
/// table has no other home: `gis.totals`, a single row of mediator-
/// wide lifecycle counters (transactions, advisor, incidents).
///
/// A query over them runs through the ordinary parse → bind → plan →
/// optimize → execute pipeline: the logical planner resolves a `gis.`
/// name against the descriptors and emits a VirtualTableScan leaf; the
/// executor materializes it through the SystemTableProvider registered
/// in the Catalog, snapshotting live state at the mediator — zero
/// network cost, so observing the system never perturbs the experiment
/// being observed.
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

/// \brief How a column appears in the Prometheus exposition of a table
/// with a prefix. Series are named `<prefix>_<column>` (`_total` added
/// for counters); label columns label every series of the row; a state
/// column renders in StateSet form, `<series>{...,<column>="<cell>"} 1`.
enum class ExportRole : uint8_t { kNone, kLabel, kCounter, kGauge, kState };

struct SystemColumnDef {
  std::string name;
  TypeId type;
  ExportRole role;
};

/// \brief Declaration of one `gis.*` table.
struct SystemTableDef {
  std::string name;         ///< canonical lower-case, e.g. "gis.sources"
  std::string prom_prefix;  ///< series prefix; empty = not exported
  bool in_incidents;        ///< rendered into incident JSON snapshots
  std::vector<SystemColumnDef> columns;
  SchemaPtr schema;         ///< the columns as non-null, unqualified fields
};

/// \brief True when `name` (any case) starts with the `gis.` prefix.
bool IsSystemTableName(const std::string& name);

/// \brief Every built-in system table, sorted by name.
const std::vector<SystemTableDef>& SystemTableDefs();

/// \brief Canonical (lower-case) names of the built-in system tables.
std::vector<std::string> SystemTableNames();

/// \brief Schema of one built-in system table; NotFound (listing the
/// declared names) otherwise. Fields carry no qualifier — the planner
/// qualifies them with the query's alias (or the table name).
Result<SchemaPtr> SystemTableSchema(const std::string& name);

/// \brief Source of virtual-table snapshots, registered in the Catalog
/// and handed to the executor through ExecContext.
///
/// Implementations snapshot live state at call time; two scans of the
/// same table may legitimately differ (which is why query plans
/// containing a virtual scan bypass the result cache). Snapshot rows
/// must match SystemTableSchema positionally and be deterministically
/// ordered.
class SystemTableProvider {
 public:
  virtual ~SystemTableProvider() = default;

  /// \brief Materializes the current state of `name`.
  virtual Result<RowBatch> Snapshot(const std::string& name) const = 0;
};

}  // namespace gisql
