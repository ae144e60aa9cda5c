#include "catalog/system_tables.h"

#include "common/string_util.h"

namespace gisql {

namespace {

constexpr TypeId kString = TypeId::kString;
constexpr TypeId kInt64 = TypeId::kInt64;
constexpr TypeId kDouble = TypeId::kDouble;
constexpr TypeId kBool = TypeId::kBool;
constexpr ExportRole kNone = ExportRole::kNone;
constexpr ExportRole kLabel = ExportRole::kLabel;
constexpr ExportRole kCounter = ExportRole::kCounter;
constexpr ExportRole kGauge = ExportRole::kGauge;
constexpr ExportRole kState = ExportRole::kState;

SystemTableDef Table(std::string name, std::string prom_prefix,
                     bool in_incidents, std::vector<SystemColumnDef> columns) {
  std::vector<Field> fields;
  for (const auto& c : columns) fields.emplace_back(c.name, c.type, false);
  return {std::move(name), std::move(prom_prefix), in_incidents,
          std::move(columns), std::make_shared<Schema>(std::move(fields))};
}

std::vector<SystemTableDef> BuildDefs() {
  return {
      // One row: the resource governor's limits and admit/shed/
      // budget/breaker counters.
      Table("gis.admission", "gisql_admission", true,
            {{"max_concurrent", kInt64, kGauge},
             {"queue_limit", kInt64, kGauge},
             {"max_wait_ms", kDouble, kGauge},
             {"in_flight", kInt64, kGauge},
             {"admitted", kInt64, kCounter},
             {"queued", kInt64, kCounter},
             {"shed_queue_full", kInt64, kCounter},
             {"shed_deadline", kInt64, kCounter},
             {"shed_memory_budget", kInt64, kCounter},
             {"total_wait_ms", kDouble, kCounter},
             {"mem_query_cap", kInt64, kGauge},
             {"mem_global_cap", kInt64, kGauge},
             {"mem_peak_bytes", kInt64, kGauge},
             {"breaker_enabled", kBool, kGauge},
             {"breakers_open", kInt64, kGauge},
             {"breaker_transitions", kInt64, kCounter},
             {"breaker_skips", kInt64, kCounter},
             {"breaker_probes", kInt64, kCounter}}),
      // One row per *enacted* advisor decision (plus failures), in
      // decision order: what policy fired, the evidence it read, the
      // action it took, and how the action ended. The rendering is
      // byte-identical across serial/pooled runs of the same seed.
      Table("gis.advisor", "", false,
            {{"id", kInt64, kNone}, {"at_ms", kDouble, kNone},
             {"kind", kString, kNone}, {"target", kString, kNone},
             {"evidence", kString, kNone}, {"action", kString, kNone},
             {"outcome", kString, kNone}}),
      // One row per mediator cursor (open, plus a bounded tail of
      // finished ones): its lifecycle state, delivery mode, progress,
      // lease deadline, and currently charged memory.
      Table("gis.cursors", "", false,
            {{"id", kInt64, kNone}, {"sql", kString, kNone},
             {"state", kString, kNone}, {"streaming", kBool, kNone},
             {"chunk_rows", kInt64, kNone}, {"chunks", kInt64, kNone},
             {"rows", kInt64, kNone}, {"opened_ms", kDouble, kNone},
             {"lease_deadline_ms", kDouble, kNone},
             {"elapsed_ms", kDouble, kNone},
             {"mem_bytes", kInt64, kNone}}),
      // Instantaneous gauges (e.g. net.last_elapsed_ms): meaningful to
      // a human, but *which* instant they captured can depend on worker
      // scheduling, so they are quarantined away from the deterministic
      // gis.metrics snapshot.
      Table("gis.gauges", "", false,
            {{"registry", kString, kNone}, {"name", kString, kNone},
             {"value", kDouble, kNone}}),
      Table("gis.histograms", "", false,
            {{"registry", kString, kNone}, {"name", kString, kNone},
             {"count", kInt64, kNone}, {"sum", kDouble, kNone},
             {"min", kDouble, kNone}, {"max", kDouble, kNone},
             {"p50", kDouble, kNone}, {"p95", kDouble, kNone},
             {"p99", kDouble, kNone}, {"p999", kDouble, kNone}}),
      // One row per captured incident: the deterministic trigger, when
      // it fired on the simulated clock, and the full JSON snapshot.
      Table("gis.incidents", "", false,
            {{"id", kInt64, kNone}, {"at_ms", kDouble, kNone},
             {"trigger", kString, kNone}, {"detail", kString, kNone},
             {"snapshot", kString, kNone}}),
      // Counters only: monotone values identical under any worker
      // interleaving. Point-in-time gauges live in gis.gauges.
      Table("gis.metrics", "", false,
            {{"registry", kString, kNone}, {"name", kString, kNone},
             {"kind", kString, kNone}, {"value", kDouble, kNone}}),
      Table("gis.queries", "", false,
            {{"id", kInt64, kNone}, {"sql", kString, kNone},
             {"elapsed_ms", kDouble, kNone}, {"bytes_sent", kInt64, kNone},
             {"bytes_received", kInt64, kNone},
             {"messages", kInt64, kNone}, {"retries", kInt64, kNone},
             {"cache_hit", kBool, kNone}, {"rows", kInt64, kNone},
             {"trace_root", kInt64, kNone},
             {"admission_wait_ms", kDouble, kNone},
             {"shed_reason", kString, kNone}, {"tenant", kString, kNone},
             {"priority", kInt64, kNone}, {"finish_ms", kDouble, kNone},
             {"fingerprint", kString, kNone}, {"error", kString, kNone}}),
      // One row per declared objective: rolling-window attainment over
      // the fast and slow windows, error-budget burn rates, and the
      // alert latch (all on the simulated clock).
      Table("gis.slo", "gisql_slo", true,
            {{"objective", kString, kLabel},
             {"priority", kInt64, kNone},
             {"target_ms", kDouble, kGauge},
             {"goal", kDouble, kGauge},
             {"fast_total", kInt64, kGauge},
             {"fast_good", kInt64, kGauge},
             {"slow_total", kInt64, kGauge},
             {"slow_good", kInt64, kGauge},
             {"fast_attainment", kDouble, kGauge},
             {"slow_attainment", kDouble, kGauge},
             {"fast_burn", kDouble, kGauge},
             {"slow_burn", kDouble, kGauge},
             {"alerting", kBool, kGauge},
             {"alerts", kInt64, kCounter},
             {"last_alert_ms", kDouble, kGauge}}),
      // One row per registered or observed source: health counters,
      // derived state, and circuit-breaker view.
      Table("gis.sources", "gisql_source", true,
            {{"source", kString, kLabel},
             {"state", kString, kState},
             {"requests", kInt64, kCounter},
             {"errors", kInt64, kCounter},
             {"retries", kInt64, kCounter},
             {"consecutive_failures", kInt64, kGauge},
             {"bytes_sent", kInt64, kCounter},
             {"bytes_received", kInt64, kCounter},
             {"ewma_ms", kDouble, kGauge},
             {"p95_ms", kDouble, kGauge},
             {"last_error", kString, kNone},
             {"breaker", kString, kState},
             {"breaker_skips", kInt64, kCounter},
             {"breaker_probes", kInt64, kCounter},
             {"breaker_transitions", kInt64, kCounter}}),
      // One row per component source's buffer pool: geometry,
      // residency, and cumulative page/disk counters on the simulated
      // clock.
      Table("gis.storage", "gisql_bufferpool", true,
            {{"source", kString, kLabel},
             {"page_size", kInt64, kGauge},
             {"pool_frames", kInt64, kGauge},
             {"frames_used", kInt64, kGauge},
             {"pages", kInt64, kGauge},
             {"hits", kInt64, kCounter},
             {"misses", kInt64, kCounter},
             {"evictions", kInt64, kCounter},
             {"disk_reads", kInt64, kCounter},
             {"disk_writes", kInt64, kCounter},
             {"disk_ms", kDouble, kCounter},
             {"hit_ratio", kDouble, kGauge}}),
      // One row per tracked tenant (sorted by name; "~other" absorbs
      // tenants past the tracking bound). Column sums over this table
      // equal the accountant's grand totals exactly.
      Table("gis.tenants", "gisql_tenant", false,
            {{"tenant", kString, kLabel},
             {"queries", kInt64, kCounter},
             {"sheds", kInt64, kCounter},
             {"cache_hits", kInt64, kCounter},
             {"rows", kInt64, kCounter},
             {"elapsed_ms", kDouble, kCounter},
             {"admission_wait_ms", kDouble, kCounter},
             {"bytes_sent", kInt64, kCounter},
             {"bytes_received", kInt64, kCounter},
             {"messages", kInt64, kCounter},
             {"retries", kInt64, kCounter},
             {"mem_peak_bytes", kInt64, kGauge},
             {"page_hits", kInt64, kCounter},
             {"page_misses", kInt64, kCounter},
             {"disk_ms", kDouble, kCounter}}),
      // One row of mediator-wide lifecycle state: transaction counters,
      // the MVCC GC watermark, advisor activity, and captured incidents.
      Table("gis.totals", "gisql", true,
            {{"txn_active", kInt64, kGauge},
             {"txn_started", kInt64, kCounter},
             {"txn_committed", kInt64, kCounter},
             {"txn_aborted", kInt64, kCounter},
             {"txn_deadlocks", kInt64, kCounter},
             {"txn_lock_waits", kInt64, kCounter},
             {"txn_watermark", kInt64, kGauge},
             {"txn_pinned_snapshots", kInt64, kGauge},
             {"advisor_ticks", kInt64, kCounter},
             {"advisor_decisions", kInt64, kCounter},
             {"advisor_materializations", kInt64, kCounter},
             {"advisor_evictions", kInt64, kCounter},
             {"advisor_placements", kInt64, kCounter},
             {"advisor_tunings", kInt64, kCounter},
             {"advisor_failures", kInt64, kCounter},
             {"incidents", kInt64, kCounter}}),
      // One row per global transaction (active, plus a bounded ring of
      // finished ones): snapshot/commit timestamps, participant
      // sources, and lock-wait / abort history on the simulated clock.
      Table("gis.transactions", "", false,
            {{"id", kInt64, kNone}, {"state", kString, kNone},
             {"snapshot_ts", kInt64, kNone}, {"commit_ts", kInt64, kNone},
             {"statements", kInt64, kNone},
             {"participants", kString, kNone},
             {"lock_waits", kInt64, kNone},
             {"abort_reason", kString, kNone},
             {"begin_ms", kDouble, kNone}, {"end_ms", kDouble, kNone}}),
  };
}

}  // namespace

bool IsSystemTableName(const std::string& name) {
  const std::string lower = ToLower(name);
  const std::string prefix = kSystemTablePrefix;
  return lower.size() > prefix.size() &&
         lower.compare(0, prefix.size(), prefix) == 0;
}

const std::vector<SystemTableDef>& SystemTableDefs() {
  static const std::vector<SystemTableDef> defs = BuildDefs();
  return defs;
}

std::vector<std::string> SystemTableNames() {
  std::vector<std::string> names;
  for (const auto& def : SystemTableDefs()) names.push_back(def.name);
  return names;
}

Result<SchemaPtr> SystemTableSchema(const std::string& name) {
  const std::string lower = ToLower(name);
  for (const auto& def : SystemTableDefs()) {
    if (def.name == lower) return def.schema;
  }
  return Status::NotFound("'", name, "' is not a system table (known: ",
                          Join(SystemTableNames(), ", "), ")");
}

}  // namespace gisql
