#include "catalog/system_tables.h"

#include "common/string_util.h"

namespace gisql {

bool IsSystemTableName(const std::string& name) {
  const std::string lower = ToLower(name);
  const std::string prefix = kSystemTablePrefix;
  return lower.size() > prefix.size() &&
         lower.compare(0, prefix.size(), prefix) == 0;
}

std::vector<std::string> SystemTableNames() {
  return {"gis.admission",    "gis.advisor",      "gis.cursors",
          "gis.gauges",       "gis.histograms",   "gis.incidents",
          "gis.metrics",      "gis.queries",      "gis.slo",
          "gis.sources",      "gis.storage",      "gis.tenants",
          "gis.transactions"};
}

Result<SchemaPtr> SystemTableSchema(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "gis.sources") {
    return std::make_shared<Schema>(std::vector<Field>{
        {"source", TypeId::kString, false},
        {"state", TypeId::kString, false},
        {"requests", TypeId::kInt64, false},
        {"errors", TypeId::kInt64, false},
        {"retries", TypeId::kInt64, false},
        {"consecutive_failures", TypeId::kInt64, false},
        {"bytes_sent", TypeId::kInt64, false},
        {"bytes_received", TypeId::kInt64, false},
        {"ewma_ms", TypeId::kDouble, false},
        {"p95_ms", TypeId::kDouble, false},
        {"last_error", TypeId::kString, false},
        {"breaker", TypeId::kString, false},
        {"breaker_skips", TypeId::kInt64, false},
        {"breaker_probes", TypeId::kInt64, false},
        {"breaker_transitions", TypeId::kInt64, false},
    });
  }
  if (lower == "gis.metrics") {
    // Counters only: monotone values identical under any worker
    // interleaving. Point-in-time gauges live in gis.gauges.
    return std::make_shared<Schema>(std::vector<Field>{
        {"registry", TypeId::kString, false},
        {"name", TypeId::kString, false},
        {"kind", TypeId::kString, false},
        {"value", TypeId::kDouble, false},
    });
  }
  if (lower == "gis.gauges") {
    // Instantaneous gauges (e.g. net.last_elapsed_ms): meaningful to a
    // human, but *which* instant they captured can depend on worker
    // scheduling, so they are quarantined away from the deterministic
    // gis.metrics snapshot.
    return std::make_shared<Schema>(std::vector<Field>{
        {"registry", TypeId::kString, false},
        {"name", TypeId::kString, false},
        {"value", TypeId::kDouble, false},
    });
  }
  if (lower == "gis.admission") {
    return std::make_shared<Schema>(std::vector<Field>{
        {"max_concurrent", TypeId::kInt64, false},
        {"queue_limit", TypeId::kInt64, false},
        {"max_wait_ms", TypeId::kDouble, false},
        {"in_flight", TypeId::kInt64, false},
        {"admitted", TypeId::kInt64, false},
        {"queued", TypeId::kInt64, false},
        {"shed_queue_full", TypeId::kInt64, false},
        {"shed_deadline", TypeId::kInt64, false},
        {"shed_memory_budget", TypeId::kInt64, false},
        {"total_wait_ms", TypeId::kDouble, false},
        {"mem_query_cap", TypeId::kInt64, false},
        {"mem_global_cap", TypeId::kInt64, false},
        {"mem_peak_bytes", TypeId::kInt64, false},
        {"breaker_enabled", TypeId::kBool, false},
        {"breakers_open", TypeId::kInt64, false},
        {"breaker_transitions", TypeId::kInt64, false},
        {"breaker_skips", TypeId::kInt64, false},
        {"breaker_probes", TypeId::kInt64, false},
    });
  }
  if (lower == "gis.cursors") {
    // One row per mediator cursor (open, plus a bounded tail of
    // finished ones): its lifecycle state, delivery mode, progress,
    // lease deadline, and currently charged memory.
    return std::make_shared<Schema>(std::vector<Field>{
        {"id", TypeId::kInt64, false},
        {"sql", TypeId::kString, false},
        {"state", TypeId::kString, false},
        {"streaming", TypeId::kBool, false},
        {"chunk_rows", TypeId::kInt64, false},
        {"chunks", TypeId::kInt64, false},
        {"rows", TypeId::kInt64, false},
        {"opened_ms", TypeId::kDouble, false},
        {"lease_deadline_ms", TypeId::kDouble, false},
        {"elapsed_ms", TypeId::kDouble, false},
        {"mem_bytes", TypeId::kInt64, false},
    });
  }
  if (lower == "gis.storage") {
    // One row per component source's buffer pool: geometry, residency,
    // and cumulative page/disk counters on the simulated clock.
    return std::make_shared<Schema>(std::vector<Field>{
        {"source", TypeId::kString, false},
        {"page_size", TypeId::kInt64, false},
        {"pool_frames", TypeId::kInt64, false},
        {"frames_used", TypeId::kInt64, false},
        {"pages", TypeId::kInt64, false},
        {"hits", TypeId::kInt64, false},
        {"misses", TypeId::kInt64, false},
        {"evictions", TypeId::kInt64, false},
        {"disk_reads", TypeId::kInt64, false},
        {"disk_writes", TypeId::kInt64, false},
        {"disk_ms", TypeId::kDouble, false},
        {"hit_ratio", TypeId::kDouble, false},
    });
  }
  if (lower == "gis.transactions") {
    // One row per global transaction (active, plus a bounded ring of
    // finished ones): snapshot/commit timestamps, participant sources,
    // and lock-wait / abort history on the simulated clock.
    return std::make_shared<Schema>(std::vector<Field>{
        {"id", TypeId::kInt64, false},
        {"state", TypeId::kString, false},
        {"snapshot_ts", TypeId::kInt64, false},
        {"commit_ts", TypeId::kInt64, false},
        {"statements", TypeId::kInt64, false},
        {"participants", TypeId::kString, false},
        {"lock_waits", TypeId::kInt64, false},
        {"abort_reason", TypeId::kString, false},
        {"begin_ms", TypeId::kDouble, false},
        {"end_ms", TypeId::kDouble, false},
    });
  }
  if (lower == "gis.histograms") {
    return std::make_shared<Schema>(std::vector<Field>{
        {"registry", TypeId::kString, false},
        {"name", TypeId::kString, false},
        {"count", TypeId::kInt64, false},
        {"sum", TypeId::kDouble, false},
        {"min", TypeId::kDouble, false},
        {"max", TypeId::kDouble, false},
        {"p50", TypeId::kDouble, false},
        {"p95", TypeId::kDouble, false},
        {"p99", TypeId::kDouble, false},
        {"p999", TypeId::kDouble, false},
    });
  }
  if (lower == "gis.tenants") {
    // One row per tracked tenant (sorted by name; "~other" absorbs
    // tenants past the tracking bound). Column sums over this table
    // equal the accountant's grand totals exactly.
    return std::make_shared<Schema>(std::vector<Field>{
        {"tenant", TypeId::kString, false},
        {"queries", TypeId::kInt64, false},
        {"sheds", TypeId::kInt64, false},
        {"cache_hits", TypeId::kInt64, false},
        {"rows", TypeId::kInt64, false},
        {"elapsed_ms", TypeId::kDouble, false},
        {"admission_wait_ms", TypeId::kDouble, false},
        {"bytes_sent", TypeId::kInt64, false},
        {"bytes_received", TypeId::kInt64, false},
        {"messages", TypeId::kInt64, false},
        {"retries", TypeId::kInt64, false},
        {"mem_peak_bytes", TypeId::kInt64, false},
        {"page_hits", TypeId::kInt64, false},
        {"page_misses", TypeId::kInt64, false},
        {"disk_ms", TypeId::kDouble, false},
    });
  }
  if (lower == "gis.slo") {
    // One row per declared objective: rolling-window attainment over
    // the fast and slow windows, error-budget burn rates, and the
    // alert latch (all on the simulated clock).
    return std::make_shared<Schema>(std::vector<Field>{
        {"objective", TypeId::kString, false},
        {"priority", TypeId::kInt64, false},
        {"target_ms", TypeId::kDouble, false},
        {"goal", TypeId::kDouble, false},
        {"fast_total", TypeId::kInt64, false},
        {"fast_good", TypeId::kInt64, false},
        {"slow_total", TypeId::kInt64, false},
        {"slow_good", TypeId::kInt64, false},
        {"fast_attainment", TypeId::kDouble, false},
        {"slow_attainment", TypeId::kDouble, false},
        {"fast_burn", TypeId::kDouble, false},
        {"slow_burn", TypeId::kDouble, false},
        {"alerting", TypeId::kBool, false},
        {"alerts", TypeId::kInt64, false},
        {"last_alert_ms", TypeId::kDouble, false},
    });
  }
  if (lower == "gis.incidents") {
    // One row per captured incident: the deterministic trigger, when
    // it fired on the simulated clock, and the full JSON snapshot.
    return std::make_shared<Schema>(std::vector<Field>{
        {"id", TypeId::kInt64, false},
        {"at_ms", TypeId::kDouble, false},
        {"trigger", TypeId::kString, false},
        {"detail", TypeId::kString, false},
        {"snapshot", TypeId::kString, false},
    });
  }
  if (lower == "gis.queries") {
    return std::make_shared<Schema>(std::vector<Field>{
        {"id", TypeId::kInt64, false},
        {"sql", TypeId::kString, false},
        {"elapsed_ms", TypeId::kDouble, false},
        {"bytes_sent", TypeId::kInt64, false},
        {"bytes_received", TypeId::kInt64, false},
        {"messages", TypeId::kInt64, false},
        {"retries", TypeId::kInt64, false},
        {"cache_hit", TypeId::kBool, false},
        {"rows", TypeId::kInt64, false},
        {"trace_root", TypeId::kInt64, false},
        {"admission_wait_ms", TypeId::kDouble, false},
        {"shed_reason", TypeId::kString, false},
        {"tenant", TypeId::kString, false},
        {"priority", TypeId::kInt64, false},
        {"finish_ms", TypeId::kDouble, false},
        {"fingerprint", TypeId::kString, false},
        {"error", TypeId::kString, false},
    });
  }
  if (lower == "gis.advisor") {
    // One row per *enacted* advisor decision (plus failures), in
    // decision order: what policy fired, the evidence it read, the
    // action it took, and how the action ended. The rendering is
    // byte-identical across serial/pooled runs of the same seed.
    return std::make_shared<Schema>(std::vector<Field>{
        {"id", TypeId::kInt64, false},
        {"at_ms", TypeId::kDouble, false},
        {"kind", TypeId::kString, false},
        {"target", TypeId::kString, false},
        {"evidence", TypeId::kString, false},
        {"action", TypeId::kString, false},
        {"outcome", TypeId::kString, false},
    });
  }
  return Status::NotFound("'", name, "' is not a system table (known: ",
                          "gis.sources, gis.metrics, gis.gauges, "
                          "gis.histograms, gis.queries, gis.admission, "
                          "gis.advisor, gis.cursors, gis.storage, "
                          "gis.transactions, gis.tenants, gis.slo, "
                          "gis.incidents)");
}

}  // namespace gisql
