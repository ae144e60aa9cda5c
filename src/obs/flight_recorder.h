/// \file flight_recorder.h
/// \brief Always-on incident capture: a bounded ring of recent query
/// frames plus a snapshotter that, on deterministic triggers, freezes
/// "what the world looked like" into one JSON incident.
///
/// Postmortems of a federation failure usually start after the
/// evidence is gone — the queue has drained, the breaker has closed,
/// the interesting queries have aged out of dashboards. The flight
/// recorder keeps a small ring of per-query frames at all times and,
/// when a trigger fires, serializes the ring together with a
/// system-state snapshot (the rows of the `gis.*` tables flagged for
/// incidents — supplied by a callback so this layer stays free of core
/// dependencies) into an IncidentRecord served by the `gis.incidents`
/// virtual table.
///
/// Triggers are pure functions of simulated time and deterministic
/// counters, so the same seed produces the same incidents with the
/// same JSON bytes, serial or pooled:
///   - `slo_burn`     — rising edge of a multi-window burn-rate alert
///   - `breaker_open` — a source circuit breaker tripping open
///   - `shed_spike`   — >= `shed_spike` sheds within `shed_window_ms`
/// A per-trigger-kind cooldown keeps a sustained breach from flooding
/// the incident list; the list itself is bounded (oldest dropped).

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace gisql {

/// \brief Compact per-query frame retained in the recorder ring.
struct QueryFrame {
  int64_t query_id = 0;
  std::string tenant;
  int priority = 1;
  double finish_ms = 0.0;
  double sojourn_ms = 0.0;  ///< admission wait + execution
  int64_t rows = 0;
  int64_t bytes = 0;        ///< bytes_sent + bytes_received
  bool cache_hit = false;
  std::string shed_reason;  ///< "" when the query ran
  std::string sql;          ///< truncated to kMaxFrameSql
};

/// \brief One captured incident (a gis.incidents row).
struct IncidentRecord {
  int64_t id = 0;
  double at_ms = 0.0;
  std::string trigger;  ///< slo_burn | breaker_open | shed_spike
  std::string detail;   ///< objective / source / shed count
  std::string json;     ///< full serialized snapshot
};

/// \brief Deterministic incident snapshotter.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultRing = 64;
  static constexpr size_t kDefaultMaxIncidents = 16;
  static constexpr double kDefaultCooldownMs = 10'000.0;
  static constexpr int kDefaultShedSpike = 10;
  static constexpr double kDefaultShedWindowMs = 1'000.0;
  static constexpr size_t kMaxFrameSql = 80;

  /// Produces the `"system"` JSON object for an incident at `now_ms`.
  /// Invoked with the recorder lock held: it must not call back into
  /// this recorder, except the lock-free incidents_captured()
  /// (everything else — catalog, governor, SLO engine — is fair game,
  /// they carry their own locks).
  using SystemSnapshotFn = std::function<std::string(double now_ms)>;

  void Configure(size_t ring, size_t max_incidents, double cooldown_ms,
                 int shed_spike, double shed_window_ms);
  void set_enabled(bool enabled);
  bool enabled() const;
  void SetSystemSnapshotFn(SystemSnapshotFn fn);

  /// \brief Appends one finished/shed query to the frame ring and
  /// runs the shed-spike trigger when the frame is a shed.
  void RecordFrame(const QueryFrame& frame);

  /// \brief Trigger hooks (no-ops while disabled or cooling down).
  void OnSloAlert(const std::string& objective, double now_ms,
                  double fast_burn, double slow_burn);
  void OnBreakerOpen(const std::string& source, double now_ms);

  std::vector<QueryFrame> Frames() const;
  std::vector<IncidentRecord> Incidents() const;
  /// Including any that aged out. Lock-free, so the system snapshot
  /// (gis.totals) can read it while an incident is being captured.
  int64_t incidents_captured() const;

  void Reset();

 private:
  void MaybeCapture(const std::string& trigger, const std::string& detail,
                    double now_ms);  // caller holds mu_
  std::string BuildJson(const std::string& trigger, const std::string& detail,
                        double now_ms, int64_t id) const;  // caller holds mu_

  mutable std::mutex mu_;
  bool enabled_ = true;
  size_t ring_ = kDefaultRing;
  size_t max_incidents_ = kDefaultMaxIncidents;
  double cooldown_ms_ = kDefaultCooldownMs;
  int shed_spike_ = kDefaultShedSpike;
  double shed_window_ms_ = kDefaultShedWindowMs;
  SystemSnapshotFn system_fn_;
  std::deque<QueryFrame> frames_;
  std::deque<double> shed_times_;
  std::vector<IncidentRecord> incidents_;
  std::atomic<int64_t> next_incident_id_{1};  // written under mu_
  // Last capture time per trigger kind, for the cooldown.
  double last_slo_ms_ = -1.0e18;
  double last_breaker_ms_ = -1.0e18;
  double last_shed_ms_ = -1.0e18;
};

}  // namespace gisql
