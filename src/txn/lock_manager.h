/// \file lock_manager.h
/// \brief Source-local lock table: row/table intent locks for global
/// transactions.
///
/// Each autonomous ComponentSource owns one LockManager. Global
/// transactions take IX on the table plus X on each written row key at
/// PREPARE time; both are held until the mediator delivers COMMIT or
/// ABORT (strict two-phase locking at statement granularity). The
/// manager never blocks: a conflicting request returns `granted =
/// false` plus the holders, and the *mediator* decides — record a
/// waits-for edge, detect deadlocks on its global graph, retry or
/// abort. Keeping all waiting policy at the mediator preserves source
/// autonomy (a wrapper never parks a thread on another system's
/// transaction) and keeps the simulation single-threaded and
/// deterministic.
///
/// Modeled on the classic IS/IX/S/X compatibility matrix; row locks
/// key on the hash of the row's first (key) column, so INSERT and
/// DELETE of the same logical key conflict even before the row exists.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gisql {

/// \brief Lock strengths, weakest to strongest.
enum class LockMode : uint8_t {
  kIntentShared = 0,     ///< IS — intends S on contained rows
  kIntentExclusive = 1,  ///< IX — intends X on contained rows
  kShared = 2,           ///< S — whole-resource read
  kExclusive = 3,        ///< X — whole-resource write
};

const char* LockModeName(LockMode m);

/// \brief True when two modes held by *different* transactions may
/// coexist on the same resource.
bool LockModesCompatible(LockMode held, LockMode requested);

/// \brief Outcome of a lock request. When not granted, `holders` lists
/// the conflicting transaction ids (sorted, deduplicated) so the
/// mediator can build waits-for edges.
struct LockAcquisition {
  bool granted = false;
  std::vector<uint64_t> holders;
};

/// \brief Non-blocking lock table for one component source.
class LockManager {
 public:
  /// \brief Table-level lock (IS/IX for row work, S/X for whole-table).
  LockAcquisition LockTable(uint64_t txn_id, const std::string& table,
                            LockMode mode);

  /// \brief Row-level lock keyed by the hash of the row's key column.
  LockAcquisition LockRow(uint64_t txn_id, const std::string& table,
                          uint64_t key_hash, LockMode mode);

  /// \brief Drops every lock `txn_id` holds (commit or abort).
  void ReleaseAll(uint64_t txn_id);

  /// \brief Locks currently held by `txn_id` (tests/monitoring).
  size_t HeldBy(uint64_t txn_id) const;

  /// \brief Resources `txn_id` holds, in the order it acquired them
  /// (tests/monitoring).
  std::vector<std::string> HeldResources(uint64_t txn_id) const;

  /// \brief Distinct locked resources (tests/monitoring).
  size_t LockedResources() const { return locks_.size(); }

 private:
  LockAcquisition Acquire(uint64_t txn_id, const std::string& resource,
                          LockMode mode);

  /// resource name → holder txn id → strongest mode held.
  std::map<std::string, std::map<uint64_t, LockMode>> locks_;
  /// txn id → resources it holds (for O(held) release).
  std::map<uint64_t, std::vector<std::string>> held_;
};

}  // namespace gisql
