/// Tests for MVCC snapshot isolation and the deadlock-detecting lock
/// manager: row-version visibility and watermark GC at the storage
/// layer, the lock compatibility matrix, the mediator's transaction
/// manager (timestamps, waits-for graph, deterministic victims), and
/// the end-to-end GlobalSystem transaction API (snapshot reads,
/// read-your-writes, transactional DELETE, write-write conflicts,
/// deadlock resolution, gis.transactions / Prometheus observability),
/// and the write path's cost and safety: a committed write fetches a
/// constant number of pages, index-driven and scanning DELETEs stage
/// alike, and GC never takes a version a reader can still see.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/global_system.h"
#include "source/component_source.h"
#include "storage/table.h"
#include "txn/lock_manager.h"
#include "txn/transaction_manager.h"

namespace gisql {
namespace {

SchemaPtr AccountsSchema() {
  return std::make_shared<Schema>(
      std::vector<Field>{{"id", TypeId::kInt64, false, "accounts"},
                         {"bal", TypeId::kDouble, true, "accounts"}});
}

// ---------------------------------------------------------------------------
// Storage layer: row versions.

TEST(RowVersionTest, LegacyInsertsVisibleToEverySnapshot) {
  auto table = std::make_shared<Table>("accounts", AccountsSchema());
  ASSERT_TRUE(table->Insert({Value::Int(1), Value::Double(10)}).ok());
  // Bootstrap rows are born at timestamp 0: visible at "latest" (0) and
  // at any transactional snapshot.
  EXPECT_TRUE(table->VisibleAt(0, 0));
  EXPECT_TRUE(table->VisibleAt(0, 1));
  EXPECT_TRUE(table->VisibleAt(0, 1000));
  const RowVersion v = table->VersionOf(0);
  EXPECT_EQ(v.begin_ts, 0u);
  EXPECT_EQ(v.end_ts, kMaxTimestamp);
}

TEST(RowVersionTest, VersionedInsertInvisibleToOlderSnapshots) {
  auto table = std::make_shared<Table>("accounts", AccountsSchema());
  ASSERT_TRUE(
      table->InsertVersioned({{Value::Int(1), Value::Double(10)}}, 5).ok());
  EXPECT_FALSE(table->VisibleAt(0, 4));  // began before the row existed
  EXPECT_TRUE(table->VisibleAt(0, 5));
  EXPECT_TRUE(table->VisibleAt(0, 6));
  EXPECT_TRUE(table->VisibleAt(0, 0));  // latest-committed read
}

TEST(RowVersionTest, DeleteEndsVisibilityAtCommitTimestamp) {
  auto table = std::make_shared<Table>("accounts", AccountsSchema());
  ASSERT_TRUE(table->Insert({Value::Int(1), Value::Double(10)}).ok());
  table->MarkDeleted(0, 7);
  EXPECT_TRUE(table->VisibleAt(0, 6));   // snapshot before the delete
  EXPECT_FALSE(table->VisibleAt(0, 7));  // end_ts is exclusive
  EXPECT_FALSE(table->VisibleAt(0, 0));  // gone at latest
}

TEST(RowVersionTest, MarkDeletedIsFirstCommitterWins) {
  auto table = std::make_shared<Table>("accounts", AccountsSchema());
  ASSERT_TRUE(table->Insert({Value::Int(1), Value::Double(10)}).ok());
  table->MarkDeleted(0, 5);
  table->MarkDeleted(0, 9);  // second committer must not overwrite
  EXPECT_EQ(table->VersionOf(0).end_ts, 5u);
}

TEST(RowVersionTest, GcReclaimsVersionsBelowWatermark) {
  auto table = std::make_shared<Table>("accounts", AccountsSchema());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        table->Insert({Value::Int(i), Value::Double(i)}).ok());
  }
  table->MarkDeleted(0, 3);
  table->MarkDeleted(1, 8);
  // Watermark 5: the version dead at 3 is unreachable, the one dead at
  // 8 could still be seen by a snapshot in [5, 8).
  auto removed = table->GcToWatermark(5);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1);
  EXPECT_EQ(table->num_rows(), 3);
  // Row ids are fixed: rid 1 keeps its version, rid 0 reads as reclaimed.
  EXPECT_EQ(table->VersionOf(1).end_ts, 8u);
  EXPECT_TRUE(table->VisibleAt(1, 6));
  EXPECT_FALSE(table->VisibleAt(1, 9));
  EXPECT_TRUE(table->GetRow(0).status().IsNotFound());
  EXPECT_FALSE(table->VisibleAt(0, 0));
  EXPECT_FALSE(table->VisibleAt(0, 2));
  EXPECT_TRUE(table->VisibleAt(2, 0));
  EXPECT_EQ(table->GetRow(2)->at(0).AsInt(), 2);
  // Nothing left to collect at the same watermark.
  auto again = table->GcToWatermark(5);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0);
}

// ---------------------------------------------------------------------------
// Lock manager.

TEST(LockManagerTest, CompatibilityMatrix) {
  using M = LockMode;
  // X conflicts with everything; IS coexists with everything but X;
  // S/S and IX/IX coexist; S/IX conflict.
  EXPECT_FALSE(LockModesCompatible(M::kExclusive, M::kExclusive));
  EXPECT_FALSE(LockModesCompatible(M::kExclusive, M::kShared));
  EXPECT_FALSE(LockModesCompatible(M::kShared, M::kExclusive));
  EXPECT_FALSE(LockModesCompatible(M::kIntentShared, M::kExclusive));
  EXPECT_TRUE(LockModesCompatible(M::kIntentShared, M::kIntentShared));
  EXPECT_TRUE(LockModesCompatible(M::kIntentShared, M::kIntentExclusive));
  EXPECT_TRUE(LockModesCompatible(M::kIntentShared, M::kShared));
  EXPECT_TRUE(LockModesCompatible(M::kShared, M::kShared));
  EXPECT_TRUE(
      LockModesCompatible(M::kIntentExclusive, M::kIntentExclusive));
  EXPECT_FALSE(LockModesCompatible(M::kShared, M::kIntentExclusive));
  EXPECT_FALSE(LockModesCompatible(M::kIntentExclusive, M::kShared));
}

TEST(LockManagerTest, ConflictReportsHolders) {
  LockManager locks;
  EXPECT_TRUE(locks.LockRow(1, "t", 42, LockMode::kExclusive).granted);
  EXPECT_TRUE(locks.LockRow(2, "t", 42, LockMode::kExclusive).granted ==
              false);
  LockAcquisition a = locks.LockRow(2, "t", 42, LockMode::kExclusive);
  ASSERT_EQ(a.holders.size(), 1u);
  EXPECT_EQ(a.holders[0], 1u);
  // Different key, same table: no conflict.
  EXPECT_TRUE(locks.LockRow(2, "t", 43, LockMode::kExclusive).granted);
}

TEST(LockManagerTest, ReacquireAndUpgrade) {
  LockManager locks;
  EXPECT_TRUE(locks.LockTable(1, "t", LockMode::kIntentExclusive).granted);
  // Idempotent re-acquire and in-place upgrade by the same holder.
  EXPECT_TRUE(locks.LockTable(1, "t", LockMode::kIntentExclusive).granted);
  EXPECT_TRUE(locks.LockTable(1, "t", LockMode::kExclusive).granted);
  // The upgrade to X now blocks an IX from another transaction.
  EXPECT_FALSE(locks.LockTable(2, "t", LockMode::kIntentExclusive).granted);
}

TEST(LockManagerTest, ReleaseAllFreesEverything) {
  LockManager locks;
  EXPECT_TRUE(locks.LockTable(1, "t", LockMode::kIntentExclusive).granted);
  EXPECT_TRUE(locks.LockRow(1, "t", 7, LockMode::kExclusive).granted);
  EXPECT_EQ(locks.HeldBy(1), 2u);
  locks.ReleaseAll(1);
  EXPECT_EQ(locks.HeldBy(1), 0u);
  EXPECT_EQ(locks.LockedResources(), 0u);
  EXPECT_TRUE(locks.LockRow(2, "t", 7, LockMode::kExclusive).granted);
}

// ---------------------------------------------------------------------------
// Transaction manager.

TEST(TransactionManagerTest, MonotonicIdsAndSnapshots) {
  TransactionManager txns;
  TxnInfo& t1 = txns.Begin(0.0);
  TxnInfo& t2 = txns.Begin(1.0);
  EXPECT_EQ(t1.id, 1u);
  EXPECT_EQ(t2.id, 2u);
  EXPECT_GE(t1.snapshot_ts, 1u);  // the domain starts at 1, never 0
  EXPECT_EQ(t1.snapshot_ts, t2.snapshot_ts);  // no commit in between
  const uint64_t commit = txns.AllocateCommitTs();
  txns.MarkCommitted(t1.id, commit, 2.0);
  EXPECT_GT(txns.Begin(3.0).snapshot_ts, t2.snapshot_ts);
}

TEST(TransactionManagerTest, GetActiveNamesTerminalStates) {
  TransactionManager txns;
  TxnInfo& t = txns.Begin(0.0);
  const uint64_t id = t.id;
  ASSERT_TRUE(txns.GetActive(id).ok());
  txns.MarkAborted(id, "deadlock victim", 1.0);
  auto gone = txns.GetActive(id);
  ASSERT_FALSE(gone.ok());
  EXPECT_NE(gone.status().message().find("deadlock victim"),
            std::string::npos);
  EXPECT_FALSE(txns.GetActive(999).ok());
}

TEST(TransactionManagerTest, WatermarkHeldByOldestReader) {
  TransactionManager txns;
  const uint64_t idle = txns.Watermark();  // nothing live: current ts
  TxnInfo& t1 = txns.Begin(0.0);
  const uint64_t s1 = t1.snapshot_ts;
  const uint64_t id1 = t1.id;
  // Commits advance the domain, but the active reader pins the floor.
  TxnInfo& t2 = txns.Begin(0.0);
  txns.MarkCommitted(t2.id, txns.AllocateCommitTs(), 1.0);
  EXPECT_EQ(txns.Watermark(), s1);
  txns.MarkCommitted(id1, txns.AllocateCommitTs(), 2.0);
  EXPECT_GT(txns.Watermark(), s1);
  EXPECT_GE(txns.Watermark(), idle);
  // Pinned cursor snapshots hold it back the same way.
  const uint64_t pin = txns.PinSnapshot();
  txns.AllocateCommitTs();
  EXPECT_EQ(txns.Watermark(), pin);
  txns.UnpinSnapshot(pin);
  EXPECT_GT(txns.Watermark(), pin);
}

TEST(TransactionManagerTest, CycleVictimIsYoungest) {
  TransactionManager txns;
  TxnInfo& t1 = txns.Begin(0.0);
  TxnInfo& t2 = txns.Begin(0.0);
  txns.OnConflict(t1.id, {t2.id});
  EXPECT_EQ(txns.DetectCycleVictim(t1.id), 0u);  // no cycle yet
  txns.OnConflict(t2.id, {t1.id});
  // Both directions recorded: the youngest (highest id) on the cycle
  // loses, from either starting point.
  EXPECT_EQ(txns.DetectCycleVictim(t2.id), t2.id);
  EXPECT_EQ(txns.DetectCycleVictim(t1.id), t2.id);
  EXPECT_EQ(txns.counters().deadlocks, 2);
  // Finishing the victim dissolves the cycle.
  txns.MarkAborted(t2.id, "victim", 1.0);
  EXPECT_EQ(txns.DetectCycleVictim(t1.id), 0u);
}

TEST(TransactionManagerTest, ThreeWayCycle) {
  TransactionManager txns;
  TxnInfo& t1 = txns.Begin(0.0);
  TxnInfo& t2 = txns.Begin(0.0);
  TxnInfo& t3 = txns.Begin(0.0);
  txns.OnConflict(t1.id, {t2.id});
  txns.OnConflict(t2.id, {t3.id});
  EXPECT_EQ(txns.DetectCycleVictim(t3.id), 0u);
  txns.OnConflict(t3.id, {t1.id});
  EXPECT_EQ(txns.DetectCycleVictim(t3.id), t3.id);
}

// ---------------------------------------------------------------------------
// End to end: GlobalSystem transactions.

class MvccSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"bank_a", "bank_b"}) {
      ASSERT_TRUE(gis_.CreateSource(name, SourceDialect::kRelational).ok());
      ASSERT_TRUE(gis_.ExecuteAt(name,
                                 "CREATE TABLE accounts (id bigint, "
                                 "bal double)")
                      .ok());
      ASSERT_TRUE(
          gis_.ExecuteAt(name,
                         "INSERT INTO accounts VALUES (1, 100.0), "
                         "(2, 200.0)")
              .ok());
    }
    ASSERT_TRUE(gis_.ImportTable("bank_a", "accounts", "acct_a").ok());
    ASSERT_TRUE(gis_.ImportTable("bank_b", "accounts", "acct_b").ok());
  }

  int64_t Count(const std::string& table) {
    auto r = gis_.Query("SELECT COUNT(*) FROM " + table);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->batch.rows()[0][0].AsInt();
  }

  int64_t CountInTxn(uint64_t txn, const std::string& table) {
    auto r = gis_.QueryInTxn(txn, "SELECT COUNT(*) FROM " + table);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->batch.rows()[0][0].AsInt();
  }

  GlobalSystem gis_;
};

TEST_F(MvccSystemTest, SnapshotReadsAreRepeatable) {
  auto reader = gis_.BeginTransaction();
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(CountInTxn(*reader, "acct_a"), 2);

  // A concurrent transaction inserts and commits.
  auto writer = gis_.BeginTransaction();
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(gis_.TxnWrite(*writer, "bank_a",
                            "INSERT INTO accounts VALUES (3, 50.0)")
                  .ok());
  ASSERT_TRUE(gis_.CommitTransaction(*writer).ok());

  // The reader's snapshot predates the commit: its count is stable.
  EXPECT_EQ(CountInTxn(*reader, "acct_a"), 2);
  // Latest-committed reads and a fresh snapshot both see the new row.
  EXPECT_EQ(Count("acct_a"), 3);
  auto fresh = gis_.BeginTransaction();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(CountInTxn(*fresh, "acct_a"), 3);
  ASSERT_TRUE(gis_.CommitTransaction(*reader).ok());
  ASSERT_TRUE(gis_.CommitTransaction(*fresh).ok());
}

TEST_F(MvccSystemTest, ReadYourOwnStagedWrites) {
  auto txn = gis_.BeginTransaction();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(gis_.TxnWrite(*txn, "bank_a",
                            "INSERT INTO accounts VALUES (3, 50.0)")
                  .ok());
  // Uncommitted: invisible outside, visible inside the transaction.
  EXPECT_EQ(Count("acct_a"), 2);
  EXPECT_EQ(CountInTxn(*txn, "acct_a"), 3);
  // The overlay respects predicates too.
  auto r = gis_.QueryInTxn(
      *txn, "SELECT COUNT(*) FROM acct_a WHERE bal < 60.0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->batch.rows()[0][0].AsInt(), 1);
  ASSERT_TRUE(gis_.CommitTransaction(*txn).ok());
  EXPECT_EQ(Count("acct_a"), 3);
}

TEST_F(MvccSystemTest, TransactionalDeleteWithSnapshotPredicate) {
  auto txn = gis_.BeginTransaction();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(
      gis_.TxnWrite(*txn, "bank_a", "DELETE FROM accounts WHERE id = 1")
          .ok());
  // Staged delete: hidden inside the transaction, intact outside.
  EXPECT_EQ(CountInTxn(*txn, "acct_a"), 1);
  EXPECT_EQ(Count("acct_a"), 2);
  ASSERT_TRUE(gis_.CommitTransaction(*txn).ok());
  EXPECT_EQ(Count("acct_a"), 1);
}

TEST_F(MvccSystemTest, CommittedDeleteStaysVisibleToOlderSnapshot) {
  auto reader = gis_.BeginTransaction();
  ASSERT_TRUE(reader.ok());
  auto deleter = gis_.BeginTransaction();
  ASSERT_TRUE(deleter.ok());
  ASSERT_TRUE(
      gis_.TxnWrite(*deleter, "bank_a", "DELETE FROM accounts WHERE id = 1")
          .ok());
  ASSERT_TRUE(gis_.CommitTransaction(*deleter).ok());
  EXPECT_EQ(Count("acct_a"), 1);
  // The older snapshot still sees the deleted row's version.
  EXPECT_EQ(CountInTxn(*reader, "acct_a"), 2);
  ASSERT_TRUE(gis_.CommitTransaction(*reader).ok());
}

TEST_F(MvccSystemTest, WriteWriteConflictAbortsSecondDeleter) {
  auto t1 = gis_.BeginTransaction();
  auto t2 = gis_.BeginTransaction();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(
      gis_.TxnWrite(*t1, "bank_a", "DELETE FROM accounts WHERE id = 1")
          .ok());
  ASSERT_TRUE(gis_.CommitTransaction(*t1).ok());
  // t2's snapshot still sees the row, but it is already dead at
  // latest: first committer wins, the loser aborts.
  Status st =
      gis_.TxnWrite(*t2, "bank_a", "DELETE FROM accounts WHERE id = 1");
  EXPECT_TRUE(st.IsExecutionError()) << st.ToString();
  EXPECT_NE(st.message().find("write-write conflict"), std::string::npos);
  // The transaction was auto-aborted; further use reports that.
  EXPECT_FALSE(gis_.QueryInTxn(*t2, "SELECT id FROM acct_a").ok());
}

TEST_F(MvccSystemTest, LockConflictWouldBlockWithoutDeadlock) {
  auto t1 = gis_.BeginTransaction();
  auto t2 = gis_.BeginTransaction();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(gis_.TxnWrite(*t1, "bank_a",
                            "INSERT INTO accounts VALUES (3, 1.0)")
                  .ok());
  // Same first-column key hash → same row lock: t2 would block.
  Status st = gis_.TxnWrite(*t2, "bank_a",
                            "INSERT INTO accounts VALUES (3, 2.0)");
  EXPECT_TRUE(st.IsOverloaded()) << st.ToString();
  // t2 stays alive; after t1 commits, the retry succeeds.
  ASSERT_TRUE(gis_.CommitTransaction(*t1).ok());
  EXPECT_TRUE(gis_.TxnWrite(*t2, "bank_a",
                            "INSERT INTO accounts VALUES (3, 2.0)")
                  .ok());
  ASSERT_TRUE(gis_.CommitTransaction(*t2).ok());
  EXPECT_EQ(Count("acct_a"), 4);
}

TEST_F(MvccSystemTest, DeadlockAbortsYoungestDeterministically) {
  auto t1 = gis_.BeginTransaction();
  auto t2 = gis_.BeginTransaction();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  // t1 locks key 1 at bank_a, t2 locks key 2 at bank_b.
  ASSERT_TRUE(gis_.TxnWrite(*t1, "bank_a",
                            "INSERT INTO accounts VALUES (1, 1.0)")
                  .ok());
  ASSERT_TRUE(gis_.TxnWrite(*t2, "bank_b",
                            "INSERT INTO accounts VALUES (2, 2.0)")
                  .ok());
  // t1 now wants t2's lock: records the edge, no cycle yet.
  Status st = gis_.TxnWrite(*t1, "bank_b",
                            "INSERT INTO accounts VALUES (2, 1.0)");
  EXPECT_TRUE(st.IsOverloaded()) << st.ToString();
  // t2 wants t1's lock: closes the cycle. t2 is the youngest → victim.
  st = gis_.TxnWrite(*t2, "bank_a", "INSERT INTO accounts VALUES (1, 2.0)");
  EXPECT_TRUE(st.IsExecutionError()) << st.ToString();
  EXPECT_NE(st.message().find("deadlock"), std::string::npos);
  EXPECT_FALSE(gis_.QueryInTxn(*t2, "SELECT id FROM acct_a").ok());
  // The survivor's retry now succeeds and it commits both writes.
  EXPECT_TRUE(gis_.TxnWrite(*t1, "bank_b",
                            "INSERT INTO accounts VALUES (2, 1.0)")
                  .ok());
  ASSERT_TRUE(gis_.CommitTransaction(*t1).ok());
  EXPECT_EQ(gis_.transactions().counters().deadlocks, 1);
}

TEST_F(MvccSystemTest, BeginShedsPastMaxActive) {
  PlannerOptions opts = gis_.options();
  opts.txn_max_active = 2;
  gis_.set_options(opts);
  auto t1 = gis_.BeginTransaction();
  auto t2 = gis_.BeginTransaction();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  auto t3 = gis_.BeginTransaction();
  ASSERT_FALSE(t3.ok());
  EXPECT_TRUE(t3.status().IsOverloaded());
  ASSERT_TRUE(gis_.AbortTransaction(*t1).ok());
  EXPECT_TRUE(gis_.BeginTransaction().ok());
}

TEST_F(MvccSystemTest, WatermarkGcReclaimsDeletedVersions) {
  ComponentSource* src = *gis_.GetSource("bank_a");
  auto t1 = gis_.BeginTransaction();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(
      gis_.TxnWrite(*t1, "bank_a", "DELETE FROM accounts WHERE id = 1")
          .ok());
  ASSERT_TRUE(gis_.CommitTransaction(*t1).ok());
  // No readers are left behind: the commit's piggybacked watermark
  // already collected the dead version at the source.
  auto table = src->engine().GetTable("accounts");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 1);
  EXPECT_EQ(Count("acct_a"), 1);
}

TEST_F(MvccSystemTest, TransactionsVirtualTable) {
  auto t1 = gis_.BeginTransaction();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(gis_.TxnWrite(*t1, "bank_a",
                            "INSERT INTO accounts VALUES (3, 5.0)")
                  .ok());
  ASSERT_TRUE(gis_.CommitTransaction(*t1).ok());
  auto r = gis_.Query(
      "SELECT id, state, participants FROM gis.transactions");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GE(r->batch.num_rows(), 1u);
  bool found = false;
  for (const auto& row : r->batch.rows()) {
    if (row[0].AsInt() == static_cast<int64_t>(*t1)) {
      EXPECT_EQ(row[1].AsString(), "committed");
      EXPECT_EQ(row[2].AsString(), "bank_a");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MvccSystemTest, PrometheusExportsTxnSeries) {
  auto t1 = gis_.BeginTransaction();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(gis_.TxnWrite(*t1, "bank_a",
                            "INSERT INTO accounts VALUES (3, 5.0)")
                  .ok());
  ASSERT_TRUE(gis_.CommitTransaction(*t1).ok());
  const std::string out = gis_.ExportPrometheus();
  EXPECT_NE(out.find("gisql_txn_started_total"), std::string::npos);
  EXPECT_NE(out.find("gisql_txn_committed_total"), std::string::npos);
  EXPECT_NE(out.find("gisql_txn_aborted_total"), std::string::npos);
  EXPECT_NE(out.find("gisql_txn_deadlocks_total"), std::string::npos);
  EXPECT_NE(out.find("gisql_txn_lock_waits_total"), std::string::npos);
  EXPECT_NE(out.find("gisql_txn_watermark"), std::string::npos);
  EXPECT_NE(out.find("gisql_txn_active"), std::string::npos);
}

TEST_F(MvccSystemTest, AbortDropsStagedWritesAndLocks) {
  ComponentSource* src = *gis_.GetSource("bank_a");
  auto t1 = gis_.BeginTransaction();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(gis_.TxnWrite(*t1, "bank_a",
                            "INSERT INTO accounts VALUES (3, 5.0)")
                  .ok());
  EXPECT_EQ(src->pending_txns(), 1u);
  EXPECT_GT(src->locks().LockedResources(), 0u);
  ASSERT_TRUE(gis_.AbortTransaction(*t1).ok());
  EXPECT_EQ(src->pending_txns(), 0u);
  EXPECT_EQ(src->locks().LockedResources(), 0u);
  EXPECT_EQ(Count("acct_a"), 2);
  // A fresh transaction is free to take the same locks.
  auto t2 = gis_.BeginTransaction();
  ASSERT_TRUE(t2.ok());
  EXPECT_TRUE(gis_.TxnWrite(*t2, "bank_a",
                            "INSERT INTO accounts VALUES (3, 5.0)")
                  .ok());
  ASSERT_TRUE(gis_.CommitTransaction(*t2).ok());
}

TEST_F(MvccSystemTest, GcSparesVersionsAPinnedSnapshotOrCursorCanSee) {
  ComponentSource* src = *gis_.GetSource("bank_a");
  TablePtr table = *src->engine().GetTable("accounts");
  auto delete_and_commit = [&](const std::string& sql) {
    auto t = gis_.BeginTransaction();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(gis_.TxnWrite(*t, "bank_a", sql).ok());
    ASSERT_TRUE(gis_.CommitTransaction(*t).ok());
  };
  // A pinned snapshot holds the watermark below the delete's commit:
  // the dead version (rid 0, id 1) stays readable at the pin.
  const uint64_t pin = gis_.transactions().PinSnapshot();
  delete_and_commit("DELETE FROM accounts WHERE id = 1");
  EXPECT_EQ(table->num_rows(), 2);
  EXPECT_TRUE(table->VisibleAt(0, pin));
  EXPECT_EQ(table->GetRow(0)->at(0).AsInt(), 1);
  gis_.transactions().UnpinSnapshot(pin);

  // An open cursor pins the same way. The next commit's watermark
  // reaches the cursor's pin: id 1's version (dead before it) goes,
  // id 2's (dead after it) stays.
  GlobalSystem::CursorOptions opts;
  opts.chunk_rows = 1;
  auto cursor = gis_.OpenCursor("SELECT id FROM acct_b", opts);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  const uint64_t cursor_pin = gis_.transactions().Watermark();
  delete_and_commit("DELETE FROM accounts WHERE id = 2");
  EXPECT_EQ(table->num_rows(), 1);
  EXPECT_TRUE(table->GetRow(0).status().IsNotFound());
  EXPECT_TRUE(table->VisibleAt(1, cursor_pin));
  EXPECT_EQ(table->GetRow(1)->at(0).AsInt(), 2);

  // Closed, the cursor no longer holds anything back.
  ASSERT_TRUE(gis_.CloseCursor(*cursor).ok());
  auto t = gis_.BeginTransaction();
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(gis_.TxnWrite(*t, "bank_a",
                            "INSERT INTO accounts VALUES (3, 3.0)")
                  .ok());
  ASSERT_TRUE(gis_.CommitTransaction(*t).ok());
  EXPECT_EQ(table->num_rows(), 1);
  EXPECT_TRUE(table->GetRow(1).status().IsNotFound());
  EXPECT_EQ(Count("acct_a"), 1);
}

TEST_F(MvccSystemTest, StagedDeleteSurvivesGcOfItsTable) {
  ComponentSource* src = *gis_.GetSource("bank_a");
  TablePtr table = *src->engine().GetTable("accounts");
  for (int id = 3; id <= 5; ++id) {
    ASSERT_TRUE(gis_.ExecuteAt("bank_a", "INSERT INTO accounts VALUES (" +
                                             std::to_string(id) + ", 1.0)")
                    .ok());
  }
  // A reader holds the watermark while id 1 is deleted, so its dead
  // version (rid 0) outlives the deleting commit.
  auto reader = gis_.BeginTransaction();
  ASSERT_TRUE(reader.ok());
  auto t0 = gis_.BeginTransaction();
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(
      gis_.TxnWrite(*t0, "bank_a", "DELETE FROM accounts WHERE id = 1").ok());
  ASSERT_TRUE(gis_.CommitTransaction(*t0).ok());
  EXPECT_EQ(table->num_rows(), 5);

  // t1 stages a DELETE of id 4, which lives in rid 3.
  auto t1 = gis_.BeginTransaction();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(
      gis_.TxnWrite(*t1, "bank_a", "DELETE FROM accounts WHERE id = 4").ok());
  ASSERT_EQ(src->staged_txn_ids().size(), 1u);
  const std::string staged = src->staged_txn_ids()[0];
  EXPECT_EQ(src->staged_delete_rids(staged), std::vector<size_t>{3});
  ASSERT_TRUE(gis_.CommitTransaction(*reader).ok());

  // Another commit at bank_a carries a watermark past id 1's death: the
  // table is collected even though t1 has a DELETE staged in it.
  auto t2 = gis_.BeginTransaction();
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(gis_.TxnWrite(*t2, "bank_a",
                            "INSERT INTO accounts VALUES (9, 1.0)")
                  .ok());
  ASSERT_TRUE(gis_.CommitTransaction(*t2).ok());
  EXPECT_TRUE(table->GetRow(0).status().IsNotFound());
  EXPECT_EQ(table->num_rows(), 5);

  // The staged row id still names id 4, and the commit ends exactly it.
  EXPECT_EQ(src->staged_delete_rids(staged), std::vector<size_t>{3});
  EXPECT_EQ(table->GetRow(3)->at(0).AsInt(), 4);
  ASSERT_TRUE(gis_.CommitTransaction(*t1).ok());
  auto r = gis_.Query("SELECT id FROM acct_a ORDER BY id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<int64_t> ids;
  for (const auto& row : r->batch.rows()) ids.push_back(row[0].AsInt());
  EXPECT_EQ(ids, (std::vector<int64_t>{2, 3, 5, 9}));
}

// ---------------------------------------------------------------------------
// The write path at one source: cost and access-path equivalence.

/// A relational source holding `accounts` (id, bal) with ids 0..n-1,
/// loaded ascending or descending (then key order and row-id order
/// disagree).
std::unique_ptr<ComponentSource> LoadedBank(int n, bool descending) {
  auto src =
      std::make_unique<ComponentSource>("bank", SourceDialect::kRelational);
  EXPECT_TRUE(
      src->ExecuteLocalSql("CREATE TABLE accounts (id bigint, bal double)")
          .ok());
  TablePtr table = *src->engine().GetTable("accounts");
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(
        {Value::Int(descending ? n - 1 - i : i), Value::Double(100)});
  }
  EXPECT_TRUE(table->InsertUnchecked(std::move(rows)).ok());
  return src;
}

int64_t PageFetches(ComponentSource& src) {
  const BufferPoolStats s = src.engine().pool().Snapshot();
  return s.hits + s.misses;
}

TEST(WritePathTest, CommitFetchesConstantPagesAtAnyTableSize) {
  std::vector<int64_t> commit_fetches;
  for (const int n : {10000, 40000}) {
    auto src = LoadedBank(n, /*descending=*/false);
    TablePtr table = *src->engine().GetTable("accounts");
    // The first indexed access builds the index with one scan.
    ASSERT_NE(table->GetOrderedIndex(0), nullptr);
    const int64_t key = n / 2;
    const int64_t before = PageFetches(*src);
    auto del = src->PrepareTxnAt(
        "t1", "DELETE FROM accounts WHERE id = " + std::to_string(key), 1,
        /*numeric_txn_id=*/1, /*snapshot_ts=*/2);
    ASSERT_TRUE(del.ok() && del->granted) << del.status().ToString();
    auto ins = src->PrepareTxnAt(
        "t1", "INSERT INTO accounts VALUES (" + std::to_string(key) + ", 55.0)",
        2, 1, 2);
    ASSERT_TRUE(ins.ok() && ins->granted) << ins.status().ToString();
    // The commit's watermark reclaims the ended version at once.
    ASSERT_TRUE(src->CommitTxn("t1", /*commit_ts=*/3, /*watermark=*/3).ok());
    commit_fetches.push_back(PageFetches(*src) - before);
    EXPECT_EQ(table->num_rows(), n);

    // The next indexed read fetches only its probe's page.
    FragmentPlan frag;
    frag.table = "accounts";
    frag.index_column = 0;
    frag.range_lo = Value::Int(key);
    frag.range_hi = Value::Int(key);
    const int64_t read_before = PageFetches(*src);
    auto batch = src->ExecuteFragment(frag);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->num_rows(), 1u);
    EXPECT_EQ(batch->rows()[0][1].AsDouble(), 55.0);
    EXPECT_EQ(PageFetches(*src) - read_before, 1);
  }
  // Probe the deleted row's page, append to the tail page, rewrite the
  // reclaimed row's page: the same few pages at 10k and 40k rows.
  EXPECT_EQ(commit_fetches[0], commit_fetches[1]);
  EXPECT_LE(commit_fetches[0], 3);
}

TEST(WritePathTest, IndexAndScanDeletesStageAndLockAlike) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"id = 250", "id + 0 = 250"},
      {"id >= 100 AND id < 120", "id + 0 >= 100 AND id + 0 < 120"},
      {"id > 4980 AND bal > 0.0", "id + 0 > 4980 AND bal > 0.0"},
  };
  for (const auto& [indexed, scanned] : cases) {
    auto by_index = LoadedBank(5000, /*descending=*/true);
    auto by_scan = LoadedBank(5000, /*descending=*/true);
    TablePtr indexed_table = *by_index->engine().GetTable("accounts");
    ASSERT_NE(indexed_table->GetOrderedIndex(0), nullptr);
    const int64_t index_before = PageFetches(*by_index);
    const int64_t scan_before = PageFetches(*by_scan);
    auto a = by_index->PrepareTxnAt("t", "DELETE FROM accounts WHERE " +
                                              indexed, 1, 7, 1);
    auto b = by_scan->PrepareTxnAt("t", "DELETE FROM accounts WHERE " +
                                            scanned, 1, 7, 1);
    ASSERT_TRUE(a.ok() && a->granted) << a.status().ToString();
    ASSERT_TRUE(b.ok() && b->granted) << b.status().ToString();
    // The probe fetches one page per matched row; the scan reads every
    // page of the table.
    const int64_t index_fetches = PageFetches(*by_index) - index_before;
    const int64_t scan_fetches = PageFetches(*by_scan) - scan_before;
    EXPECT_EQ(scan_fetches,
              by_scan->engine().pool().Snapshot().pages_live);
    const std::vector<size_t> rids = by_index->staged_delete_rids("t");
    ASSERT_FALSE(rids.empty()) << indexed;
    EXPECT_TRUE(std::is_sorted(rids.begin(), rids.end())) << indexed;
    EXPECT_EQ(rids, by_scan->staged_delete_rids("t")) << indexed;
    EXPECT_EQ(by_index->locks().HeldResources(7),
              by_scan->locks().HeldResources(7))
        << indexed;
    EXPECT_EQ(index_fetches, static_cast<int64_t>(rids.size())) << indexed;

    // First committer wins the same way on both paths: a row visible
    // at an older snapshot but ended since aborts the late deleter.
    for (ComponentSource* src : {by_index.get(), by_scan.get()}) {
      ASSERT_TRUE(
          src->PrepareTxnAt("w", "DELETE FROM accounts WHERE id = 300", 1, 8, 1)
              .ok());
      ASSERT_TRUE(src->CommitTxn("w", /*commit_ts=*/5).ok());
    }
    auto probe = by_index->PrepareTxnAt(
        "late", "DELETE FROM accounts WHERE id = 300", 1, 10, 2);
    auto scan = by_scan->PrepareTxnAt(
        "late", "DELETE FROM accounts WHERE id + 0 = 300", 1, 10, 2);
    ASSERT_TRUE(probe.status().IsExecutionError()) << probe.status().ToString();
    EXPECT_EQ(probe.status().ToString(), scan.status().ToString());
    EXPECT_NE(probe.status().message().find("write-write conflict"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace gisql
