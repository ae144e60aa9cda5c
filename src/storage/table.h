/// \file table.h
/// \brief Page-backed heap table with optional hash / ordered secondary
/// indexes — the storage layer each autonomous component system runs.
///
/// Rows live in buffer-pool pages (storage/paged_heap.h), so every
/// access — point read, scan, index build — charges page hits/misses
/// and virtual disk time. There is one scan entry point, and it takes
/// the columns its caller reads: unread cells are skipped, not decoded,
/// and read as typed NULLs. Row ids are slot-stable: a row keeps its id
/// until its slot is reclaimed (watermark GC or an administrative
/// DELETE), and reclaiming rewrites only the pages holding the freed
/// slots. Indexes map values to row ids; a declared index is built by
/// one heap scan on first use and is then kept current — appends insert
/// their row ids, reclaimed slots erase theirs — so a write never
/// invalidates a whole index.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "expr/expr.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/paged_heap.h"
#include "storage/statistics.h"
#include "storage/storage_config.h"
#include "types/row.h"
#include "types/schema.h"

namespace gisql {

/// Rows per scan batch.
inline constexpr size_t kBatchSize = 1024;

/// \brief "Never dies" end timestamp of a live row version.
inline constexpr uint64_t kMaxTimestamp = UINT64_MAX;

/// \brief MVCC lifetime of one row version: visible to snapshot S when
/// begin_ts <= S < end_ts. Bootstrap rows (local DDL/DML, legacy 2PC)
/// are born at 0 — visible to every snapshot.
struct RowVersion {
  uint64_t begin_ts = 0;
  uint64_t end_ts = kMaxTimestamp;
};

/// \brief Equality index: value → row ids (ascending among equal
/// values when entries arrive in row-id order).
class HashIndex {
 public:
  explicit HashIndex(size_t column) : column_(column) {}

  size_t column() const { return column_; }

  /// \brief Adds (key, rid); NULL keys are not indexed.
  void Insert(const Value& key, size_t rid);

  /// \brief Removes (key, rid) if present.
  void Erase(const Value& key, size_t rid);

  void Clear();

  /// \brief Row ids whose indexed column equals `key` (never NULL rows).
  const std::vector<size_t>& Lookup(const Value& key) const;

 private:
  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  struct ValueEq {
    bool operator()(const Value& a, const Value& b) const {
      return a.Compare(b) == 0;
    }
  };
  size_t column_;
  std::unordered_map<Value, std::vector<size_t>, ValueHash, ValueEq> map_;
};

/// \brief Range index: B+tree over column values → row ids.
class OrderedIndex {
 public:
  explicit OrderedIndex(size_t column) : column_(column) {}

  size_t column() const { return column_; }

  /// \brief Adds (key, rid); NULL keys are not indexed.
  void Insert(const Value& key, size_t rid);

  /// \brief Removes (key, rid) if present.
  void Erase(const Value& key, size_t rid);

  void Clear() { tree_.Clear(); }

  /// \brief Row ids with lo <= col <= hi (either bound may be NULL =
  /// unbounded); `lo_inclusive` / `hi_inclusive` control openness.
  std::vector<size_t> Range(const Value& lo, bool lo_inclusive,
                            const Value& hi, bool hi_inclusive) const;

  /// \brief The underlying tree (exposed for invariant checks in tests).
  const BPlusTree& tree() const { return tree_; }

 private:
  size_t column_;
  BPlusTree tree_;
};

/// \brief A slot-stable page-backed heap table.
class Table {
 public:
  /// \param pool buffer pool the heap pages live in; when null, the
  ///        table creates a private pool from StorageConfig::FromEnv()
  ///        (standalone tables in tests and benches).
  Table(std::string name, SchemaPtr schema, BufferPoolPtr pool = nullptr);

  const std::string& name() const { return name_; }
  const SchemaPtr& schema() const { return schema_; }
  /// \brief Rows physically present (every unreclaimed version).
  int64_t num_rows() const { return heap_.num_rows(); }

  /// \brief Point read of row `rid` through the buffer pool; NotFound
  /// once its slot was reclaimed.
  Result<Row> GetRow(size_t rid) { return heap_.Get(rid); }

  /// \brief Scan of the present rows in row-id order, one page pin per
  /// page, decoding only `columns` (the rest read as typed NULLs). The
  /// callback may move from the row it is given.
  Status Scan(const ColumnSet& columns,
              const std::function<Status(size_t, Row&)>& fn) {
    return heap_.Scan(columns, fn);
  }

  /// \brief Validates arity and types against the schema, applying
  /// implicit casts; returns the coerced row without storing it.
  Result<Row> ValidateRow(Row row) const;

  /// \brief Validates arity and types (applying implicit casts), then
  /// appends. Built indexes take the new row id; cached statistics are
  /// invalidated.
  Status Insert(Row row);

  /// \brief Bulk append without per-row type validation (trusted loader
  /// path used by the workload generator). Fails only when the buffer
  /// pool cannot grow.
  Status InsertUnchecked(std::vector<Row> rows);

  /// \brief Administrative delete: reclaims the slots of every present
  /// row matching `predicate`, whatever its version; returns the count.
  Result<int64_t> Delete(const Expr& predicate);

  /// \name MVCC version metadata
  ///
  /// Every row id carries a [begin_ts, end_ts) lifetime in an
  /// in-memory vector indexed by row id (timestamps are in-memory state,
  /// not page payload — the on-page row encoding is unchanged). Writes
  /// via Insert/InsertUnchecked are born at 0 (visible everywhere);
  /// committed transactional writes arrive through InsertVersioned /
  /// MarkDeleted stamped with the mediator's commit timestamp. A
  /// reclaimed slot reads as {kMaxTimestamp, 0}: visible to no snapshot.
  /// @{

  /// \brief Bulk append stamped with begin_ts (commit path of a global
  /// transaction).
  Status InsertVersioned(std::vector<Row> rows, uint64_t begin_ts);

  /// \brief Ends row `rid`'s lifetime at `end_ts` (a committed
  /// transactional DELETE). The row stays in the heap until watermark
  /// GC; indexes still map to it, so readers re-check visibility.
  /// First committer wins: an already-dead row is left untouched.
  void MarkDeleted(size_t rid, uint64_t end_ts);

  /// \brief True when row `rid` is visible at `snapshot_ts`.
  /// snapshot_ts 0 means "latest committed": only live rows
  /// (end_ts == kMaxTimestamp) qualify.
  bool VisibleAt(size_t rid, uint64_t snapshot_ts) const;

  /// \brief The version pair of row `rid` (tests/monitoring).
  RowVersion VersionOf(size_t rid) const;

  /// \brief Reclaims the slots of versions dead at or before
  /// `watermark` (no present or future snapshot can see them), in
  /// place: other row ids are untouched, so staged deletes stay valid.
  /// Returns the count reclaimed. A table with no such version returns
  /// 0 without touching any page.
  Result<int64_t> GcToWatermark(uint64_t watermark);
  /// @}

  /// \brief Declares a hash index on `column` (built on first use).
  Status CreateHashIndex(size_t column);

  /// \brief Declares an ordered index on `column` (built on first use).
  Status CreateOrderedIndex(size_t column);

  /// \brief The hash index on `column` (built now if never used), or
  /// nullptr when none is declared.
  HashIndex* GetHashIndex(size_t column);

  /// \brief The ordered index on `column` (built now if never used), or
  /// nullptr when none is declared.
  OrderedIndex* GetOrderedIndex(size_t column);

  /// \brief Columns with a declared hash / ordered index (sorted).
  std::vector<int64_t> HashIndexedColumns() const;
  std::vector<int64_t> OrderedIndexedColumns() const;

  /// \brief Exact statistics from one all-column scan; cached until
  /// the next write.
  const TableStats& Stats();

  /// \brief The pool this table's pages live in.
  BufferPoolManager& pool() { return *pool_; }

 private:
  /// A declared index: empty until first use, when one heap scan
  /// fills it; current from then on.
  template <typename Index>
  struct DeclaredIndex {
    explicit DeclaredIndex(size_t column) : index(column) {}
    Index index;
    bool built = false;
  };

  /// Frees the slots `rids` (ascending), erasing their index entries
  /// and marking their versions reclaimed.
  Status Reclaim(const std::vector<size_t>& rids);

  /// The declared index, filled on its first use from one heap scan of
  /// (rid, row) pairs.
  template <typename Index>
  Index* Built(DeclaredIndex<Index>* declared);

  std::string name_;
  SchemaPtr schema_;
  BufferPoolPtr pool_;
  PagedHeap heap_;
  /// versions_[rid] belongs to row id rid; sized to heap_.end_rid().
  std::vector<RowVersion> versions_;
  /// Row ids whose version has an end_ts and whose slot is still
  /// present: the only candidates watermark GC looks at.
  std::vector<size_t> ended_;
  std::vector<std::unique_ptr<DeclaredIndex<HashIndex>>> hash_indexes_;
  std::vector<std::unique_ptr<DeclaredIndex<OrderedIndex>>> ordered_indexes_;
  TableStats stats_;
  bool stats_valid_ = false;
};

using TablePtr = std::shared_ptr<Table>;

/// \brief Named-table container — one per component information system.
/// Owns the buffer pool all of its tables share.
class StorageEngine {
 public:
  explicit StorageEngine(StorageConfig config = StorageConfig::FromEnv(),
                         MemoryBudget* budget = nullptr)
      : pool_(std::make_shared<BufferPoolManager>(config, budget)) {}

  /// \brief Creates an empty table; AlreadyExists if the name is taken.
  Result<TablePtr> CreateTable(const std::string& name, SchemaPtr schema);

  Result<TablePtr> GetTable(const std::string& name) const;

  Status DropTable(const std::string& name);

  std::vector<std::string> TableNames() const;

  BufferPoolManager& pool() { return *pool_; }
  const BufferPoolManager& pool() const { return *pool_; }

 private:
  BufferPoolPtr pool_;
  std::unordered_map<std::string, TablePtr> tables_;
};

}  // namespace gisql
