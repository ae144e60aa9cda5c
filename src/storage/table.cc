#include "storage/table.h"

#include <algorithm>

#include "common/string_util.h"
#include "expr/eval.h"

namespace gisql {

void HashIndex::Insert(const Value& key, size_t rid) {
  if (key.is_null()) return;
  map_[key].push_back(rid);
}

void HashIndex::Clear() { map_.clear(); }

void HashIndex::Erase(const Value& key, size_t rid) {
  if (key.is_null()) return;
  auto it = map_.find(key);
  if (it == map_.end()) return;
  std::vector<size_t>& rids = it->second;
  rids.erase(std::remove(rids.begin(), rids.end(), rid), rids.end());
  if (rids.empty()) map_.erase(it);
}

const std::vector<size_t>& HashIndex::Lookup(const Value& key) const {
  static const std::vector<size_t> kEmpty;
  if (key.is_null()) return kEmpty;
  auto it = map_.find(key);
  return it == map_.end() ? kEmpty : it->second;
}

void OrderedIndex::Insert(const Value& key, size_t rid) {
  // Insert fails only for NULL keys, which are not indexed.
  if (!key.is_null()) (void)tree_.Insert(key, rid);
}

void OrderedIndex::Erase(const Value& key, size_t rid) {
  if (!key.is_null()) (void)tree_.Erase(key, rid);
}

std::vector<size_t> OrderedIndex::Range(const Value& lo, bool lo_inclusive,
                                        const Value& hi,
                                        bool hi_inclusive) const {
  return tree_.Range(lo, lo_inclusive, hi, hi_inclusive);
}

Table::Table(std::string name, SchemaPtr schema, BufferPoolPtr pool)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      pool_(pool != nullptr
                ? std::move(pool)
                : std::make_shared<BufferPoolManager>(StorageConfig::FromEnv())),
      heap_(pool_, schema_) {}

Result<Row> Table::ValidateRow(Row row) const {
  if (row.size() != schema_->num_fields()) {
    return Status::InvalidArgument("row arity ", row.size(),
                                   " does not match table '", name_,
                                   "' schema arity ", schema_->num_fields());
  }
  for (size_t c = 0; c < row.size(); ++c) {
    const Field& f = schema_->field(c);
    if (row[c].is_null()) {
      if (!f.nullable) {
        return Status::InvalidArgument("NULL in non-nullable column '",
                                       f.name, "' of table '", name_, "'");
      }
      row[c] = Value::Null(f.type);
      continue;
    }
    if (row[c].type() != f.type) {
      if (!IsImplicitlyCastable(row[c].type(), f.type)) {
        return Status::InvalidArgument(
            "type mismatch in column '", f.name, "': expected ",
            TypeName(f.type), ", got ", TypeName(row[c].type()));
      }
      GISQL_ASSIGN_OR_RETURN(row[c], row[c].CastTo(f.type));
    }
  }
  return row;
}

namespace {
/// Version of a reclaimed slot: begin after end, so no snapshot sees it.
constexpr RowVersion kReclaimedVersion{kMaxTimestamp, 0};
}  // namespace

Status Table::InsertVersioned(std::vector<Row> rows, uint64_t begin_ts) {
  // Versions and built indexes cover every row that made it into the
  // heap, even when the append stops early.
  const size_t first = heap_.end_rid();
  const Status st = heap_.AppendBatch(rows);
  versions_.resize(heap_.end_rid(), RowVersion{begin_ts, kMaxTimestamp});
  for (size_t rid = first; rid < heap_.end_rid(); ++rid) {
    const Row& row = rows[rid - first];
    for (auto& idx : hash_indexes_) {
      if (idx->built) idx->index.Insert(row[idx->index.column()], rid);
    }
    for (auto& idx : ordered_indexes_) {
      if (idx->built) idx->index.Insert(row[idx->index.column()], rid);
    }
  }
  stats_valid_ = false;
  return st;
}

Status Table::Insert(Row row) {
  GISQL_ASSIGN_OR_RETURN(Row validated, ValidateRow(std::move(row)));
  std::vector<Row> one;
  one.push_back(std::move(validated));
  return InsertVersioned(std::move(one), 0);
}

Status Table::InsertUnchecked(std::vector<Row> rows) {
  return InsertVersioned(std::move(rows), 0);
}

void Table::MarkDeleted(size_t rid, uint64_t end_ts) {
  if (rid >= versions_.size()) return;
  if (versions_[rid].end_ts != kMaxTimestamp) return;  // already dead
  versions_[rid].end_ts = end_ts;
  ended_.push_back(rid);
  // The heap and the indexes are untouched (the row is still
  // physically present); only statistics go stale.
  stats_valid_ = false;
}

bool Table::VisibleAt(size_t rid, uint64_t snapshot_ts) const {
  if (rid >= versions_.size()) return false;
  const RowVersion& v = versions_[rid];
  if (snapshot_ts == 0) return v.end_ts == kMaxTimestamp;
  return v.begin_ts <= snapshot_ts && snapshot_ts < v.end_ts;
}

RowVersion Table::VersionOf(size_t rid) const {
  return rid < versions_.size() ? versions_[rid] : kReclaimedVersion;
}

Status Table::Reclaim(const std::vector<size_t>& rids) {
  stats_valid_ = false;
  return heap_.Free(rids, [&](size_t rid, const Row& row) {
    for (auto& idx : hash_indexes_) {
      if (idx->built) idx->index.Erase(row[idx->index.column()], rid);
    }
    for (auto& idx : ordered_indexes_) {
      if (idx->built) idx->index.Erase(row[idx->index.column()], rid);
    }
    versions_[rid] = kReclaimedVersion;
  });
}

Result<int64_t> Table::GcToWatermark(uint64_t watermark) {
  // Only ended versions are candidates, so a table with none reclaims
  // nothing without touching any page.
  std::vector<size_t> dead;
  std::vector<size_t> kept;
  for (size_t rid : ended_) {
    const RowVersion& v = versions_[rid];
    if (v.begin_ts > v.end_ts) continue;  // reclaimed by a Delete
    (v.end_ts <= watermark ? dead : kept).push_back(rid);
  }
  if (dead.empty()) {
    ended_ = std::move(kept);
    return 0;
  }
  std::sort(dead.begin(), dead.end());
  GISQL_RETURN_NOT_OK(Reclaim(dead));
  ended_ = std::move(kept);
  return static_cast<int64_t>(dead.size());
}

Result<int64_t> Table::Delete(const Expr& predicate) {
  std::vector<size_t> columns;
  predicate.CollectColumns(&columns);
  const ColumnSet read = ColumnsOf(schema_->num_fields(), columns);
  std::vector<size_t> matched;
  GISQL_RETURN_NOT_OK(heap_.Scan(read, [&](size_t rid, Row& row) {
    GISQL_ASSIGN_OR_RETURN(bool match, EvalPredicate(predicate, row));
    if (match) matched.push_back(rid);
    return Status::OK();
  }));
  if (!matched.empty()) GISQL_RETURN_NOT_OK(Reclaim(matched));
  return static_cast<int64_t>(matched.size());
}

Status Table::CreateHashIndex(size_t column) {
  if (column >= schema_->num_fields()) {
    return Status::InvalidArgument("index column ", column,
                                   " out of range for table '", name_, "'");
  }
  for (const auto& idx : hash_indexes_) {
    if (idx->index.column() == column) {
      return Status::AlreadyExists("hash index on column ", column,
                                   " already exists");
    }
  }
  hash_indexes_.push_back(std::make_unique<DeclaredIndex<HashIndex>>(column));
  return Status::OK();
}

Status Table::CreateOrderedIndex(size_t column) {
  if (column >= schema_->num_fields()) {
    return Status::InvalidArgument("index column ", column,
                                   " out of range for table '", name_, "'");
  }
  for (const auto& idx : ordered_indexes_) {
    if (idx->index.column() == column) {
      return Status::AlreadyExists("ordered index on column ", column,
                                   " already exists");
    }
  }
  ordered_indexes_.push_back(
      std::make_unique<DeclaredIndex<OrderedIndex>>(column));
  return Status::OK();
}

template <typename Index>
Index* Table::Built(DeclaredIndex<Index>* declared) {
  if (!declared->built) {
    // One scan of the index column through the pool; entries carry
    // row ids, not positions. Best-effort: an out-of-budget pool leaves
    // the prefix it reached, and the index stays unbuilt so the next
    // use rescans.
    Index& index = declared->index;
    index.Clear();
    const ColumnSet read = ColumnsOf(schema_->num_fields(), {index.column()});
    declared->built = heap_.Scan(read, [&](size_t rid, Row& row) {
      index.Insert(row[index.column()], rid);
      return Status::OK();
    }).ok();
  }
  return &declared->index;
}

HashIndex* Table::GetHashIndex(size_t column) {
  for (auto& idx : hash_indexes_) {
    if (idx->index.column() == column) return Built(idx.get());
  }
  return nullptr;
}

OrderedIndex* Table::GetOrderedIndex(size_t column) {
  for (auto& idx : ordered_indexes_) {
    if (idx->index.column() == column) return Built(idx.get());
  }
  return nullptr;
}

std::vector<int64_t> Table::HashIndexedColumns() const {
  std::vector<int64_t> cols;
  cols.reserve(hash_indexes_.size());
  for (const auto& idx : hash_indexes_) {
    cols.push_back(static_cast<int64_t>(idx->index.column()));
  }
  std::sort(cols.begin(), cols.end());
  return cols;
}

std::vector<int64_t> Table::OrderedIndexedColumns() const {
  std::vector<int64_t> cols;
  cols.reserve(ordered_indexes_.size());
  for (const auto& idx : ordered_indexes_) {
    cols.push_back(static_cast<int64_t>(idx->index.column()));
  }
  std::sort(cols.begin(), cols.end());
  return cols;
}

const TableStats& Table::Stats() {
  if (!stats_valid_) {
    // One all-column scan in page order; rows are moved, not copied.
    // Best-effort: an out-of-budget pool yields statistics over the
    // prefix it reached.
    std::vector<Row> rows;
    rows.reserve(static_cast<size_t>(heap_.num_rows()));
    const ColumnSet read = AllColumns(schema_->num_fields());
    (void)heap_.Scan(read, [&](size_t, Row& row) {
      rows.push_back(std::move(row));
      return Status::OK();
    });
    stats_ = CollectStats(*schema_, rows);
    stats_.hash_indexed_columns = HashIndexedColumns();
    stats_.ordered_indexed_columns = OrderedIndexedColumns();
    stats_valid_ = true;
  }
  return stats_;
}

Result<TablePtr> StorageEngine::CreateTable(const std::string& name,
                                            SchemaPtr schema) {
  const std::string key = ToLower(name);
  if (tables_.count(key)) {
    return Status::AlreadyExists("table '", name, "' already exists");
  }
  auto table = std::make_shared<Table>(name, std::move(schema), pool_);
  tables_[key] = table;
  return table;
}

Result<TablePtr> StorageEngine::GetTable(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("table '", name, "' does not exist");
  }
  return it->second;
}

Status StorageEngine::DropTable(const std::string& name) {
  if (tables_.erase(ToLower(name)) == 0) {
    return Status::NotFound("table '", name, "' does not exist");
  }
  return Status::OK();
}

std::vector<std::string> StorageEngine::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) names.push_back(table->name());
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace gisql
