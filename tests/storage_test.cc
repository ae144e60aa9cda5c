/// Unit tests for the component-system storage engine: tables, the
/// slot-stable heap, indexes kept current across writes, statistics.

#include <gtest/gtest.h>

#include "expr/binder.h"
#include "scan_rows.h"
#include "sql/parser.h"
#include "storage/table.h"

namespace gisql {
namespace {

SchemaPtr ItemsSchema() {
  return std::make_shared<Schema>(
      std::vector<Field>{{"id", TypeId::kInt64, false, "items"},
                         {"price", TypeId::kDouble, true, "items"},
                         {"name", TypeId::kString, true, "items"}});
}

TablePtr MakeItems(int n) {
  auto table = std::make_shared<Table>("items", ItemsSchema());
  for (int i = 0; i < n; ++i) {
    Row row = {Value::Int(i), Value::Double(i * 1.5),
               Value::String("item" + std::to_string(i % 10))};
    EXPECT_TRUE(table->Insert(std::move(row)).ok());
  }
  return table;
}

TEST(TableTest, InsertValidatesArity) {
  auto table = std::make_shared<Table>("t", ItemsSchema());
  EXPECT_TRUE(table->Insert({Value::Int(1)}).IsInvalidArgument());
}

TEST(TableTest, InsertValidatesTypes) {
  auto table = std::make_shared<Table>("t", ItemsSchema());
  Status st = table->Insert(
      {Value::String("no"), Value::Double(1), Value::String("x")});
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST(TableTest, InsertAppliesImplicitCasts) {
  auto table = std::make_shared<Table>("t", ItemsSchema());
  // price column is DOUBLE; insert an INT64.
  ASSERT_TRUE(
      table->Insert({Value::Int(1), Value::Int(3), Value::String("x")}).ok());
  EXPECT_EQ(ScanRows(*table)[0][1].type(), TypeId::kDouble);
}

TEST(TableTest, NonNullableEnforced) {
  auto table = std::make_shared<Table>("t", ItemsSchema());
  Status st =
      table->Insert({Value::Null(), Value::Double(1), Value::String("x")});
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST(TableTest, NullsTakeColumnType) {
  auto table = std::make_shared<Table>("t", ItemsSchema());
  ASSERT_TRUE(table->Insert({Value::Int(1), Value::Null(), Value::Null()}).ok());
  const std::vector<Row> rows = ScanRows(*table);
  EXPECT_EQ(rows[0][1].type(), TypeId::kDouble);
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST(TableTest, DeleteByPredicate) {
  auto table = MakeItems(100);
  Schema schema = *table->schema();
  Binder binder(schema);
  auto ast = sql::ParseScalarExpr("id < 40");
  ExprPtr pred = *binder.BindScalar(**ast);
  EXPECT_EQ(*table->Delete(*pred), 40);
  EXPECT_EQ(table->num_rows(), 60);
}

TEST(HashIndexTest, LookupAfterBuild) {
  auto table = MakeItems(100);
  ASSERT_TRUE(table->CreateHashIndex(2).ok());  // name column, 10 distinct
  HashIndex* idx = table->GetHashIndex(2);
  ASSERT_NE(idx, nullptr);
  const auto& hits = idx->Lookup(Value::String("item3"));
  EXPECT_EQ(hits.size(), 10u);
  const std::vector<Row> rows = ScanRows(*table);
  for (size_t rid : hits) {
    EXPECT_EQ(rows[rid][2].AsString(), "item3");
  }
  EXPECT_TRUE(idx->Lookup(Value::String("nope")).empty());
  EXPECT_TRUE(idx->Lookup(Value::Null()).empty());
}

TEST(HashIndexTest, RebuildsAfterWrite) {
  auto table = MakeItems(10);
  ASSERT_TRUE(table->CreateHashIndex(0).ok());
  EXPECT_EQ(table->GetHashIndex(0)->Lookup(Value::Int(5)).size(), 1u);
  ASSERT_TRUE(
      table->Insert({Value::Int(5), Value::Double(0), Value::String("dup")})
          .ok());
  EXPECT_EQ(table->GetHashIndex(0)->Lookup(Value::Int(5)).size(), 2u);
}

TEST(HashIndexTest, DuplicateCreationRejected) {
  auto table = MakeItems(1);
  ASSERT_TRUE(table->CreateHashIndex(0).ok());
  EXPECT_TRUE(table->CreateHashIndex(0).IsAlreadyExists());
  EXPECT_TRUE(table->CreateHashIndex(99).IsInvalidArgument());
  EXPECT_EQ(table->GetHashIndex(1), nullptr);
}

TEST(OrderedIndexTest, RangeLookups) {
  auto table = MakeItems(100);
  ASSERT_TRUE(table->CreateOrderedIndex(0).ok());
  OrderedIndex* idx = table->GetOrderedIndex(0);
  ASSERT_NE(idx, nullptr);
  // 10 <= id <= 19
  auto rids = idx->Range(Value::Int(10), true, Value::Int(19), true);
  EXPECT_EQ(rids.size(), 10u);
  // 10 < id < 19
  rids = idx->Range(Value::Int(10), false, Value::Int(19), false);
  EXPECT_EQ(rids.size(), 8u);
  // unbounded low
  rids = idx->Range(Value::Null(), true, Value::Int(4), true);
  EXPECT_EQ(rids.size(), 5u);
  // unbounded high
  rids = idx->Range(Value::Int(95), true, Value::Null(), true);
  EXPECT_EQ(rids.size(), 5u);
}

// ---------------------------------------------------------------------------
// Slot-stable heap: reclaiming frees slots in place.

/// A table over a private pool with small pages, so a few hundred rows
/// span many pages.
TablePtr MakePagedItems(int n, size_t page_size = 256) {
  StorageConfig config;
  config.page_size = page_size;
  config.pool_frames = 16;
  auto table = std::make_shared<Table>(
      "items", ItemsSchema(), std::make_shared<BufferPoolManager>(config));
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value::Int(i), Value::Double(i * 1.5),
                    Value::String("item" + std::to_string(i % 10))});
  }
  EXPECT_TRUE(table->InsertUnchecked(std::move(rows)).ok());
  return table;
}

int64_t PageFetches(Table& table) {
  const BufferPoolStats s = table.pool().Snapshot();
  return s.hits + s.misses;
}

ExprPtr Bind(const Table& table, const std::string& sql) {
  Binder binder(*table.schema());
  return *binder.BindScalar(**sql::ParseScalarExpr(sql));
}

TEST(SlotStableHeapTest, ReclaimKeepsEveryOtherRowId) {
  auto table = MakePagedItems(300);
  ASSERT_EQ(*table->Delete(*Bind(*table, "id % 7 = 3")), 43);
  EXPECT_EQ(table->num_rows(), 257);
  // Survivors keep their ids; reclaimed ids read as NotFound.
  for (int i = 0; i < 300; ++i) {
    Result<Row> row = table->GetRow(static_cast<size_t>(i));
    if (i % 7 == 3) {
      EXPECT_TRUE(row.status().IsNotFound()) << i;
      EXPECT_FALSE(table->VisibleAt(static_cast<size_t>(i), 0));
    } else {
      ASSERT_TRUE(row.ok()) << i << ": " << row.status().ToString();
      EXPECT_EQ((*row)[0].AsInt(), i);
    }
  }
  // The scan yields (rid, row) pairs with rid == id, ascending.
  int64_t prev = -1;
  int64_t seen = 0;
  ASSERT_TRUE(table->Scan(AllColumns(3), [&](size_t rid, Row& row) {
    EXPECT_EQ(static_cast<int64_t>(rid), row[0].AsInt());
    EXPECT_GT(static_cast<int64_t>(rid), prev);
    prev = static_cast<int64_t>(rid);
    ++seen;
    return Status::OK();
  }).ok());
  EXPECT_EQ(seen, 257);
  // Appends take fresh ids past every id ever assigned.
  ASSERT_TRUE(
      table->Insert({Value::Int(1000), Value::Double(0), Value::String("n")})
          .ok());
  EXPECT_EQ((*table->GetRow(300))[0].AsInt(), 1000);
}

TEST(SlotStableHeapTest, ReclaimRewritesOnlyTheTouchedPages) {
  auto table = MakePagedItems(400);
  const int64_t pages = table->pool().Snapshot().pages_live;
  ASSERT_GT(pages, 10);
  // Two rows: the scan that finds them reads every page once, and the
  // reclaim fetches just the two pages holding them.
  const int64_t before = PageFetches(*table);
  ASSERT_EQ(*table->Delete(*Bind(*table, "id = 5 OR id = 390")), 2);
  EXPECT_EQ(PageFetches(*table) - before, pages + 2);
  EXPECT_EQ(table->pool().Snapshot().pages_live, pages);
}

TEST(SlotStableHeapTest, EmptiedPageGoesBackToThePool) {
  auto table = MakePagedItems(400);
  const int64_t pages = table->pool().Snapshot().pages_live;
  // A 256-byte page holds about a dozen of these rows, so the first 40
  // ids fill whole pages that this delete empties.
  ASSERT_EQ(*table->Delete(*Bind(*table, "id < 40")), 40);
  EXPECT_LT(table->pool().Snapshot().pages_live, pages);
  EXPECT_EQ(table->num_rows(), 360);
  EXPECT_EQ((*table->GetRow(40))[0].AsInt(), 40);
  // Everything gone: every page returns, and appends start a new page.
  ASSERT_EQ(*table->Delete(*Bind(*table, "id >= 0")), 360);
  EXPECT_EQ(table->pool().Snapshot().pages_live, 0);
  ASSERT_TRUE(
      table->Insert({Value::Int(7), Value::Double(0), Value::String("n")})
          .ok());
  EXPECT_EQ(table->num_rows(), 1);
  EXPECT_EQ(table->pool().Snapshot().pages_live, 1);
  EXPECT_EQ((*table->GetRow(400))[0].AsInt(), 7);
}

/// One scan of a fresh 400-row table whose ids below 40 (whole pages)
/// and every id % 7 = 3 were reclaimed: the (rid, row) pairs it yields
/// and the pool traffic it charged.
struct ScanOutcome {
  std::vector<size_t> rids;
  std::vector<Row> rows;
  BufferPoolStats before;
  BufferPoolStats after;
};

ScanOutcome ScanReclaimedItems(const ColumnSet& columns) {
  ScanOutcome out;
  auto table = MakePagedItems(400);
  const int64_t pages = table->pool().Snapshot().pages_live;
  EXPECT_EQ(*table->Delete(*Bind(*table, "id < 40 OR id % 7 = 3")), 91);
  EXPECT_LT(table->pool().Snapshot().pages_live, pages);
  out.before = table->pool().Snapshot();
  EXPECT_TRUE(table->Scan(columns, [&](size_t rid, Row& row) {
    out.rids.push_back(rid);
    out.rows.push_back(std::move(row));
    return Status::OK();
  }).ok());
  out.after = table->pool().Snapshot();
  return out;
}

TEST(SlotStableHeapTest, ColumnPrunedScanMatchesAllColumnScan) {
  const ScanOutcome all = ScanReclaimedItems(AllColumns(3));
  ASSERT_EQ(all.rids.size(), 309u);
  ASSERT_GT(all.after.misses - all.before.misses, 0);
  const std::vector<std::vector<size_t>> column_sets = {
      {}, {0}, {1}, {2}, {0, 2}, {1, 2}};
  for (const auto& cols : column_sets) {
    const ColumnSet read = ColumnsOf(3, cols);
    const ScanOutcome pruned = ScanReclaimedItems(read);
    ASSERT_EQ(pruned.rids, all.rids);
    ASSERT_EQ(pruned.rows.size(), all.rows.size());
    for (size_t i = 0; i < all.rows.size(); ++i) {
      ASSERT_EQ(pruned.rows[i].size(), 3u);
      for (size_t c = 0; c < 3; ++c) {
        const Value& got = pruned.rows[i][c];
        // Unread cells are NULLs of the column's declared type.
        EXPECT_EQ(got.type(), ItemsSchema()->field(c).type);
        if (read[c]) {
          EXPECT_EQ(got.Compare(all.rows[i][c]), 0) << i << "," << c;
          EXPECT_FALSE(got.is_null());
        } else {
          EXPECT_TRUE(got.is_null()) << i << "," << c;
        }
      }
    }
    // Same pages fetched once each, same hits and misses.
    EXPECT_EQ(pruned.after.hits - pruned.before.hits,
              all.after.hits - all.before.hits);
    EXPECT_EQ(pruned.after.misses - pruned.before.misses,
              all.after.misses - all.before.misses);
    EXPECT_EQ(pruned.after.evictions - pruned.before.evictions,
              all.after.evictions - all.before.evictions);
    EXPECT_EQ(pruned.after.disk_reads - pruned.before.disk_reads,
              all.after.disk_reads - all.before.disk_reads);
    EXPECT_EQ(pruned.after.hits + pruned.after.misses -
                  pruned.before.hits - pruned.before.misses,
              pruned.before.pages_live);
  }
}

TEST(SlotStableHeapTest, IndexesStayCurrentWithoutRescanning) {
  auto table = MakePagedItems(300);
  ASSERT_TRUE(table->CreateHashIndex(2).ok());
  ASSERT_TRUE(table->CreateOrderedIndex(0).ok());
  // First use builds each index with one scan...
  ASSERT_EQ(table->GetHashIndex(2)->Lookup(Value::String("item3")).size(),
            30u);
  ASSERT_EQ(table->GetOrderedIndex(0)
                ->Range(Value::Int(10), true, Value::Int(19), true)
                .size(),
            10u);
  // ...and writes keep it current: no later use touches a page.
  ASSERT_TRUE(table->Delete(*Bind(*table, "id >= 10 AND id < 15")).ok());
  ASSERT_TRUE(
      table->Insert({Value::Int(12), Value::Double(0), Value::String("item3")})
          .ok());
  const int64_t before = PageFetches(*table);
  const auto rids =
      table->GetOrderedIndex(0)->Range(Value::Int(10), true, Value::Int(19),
                                       true);
  EXPECT_EQ(rids, (std::vector<size_t>{300, 15, 16, 17, 18, 19}));
  const auto& item3 = table->GetHashIndex(2)->Lookup(Value::String("item3"));
  EXPECT_EQ(item3.size(), 30u);  // 13 went, the new 12 came
  EXPECT_EQ(item3.back(), 300u);
  EXPECT_EQ(PageFetches(*table), before);
  EXPECT_TRUE(table->GetOrderedIndex(0)->tree().Validate().ok());
}

TEST(SlotStableHeapTest, GcReclaimsOnlyDeadVersionsAndKeepsIndexes) {
  auto table = MakePagedItems(50);
  ASSERT_TRUE(table->CreateOrderedIndex(0).ok());
  ASSERT_NE(table->GetOrderedIndex(0), nullptr);
  table->MarkDeleted(4, 10);
  table->MarkDeleted(9, 20);
  EXPECT_EQ(*table->GcToWatermark(9), 0);  // nothing dead at 9 yet
  EXPECT_EQ(*table->GcToWatermark(15), 1);
  EXPECT_TRUE(table->GetOrderedIndex(0)
                  ->Range(Value::Int(4), true, Value::Int(4), true)
                  .empty());
  EXPECT_EQ(table->GetOrderedIndex(0)
                ->Range(Value::Int(9), true, Value::Int(9), true),
            std::vector<size_t>{9});
  EXPECT_EQ(*table->GcToWatermark(25), 1);
  EXPECT_EQ(table->num_rows(), 48);
  EXPECT_EQ(*table->GcToWatermark(25), 0);
}

TEST(StatsTest, ExactStatistics) {
  auto table = MakeItems(100);
  const TableStats& stats = table->Stats();
  EXPECT_EQ(stats.row_count, 100);
  ASSERT_EQ(stats.columns.size(), 3u);
  EXPECT_EQ(stats.columns[0].min.AsInt(), 0);
  EXPECT_EQ(stats.columns[0].max.AsInt(), 99);
  EXPECT_EQ(stats.columns[0].distinct_count, 100);
  EXPECT_EQ(stats.columns[2].distinct_count, 10);
  EXPECT_EQ(stats.columns[0].null_count, 0);
}

TEST(StatsTest, NullCounting) {
  auto table = std::make_shared<Table>("t", ItemsSchema());
  ASSERT_TRUE(table->Insert({Value::Int(1), Value::Null(), Value::Null()}).ok());
  ASSERT_TRUE(
      table->Insert({Value::Int(2), Value::Double(5), Value::Null()}).ok());
  const TableStats& stats = table->Stats();
  EXPECT_EQ(stats.columns[1].null_count, 1);
  EXPECT_EQ(stats.columns[2].null_count, 2);
  EXPECT_TRUE(stats.columns[2].min.is_null());
}

TEST(StatsTest, CachedUntilWrite) {
  auto table = MakeItems(5);
  EXPECT_EQ(table->Stats().row_count, 5);
  ASSERT_TRUE(
      table->Insert({Value::Int(6), Value::Double(0), Value::String("x")})
          .ok());
  EXPECT_EQ(table->Stats().row_count, 6);
}

TEST(StatsTest, SelectivityEstimates) {
  auto table = MakeItems(100);
  const TableStats& stats = table->Stats();
  EXPECT_NEAR(stats.EqSelectivity(0), 0.01, 1e-9);
  EXPECT_NEAR(stats.EqSelectivity(2), 0.1, 1e-9);
  // id < 50 over [0,99] ≈ 0.505
  double sel = stats.RangeSelectivity(0, Value::Int(50), true, false);
  EXPECT_GT(sel, 0.4);
  EXPECT_LT(sel, 0.6);
  // id > 90 ≈ 0.09
  sel = stats.RangeSelectivity(0, Value::Int(90), false, false);
  EXPECT_LT(sel, 0.2);
}

TEST(StorageEngineTest, CreateGetDrop) {
  StorageEngine engine;
  ASSERT_TRUE(engine.CreateTable("orders", ItemsSchema()).ok());
  EXPECT_TRUE(engine.CreateTable("orders", ItemsSchema())
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(engine.GetTable("ORDERS").ok());  // case-insensitive
  EXPECT_TRUE(engine.GetTable("nope").status().IsNotFound());
  ASSERT_TRUE(engine.CreateTable("b", ItemsSchema()).ok());
  auto names = engine.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "b");
  EXPECT_TRUE(engine.DropTable("orders").ok());
  EXPECT_TRUE(engine.DropTable("orders").IsNotFound());
}

}  // namespace
}  // namespace gisql
