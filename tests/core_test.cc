/// End-to-end tests of the GlobalSystem mediator: schema import, global
/// queries over heterogeneous autonomous sources, joins, aggregation,
/// union views, EXPLAIN, baselines, and failure behavior.

#include <gtest/gtest.h>

#include "core/global_system.h"

namespace gisql {
namespace {

/// Two-source world: an HQ relational DB and a branch document store.
class TwoSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto hq = *gis_.CreateSource("hq", SourceDialect::kRelational);
    ASSERT_TRUE(hq->ExecuteLocalSql(
                      "CREATE TABLE customers (cid bigint, name varchar, "
                      "region varchar)")
                    .ok());
    ASSERT_TRUE(hq->ExecuteLocalSql(
                      "CREATE TABLE orders (oid bigint, cid bigint, "
                      "total double)")
                    .ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(hq->ExecuteLocalSql(
                        "INSERT INTO customers VALUES (" + std::to_string(i) +
                        ", 'cust" + std::to_string(i) + "', '" +
                        (i % 2 ? "east" : "west") + "')")
                      .ok());
    }
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(hq->ExecuteLocalSql(
                        "INSERT INTO orders VALUES (" + std::to_string(i) +
                        ", " + std::to_string(i % 20) + ", " +
                        std::to_string(i * 1.5) + ")")
                      .ok());
    }
    ASSERT_TRUE(gis_.ImportSource("hq").ok());
  }

  GlobalSystem gis_;
};

TEST_F(TwoSourceTest, ImportPopulatesCatalog) {
  EXPECT_TRUE(gis_.catalog().HasTable("customers"));
  EXPECT_TRUE(gis_.catalog().HasTable("orders"));
  auto t = *gis_.catalog().GetTable("orders");
  EXPECT_EQ(t->stats.row_count, 100);
  EXPECT_EQ(t->schema->num_fields(), 3u);
}

TEST_F(TwoSourceTest, SimpleSelect) {
  auto result = gis_.Query("SELECT name FROM customers WHERE cid = 7");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 1u);
  EXPECT_EQ(result->batch.rows()[0][0].AsString(), "cust7");
  EXPECT_GT(result->metrics.elapsed_ms, 0.0);
  EXPECT_GT(result->metrics.messages, 0);
}

TEST_F(TwoSourceTest, SelectStar) {
  auto result = gis_.Query("SELECT * FROM customers WHERE region = 'east'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->batch.num_rows(), 10u);
  EXPECT_EQ(result->batch.schema()->num_fields(), 3u);
}

TEST_F(TwoSourceTest, ExpressionsAndAliases) {
  auto result = gis_.Query(
      "SELECT oid, total * 1.1 AS taxed FROM orders WHERE oid < 3 "
      "ORDER BY oid");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 3u);
  EXPECT_EQ(result->batch.schema()->field(1).name, "taxed");
  EXPECT_DOUBLE_EQ(result->batch.rows()[2][1].AsDouble(), 2 * 1.5 * 1.1);
}

TEST_F(TwoSourceTest, JoinAcrossTables) {
  auto result = gis_.Query(
      "SELECT c.name, o.total FROM customers c JOIN orders o "
      "ON c.cid = o.cid WHERE o.total > 140 ORDER BY o.total DESC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // totals: i*1.5 > 140 → i in (93..99) plus 94.. → 99,98,...,94 → 6 rows
  ASSERT_EQ(result->batch.num_rows(), 6u);
  EXPECT_DOUBLE_EQ(result->batch.rows()[0][1].AsDouble(), 99 * 1.5);
  EXPECT_EQ(result->batch.rows()[0][0].AsString(), "cust19");
}

TEST_F(TwoSourceTest, CommaJoinWithWherePredicates) {
  auto result = gis_.Query(
      "SELECT c.name FROM customers c, orders o "
      "WHERE c.cid = o.cid AND o.oid = 42");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 1u);
  EXPECT_EQ(result->batch.rows()[0][0].AsString(), "cust2");
}

TEST_F(TwoSourceTest, LeftJoinPreservesUnmatched) {
  auto hq = *gis_.GetSource("hq");
  ASSERT_TRUE(
      hq->ExecuteLocalSql("INSERT INTO customers VALUES (999, 'ghost', "
                          "'north')")
          .ok());
  ASSERT_TRUE(gis_.RefreshStats("customers").ok());
  auto result = gis_.Query(
      "SELECT c.name, o.oid FROM customers c LEFT JOIN orders o "
      "ON c.cid = o.cid WHERE c.cid = 999");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 1u);
  EXPECT_EQ(result->batch.rows()[0][0].AsString(), "ghost");
  EXPECT_TRUE(result->batch.rows()[0][1].is_null());
}

TEST_F(TwoSourceTest, GroupByWithAggregates) {
  auto result = gis_.Query(
      "SELECT c.region, COUNT(*), SUM(o.total), AVG(o.total) "
      "FROM customers c JOIN orders o ON c.cid = o.cid "
      "GROUP BY c.region ORDER BY c.region");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 2u);
  const auto& east = result->batch.rows()[0];
  EXPECT_EQ(east[0].AsString(), "east");
  EXPECT_EQ(east[1].AsInt(), 50);
  // east = odd cid → orders where (i%20) odd → i odd → sum of odd i*1.5
  double sum_east = 0;
  for (int i = 1; i < 100; i += 2) sum_east += i * 1.5;
  EXPECT_DOUBLE_EQ(east[2].AsDouble(), sum_east);
  EXPECT_DOUBLE_EQ(east[3].AsDouble(), sum_east / 50.0);
}

TEST_F(TwoSourceTest, GlobalAggregateNoGroups) {
  auto result = gis_.Query("SELECT COUNT(*), MAX(total) FROM orders");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 1u);
  EXPECT_EQ(result->batch.rows()[0][0].AsInt(), 100);
  EXPECT_DOUBLE_EQ(result->batch.rows()[0][1].AsDouble(), 99 * 1.5);
}

TEST_F(TwoSourceTest, GlobalAggregateOnEmptyResult) {
  auto result =
      gis_.Query("SELECT COUNT(*), SUM(total) FROM orders WHERE oid > 1000");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 1u);
  EXPECT_EQ(result->batch.rows()[0][0].AsInt(), 0);
  EXPECT_TRUE(result->batch.rows()[0][1].is_null());
}

TEST_F(TwoSourceTest, HavingFiltersGroups) {
  auto result = gis_.Query(
      "SELECT cid, COUNT(*) AS n FROM orders GROUP BY cid "
      "HAVING COUNT(*) >= 5 ORDER BY cid");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->batch.num_rows(), 20u);  // every cid has exactly 5
  auto result2 = gis_.Query(
      "SELECT cid FROM orders GROUP BY cid HAVING COUNT(*) > 5");
  ASSERT_TRUE(result2.ok());
  EXPECT_EQ(result2->batch.num_rows(), 0u);
}

TEST_F(TwoSourceTest, CountDistinct) {
  auto result = gis_.Query("SELECT COUNT(DISTINCT region) FROM customers");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->batch.rows()[0][0].AsInt(), 2);
}

TEST_F(TwoSourceTest, DistinctSelect) {
  auto result =
      gis_.Query("SELECT DISTINCT region FROM customers ORDER BY region");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 2u);
  EXPECT_EQ(result->batch.rows()[0][0].AsString(), "east");
}

TEST_F(TwoSourceTest, OrderByLimitOffset) {
  auto result = gis_.Query(
      "SELECT oid FROM orders ORDER BY total DESC LIMIT 3 OFFSET 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 3u);
  EXPECT_EQ(result->batch.rows()[0][0].AsInt(), 98);
  EXPECT_EQ(result->batch.rows()[2][0].AsInt(), 96);
}

TEST_F(TwoSourceTest, OrderByHiddenColumn) {
  // ORDER BY a column not in the select list.
  auto result =
      gis_.Query("SELECT name FROM customers ORDER BY cid DESC LIMIT 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 2u);
  EXPECT_EQ(result->batch.rows()[0][0].AsString(), "cust19");
  EXPECT_EQ(result->batch.schema()->num_fields(), 1u);  // hidden dropped
}

TEST_F(TwoSourceTest, DerivedTable) {
  auto result = gis_.Query(
      "SELECT big.oid FROM (SELECT oid, total FROM orders "
      "WHERE total > 100) AS big WHERE big.oid % 2 = 0 ORDER BY big.oid");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // total > 100 → i >= 67; even → 68, 70, ..., 98 → 16 rows
  EXPECT_EQ(result->batch.num_rows(), 16u);
  EXPECT_EQ(result->batch.rows()[0][0].AsInt(), 68);
}

TEST_F(TwoSourceTest, SelectWithoutFrom) {
  auto result = gis_.Query("SELECT 1 + 1 AS two, 'x' AS tag");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 1u);
  EXPECT_EQ(result->batch.rows()[0][0].AsInt(), 2);
  EXPECT_EQ(result->batch.rows()[0][1].AsString(), "x");
  EXPECT_EQ(result->metrics.messages, 0);  // no network traffic
}

TEST_F(TwoSourceTest, CaseAndFunctions) {
  auto result = gis_.Query(
      "SELECT UPPER(name), CASE WHEN total > 100 THEN 'big' ELSE 'small' "
      "END AS size FROM customers c JOIN orders o ON c.cid = o.cid "
      "WHERE o.oid = 99");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 1u);
  EXPECT_EQ(result->batch.rows()[0][0].AsString(), "CUST19");
  EXPECT_EQ(result->batch.rows()[0][1].AsString(), "big");
}

TEST_F(TwoSourceTest, ExplainShowsFragments) {
  auto text = gis_.Explain(
      "SELECT name FROM customers WHERE region = 'east'");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("RemoteFragment"), std::string::npos);
  EXPECT_NE(text->find("@hq"), std::string::npos);
  // Filter was pushed into the fragment (relational source).
  EXPECT_NE(text->find("WHERE"), std::string::npos);
  EXPECT_EQ(text->find("\nFilter"), std::string::npos);
}

TEST_F(TwoSourceTest, ExplainStatement) {
  auto result = gis_.Query("EXPLAIN SELECT * FROM orders");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->batch.num_rows(), 1u);
  EXPECT_NE(result->batch.rows()[0][0].AsString().find("RemoteFragment"),
            std::string::npos);
}

TEST_F(TwoSourceTest, ExplainAnalyzeReportsActuals) {
  auto result = gis_.Query(
      "EXPLAIN ANALYZE SELECT region, COUNT(*) FROM customers "
      "GROUP BY region");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string text = result->batch.rows()[0][0].AsString();
  EXPECT_NE(text.find("actual_rows="), std::string::npos);
  EXPECT_NE(text.find("actual_ms="), std::string::npos);
  EXPECT_NE(text.find("Total: 2 row(s)"), std::string::npos);
  EXPECT_GT(result->metrics.elapsed_ms, 0.0);
}

TEST_F(TwoSourceTest, PlainExplainHasNoActuals) {
  auto result = gis_.Query("EXPLAIN SELECT * FROM customers");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->batch.rows()[0][0].AsString().find("actual_rows"),
            std::string::npos);
}

TEST_F(TwoSourceTest, PushdownReducesBytes) {
  const std::string q = "SELECT name FROM customers WHERE cid = 3";
  auto full = gis_.Query(q);
  ASSERT_TRUE(full.ok());

  GlobalSystem::kMediatorHost;  // silence unused warning paths
  gis_.set_options(PlannerOptions::ShipEverything());
  auto ship = gis_.Query(q);
  ASSERT_TRUE(ship.ok());
  gis_.set_options(PlannerOptions::Full());

  // Same answer.
  ASSERT_EQ(full->batch.num_rows(), ship->batch.num_rows());
  EXPECT_EQ(full->batch.rows()[0][0].AsString(),
            ship->batch.rows()[0][0].AsString());
  // Far fewer bytes with pushdown.
  EXPECT_LT(full->metrics.bytes_received, ship->metrics.bytes_received / 2);
  EXPECT_LT(full->metrics.elapsed_ms, ship->metrics.elapsed_ms);
}

TEST_F(TwoSourceTest, AggregatePushdownReducesBytes) {
  const std::string q =
      "SELECT cid, SUM(total) FROM orders GROUP BY cid";
  auto full = gis_.Query(q);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  PlannerOptions no_agg;
  no_agg.enable_aggregate_pushdown = false;
  gis_.set_options(no_agg);
  auto central = gis_.Query(q);
  ASSERT_TRUE(central.ok());
  gis_.set_options(PlannerOptions::Full());

  ASSERT_EQ(full->batch.num_rows(), central->batch.num_rows());
  EXPECT_LE(full->metrics.bytes_received, central->metrics.bytes_received);
}

TEST_F(TwoSourceTest, MediatorRejectsDdl) {
  EXPECT_TRUE(gis_.Query("CREATE TABLE t (a bigint)")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      gis_.Query("INSERT INTO orders VALUES (1, 1, 1.0)")
          .status()
          .IsInvalidArgument());
}

TEST_F(TwoSourceTest, UnknownTableIsBindError) {
  EXPECT_TRUE(gis_.Query("SELECT * FROM ghosts").status().IsBindError());
  EXPECT_TRUE(gis_.Query("SELECT ghost FROM orders").status().IsBindError());
}

TEST_F(TwoSourceTest, SourceFailureSurfacesAsNetworkError) {
  gis_.network().SetHostDown("hq", true);
  EXPECT_TRUE(
      gis_.Query("SELECT * FROM orders").status().IsNetworkError());
  gis_.network().SetHostDown("hq", false);
  EXPECT_TRUE(gis_.Query("SELECT * FROM orders").ok());
}

TEST_F(TwoSourceTest, PushedDownFilterErrorSurfacesUnchanged) {
  // The WHERE ships to hq and divides by zero at oid 50, mid-table: the
  // statement fails with the source's evaluator error.
  const std::string sql = "SELECT oid FROM orders WHERE 10 / (oid - 50) > 0";
  auto plan = gis_.Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("WHERE"), std::string::npos);
  EXPECT_EQ(plan->find("\nFilter"), std::string::npos);
  auto result = gis_.Query(sql);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsExecutionError())
      << result.status().ToString();
  EXPECT_EQ(result.status().message(), "division by zero");
}

TEST_F(TwoSourceTest, DuplicateSourceRejected) {
  EXPECT_TRUE(gis_.CreateSource("hq", SourceDialect::kLegacy)
                  .status()
                  .IsAlreadyExists());
}

/// Heterogeneous world: four dialects holding union-compatible shards.
class FederationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const SourceDialect dialects[] = {
        SourceDialect::kRelational, SourceDialect::kDocument,
        SourceDialect::kKeyValue, SourceDialect::kLegacy};
    for (int s = 0; s < 4; ++s) {
      std::string name = "site" + std::to_string(s);
      auto src = *gis_.CreateSource(name, dialects[s]);
      ASSERT_TRUE(src->ExecuteLocalSql(
                        "CREATE TABLE sales (sid bigint, amount double, "
                        "item varchar)")
                      .ok());
      auto table = *src->engine().GetTable("sales");
      std::vector<Row> rows;
      for (int i = 0; i < 50; ++i) {
        rows.push_back({Value::Int(s * 1000 + i),
                        Value::Double((s + 1) * 10.0 + i),
                        Value::String("item" + std::to_string(i % 5))});
      }
      table->InsertUnchecked(std::move(rows));
      ASSERT_TRUE(
          gis_.ImportTable(name, "sales", "sales_" + name).ok());
    }
    ASSERT_TRUE(gis_.CreateUnionView(
                       "all_sales", {"sales_site0", "sales_site1",
                                     "sales_site2", "sales_site3"})
                    .ok());
  }

  GlobalSystem gis_;
};

TEST_F(FederationTest, UnionViewScansAllSources) {
  auto result = gis_.Query("SELECT COUNT(*) FROM all_sales");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->batch.rows()[0][0].AsInt(), 200);
}

TEST_F(FederationTest, FilterOverHeterogeneousView) {
  // site0 (relational) and site1 (document) evaluate the filter locally;
  // site2 (kv) and site3 (legacy) ship rows for mediator compensation.
  auto result =
      gis_.Query("SELECT sid FROM all_sales WHERE amount > 55 ORDER BY sid");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  int64_t expected = 0;
  for (int s = 0; s < 4; ++s) {
    for (int i = 0; i < 50; ++i) {
      if ((s + 1) * 10.0 + i > 55) ++expected;
    }
  }
  EXPECT_EQ(static_cast<int64_t>(result->batch.num_rows()), expected);

  auto text = *gis_.Explain(
      "SELECT sid FROM all_sales WHERE amount > 55");
  // Mediator-side Filter exists for the incapable sources.
  EXPECT_NE(text.find("Filter"), std::string::npos);
  // And at least one fragment carries the pushed filter.
  EXPECT_NE(text.find("WHERE"), std::string::npos);
}

TEST_F(FederationTest, AggregateOverView) {
  auto result = gis_.Query(
      "SELECT item, COUNT(*) AS n, SUM(amount) FROM all_sales "
      "GROUP BY item ORDER BY item");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 5u);
  int64_t total = 0;
  for (const auto& row : result->batch.rows()) total += row[1].AsInt();
  EXPECT_EQ(total, 200);
}

TEST_F(FederationTest, JoinViewWithTable) {
  auto ref = *gis_.CreateSource("refdata", SourceDialect::kRelational);
  ASSERT_TRUE(ref->ExecuteLocalSql(
                    "CREATE TABLE items (item varchar, category varchar)")
                  .ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ref->ExecuteLocalSql(
                      "INSERT INTO items VALUES ('item" + std::to_string(i) +
                      "', 'cat" + std::to_string(i % 2) + "')")
                    .ok());
  }
  ASSERT_TRUE(gis_.ImportSource("refdata").ok());
  auto result = gis_.Query(
      "SELECT i.category, COUNT(*) FROM all_sales s JOIN items i "
      "ON s.item = i.item GROUP BY i.category ORDER BY i.category");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 2u);
  // cat0 ← item0, item2, item4 → 3 of 5 shards of each site's 50 rows:
  // each site: items 0..4 repeat 10 times each → cat0 30 rows/site.
  EXPECT_EQ(result->batch.rows()[0][1].AsInt(), 120);
  EXPECT_EQ(result->batch.rows()[1][1].AsInt(), 80);
}

TEST_F(FederationTest, ScaleOutParallelism) {
  // Fetching the view costs roughly the max of the member fetches, not
  // the sum: compare one-member vs four-member query latency.
  auto one = gis_.Query("SELECT COUNT(*) FROM sales_site0");
  auto all = gis_.Query("SELECT COUNT(*) FROM all_sales");
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(all.ok());
  EXPECT_LT(all->metrics.elapsed_ms, one->metrics.elapsed_ms * 3.0);
}

TEST_F(FederationTest, UnionViewRequiresCompatibleMembers) {
  auto odd = *gis_.CreateSource("odd", SourceDialect::kRelational);
  ASSERT_TRUE(odd->ExecuteLocalSql("CREATE TABLE sales (x varchar)").ok());
  ASSERT_TRUE(gis_.ImportTable("odd", "sales", "odd_sales").ok());
  EXPECT_TRUE(gis_.CreateUnionView("bad", {"sales_site0", "odd_sales"})
                  .IsInvalidArgument());
}

/// Semijoin behavior.
class SemijoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto a = *gis_.CreateSource("a", SourceDialect::kRelational);
    auto b = *gis_.CreateSource("b", SourceDialect::kRelational);
    // Small dimension at a, big fact at b.
    ASSERT_TRUE(
        a->ExecuteLocalSql("CREATE TABLE dim (k bigint, tag varchar)").ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(a->ExecuteLocalSql(
                        "INSERT INTO dim VALUES (" + std::to_string(i * 100) +
                        ", 'tag" + std::to_string(i) + "')")
                      .ok());
    }
    ASSERT_TRUE(
        b->ExecuteLocalSql("CREATE TABLE fact (k bigint, v double)").ok());
    auto fact = *b->engine().GetTable("fact");
    std::vector<Row> rows;
    for (int i = 0; i < 2000; ++i) {
      rows.push_back({Value::Int(i), Value::Double(i * 0.5)});
    }
    fact->InsertUnchecked(std::move(rows));
    ASSERT_TRUE(gis_.ImportSource("a").ok());
    ASSERT_TRUE(gis_.ImportSource("b").ok());
  }

  GlobalSystem gis_;
};

TEST_F(SemijoinTest, SemijoinReducesTraffic) {
  const std::string q =
      "SELECT d.tag, f.v FROM dim d JOIN fact f ON d.k = f.k";
  auto semi = gis_.Query(q);
  ASSERT_TRUE(semi.ok()) << semi.status().ToString();
  ASSERT_EQ(semi->batch.num_rows(), 5u);

  PlannerOptions no_semi;
  no_semi.enable_semijoin = false;
  gis_.set_options(no_semi);
  auto ship = gis_.Query(q);
  ASSERT_TRUE(ship.ok());
  gis_.set_options(PlannerOptions::Full());

  ASSERT_EQ(ship->batch.num_rows(), 5u);
  EXPECT_LT(semi->metrics.bytes_received,
            ship->metrics.bytes_received / 10);

  auto text = *gis_.Explain(q);
  EXPECT_NE(text.find("semijoin-reduced"), std::string::npos);
}

TEST_F(SemijoinTest, SemijoinSkippedWhenKeysDominate) {
  // Join where the build side has as many distinct keys as the probe:
  // the cost model should choose ship.
  auto text = *gis_.Explain(
      "SELECT * FROM fact f1 JOIN fact f2 ON f1.k = f2.k");
  EXPECT_EQ(text.find("semijoin-reduced"), std::string::npos);
}

}  // namespace
}  // namespace gisql
