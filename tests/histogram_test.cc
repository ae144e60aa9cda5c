/// Tests for equi-depth histograms: collection, wire transport, and the
/// cost-model accuracy win on skewed data that min/max interpolation
/// cannot capture.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "core/global_system.h"
#include "planner/cost_model.h"
#include "planner/logical_planner.h"
#include "sql/parser.h"
#include "storage/statistics.h"
#include "wire/protocol.h"

namespace gisql {
namespace {

std::vector<Row> SkewedRows(int n) {
  // Exponential-ish skew: 90% of values in [0, 100), tail out to 10000.
  Rng rng(17);
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    int64_t v;
    if (rng.Bernoulli(0.9)) {
      v = rng.Uniform(0, 99);
    } else {
      v = rng.Uniform(100, 10000);
    }
    rows.push_back({Value::Int(v)});
  }
  return rows;
}

TEST(HistogramTest, CollectedForLargeColumns) {
  Schema schema({{"v", TypeId::kInt64}});
  auto stats = CollectStats(schema, SkewedRows(5000));
  ASSERT_EQ(stats.columns[0].histogram_bounds.size(),
            static_cast<size_t>(kHistogramBuckets + 1));
  // Edges are sorted and span [min, max].
  const auto& bounds = stats.columns[0].histogram_bounds;
  EXPECT_EQ(bounds.front().Compare(stats.columns[0].min), 0);
  EXPECT_EQ(bounds.back().Compare(stats.columns[0].max), 0);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LE(bounds[i - 1].Compare(bounds[i]), 0);
  }
}

TEST(HistogramTest, SkippedForSmallOrBoolColumns) {
  Schema schema({{"v", TypeId::kInt64}, {"b", TypeId::kBool}});
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({Value::Int(i), Value::Bool(i % 2 == 0)});
  }
  auto stats = CollectStats(schema, rows);
  EXPECT_TRUE(stats.columns[0].histogram_bounds.empty());
  EXPECT_TRUE(stats.columns[1].histogram_bounds.empty());
}

TEST(HistogramTest, FractionBelowTracksSkew) {
  Schema schema({{"v", TypeId::kInt64}});
  auto rows = SkewedRows(20000);
  auto stats = CollectStats(schema, rows);

  auto actual_below = [&](int64_t b) {
    int64_t n = 0;
    for (const auto& row : rows) {
      if (row[0].AsInt() < b) ++n;
    }
    return static_cast<double>(n) / static_cast<double>(rows.size());
  };
  for (int64_t b : {10, 50, 100, 500, 5000}) {
    const double est = stats.columns[0].FractionBelow(Value::Int(b));
    ASSERT_GE(est, 0.0);
    EXPECT_NEAR(est, actual_below(b), 0.05) << "bound " << b;
  }
  // Min/max interpolation would claim ~1% below 100; the truth is ~90%.
  EXPECT_GT(stats.columns[0].FractionBelow(Value::Int(100)), 0.8);
}

TEST(HistogramTest, FractionBelowEdgeCases) {
  ColumnStats cs;
  EXPECT_LT(cs.FractionBelow(Value::Int(5)), 0.0);  // no histogram
  Schema schema({{"v", TypeId::kInt64}});
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back({Value::Int(i)});
  auto stats = CollectStats(schema, rows);
  const auto& c = stats.columns[0];
  EXPECT_DOUBLE_EQ(c.FractionBelow(Value::Int(-5)), 0.0);
  EXPECT_DOUBLE_EQ(c.FractionBelow(Value::Int(99999)), 1.0);
  EXPECT_NEAR(c.FractionBelow(Value::Int(500)), 0.5, 0.05);
  EXPECT_LT(c.FractionBelow(Value::Null()), 0.0);
}

TEST(HistogramTest, SurvivesWireRoundTrip) {
  Schema schema({{"v", TypeId::kInt64}});
  auto stats = CollectStats(schema, SkewedRows(5000));
  ByteWriter w;
  wire::WriteTableStats(&w, stats);
  ByteReader r(w.data());
  auto back = wire::ReadTableStats(&r);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->columns[0].histogram_bounds.size(),
            stats.columns[0].histogram_bounds.size());
  for (size_t i = 0; i < stats.columns[0].histogram_bounds.size(); ++i) {
    EXPECT_EQ(back->columns[0].histogram_bounds[i].Compare(
                  stats.columns[0].histogram_bounds[i]),
              0);
  }
}

TEST(HistogramTest, PlannerEstimatesImproveOnSkewedData) {
  GlobalSystem gis;
  auto src = *gis.CreateSource("s1", SourceDialect::kRelational);
  ASSERT_TRUE(src->ExecuteLocalSql("CREATE TABLE t (v bigint)").ok());
  {
    auto table = *src->engine().GetTable("t");
    table->InsertUnchecked(SkewedRows(20000));
  }
  ASSERT_TRUE(gis.ImportSource("s1").ok());

  // ~90% of rows have v < 100; min/max interpolation would estimate ~1%.
  CostParams params;
  CostModel cost(gis.catalog(), params);
  LogicalPlanner planner(gis.catalog());
  auto stmt = sql::ParseSelect("SELECT v FROM t WHERE v < 100");
  auto plan = planner.Plan(**stmt);
  ASSERT_TRUE(plan.ok());
  cost.Annotate(*plan);
  double est = -1;
  VisitPlan(*plan, [&](const PlanNodePtr& node) {
    if (node->kind == PlanKind::kFilter) est = node->est_rows;
  });
  ASSERT_GT(est, 0);
  EXPECT_GT(est, 20000 * 0.7);  // histogram sees the skew
  EXPECT_LT(est, 20000 * 0.99);
}

TEST(HistogramTest, StringHistograms) {
  Schema schema({{"s", TypeId::kString}});
  std::vector<Row> rows;
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) {
    // Heavy skew toward strings starting with 'a'.
    std::string v = rng.Bernoulli(0.8) ? "a" + rng.NextString(4)
                                       : rng.NextString(5);
    rows.push_back({Value::String(std::move(v))});
  }
  auto stats = CollectStats(schema, rows);
  ASSERT_FALSE(stats.columns[0].histogram_bounds.empty());
  // ~80%+ of values sort below "b"; bucket counting sees that even
  // without numeric interpolation.
  const double below_b = stats.columns[0].FractionBelow(Value::String("b"));
  EXPECT_GT(below_b, 0.6);
}

/// Histogram edges as the definition reads: every non-null value of
/// the column sorted by Value::Compare, equi-depth positions picked.
std::vector<Value> ReferenceBounds(const std::vector<Row>& rows, size_t c) {
  std::vector<Value> sorted;
  for (const auto& row : rows) {
    if (!row[c].is_null()) sorted.push_back(row[c]);
  }
  if (sorted.size() < 2 * kHistogramBuckets) return {};
  std::sort(sorted.begin(), sorted.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  std::vector<Value> bounds;
  for (int b = 0; b <= kHistogramBuckets; ++b) {
    bounds.push_back(sorted[std::min(
        sorted.size() - 1,
        static_cast<size_t>(b) * sorted.size() / kHistogramBuckets)]);
  }
  return bounds;
}

TEST(HistogramTest, TypedSortMatchesCompareSortReference) {
  // Declared INT64, DATE and STRING columns sort typed keys; the DOUBLE
  // column, a BIGINT column holding dates, and a column mixing the
  // numeric types keep the Compare sort. (Strings stay out of the mixed
  // column: Compare orders them by type id against numbers, which is
  // not a strict weak order once DATE compares numerically.) Every
  // column must equal the reference.
  const Schema schema({{"i", TypeId::kInt64},
                       {"d", TypeId::kDate},
                       {"s", TypeId::kString},
                       {"x", TypeId::kDouble},
                       {"id", TypeId::kInt64},
                       {"m", TypeId::kInt64}});
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const int n = static_cast<int>(rng.Uniform(40, 3000));
    std::vector<Row> rows;
    for (int r = 0; r < n; ++r) {
      auto maybe_null = [&](TypeId type, Value v) {
        return rng.Bernoulli(0.1) ? Value::Null(type) : std::move(v);
      };
      std::string str = rng.NextString(static_cast<size_t>(rng.Uniform(0, 4)));
      if (rng.Bernoulli(0.2)) str += static_cast<char>(0xe9);  // high byte
      Value mixed;
      switch (rng.Uniform(0, 3)) {
        case 0: mixed = Value::Int(rng.Uniform(-5, 5)); break;
        case 1: mixed = Value::Double(static_cast<double>(rng.Uniform(-5, 5)));
          break;
        case 2: mixed = Value::Bool(rng.Bernoulli(0.5)); break;
        default: mixed = Value::Date(rng.Uniform(-5, 5)); break;
      }
      rows.push_back(
          {maybe_null(TypeId::kInt64, Value::Int(rng.Uniform(-1000, 1000))),
           maybe_null(TypeId::kDate, Value::Date(rng.Uniform(0, 20000))),
           maybe_null(TypeId::kString, Value::String(std::move(str))),
           maybe_null(TypeId::kDouble,
                      Value::Double(rng.NextDouble() * 100 - 50)),
           maybe_null(TypeId::kInt64, Value::Date(rng.Uniform(0, 50))),
           maybe_null(TypeId::kInt64, std::move(mixed))});
    }
    const TableStats stats = CollectStats(schema, rows);
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      const std::vector<Value> want = ReferenceBounds(rows, c);
      const std::vector<Value>& got = stats.columns[c].histogram_bounds;
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " col " << c;
      for (size_t b = 0; b < want.size(); ++b) {
        EXPECT_EQ(got[b].Compare(want[b]), 0)
            << "seed " << seed << " col " << c << " edge " << b << ": "
            << got[b].ToString() << " vs " << want[b].ToString();
        // Single-type columns reproduce the edge exactly, type included
        // (the mixed column may pick 1 or 1.0 among equal values).
        if (c + 1 < schema.num_fields()) {
          EXPECT_EQ(got[b].type(), want[b].type()) << "col " << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace gisql
