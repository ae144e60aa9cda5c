#include "storage/statistics.h"

#include <algorithm>
#include <sstream>
#include <string_view>
#include <unordered_set>

namespace gisql {

double ColumnStats::FractionBelow(const Value& v) const {
  if (histogram_bounds.size() < 2 || v.is_null()) return -1.0;
  const size_t buckets = histogram_bounds.size() - 1;
  if (v.Compare(histogram_bounds.front()) <= 0) return 0.0;
  if (v.Compare(histogram_bounds.back()) > 0) return 1.0;
  for (size_t b = 0; b < buckets; ++b) {
    const Value& lo = histogram_bounds[b];
    const Value& hi = histogram_bounds[b + 1];
    if (v.Compare(hi) > 0) continue;
    double within = 0.5;  // midpoint when we cannot interpolate
    if (IsNumeric(v.type()) && IsNumeric(lo.type()) &&
        hi.NumericValue() > lo.NumericValue()) {
      within = (v.NumericValue() - lo.NumericValue()) /
               (hi.NumericValue() - lo.NumericValue());
      within = std::clamp(within, 0.0, 1.0);
    }
    return (static_cast<double>(b) + within) /
           static_cast<double>(buckets);
  }
  return 1.0;
}

std::string ColumnStats::ToString() const {
  std::ostringstream oss;
  oss << "{min=" << min.ToString() << ", max=" << max.ToString()
      << ", nulls=" << null_count << ", ndv=" << distinct_count
      << (histogram_bounds.empty() ? "" : ", hist") << "}";
  return oss.str();
}

double TableStats::EqSelectivity(size_t col) const {
  if (row_count == 0) return 0.0;
  if (col >= columns.size() || columns[col].distinct_count <= 0) {
    return 0.1;  // default guess
  }
  return 1.0 / static_cast<double>(columns[col].distinct_count);
}

double TableStats::RangeSelectivity(size_t col, const Value& bound,
                                    bool less_than, bool inclusive) const {
  if (row_count == 0) return 0.0;
  if (col >= columns.size()) return 1.0 / 3.0;
  const ColumnStats& cs = columns[col];
  if (cs.min.is_null() || cs.max.is_null() || bound.is_null() ||
      !IsNumeric(bound.type()) || !IsNumeric(cs.min.type())) {
    return 1.0 / 3.0;
  }
  const double lo = cs.min.NumericValue();
  const double hi = cs.max.NumericValue();
  const double b = bound.NumericValue();
  // Inverted bounds are corrupt statistics — default guess. A
  // single-point column (hi == lo) is exact: every row holds `lo`, so
  // the range predicate is satisfied by all rows or by none. (The old
  // expression here parsed as `((b >= lo) == less_than) || b == lo`
  // thanks to comparison-over-equality precedence and answered 1.0 for
  // provably-empty ranges.)
  if (hi < lo) return 1.0 / 3.0;
  if (hi == lo) {
    const bool satisfied = less_than ? (inclusive ? b >= lo : b > lo)
                                     : (inclusive ? b <= lo : b < lo);
    return satisfied ? 1.0 : 0.0;
  }
  double frac = (b - lo) / (hi - lo);
  if (!less_than) frac = 1.0 - frac;
  // Nudge for inclusivity at one-point granularity.
  if (inclusive && cs.distinct_count > 0) {
    frac += 1.0 / static_cast<double>(cs.distinct_count);
  }
  if (frac < 0.0) frac = 0.0;
  if (frac > 1.0) frac = 1.0;
  return frac;
}

std::string TableStats::ToString() const {
  std::ostringstream oss;
  oss << "rows=" << row_count << " [";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i) oss << ", ";
    oss << i << ":" << columns[i].ToString();
  }
  oss << "]";
  return oss.str();
}

namespace {

/// kHistogramBuckets + 1 equi-depth edges over `sorted` (non-empty).
template <typename T, typename MakeValue>
std::vector<Value> EquiDepthEdges(const std::vector<T>& sorted,
                                  MakeValue make_value) {
  std::vector<Value> bounds;
  bounds.reserve(kHistogramBuckets + 1);
  for (int b = 0; b <= kHistogramBuckets; ++b) {
    const size_t idx = std::min(
        sorted.size() - 1,
        static_cast<size_t>(b) * sorted.size() / kHistogramBuckets);
    bounds.push_back(make_value(sorted[idx]));
  }
  return bounds;
}

/// Histogram edges of column `c` (`non_null` > 0 non-null values).
/// When every non-null value has the declared INT64, DATE or STRING
/// type, the sort runs over plain keys; any other column sorts Value
/// pointers by Compare. Both orders agree on such columns, so the edges
/// are the same either way.
std::vector<Value> HistogramBounds(const std::vector<Row>& rows, size_t c,
                                   TypeId type, size_t non_null) {
  auto non_null_cells = [&](auto&& fn) {
    for (const auto& row : rows) {
      if (c < row.size() && !row[c].is_null()) fn(row[c]);
    }
  };
  bool typed = type == TypeId::kInt64 || type == TypeId::kDate ||
               type == TypeId::kString;
  non_null_cells([&](const Value& v) { typed = typed && v.type() == type; });
  if (typed && type == TypeId::kString) {
    std::vector<std::string_view> keys;
    keys.reserve(non_null);
    non_null_cells([&](const Value& v) { keys.push_back(v.AsString()); });
    std::sort(keys.begin(), keys.end());
    return EquiDepthEdges(keys, [](std::string_view k) {
      return Value::String(std::string(k));
    });
  }
  if (typed) {
    std::vector<int64_t> keys;
    keys.reserve(non_null);
    non_null_cells([&](const Value& v) { keys.push_back(v.AsInt()); });
    std::sort(keys.begin(), keys.end());
    return EquiDepthEdges(keys, [type](int64_t k) {
      return type == TypeId::kDate ? Value::Date(k) : Value::Int(k);
    });
  }
  std::vector<const Value*> sorted;
  sorted.reserve(non_null);
  non_null_cells([&](const Value& v) { sorted.push_back(&v); });
  std::sort(sorted.begin(), sorted.end(),
            [](const Value* a, const Value* b) { return a->Compare(*b) < 0; });
  return EquiDepthEdges(sorted, [](const Value* v) { return *v; });
}

}  // namespace

TableStats CollectStats(const Schema& schema, const std::vector<Row>& rows) {
  TableStats stats;
  stats.row_count = static_cast<int64_t>(rows.size());
  const size_t ncols = schema.num_fields();
  stats.columns.resize(ncols);
  std::vector<std::unordered_set<uint64_t>> distinct(ncols);
  std::vector<int64_t> width_sums(ncols, 0);
  for (const auto& row : rows) {
    for (size_t c = 0; c < ncols && c < row.size(); ++c) {
      ColumnStats& cs = stats.columns[c];
      const Value& v = row[c];
      if (v.is_null()) {
        ++cs.null_count;
        continue;
      }
      if (cs.min.is_null() || v.Compare(cs.min) < 0) cs.min = v;
      if (cs.max.is_null() || v.Compare(cs.max) > 0) cs.max = v;
      distinct[c].insert(v.Hash());
      width_sums[c] += v.WireSize();
    }
  }
  for (size_t c = 0; c < ncols; ++c) {
    stats.columns[c].distinct_count =
        static_cast<int64_t>(distinct[c].size());
    const int64_t non_null = stats.row_count - stats.columns[c].null_count;
    stats.columns[c].avg_width =
        non_null > 0 ? static_cast<double>(width_sums[c]) /
                           static_cast<double>(non_null)
                     : static_cast<double>(EstimatedWireSize(
                           schema.field(c).type));
    // Equi-depth histogram for orderable columns with enough values.
    if (non_null >= kHistogramBuckets * 2 &&
        schema.field(c).type != TypeId::kBool) {
      stats.columns[c].histogram_bounds =
          HistogramBounds(rows, c, schema.field(c).type,
                          static_cast<size_t>(non_null));
    }
  }
  return stats;
}

}  // namespace gisql
