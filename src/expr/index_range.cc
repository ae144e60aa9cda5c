#include "expr/index_range.h"

#include <algorithm>
#include <map>
#include <utility>

namespace gisql {

namespace {

void TightenLo(IndexRange* b, const Value& v, bool inclusive) {
  const int cmp = b->lo.is_null() ? 1 : v.Compare(b->lo);
  if (cmp > 0) {
    b->lo = v;
    b->lo_inclusive = inclusive;
  } else if (cmp == 0 && !inclusive) {
    b->lo_inclusive = false;
  }
}

void TightenHi(IndexRange* b, const Value& v, bool inclusive) {
  const int cmp = b->hi.is_null() ? -1 : v.Compare(b->hi);
  if (cmp < 0) {
    b->hi = v;
    b->hi_inclusive = inclusive;
  } else if (cmp == 0 && !inclusive) {
    b->hi_inclusive = false;
  }
}

}  // namespace

std::optional<IndexRange> ChooseIndexRange(
    const ExprPtr& filter, const std::vector<int64_t>& indexed) {
  if (!filter || indexed.empty()) return std::nullopt;
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(filter, &conjuncts);
  std::map<int64_t, IndexRange> by_col;
  for (const auto& c : conjuncts) {
    if (c->kind != ExprKind::kCompare) continue;
    CompareOp op = c->compare_op;
    const Expr* l = c->children[0].get();
    const Expr* r = c->children[1].get();
    if (l->kind == ExprKind::kLiteral && r->kind == ExprKind::kColumn) {
      std::swap(l, r);
      op = ReverseCompareOp(op);
    }
    if (l->kind != ExprKind::kColumn || r->kind != ExprKind::kLiteral ||
        r->literal.is_null()) {
      continue;
    }
    const int64_t col = static_cast<int64_t>(l->column_index);
    if (std::find(indexed.begin(), indexed.end(), col) == indexed.end()) {
      continue;
    }
    IndexRange& b = by_col[col];
    b.column = col;
    switch (op) {
      case CompareOp::kEq:
        TightenLo(&b, r->literal, true);
        TightenHi(&b, r->literal, true);
        break;
      case CompareOp::kGt:
        TightenLo(&b, r->literal, false);
        break;
      case CompareOp::kGe:
        TightenLo(&b, r->literal, true);
        break;
      case CompareOp::kLt:
        TightenHi(&b, r->literal, false);
        break;
      case CompareOp::kLe:
        TightenHi(&b, r->literal, true);
        break;
      case CompareOp::kNe:
        break;
    }
  }
  // Prefer a column bounded on both sides; the map's ordering makes
  // ties deterministic.
  const IndexRange* best = nullptr;
  for (const auto& [col, range] : by_col) {
    if (range.lo.is_null() && range.hi.is_null()) continue;
    const bool both = !range.lo.is_null() && !range.hi.is_null();
    const bool best_both =
        best != nullptr && !best->lo.is_null() && !best->hi.is_null();
    if (best == nullptr || (both && !best_both)) best = &range;
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

}  // namespace gisql
