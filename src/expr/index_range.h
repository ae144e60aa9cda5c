/// \file index_range.h
/// \brief The sargable access-path chooser: which ordered index a
/// filter lets a scan probe, and with what key range.
///
/// One chooser serves every reader of a table that has to find rows by
/// predicate: the decomposer turns a fragment's full scan into an index
/// range scan with it, and a component source's transactional DELETE
/// finds the rows it ends the same way. The filter itself always stays
/// the residual, so the range only has to be implied by it.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "expr/expr.h"
#include "types/value.h"

namespace gisql {

/// \brief A key range on one indexed column; a NULL bound is unbounded.
struct IndexRange {
  int64_t column = -1;
  Value lo, hi;
  bool lo_inclusive = true, hi_inclusive = true;
};

/// \brief Gathers bounds from the sargable conjuncts of `filter`
/// (column <op> non-NULL literal, either operand order) on the
/// `indexed` columns and picks one: a column bounded on both sides
/// wins, ties go to the lowest column. nullopt when no conjunct bounds
/// an indexed column.
std::optional<IndexRange> ChooseIndexRange(
    const ExprPtr& filter, const std::vector<int64_t>& indexed);

}  // namespace gisql
