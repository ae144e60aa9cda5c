/// \file scan_rows.h
/// \brief Test helper: every present row of a table, all columns
/// decoded, in row-id order — read through the table's one scan entry
/// point.

#pragma once

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "storage/table.h"

namespace gisql {

inline std::vector<Row> ScanRows(Table& table) {
  std::vector<Row> rows;
  const Status st = table.Scan(AllColumns(table.schema()->num_fields()),
                               [&](size_t, Row& row) {
                                 rows.push_back(std::move(row));
                                 return Status::OK();
                               });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return rows;
}

}  // namespace gisql
