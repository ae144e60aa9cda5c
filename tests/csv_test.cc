/// Tests for CSV bulk loading into component sources.

#include <gtest/gtest.h>

#include <sstream>

#include "core/global_system.h"
#include "scan_rows.h"
#include "workload/csv.h"

namespace gisql {
namespace {

TEST(CsvSplitTest, PlainCells) {
  auto cells = *SplitCsvLine("a,b,,d", ',');
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0], "a");
  EXPECT_EQ(cells[2], "");
}

TEST(CsvSplitTest, QuotedCellsWithEscapes) {
  auto cells = *SplitCsvLine("\"a,b\",\"say \"\"hi\"\"\",plain", ',');
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "a,b");
  EXPECT_EQ(cells[1], "say \"hi\"");
  EXPECT_EQ(cells[2], "plain");
}

TEST(CsvSplitTest, AlternateDelimiter) {
  auto cells = *SplitCsvLine("a|b|c", '|');
  EXPECT_EQ(cells.size(), 3u);
}

TEST(CsvSplitTest, MalformedQuoting) {
  EXPECT_TRUE(SplitCsvLine("\"unterminated", ',').status().IsParseError());
  EXPECT_TRUE(SplitCsvLine("ab\"cd", ',').status().IsParseError());
}

class CsvLoadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    src_ = *gis_.CreateSource("s1", SourceDialect::kRelational);
    ASSERT_TRUE(src_->ExecuteLocalSql(
                      "CREATE TABLE people (id bigint, name varchar, "
                      "height double, born date, active boolean)")
                    .ok());
  }
  GlobalSystem gis_;
  ComponentSource* src_ = nullptr;
};

TEST_F(CsvLoadTest, TypedLoadWithHeader) {
  std::istringstream csv(
      "id,name,height,born,active\n"
      "1,Ada,1.65,1815-12-10,true\n"
      "2,\"Hopper, Grace\",1.70,1906-12-09,false\n"
      "3,Edsger,,1930-05-11,1\n");
  auto n = LoadCsv(src_, "people", csv);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 3);

  ASSERT_TRUE(gis_.ImportSource("s1").ok());
  auto r = gis_.Query(
      "SELECT name, YEAR(born) FROM people WHERE active ORDER BY id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->batch.num_rows(), 2u);
  EXPECT_EQ(r->batch.rows()[0][0].AsString(), "Ada");
  EXPECT_EQ(r->batch.rows()[0][1].AsInt(), 1815);
  EXPECT_EQ(r->batch.rows()[1][0].AsString(), "Edsger");

  // The empty height cell loaded as NULL.
  auto nulls = gis_.Query("SELECT COUNT(*) FROM people WHERE height IS NULL");
  ASSERT_TRUE(nulls.ok());
  EXPECT_EQ(nulls->batch.rows()[0][0].AsInt(), 1);
}

TEST_F(CsvLoadTest, ErrorsCarryLineNumbers) {
  std::istringstream bad_arity("id,name,height,born,active\n1,Ada\n");
  auto r1 = LoadCsv(src_, "people", bad_arity);
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("line 2"), std::string::npos);

  std::istringstream bad_type(
      "id,name,height,born,active\nxx,Ada,1.0,1815-12-10,true\n");
  auto r2 = LoadCsv(src_, "people", bad_type);
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("column 'id'"), std::string::npos);

  std::istringstream bad_date(
      "id,name,height,born,active\n1,Ada,1.0,1815-13-99,true\n");
  EXPECT_FALSE(LoadCsv(src_, "people", bad_date).ok());
}

TEST_F(CsvLoadTest, NoHeaderAndCustomNullToken) {
  CsvOptions opts;
  opts.has_header = false;
  opts.null_token = "NA";
  std::istringstream csv("7,Barbara,NA,1928-03-07,true\n");
  auto n = LoadCsv(src_, "people", csv, opts);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 1);
  auto table = *src_->engine().GetTable("people");
  const std::vector<Row> rows = ScanRows(*table);
  EXPECT_TRUE(rows[0][2].is_null());
  EXPECT_EQ(rows[0][1].AsString(), "Barbara");
}

TEST_F(CsvLoadTest, MissingTableAndFile) {
  std::istringstream csv("a\n1\n");
  EXPECT_TRUE(LoadCsv(src_, "ghost", csv).status().IsNotFound());
  EXPECT_TRUE(
      LoadCsvFile(src_, "people", "/nonexistent.csv").status().IsIOError());
}

}  // namespace
}  // namespace gisql
