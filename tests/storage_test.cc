#include <gtest/gtest.h>
#include <cstdio>

#include "catalog/schema.h"
#include "catalog/types.h"
#include "storage/column.h"
#include "storage/csv.h"
#include "storage/database.h"
#include "storage/index.h"
#include "storage/table.h"
#include "storage/value.h"

namespace zerodb::storage {
namespace {

using catalog::ColumnSchema;
using catalog::DataType;
using catalog::ForeignKey;
using catalog::TableSchema;

TableSchema PeopleSchema() {
  return TableSchema("people", {ColumnSchema{"id", DataType::kInt64, 8},
                                ColumnSchema{"age", DataType::kInt64, 8},
                                ColumnSchema{"height", DataType::kDouble, 8},
                                ColumnSchema{"city", DataType::kString, 10}});
}

Table MakePeople() {
  Table table(PeopleSchema());
  const int64_t ages[] = {30, 40, 25, 30, 55};
  const double heights[] = {1.7, 1.8, 1.6, 1.75, 1.9};
  const char* cities[] = {"berlin", "paris", "berlin", "rome", "paris"};
  for (int i = 0; i < 5; ++i) {
    table.column(0).AppendInt64(i);
    table.column(1).AppendInt64(ages[i]);
    table.column(2).AppendDouble(heights[i]);
    table.column(3).AppendString(cities[i]);
  }
  return table;
}

TEST(TypesTest, NamesAndWidths) {
  EXPECT_STREQ(catalog::DataTypeName(DataType::kInt64), "int64");
  EXPECT_STREQ(catalog::DataTypeName(DataType::kString), "string");
  EXPECT_EQ(catalog::FixedWidthBytes(DataType::kInt64), 8);
  EXPECT_EQ(catalog::FixedWidthBytes(DataType::kDouble), 8);
  EXPECT_EQ(catalog::FixedWidthBytes(DataType::kString), 4);
}

TEST(ValueTest, Variants) {
  Value i(int64_t{42});
  Value d(2.5);
  Value s(std::string("abc"));
  EXPECT_TRUE(i.is_int64());
  EXPECT_EQ(i.AsInt64(), 42);
  EXPECT_DOUBLE_EQ(i.AsNumeric(), 42.0);
  EXPECT_DOUBLE_EQ(d.AsNumeric(), 2.5);
  EXPECT_EQ(s.AsString(), "abc");
  EXPECT_EQ(i.ToString(), "42");
  EXPECT_EQ(s.ToString(), "'abc'");
  EXPECT_TRUE(Value(int64_t{1}) == Value(int64_t{1}));
  EXPECT_FALSE(Value(int64_t{1}) == Value(1.0));
}

TEST(ColumnTest, IntAndDouble) {
  Column ints(DataType::kInt64);
  ints.AppendInt64(7);
  ints.AppendInt64(-3);
  EXPECT_EQ(ints.size(), 2u);
  EXPECT_EQ(ints.GetValue(0).AsInt64(), 7);
  EXPECT_DOUBLE_EQ(ints.GetNumeric(1), -3.0);

  Column doubles(DataType::kDouble);
  doubles.AppendDouble(1.5);
  EXPECT_DOUBLE_EQ(doubles.GetNumeric(0), 1.5);
  EXPECT_EQ(doubles.AvgWidthBytes(), 8);
}

TEST(ColumnTest, StringDictionary) {
  Column strings(DataType::kString);
  strings.AppendString("aa");
  strings.AppendString("bb");
  strings.AppendString("aa");
  EXPECT_EQ(strings.size(), 3u);
  EXPECT_EQ(strings.dictionary_size(), 2u);
  EXPECT_EQ(strings.GetValue(2).AsString(), "aa");
  EXPECT_EQ(strings.ints()[0], strings.ints()[2]);
  auto code = strings.LookupCode("bb");
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(*code, 1);
  EXPECT_FALSE(strings.LookupCode("zz").ok());
}

TEST(ColumnTest, BulkDictionaryLoad) {
  Column strings(DataType::kString);
  strings.SetDictionary({"x", "y", "z"});
  strings.AppendStringCode(2);
  strings.AppendStringCode(0);
  EXPECT_EQ(strings.GetValue(0).AsString(), "z");
  EXPECT_EQ(strings.GetValue(1).AsString(), "x");
}

TEST(SchemaTest, FindColumnAndWidth) {
  TableSchema schema = PeopleSchema();
  EXPECT_EQ(schema.num_columns(), 4u);
  EXPECT_EQ(*schema.FindColumn("age"), 1u);
  EXPECT_FALSE(schema.FindColumn("nope").has_value());
  EXPECT_EQ(schema.RowWidthBytes(), 8 + 8 + 8 + 10);
}

TEST(TableTest, RowsPagesAndValidate) {
  Table table = MakePeople();
  EXPECT_EQ(table.num_rows(), 5u);
  EXPECT_EQ(table.NumPages(), 1);  // tiny table still occupies one page
  EXPECT_TRUE(table.Validate().ok());
  auto index = table.ColumnIndex("height");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(*index, 2u);
  EXPECT_FALSE(table.ColumnIndex("missing").ok());
}

TEST(TableTest, PagesGrowWithRows) {
  Table table(TableSchema("wide", {ColumnSchema{"a", DataType::kInt64, 8},
                                   ColumnSchema{"b", DataType::kInt64, 8}}));
  for (int i = 0; i < 10000; ++i) {
    table.column(0).AppendInt64(i);
    table.column(1).AppendInt64(i);
  }
  // 10000 rows * 16 bytes = 160000 bytes / 8192 => 20 pages.
  EXPECT_EQ(table.NumPages(), 20);
}

TEST(CatalogTest, ForeignKeys) {
  catalog::Catalog cat;
  ASSERT_TRUE(cat.AddTable(PeopleSchema()).ok());
  ASSERT_TRUE(cat.AddTable(TableSchema(
                               "orders",
                               {ColumnSchema{"id", DataType::kInt64, 8},
                                ColumnSchema{"people_id", DataType::kInt64, 8}}))
                  .ok());
  EXPECT_FALSE(cat.AddTable(PeopleSchema()).ok());  // duplicate

  ASSERT_TRUE(
      cat.AddForeignKey(ForeignKey{"orders", "people_id", "people", "id"})
          .ok());
  EXPECT_FALSE(
      cat.AddForeignKey(ForeignKey{"orders", "nope", "people", "id"}).ok());
  EXPECT_FALSE(
      cat.AddForeignKey(ForeignKey{"missing", "x", "people", "id"}).ok());

  EXPECT_EQ(cat.JoinEdgesFor("people").size(), 1u);
  EXPECT_EQ(cat.JoinEdgesFor("orders").size(), 1u);
}

TEST(DatabaseTest, AddFindTables) {
  Database db("test");
  ASSERT_TRUE(db.AddTable(MakePeople()).ok());
  EXPECT_NE(db.FindTable("people"), nullptr);
  EXPECT_EQ(db.FindTable("ghost"), nullptr);
  EXPECT_FALSE(db.GetTable("ghost").ok());
  EXPECT_EQ(db.TotalRows(), 5);
  EXPECT_FALSE(db.AddTable(MakePeople()).ok());  // duplicate schema
}

TEST(DatabaseTest, CreateAndFindIndex) {
  Database db("test");
  ASSERT_TRUE(db.AddTable(MakePeople()).ok());
  ASSERT_TRUE(db.CreateIndex("people", "age").ok());
  EXPECT_FALSE(db.CreateIndex("people", "age").ok());   // duplicate
  EXPECT_FALSE(db.CreateIndex("ghost", "age").ok());    // missing table
  EXPECT_FALSE(db.CreateIndex("people", "ghost").ok()); // missing column
  EXPECT_NE(db.FindIndex("people", 1), nullptr);
  EXPECT_EQ(db.FindIndex("people", 0), nullptr);
  db.DropAllIndexes();
  EXPECT_EQ(db.FindIndex("people", 1), nullptr);
}

TEST(IndexTest, RangeLookup) {
  Table table = MakePeople();
  OrderedIndex index = OrderedIndex::Build("people", table, 1);  // age
  EXPECT_EQ(index.num_entries(), 5u);
  EXPECT_GE(index.EstimatedHeight(), 1);

  std::vector<uint32_t> rows;
  EXPECT_EQ(index.LookupRange(30, 40, &rows), 3u);  // ages 30, 30, 40
  rows.clear();
  EXPECT_EQ(index.LookupEqual(30, &rows), 2u);
  rows.clear();
  EXPECT_EQ(index.LookupRange(100, 200, &rows), 0u);
  EXPECT_EQ(index.LookupRange(50, 20, &rows), 0u);  // inverted range
}

TEST(IndexTest, LookupReturnsCorrectRows) {
  Table table = MakePeople();
  OrderedIndex index = OrderedIndex::Build("people", table, 1);
  std::vector<uint32_t> rows;
  index.LookupEqual(25, &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 2u);
}

TEST(CsvTest, RoundTrip) {
  Table table = MakePeople();
  std::string path = testing::TempDir() + "/zdb_people.csv";
  ASSERT_TRUE(SaveCsv(table, path).ok());
  auto loaded = LoadCsv(path, PeopleSchema());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_rows(), table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      EXPECT_TRUE(loaded->column(c).GetValue(r) ==
                  table.column(c).GetValue(r))
          << "row " << r << " col " << c;
    }
  }
  std::remove(path.c_str());
}

TEST(CsvTest, ParsesTypesFromString) {
  auto loaded = LoadCsvFromString(
      "id,age,height,city\n"
      "0,30,1.75,berlin\n"
      "1,41,1.6,paris\n",
      PeopleSchema());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_rows(), 2u);
  EXPECT_EQ(loaded->column(1).GetValue(1).AsInt64(), 41);
  EXPECT_DOUBLE_EQ(loaded->column(2).GetValue(0).AsDouble(), 1.75);
  EXPECT_EQ(loaded->column(3).GetValue(1).AsString(), "paris");
  EXPECT_EQ(loaded->column(3).dictionary_size(), 2u);
}

TEST(CsvTest, SkipsBlankLines) {
  auto loaded = LoadCsvFromString(
      "id,age,height,city\n\n0,30,1.75,berlin\n\n", PeopleSchema());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 1u);
}

TEST(CsvTest, RejectsBadInput) {
  EXPECT_FALSE(LoadCsvFromString("", PeopleSchema()).ok());
  // Wrong header name.
  EXPECT_FALSE(
      LoadCsvFromString("id,age,height,town\n", PeopleSchema()).ok());
  // Wrong column count in header.
  EXPECT_FALSE(LoadCsvFromString("id,age\n", PeopleSchema()).ok());
  // Ragged data row.
  EXPECT_FALSE(
      LoadCsvFromString("id,age,height,city\n1,2\n", PeopleSchema()).ok());
  // Type mismatch.
  EXPECT_FALSE(LoadCsvFromString("id,age,height,city\nx,30,1.7,berlin\n",
                                 PeopleSchema())
                   .ok());
  EXPECT_FALSE(LoadCsvFromString("id,age,height,city\n0,30,tall,berlin\n",
                                 PeopleSchema())
                   .ok());
  // Out-of-range int64 and non-finite doubles.
  for (const char* row : {"99999999999999999999999,30,1.7,berlin",
                          "0,30,nan,berlin", "0,30,inf,berlin",
                          "0,30,1e999,berlin"}) {
    StatusOr<Table> loaded = LoadCsvFromString(
        std::string("id,age,height,city\n") + row + "\n", PeopleSchema());
    ASSERT_FALSE(loaded.ok()) << row;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << row;
    EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos)
        << loaded.status().message();
  }
  // Missing file.
  EXPECT_EQ(LoadCsv("/nonexistent/file.csv", PeopleSchema()).status().code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace zerodb::storage
