// Unit tests for the type system: DataType, dates, Value, Schema,
// ColumnVector and RecordBatch.

#include <gtest/gtest.h>

#include "types/column_vector.h"
#include "types/data_type.h"
#include "types/date_util.h"
#include "types/record_batch.h"
#include "types/schema.h"
#include "types/value.h"
#include "util/random.h"

namespace nodb {
namespace {

TEST(DataTypeTest, NamesRoundTrip) {
  EXPECT_EQ(DataTypeToString(DataType::kInt64), "INT");
  EXPECT_EQ(*DataTypeFromString("int"), DataType::kInt64);
  EXPECT_EQ(*DataTypeFromString("BIGINT"), DataType::kInt64);
  EXPECT_EQ(*DataTypeFromString("Double"), DataType::kDouble);
  EXPECT_EQ(*DataTypeFromString("decimal"), DataType::kDouble);
  EXPECT_EQ(*DataTypeFromString("VARCHAR"), DataType::kString);
  EXPECT_EQ(*DataTypeFromString("date"), DataType::kDate);
  EXPECT_FALSE(DataTypeFromString("blob").ok());
  EXPECT_TRUE(IsNumeric(DataType::kInt64));
  EXPECT_TRUE(IsNumeric(DataType::kDate));
  EXPECT_FALSE(IsNumeric(DataType::kString));
}

// -------------------------------------------------------------------- date

TEST(DateUtilTest, KnownDates) {
  EXPECT_EQ(CivilToDays(1970, 1, 1), 0);
  EXPECT_EQ(CivilToDays(1970, 1, 2), 1);
  EXPECT_EQ(CivilToDays(1969, 12, 31), -1);
  EXPECT_EQ(CivilToDays(2000, 3, 1), 11017);
  EXPECT_EQ(*ParseDate("1992-01-01"), CivilToDays(1992, 1, 1));
  EXPECT_EQ(FormatDate(0), "1970-01-01");
}

TEST(DateUtilTest, RejectsMalformed) {
  EXPECT_FALSE(ParseDate("1992/01/01").ok());
  EXPECT_FALSE(ParseDate("1992-1-1").ok());
  EXPECT_FALSE(ParseDate("199x-01-01").ok());
  EXPECT_FALSE(ParseDate("1992-13-01").ok());
  EXPECT_FALSE(ParseDate("1992-00-10").ok());
  EXPECT_FALSE(ParseDate("1992-01-32").ok());
  EXPECT_FALSE(ParseDate("").ok());
}

/// Property: civil <-> days round-trips over four centuries (covers
/// all leap-year rules).
TEST(DateUtilTest, RoundTripProperty) {
  Random rng(17);
  for (int i = 0; i < 2000; ++i) {
    int64_t days = rng.UniformRange(CivilToDays(1900, 1, 1),
                                    CivilToDays(2299, 12, 31));
    int y, m, d;
    DaysToCivil(days, &y, &m, &d);
    EXPECT_EQ(CivilToDays(y, m, d), days);
    EXPECT_EQ(*ParseDate(FormatDate(days)), days);
  }
}

TEST(DateUtilTest, LeapYearBoundaries) {
  EXPECT_EQ(FormatDate(CivilToDays(2000, 2, 29)), "2000-02-29");
  EXPECT_EQ(CivilToDays(2000, 3, 1) - CivilToDays(2000, 2, 28), 2);
  // 1900 was not a leap year.
  EXPECT_EQ(CivilToDays(1900, 3, 1) - CivilToDays(1900, 2, 28), 1);
}

// ------------------------------------------------------------------- Value

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int64(42).int64(), 42);
  EXPECT_EQ(Value::Double(1.5).dbl(), 1.5);
  EXPECT_EQ(Value::String("abc").str(), "abc");
  EXPECT_EQ(Value::Date(10).date_days(), 10);
  EXPECT_TRUE(Value::Date(10).is_date());
  EXPECT_FALSE(Value::Int64(10).is_date());  // variant index disambiguates
}

TEST(ValueTest, AsDoubleOnNumerics) {
  EXPECT_EQ(Value::Int64(3).AsDouble(), 3.0);
  EXPECT_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Date(7).AsDouble(), 7.0);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int64(-5).ToString(), "-5");
  EXPECT_EQ(Value::String("x").ToString(), "x");
  EXPECT_EQ(Value::Date(0).ToString(), "1970-01-01");
}

TEST(ValueTest, EqualityDistinguishesIntFromDate) {
  EXPECT_EQ(Value::Int64(5), Value::Int64(5));
  EXPECT_NE(Value::Int64(5), Value::Date(5));
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value::Int64(0));
}

// ------------------------------------------------------------------ Schema

TEST(SchemaTest, LookupAndProjection) {
  auto schema = Schema::Make({{"a", DataType::kInt64},
                              {"b", DataType::kString},
                              {"c", DataType::kDouble}});
  EXPECT_EQ(schema->num_fields(), 3u);
  EXPECT_EQ(*schema->FieldIndex("b"), 1u);
  EXPECT_FALSE(schema->FieldIndex("z").ok());
  EXPECT_TRUE(schema->HasField("c"));
  auto proj = schema->Project({2, 0});
  ASSERT_EQ(proj->num_fields(), 2u);
  EXPECT_EQ(proj->field(0).name, "c");
  EXPECT_EQ(proj->field(1).name, "a");
  EXPECT_EQ(schema->ToString(), "a:INT, b:STRING, c:DOUBLE");
}

// ------------------------------------------------------------ ColumnVector

TEST(ColumnVectorTest, IntAppendAndGet) {
  ColumnVector col(DataType::kInt64);
  col.AppendInt64(1);
  col.AppendNull();
  col.AppendInt64(-3);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.GetInt64(0), 1);
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.GetInt64(2), -3);
  EXPECT_EQ(col.GetValue(2), Value::Int64(-3));
  EXPECT_EQ(col.GetValue(1), Value::Null());
}

TEST(ColumnVectorTest, StringStorageIsPacked) {
  ColumnVector col(DataType::kString);
  col.AppendString("alpha");
  col.AppendString("");
  col.AppendNull();
  col.AppendString("omega");
  ASSERT_EQ(col.size(), 4u);
  EXPECT_EQ(col.GetString(0), "alpha");
  EXPECT_EQ(col.GetString(1), "");
  EXPECT_TRUE(col.IsNull(2));
  EXPECT_EQ(col.GetString(3), "omega");
}

TEST(ColumnVectorTest, DateAndNumericViews) {
  ColumnVector col(DataType::kDate);
  col.AppendDate(100);
  EXPECT_EQ(col.GetDate(0), 100);
  EXPECT_EQ(col.GetNumeric(0), 100.0);
  EXPECT_EQ(col.GetValue(0), Value::Date(100));
}

TEST(ColumnVectorTest, AppendValueDispatchesByType) {
  ColumnVector col(DataType::kDouble);
  col.AppendValue(Value::Double(2.5));
  col.AppendValue(Value::Int64(3));  // coerced
  col.AppendValue(Value::Null());
  EXPECT_EQ(col.GetDouble(0), 2.5);
  EXPECT_EQ(col.GetDouble(1), 3.0);
  EXPECT_TRUE(col.IsNull(2));
}

TEST(ColumnVectorTest, ClearAndMemoryUsage) {
  ColumnVector col(DataType::kString);
  for (int i = 0; i < 100; ++i) col.AppendString("some payload");
  EXPECT_GT(col.MemoryUsage(), 1000u);
  col.Clear();
  EXPECT_EQ(col.size(), 0u);
  col.AppendString("fresh");
  EXPECT_EQ(col.GetString(0), "fresh");
}

// ------------------------------------------------------------- RecordBatch

TEST(RecordBatchTest, AppendRowAndReadBack) {
  auto schema = Schema::Make({{"id", DataType::kInt64},
                              {"name", DataType::kString}});
  RecordBatch batch(schema);
  batch.AppendRow({Value::Int64(1), Value::String("ada")});
  batch.AppendRow({Value::Null(), Value::String("bob")});
  ASSERT_EQ(batch.num_rows(), 2u);
  ASSERT_EQ(batch.num_columns(), 2u);
  auto row = batch.Row(1);
  EXPECT_TRUE(row[0].is_null());
  EXPECT_EQ(row[1], Value::String("bob"));
}

TEST(RecordBatchTest, ConstructFromColumns) {
  auto schema = Schema::Make({{"x", DataType::kInt64}});
  auto col = std::make_shared<ColumnVector>(DataType::kInt64);
  col->AppendInt64(9);
  RecordBatch batch(schema, {col}, 1);
  EXPECT_EQ(batch.num_rows(), 1u);
  EXPECT_EQ(batch.column(0).GetInt64(0), 9);
}

}  // namespace
}  // namespace nodb
