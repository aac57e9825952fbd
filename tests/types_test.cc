// Unit tests for the type system: DataType, dates, Value, Schema,
// ColumnVector, RecordBatch and the shared row codec.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "types/column_vector.h"
#include "types/data_type.h"
#include "types/date_util.h"
#include "types/record_batch.h"
#include "types/row_codec.h"
#include "types/schema.h"
#include "types/value.h"
#include "util/bytes.h"
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

/// `n` random rows of `type`, about a quarter of them NULL. Doubles
/// are random bit patterns (NaNs included), strings random bytes
/// (NULs included).
ColumnVector RandomColumn(DataType type, size_t n, Random* rng) {
  ColumnVector col(type);
  for (size_t i = 0; i < n; ++i) {
    if (rng->Uniform(4) == 0) {
      col.AppendNull();
      continue;
    }
    switch (type) {
      case DataType::kInt64:
        col.AppendInt64(static_cast<int64_t>(rng->NextUint64()));
        break;
      case DataType::kDate:
        col.AppendDate(rng->UniformRange(-100000, 100000));
        break;
      case DataType::kDouble: {
        const uint64_t bits = rng->NextUint64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        col.AppendDouble(v);
        break;
      }
      case DataType::kString: {
        std::string s(rng->Uniform(20), '\0');
        for (char& c : s) c = static_cast<char>(rng->Uniform(256));
        col.AppendString(Slice(s));
        break;
      }
    }
  }
  return col;
}

/// Same rows, bit for bit: validity, the payload arrays (0 in NULL
/// rows) and every string's bytes.
void ExpectSameRows(const ColumnVector& got, const ColumnVector& want) {
  ASSERT_EQ(got.size(), want.size());
  const size_t n = want.size();
  EXPECT_EQ(std::memcmp(got.validity(), want.validity(), n), 0);
  switch (want.type()) {
    case DataType::kInt64:
    case DataType::kDate:
      EXPECT_EQ(std::memcmp(got.int64_data(), want.int64_data(), 8 * n), 0);
      break;
    case DataType::kDouble:
      EXPECT_EQ(std::memcmp(got.double_data(), want.double_data(), 8 * n),
                0);
      break;
    case DataType::kString:
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got.GetString(i), want.GetString(i)) << "row " << i;
      }
      break;
  }
}

TEST(RowCodecTest, RandomRangesRoundTripAndEveryStrictPrefixFails) {
  Random rng(2029);
  for (DataType type : {DataType::kInt64, DataType::kDouble,
                        DataType::kString, DataType::kDate}) {
    for (int trial = 0; trial < 60; ++trial) {
      const size_t n = rng.Uniform(40);
      const ColumnVector col = RandomColumn(type, n, &rng);
      const size_t begin = rng.Uniform(n + 1);
      const size_t end = begin + rng.Uniform(n - begin + 1);
      const std::string label = std::string(DataTypeToString(type)) +
                                " trial " + std::to_string(trial);
      ByteWriter w;
      EncodeRows(col, begin, end, &w);

      // Decoding appends: onto a column holding rows already, it must
      // give those rows, then AppendRange of the encoded ones.
      const ColumnVector prefix = RandomColumn(type, 3, &rng);
      ColumnVector want(type);
      want.AppendRange(prefix, 0, prefix.size());
      want.AppendRange(col, begin, end - begin);
      ColumnVector got(type);
      got.AppendRange(prefix, 0, prefix.size());
      ByteReader r(w.data());
      ASSERT_TRUE(DecodeRows(&r, end - begin, &got)) << label;
      EXPECT_TRUE(r.ok()) << label;
      EXPECT_EQ(r.remaining(), 0u) << label;
      ExpectSameRows(got, want);

      for (size_t len = 0; len < w.size(); ++len) {
        ByteReader cut(std::string_view(w.data()).substr(0, len));
        ColumnVector partial(type);
        EXPECT_FALSE(DecodeRows(&cut, end - begin, &partial))
            << label << ", prefix of " << len << " of " << w.size();
      }
    }
  }
}

TEST(RowCodecTest, RowCountPastThePayloadFailsBeforeSizing) {
  for (DataType type : {DataType::kInt64, DataType::kString}) {
    const std::string payload(3, '\0');  // three NULL flags
    ByteReader r(payload);
    ColumnVector col(type);
    EXPECT_FALSE(DecodeRows(&r, uint64_t{1} << 40, &col));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(col.size(), 0u);
  }
}

}  // namespace
}  // namespace nodb
