// Tests for the execution engine: expression evaluation (including SQL
// three-valued logic) and the volcano operators over a column store.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <set>

#include "exec/aggregate.h"
#include "exec/column_store.h"
#include "exec/distinct.h"
#include "exec/expr.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/key_table.h"
#include "exec/limit.h"
#include "exec/project.h"
#include "exec/query_result.h"
#include "exec/sort.h"

namespace nodb {
namespace {

ExprPtr Col(size_t i, const std::string& name, DataType t) {
  return std::make_shared<ColumnRefExpr>(i, name, t);
}
ExprPtr Lit(int64_t v) {
  return std::make_shared<LiteralExpr>(Value::Int64(v), DataType::kInt64);
}
ExprPtr LitS(const std::string& s) {
  return std::make_shared<LiteralExpr>(Value::String(s), DataType::kString);
}
ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(op, std::move(l), std::move(r));
}

/// A small table: id INT, name STRING, score DOUBLE (with NULLs).
std::shared_ptr<ColumnStoreTable> MakeTable() {
  auto schema = Schema::Make({{"id", DataType::kInt64},
                              {"name", DataType::kString},
                              {"score", DataType::kDouble}});
  auto table = std::make_shared<ColumnStoreTable>(schema);
  struct RowSpec {
    int64_t id;
    const char* name;
    double score;
    bool null_score;
  };
  RowSpec rows[] = {
      {1, "ada", 3.5, false},  {2, "bob", 1.0, false},
      {3, "cat", 0.0, true},   {4, "dan", 2.0, false},
      {5, "eve", 4.5, false},  {6, "fox", 0.0, true},
  };
  for (const auto& r : rows) {
    table->column(0).AppendInt64(r.id);
    table->column(1).AppendString(r.name);
    if (r.null_score) {
      table->column(2).AppendNull();
    } else {
      table->column(2).AppendDouble(r.score);
    }
  }
  table->SetNumRows(6);
  return table;
}

RecordBatch MakeBatch(const std::shared_ptr<ColumnStoreTable>& table) {
  std::vector<std::shared_ptr<ColumnVector>> cols;
  for (size_t c = 0; c < table->schema()->num_fields(); ++c) {
    cols.push_back(table->column_ptr(c));
  }
  return RecordBatch(table->schema(), cols, table->num_rows());
}

// ------------------------------------------------------------- expressions

TEST(ExprTest, ColumnRefAndLiteral) {
  auto table = MakeTable();
  RecordBatch batch = MakeBatch(table);
  auto col = Col(0, "id", DataType::kInt64);
  auto vals = col->Evaluate(batch);
  ASSERT_TRUE(vals.ok());
  EXPECT_EQ((*vals)->GetInt64(4), 5);
  auto lit = Lit(7)->Evaluate(batch);
  ASSERT_TRUE(lit.ok());
  EXPECT_EQ((*lit)->size(), 6u);
  EXPECT_EQ((*lit)->GetInt64(0), 7);
}

TEST(ExprTest, ComparisonsWithNullPropagation) {
  auto table = MakeTable();
  RecordBatch batch = MakeBatch(table);
  // score > 1.5 : NULL rows yield NULL, not false.
  auto pred = Cmp(CompareOp::kGt, Col(2, "score", DataType::kDouble),
                  std::make_shared<LiteralExpr>(Value::Double(1.5),
                                                DataType::kDouble));
  auto mask = pred->Evaluate(batch);
  ASSERT_TRUE(mask.ok());
  EXPECT_EQ((*mask)->GetInt64(0), 1);   // 3.5
  EXPECT_EQ((*mask)->GetInt64(1), 0);   // 1.0
  EXPECT_TRUE((*mask)->IsNull(2));      // NULL score
  EXPECT_EQ((*mask)->GetInt64(4), 1);   // 4.5
}

TEST(ExprTest, StringComparison) {
  auto table = MakeTable();
  RecordBatch batch = MakeBatch(table);
  auto pred = Cmp(CompareOp::kGe, Col(1, "name", DataType::kString),
                  LitS("dan"));
  auto mask = pred->Evaluate(batch);
  ASSERT_TRUE(mask.ok());
  EXPECT_EQ((*mask)->GetInt64(0), 0);  // ada
  EXPECT_EQ((*mask)->GetInt64(3), 1);  // dan
  EXPECT_EQ((*mask)->GetInt64(5), 1);  // fox
}

TEST(ExprTest, TypeMismatchIsCaughtByOutputType) {
  auto schema = Schema::Make({{"id", DataType::kInt64},
                              {"name", DataType::kString}});
  auto bad = Cmp(CompareOp::kEq, Col(0, "id", DataType::kInt64),
                 LitS("x"));
  EXPECT_FALSE(bad->OutputType(*schema).ok());
  auto arith = std::make_shared<ArithExpr>(
      ArithOp::kAdd, Col(1, "name", DataType::kString), Lit(1));
  EXPECT_FALSE(arith->OutputType(*schema).ok());
}

TEST(ExprTest, ThreeValuedLogicTables) {
  // Build one-row batches for each (l, r) combination and check AND/OR.
  auto schema = Schema::Make({{"l", DataType::kInt64},
                              {"r", DataType::kInt64}});
  // -1 encodes NULL below.
  int cases[][2] = {{1, 1}, {1, 0}, {0, 1}, {0, 0}, {1, -1}, {-1, 1},
                    {0, -1}, {-1, 0}, {-1, -1}};
  // Expected: AND, OR with -1 = NULL.
  int expected_and[] = {1, 0, 0, 0, -1, -1, 0, 0, -1};
  int expected_or[] = {1, 1, 1, 0, 1, 1, -1, -1, -1};
  for (size_t i = 0; i < 9; ++i) {
    RecordBatch batch(schema);
    std::vector<Value> row;
    row.push_back(cases[i][0] < 0 ? Value::Null()
                                  : Value::Int64(cases[i][0]));
    row.push_back(cases[i][1] < 0 ? Value::Null()
                                  : Value::Int64(cases[i][1]));
    batch.AppendRow(row);
    auto l = Col(0, "l", DataType::kInt64);
    auto r = Col(1, "r", DataType::kInt64);
    auto and_mask = LogicalExpr(LogicalOp::kAnd, l, r).Evaluate(batch);
    auto or_mask = LogicalExpr(LogicalOp::kOr, l, r).Evaluate(batch);
    ASSERT_TRUE(and_mask.ok());
    ASSERT_TRUE(or_mask.ok());
    if (expected_and[i] < 0) {
      EXPECT_TRUE((*and_mask)->IsNull(0)) << "case " << i;
    } else {
      EXPECT_EQ((*and_mask)->GetInt64(0), expected_and[i]) << "case " << i;
    }
    if (expected_or[i] < 0) {
      EXPECT_TRUE((*or_mask)->IsNull(0)) << "case " << i;
    } else {
      EXPECT_EQ((*or_mask)->GetInt64(0), expected_or[i]) << "case " << i;
    }
  }
}

TEST(ExprTest, ArithmeticTypesAndDivision) {
  auto table = MakeTable();
  RecordBatch batch = MakeBatch(table);
  auto schema = table->schema();
  auto sum = std::make_shared<ArithExpr>(
      ArithOp::kAdd, Col(0, "id", DataType::kInt64), Lit(10));
  EXPECT_EQ(*sum->OutputType(*schema), DataType::kInt64);
  auto vals = sum->Evaluate(batch);
  EXPECT_EQ((*vals)->GetInt64(0), 11);

  auto div = std::make_shared<ArithExpr>(
      ArithOp::kDiv, Col(0, "id", DataType::kInt64), Lit(2));
  EXPECT_EQ(*div->OutputType(*schema), DataType::kDouble);
  auto dvals = div->Evaluate(batch);
  EXPECT_DOUBLE_EQ((*dvals)->GetDouble(0), 0.5);

  // Division by zero yields NULL.
  auto div0 = std::make_shared<ArithExpr>(
      ArithOp::kDiv, Col(0, "id", DataType::kInt64), Lit(0));
  auto zvals = div0->Evaluate(batch);
  EXPECT_TRUE((*zvals)->IsNull(0));
}

/// A one-column INT table holding `values` in order.
std::shared_ptr<ColumnStoreTable> IntTable(const std::vector<int64_t>& values) {
  auto table = std::make_shared<ColumnStoreTable>(
      Schema::Make({{"x", DataType::kInt64}}));
  for (int64_t v : values) table->column(0).AppendInt64(v);
  table->SetNumRows(values.size());
  return table;
}

TEST(ExprTest, IntegerArithmeticWrapsOnOverflow) {
  // Two's complement, defined: no signed-overflow UB under UBSan.
  auto table = IntTable({INT64_MAX, INT64_MIN, 3});
  RecordBatch batch = MakeBatch(table);
  auto x = Col(0, "x", DataType::kInt64);
  auto plus = ArithExpr(ArithOp::kAdd, x, Lit(1)).Evaluate(batch);
  ASSERT_TRUE(plus.ok());
  EXPECT_EQ((*plus)->GetInt64(0), INT64_MIN);
  EXPECT_EQ((*plus)->GetInt64(2), 4);
  auto minus = ArithExpr(ArithOp::kSub, x, Lit(1)).Evaluate(batch);
  ASSERT_TRUE(minus.ok());
  EXPECT_EQ((*minus)->GetInt64(1), INT64_MAX);
  auto times = ArithExpr(ArithOp::kMul, x, Lit(100000000000)).Evaluate(batch);
  ASSERT_TRUE(times.ok());
  EXPECT_EQ((*times)->GetInt64(0),
            static_cast<int64_t>(uint64_t{INT64_MAX} * 100000000000u));
  EXPECT_EQ((*times)->GetInt64(2), 300000000000);
}

TEST(ExprTest, LiteralOnTheLeftMirrorsTheOperator) {
  auto table = MakeTable();
  RecordBatch batch = MakeBatch(table);
  // 3 < id  ==  id > 3; 'dan' <= name  ==  name >= 'dan'.
  auto lt = Cmp(CompareOp::kLt, Lit(3), Col(0, "id", DataType::kInt64))
                ->Evaluate(batch);
  auto le = Cmp(CompareOp::kLe, LitS("dan"),
                Col(1, "name", DataType::kString))
                ->Evaluate(batch);
  ASSERT_TRUE(lt.ok() && le.ok());
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ((*lt)->GetInt64(i), i + 1 > 3 ? 1 : 0) << i;
    EXPECT_EQ((*le)->GetInt64(i), i >= 3 ? 1 : 0) << i;
  }
}

TEST(ExprTest, IsNullAndNegation) {
  auto table = MakeTable();
  RecordBatch batch = MakeBatch(table);
  auto isnull =
      IsNullExpr(Col(2, "score", DataType::kDouble), false).Evaluate(batch);
  EXPECT_EQ((*isnull)->GetInt64(0), 0);
  EXPECT_EQ((*isnull)->GetInt64(2), 1);
  auto notnull =
      IsNullExpr(Col(2, "score", DataType::kDouble), true).Evaluate(batch);
  EXPECT_EQ((*notnull)->GetInt64(2), 0);
}

TEST(ExprTest, LikeMatcher) {
  EXPECT_TRUE(LikeExpr::Match("hello", "hello"));
  EXPECT_TRUE(LikeExpr::Match("hello", "h%"));
  EXPECT_TRUE(LikeExpr::Match("hello", "%llo"));
  EXPECT_TRUE(LikeExpr::Match("hello", "%ell%"));
  EXPECT_TRUE(LikeExpr::Match("hello", "h_llo"));
  EXPECT_TRUE(LikeExpr::Match("", "%"));
  EXPECT_FALSE(LikeExpr::Match("hello", "h_llx"));
  EXPECT_FALSE(LikeExpr::Match("hello", "hell"));
  EXPECT_FALSE(LikeExpr::Match("", "_"));
  EXPECT_TRUE(LikeExpr::Match("abcbc", "a%bc"));  // backtracking
}

// --------------------------------------------------------------- operators

TEST(OperatorTest, ColumnStoreScanProjectsAndBatches) {
  auto table = MakeTable();
  ColumnStoreScan scan(table, {2, 0});
  ASSERT_TRUE(scan.Open().ok());
  auto batch = scan.Next();
  ASSERT_TRUE(batch.ok());
  ASSERT_NE(*batch, nullptr);
  EXPECT_EQ((*batch)->num_columns(), 2u);
  EXPECT_EQ((*batch)->schema()->field(0).name, "score");
  EXPECT_EQ((*batch)->column(1).GetInt64(0), 1);
  auto eof = scan.Next();
  EXPECT_EQ(*eof, nullptr);
}

TEST(OperatorTest, EmptyProjectionCarriesRowCount) {
  auto table = MakeTable();
  ColumnStoreScan scan(table, {});
  ASSERT_TRUE(scan.Open().ok());
  auto batch = scan.Next();
  ASSERT_TRUE(batch.ok());
  ASSERT_NE(*batch, nullptr);
  EXPECT_EQ((*batch)->num_columns(), 0u);
  EXPECT_EQ((*batch)->num_rows(), 6u);
}

TEST(OperatorTest, FilterDropsNullAndFalse) {
  auto table = MakeTable();
  auto scan = std::make_unique<ColumnStoreScan>(
      table, ColumnStoreScan::AllColumns(*table));
  auto pred = Cmp(CompareOp::kGt, Col(2, "score", DataType::kDouble),
                  std::make_shared<LiteralExpr>(Value::Double(1.5),
                                                DataType::kDouble));
  FilterOperator filter(std::move(scan), pred);
  auto result = QueryResult::Drain(&filter);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 3u);  // 3.5, 2.0, 4.5; NULLs dropped
}

TEST(OperatorTest, ProjectComputesExpressions) {
  auto table = MakeTable();
  auto scan = std::make_unique<ColumnStoreScan>(
      table, ColumnStoreScan::AllColumns(*table));
  auto doubled = std::make_shared<ArithExpr>(
      ArithOp::kMul, Col(0, "id", DataType::kInt64), Lit(2));
  auto proj = ProjectOperator::Create(std::move(scan), {doubled}, {"d"});
  ASSERT_TRUE(proj.ok());
  auto result = QueryResult::Drain(proj->get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Row(2)[0], Value::Int64(6));
}

TEST(OperatorTest, HashAggregateGlobal) {
  auto table = MakeTable();
  auto scan = std::make_unique<ColumnStoreScan>(
      table, ColumnStoreScan::AllColumns(*table));
  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggFunc::kCountStar, nullptr, "n"});
  aggs.push_back({AggFunc::kCount, Col(2, "score", DataType::kDouble),
                  "n_score"});
  aggs.push_back({AggFunc::kSum, Col(0, "id", DataType::kInt64), "s"});
  aggs.push_back({AggFunc::kAvg, Col(2, "score", DataType::kDouble), "a"});
  aggs.push_back({AggFunc::kMin, Col(1, "name", DataType::kString), "mn"});
  aggs.push_back({AggFunc::kMax, Col(2, "score", DataType::kDouble), "mx"});
  auto agg = HashAggregateOperator::Create(std::move(scan), {}, {},
                                           std::move(aggs));
  ASSERT_TRUE(agg.ok());
  auto result = QueryResult::Drain(agg->get());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1u);
  auto row = result->Row(0);
  EXPECT_EQ(row[0], Value::Int64(6));
  EXPECT_EQ(row[1], Value::Int64(4));  // two NULL scores skipped
  EXPECT_EQ(row[2], Value::Int64(21));
  EXPECT_DOUBLE_EQ(row[3].dbl(), (3.5 + 1.0 + 2.0 + 4.5) / 4);
  EXPECT_EQ(row[4], Value::String("ada"));
  EXPECT_DOUBLE_EQ(row[5].dbl(), 4.5);
}

TEST(OperatorTest, MinMaxOverBigIntsIsExact) {
  // 2^53 and 2^53 + 1 are the same double; MIN/MAX must still tell them
  // apart.
  const int64_t big = int64_t{1} << 53;
  auto table = IntTable({big, big + 1, big});
  auto scan = std::make_unique<ColumnStoreScan>(table,
                                                std::vector<size_t>{0});
  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggFunc::kMin, Col(0, "x", DataType::kInt64), "mn"});
  aggs.push_back({AggFunc::kMax, Col(0, "x", DataType::kInt64), "mx"});
  auto agg = HashAggregateOperator::Create(std::move(scan), {}, {},
                                           std::move(aggs));
  ASSERT_TRUE(agg.ok());
  auto result = QueryResult::Drain(agg->get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Row(0)[0], Value::Int64(big));
  EXPECT_EQ(result->Row(0)[1], Value::Int64(big + 1));
}

TEST(OperatorTest, IntegerSumWrapsOnOverflow) {
  auto table = IntTable({INT64_MAX, 1, 5});
  auto scan = std::make_unique<ColumnStoreScan>(table,
                                                std::vector<size_t>{0});
  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggFunc::kSum, Col(0, "x", DataType::kInt64), "s"});
  auto agg = HashAggregateOperator::Create(std::move(scan), {}, {},
                                           std::move(aggs));
  ASSERT_TRUE(agg.ok());
  auto result = QueryResult::Drain(agg->get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Row(0)[0], Value::Int64(INT64_MIN + 5));
}

TEST(OperatorTest, HashAggregateEmptyInputEmitsOneRow) {
  auto schema = Schema::Make({{"x", DataType::kInt64}});
  auto table = std::make_shared<ColumnStoreTable>(schema);
  auto scan = std::make_unique<ColumnStoreScan>(table,
                                                std::vector<size_t>{0});
  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggFunc::kCountStar, nullptr, "n"});
  aggs.push_back({AggFunc::kSum, Col(0, "x", DataType::kInt64), "s"});
  auto agg = HashAggregateOperator::Create(std::move(scan), {}, {},
                                           std::move(aggs));
  ASSERT_TRUE(agg.ok());
  auto result = QueryResult::Drain(agg->get());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->Row(0)[0], Value::Int64(0));
  EXPECT_TRUE(result->Row(0)[1].is_null());  // SUM of nothing is NULL
}

TEST(OperatorTest, HashAggregateGroupsWithNullKeys) {
  auto table = MakeTable();
  // Group by score IS NULL (boolean) to get two groups.
  auto scan = std::make_unique<ColumnStoreScan>(
      table, ColumnStoreScan::AllColumns(*table));
  std::vector<ExprPtr> keys = {std::make_shared<IsNullExpr>(
      Col(2, "score", DataType::kDouble), false)};
  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggFunc::kCountStar, nullptr, "n"});
  auto agg = HashAggregateOperator::Create(std::move(scan), keys,
                                           {"isnull"}, std::move(aggs));
  ASSERT_TRUE(agg.ok());
  auto result = QueryResult::Drain(agg->get());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2u);
  auto rows = result->CanonicalRows();
  EXPECT_EQ(rows[0], "0|4");
  EXPECT_EQ(rows[1], "1|2");
}

TEST(OperatorTest, SortOrdersWithNullsFirstAscending) {
  auto table = MakeTable();
  auto scan = std::make_unique<ColumnStoreScan>(
      table, ColumnStoreScan::AllColumns(*table));
  std::vector<SortKey> keys;
  keys.push_back({Col(2, "score", DataType::kDouble), true});
  SortOperator sort(std::move(scan), std::move(keys));
  auto result = QueryResult::Drain(&sort);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 6u);
  EXPECT_TRUE(result->Row(0)[2].is_null());
  EXPECT_TRUE(result->Row(1)[2].is_null());
  EXPECT_DOUBLE_EQ(result->Row(2)[2].dbl(), 1.0);
  EXPECT_DOUBLE_EQ(result->Row(5)[2].dbl(), 4.5);
}

TEST(OperatorTest, SortDescendingMultiKeyIsStable) {
  auto table = MakeTable();
  auto scan = std::make_unique<ColumnStoreScan>(
      table, ColumnStoreScan::AllColumns(*table));
  std::vector<SortKey> keys;
  keys.push_back({Col(2, "score", DataType::kDouble), false});
  SortOperator sort(std::move(scan), std::move(keys));
  auto result = QueryResult::Drain(&sort);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->Row(0)[2].dbl(), 4.5);
  // NULLs last on descending.
  EXPECT_TRUE(result->Row(5)[2].is_null());
}

TEST(OperatorTest, SortOrdersBigIntsExactly) {
  const int64_t big = int64_t{1} << 53;
  for (bool ascending : {true, false}) {
    auto table = IntTable({big + 1, big, big + 2});
    auto scan = std::make_unique<ColumnStoreScan>(table,
                                                  std::vector<size_t>{0});
    std::vector<SortKey> keys;
    keys.push_back({Col(0, "x", DataType::kInt64), ascending});
    SortOperator sort(std::move(scan), std::move(keys));
    auto result = QueryResult::Drain(&sort);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->num_rows(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      int64_t expected = ascending ? big + static_cast<int64_t>(i)
                                   : big + 2 - static_cast<int64_t>(i);
      EXPECT_EQ(result->Row(i)[0], Value::Int64(expected))
          << (ascending ? "ASC" : "DESC") << " row " << i;
    }
  }
}

TEST(OperatorTest, LimitAndOffset) {
  auto table = MakeTable();
  auto scan = std::make_unique<ColumnStoreScan>(
      table, ColumnStoreScan::AllColumns(*table));
  LimitOperator limit(std::move(scan), 2, 3);
  auto result = QueryResult::Drain(&limit);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(result->Row(0)[0], Value::Int64(4));
  EXPECT_EQ(result->Row(1)[0], Value::Int64(5));
}

TEST(OperatorTest, DistinctDropsDuplicatesAcrossBatches) {
  auto schema = Schema::Make({{"x", DataType::kInt64},
                              {"s", DataType::kString}});
  auto table = std::make_shared<ColumnStoreTable>(schema);
  // 3000 rows cycling through 7 distinct (x, s) pairs, spanning
  // multiple 1024-row batches so cross-batch dedup is exercised.
  for (int i = 0; i < 3000; ++i) {
    table->column(0).AppendInt64(i % 7);
    table->column(1).AppendString("s" + std::to_string(i % 7));
  }
  table->SetNumRows(3000);
  DistinctOperator distinct(std::make_unique<ColumnStoreScan>(
      table, ColumnStoreScan::AllColumns(*table)));
  auto result = QueryResult::Drain(&distinct);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 7u);
}

TEST(OperatorTest, DistinctTreatsNullAsAValue) {
  auto schema = Schema::Make({{"x", DataType::kInt64}});
  auto table = std::make_shared<ColumnStoreTable>(schema);
  table->column(0).AppendNull();
  table->column(0).AppendInt64(1);
  table->column(0).AppendNull();
  table->column(0).AppendInt64(1);
  table->SetNumRows(4);
  DistinctOperator distinct(std::make_unique<ColumnStoreScan>(
      table, std::vector<size_t>{0}));
  auto result = QueryResult::Drain(&distinct);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2u);  // NULL and 1
}

TEST(OperatorTest, DistinctDistinguishesNullFromZeroAndEmpty) {
  auto schema = Schema::Make({{"s", DataType::kString}});
  auto table = std::make_shared<ColumnStoreTable>(schema);
  table->column(0).AppendNull();
  table->column(0).AppendString("");
  table->column(0).AppendNull();
  table->column(0).AppendString("");
  table->SetNumRows(4);
  DistinctOperator distinct(std::make_unique<ColumnStoreScan>(
      table, std::vector<size_t>{0}));
  auto result = QueryResult::Drain(&distinct);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2u);  // NULL != empty string
}

TEST(OperatorTest, HashJoinInner) {
  // Left: (id, name); right: (uid, bonus). Join on id == uid.
  auto left_schema = Schema::Make({{"id", DataType::kInt64},
                                   {"name", DataType::kString}});
  auto left = std::make_shared<ColumnStoreTable>(left_schema);
  for (int64_t i = 1; i <= 4; ++i) {
    left->column(0).AppendInt64(i);
    left->column(1).AppendString("user" + std::to_string(i));
  }
  left->SetNumRows(4);

  auto right_schema = Schema::Make({{"uid", DataType::kInt64},
                                    {"bonus", DataType::kInt64}});
  auto right = std::make_shared<ColumnStoreTable>(right_schema);
  int64_t uids[] = {2, 2, 3, 9};
  for (size_t i = 0; i < 4; ++i) {
    right->column(0).AppendInt64(uids[i]);
    right->column(1).AppendInt64(static_cast<int64_t>(i * 10));
  }
  right->SetNumRows(4);

  auto probe = std::make_unique<ColumnStoreScan>(
      left, ColumnStoreScan::AllColumns(*left));
  auto build = std::make_unique<ColumnStoreScan>(
      right, ColumnStoreScan::AllColumns(*right));
  auto join = HashJoinOperator::Create(
      std::move(probe), std::move(build),
      {Col(0, "id", DataType::kInt64)}, {Col(0, "uid", DataType::kInt64)});
  ASSERT_TRUE(join.ok());
  auto result = QueryResult::Drain(join->get());
  ASSERT_TRUE(result.ok());
  // id=2 matches twice, id=3 once; ids 1,4 and uid 9 unmatched.
  EXPECT_EQ(result->num_rows(), 3u);
  auto rows = result->CanonicalRows();
  EXPECT_EQ(rows[0], "2|user2|2|0");
  EXPECT_EQ(rows[1], "2|user2|2|10");
  EXPECT_EQ(rows[2], "3|user3|3|20");
}

TEST(OperatorTest, HashJoinNullKeysNeverMatch) {
  auto schema = Schema::Make({{"k", DataType::kInt64}});
  auto left = std::make_shared<ColumnStoreTable>(schema);
  left->column(0).AppendNull();
  left->column(0).AppendInt64(1);
  left->SetNumRows(2);
  auto right = std::make_shared<ColumnStoreTable>(schema);
  right->column(0).AppendNull();
  right->column(0).AppendInt64(1);
  right->SetNumRows(2);
  auto join = HashJoinOperator::Create(
      std::make_unique<ColumnStoreScan>(left, std::vector<size_t>{0}),
      std::make_unique<ColumnStoreScan>(right, std::vector<size_t>{0}),
      {Col(0, "k", DataType::kInt64)}, {Col(0, "k", DataType::kInt64)});
  ASSERT_TRUE(join.ok());
  auto result = QueryResult::Drain(join->get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 1u);  // only 1 == 1
}

TEST(OperatorTest, JoinKeyTypeMismatchRejected) {
  auto li = Schema::Make({{"k", DataType::kInt64}});
  auto ls = Schema::Make({{"k", DataType::kString}});
  auto left = std::make_shared<ColumnStoreTable>(li);
  auto right = std::make_shared<ColumnStoreTable>(ls);
  auto join = HashJoinOperator::Create(
      std::make_unique<ColumnStoreScan>(left, std::vector<size_t>{0}),
      std::make_unique<ColumnStoreScan>(right, std::vector<size_t>{0}),
      {Col(0, "k", DataType::kInt64)}, {Col(0, "k", DataType::kString)});
  EXPECT_FALSE(join.ok());
}


// ------------------------------------------- sweeps against a reference
//
// The operators below are checked against naive references written
// here: std::stable_sort for ORDER BY, std::map over serialized keys
// for GROUP BY and DISTINCT, and nested loops for the join. Inputs mix
// ties, NULLs, -0.0 against 0.0, NaNs with different payloads, strings
// with embedded NULs and shared prefixes, and arrive in batches of
// random sizes.

/// Emits a table in batches of `chunk` rows.
class ChunkedScan final : public ExecOperator {
 public:
  ChunkedScan(std::shared_ptr<const ColumnStoreTable> table, size_t chunk)
      : table_(std::move(table)), chunk_(chunk) {}

  Status Open() override {
    cursor_ = 0;
    return Status::OK();
  }
  Result<BatchPtr> Next() override {
    if (cursor_ >= table_->num_rows()) return BatchPtr();
    size_t n = std::min(chunk_, table_->num_rows() - cursor_);
    auto batch = std::make_shared<RecordBatch>(table_->schema());
    for (size_t c = 0; c < batch->num_columns(); ++c) {
      batch->column(c).AppendRange(table_->column(c), cursor_, n);
    }
    batch->SetNumRows(n);
    cursor_ += n;
    return batch;
  }
  std::shared_ptr<Schema> output_schema() const override {
    return table_->schema();
  }

 private:
  std::shared_ptr<const ColumnStoreTable> table_;
  size_t chunk_;
  size_t cursor_ = 0;
};

double DoubleFromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// One cell as bytes: NULL, or the int64 / bit pattern / string bytes.
/// INT and DATE encode alike, so equal bytes means equal join keys.
std::string CellBytes(const ColumnVector& col, size_t row) {
  if (col.IsNull(row)) return "N";
  std::string out = "V";
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kDate: {
      int64_t v = col.GetInt64(row);
      out.append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case DataType::kDouble: {
      double v = col.GetDouble(row);
      out.append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case DataType::kString: {
      std::string_view v = col.GetString(row);
      uint64_t len = v.size();
      out.append(reinterpret_cast<const char*>(&len), sizeof(len));
      out.append(v.data(), v.size());
      break;
    }
  }
  return out;
}

std::string RowBytes(const ColumnVector* const* cols, size_t num_cols,
                     size_t row) {
  std::string out;
  for (size_t c = 0; c < num_cols; ++c) out += CellBytes(*cols[c], row);
  return out;
}

/// Every row `op` emits, serialized, in output order.
std::vector<std::string> DrainBytes(ExecOperator* op) {
  std::vector<std::string> rows;
  EXPECT_TRUE(op->Open().ok());
  while (true) {
    auto next = op->Next();
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok() || *next == nullptr) break;
    const RecordBatch& batch = **next;
    std::vector<const ColumnVector*> cols;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      cols.push_back(&batch.column(c));
    }
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      rows.push_back(RowBytes(cols.data(), cols.size(), r));
    }
  }
  return rows;
}

/// Appends one random cell of `type` from a small domain rich in ties
/// and edge values (null_share of them NULL).
void AppendRandomCell(std::mt19937_64& rng, double null_share,
                      ColumnVector* col) {
  if (std::uniform_real_distribution<double>(0, 1)(rng) < null_share) {
    col->AppendNull();
    return;
  }
  auto pick = [&](size_t n) {
    return static_cast<size_t>(std::uniform_int_distribution<size_t>(
        0, n - 1)(rng));
  };
  switch (col->type()) {
    case DataType::kInt64: {
      const int64_t values[] = {-3, -1, 0, 1, 2, 3, 7,
                                std::numeric_limits<int64_t>::min(),
                                std::numeric_limits<int64_t>::max()};
      col->AppendInt64(values[pick(9)]);
      break;
    }
    case DataType::kDate: {
      const int64_t values[] = {-1, 0, 1, 2, 3, 18000};
      col->AppendDate(values[pick(6)]);
      break;
    }
    case DataType::kDouble: {
      const double values[] = {
          0.0,
          -0.0,
          1.5,
          -2.25,
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN(),
          DoubleFromBits(0x7ff8000000000001ULL),  // NaN, other payload
          DoubleFromBits(0xfff8000000000000ULL),  // negative NaN
      };
      col->AppendDouble(values[pick(9)]);
      break;
    }
    case DataType::kString: {
      const std::string values[] = {
          "",
          "a",
          "ab",
          std::string("ab\0c", 4),
          std::string("ab\0d", 4),
          std::string("\0", 1),
          "shared_prefix_of_some_length_1",
          "shared_prefix_of_some_length_2",
          "shared_prefix_of_some_length_10",
      };
      col->AppendString(values[pick(9)]);
      break;
    }
  }
}

/// A random table with columns of `types` (see AppendRandomCell).
std::shared_ptr<ColumnStoreTable> RandomTable(
    std::mt19937_64& rng, const std::vector<DataType>& types, size_t rows) {
  std::vector<Field> fields;
  for (size_t c = 0; c < types.size(); ++c) {
    fields.push_back(Field{"c" + std::to_string(c), types[c]});
  }
  auto table = std::make_shared<ColumnStoreTable>(Schema::Make(fields));
  for (size_t c = 0; c < types.size(); ++c) {
    for (size_t r = 0; r < rows; ++r) {
      AppendRandomCell(rng, 0.15, &table->column(c));
    }
  }
  table->SetNumRows(rows);
  return table;
}

/// The reference ORDER BY: NULLs first, INT/DATE as int64, DOUBLE with
/// every NaN equal and above every number, STRING bytewise.
int ReferenceCompare(const ColumnVector& col, size_t a, size_t b) {
  bool an = col.IsNull(a);
  bool bn = col.IsNull(b);
  if (an || bn) return an == bn ? 0 : (an ? -1 : 1);
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kDate: {
      int64_t x = col.GetInt64(a);
      int64_t y = col.GetInt64(b);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kDouble: {
      double x = col.GetDouble(a);
      double y = col.GetDouble(b);
      if (std::isnan(x) || std::isnan(y)) {
        return std::isnan(x) == std::isnan(y) ? 0 : (std::isnan(x) ? 1 : -1);
      }
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kString: {
      int c = col.GetString(a).compare(col.GetString(b));
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
  return 0;
}

std::vector<const ColumnVector*> Columns(const ColumnStoreTable& table) {
  std::vector<const ColumnVector*> cols;
  for (size_t c = 0; c < table.schema()->num_fields(); ++c) {
    cols.push_back(&table.column(c));
  }
  return cols;
}

TEST(ExecSweepTest, TopNEqualsPrefixOfStableSort) {
  const std::vector<DataType> types = {DataType::kInt64, DataType::kDouble,
                                       DataType::kString, DataType::kDate};
  for (uint64_t seed = 0; seed < 60; ++seed) {
    std::mt19937_64 rng(seed);
    const size_t rows = seed % 3 == 0 ? 40 : 3000 + seed * 37;
    auto table = RandomTable(rng, types, rows);
    auto cols = Columns(*table);

    // 1-3 keys over random columns, random directions.
    std::vector<std::pair<size_t, bool>> spec;
    const size_t num_keys = 1 + seed % 3;
    for (size_t k = 0; k < num_keys; ++k) {
      spec.emplace_back(rng() % types.size(), rng() % 2 == 0);
    }
    const uint64_t limits[] = {0, 1, 3, 10, 100, 1500, rows, rows + 5};
    const uint64_t offsets[] = {0, 0, 2, 50};
    const uint64_t limit = limits[rng() % 8];
    const uint64_t offset = offsets[rng() % 4];
    const size_t chunk = std::vector<size_t>{1, 7, 333, 1024, 5000}[rng() % 5];

    std::vector<size_t> order(rows);
    for (size_t i = 0; i < rows; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (const auto& [c, asc] : spec) {
        int r = ReferenceCompare(*cols[c], a, b);
        if (r != 0) return asc ? r < 0 : r > 0;
      }
      return false;
    });
    std::vector<std::string> expected;
    for (size_t i = offset; i < rows && i - offset < limit; ++i) {
      expected.push_back(RowBytes(cols.data(), cols.size(), order[i]));
    }

    std::vector<SortKey> keys;
    for (const auto& [c, asc] : spec) {
      keys.push_back({Col(c, "c" + std::to_string(c), types[c]), asc});
    }
    LimitOperator plan(
        std::make_unique<SortOperator>(
            std::make_unique<ChunkedScan>(table, chunk), keys,
            limit + offset),
        limit, offset);
    EXPECT_EQ(DrainBytes(&plan), expected)
        << "seed " << seed << " limit " << limit << " offset " << offset
        << " chunk " << chunk;

    // Without a bound the sort is the full stable sort.
    std::vector<std::string> all;
    for (size_t i : order) {
      all.push_back(RowBytes(cols.data(), cols.size(), i));
    }
    SortOperator unbounded(std::make_unique<ChunkedScan>(table, chunk),
                           keys);
    EXPECT_EQ(DrainBytes(&unbounded), all) << "seed " << seed;
  }
}

/// The reference GROUP BY over key columns `keys` of `table`:
/// COUNT(*), SUM(c_int), SUM(c_sum), MIN(c_min), MAX(c_max), one output
/// row per group in first-appearance order, serialized as DrainBytes
/// serializes.
std::vector<std::string> ReferenceGroupBy(const ColumnStoreTable& table,
                                          const std::vector<size_t>& keys,
                                          size_t c_int, size_t c_sum,
                                          size_t c_min, size_t c_max) {
  struct Group {
    std::string key;
    int64_t count = 0;
    uint64_t isum = 0;
    int64_t inputs_i = 0;
    double dsum = 0;
    int64_t inputs_d = 0;
    bool has_min = false;
    std::string min_s;
    bool has_max = false;
    double max_d = 0;
  };
  auto cols = Columns(table);
  std::map<std::string, size_t> index;
  std::vector<Group> groups;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::string key;
    for (size_t k : keys) key += CellBytes(*cols[k], r);
    auto [it, fresh] = index.emplace(key, groups.size());
    if (fresh) {
      groups.emplace_back();
      groups.back().key = key;
    }
    Group& g = groups[it->second];
    ++g.count;
    if (!cols[c_int]->IsNull(r)) {
      g.isum += static_cast<uint64_t>(cols[c_int]->GetInt64(r));
      ++g.inputs_i;
    }
    if (!cols[c_sum]->IsNull(r)) {
      g.dsum += cols[c_sum]->GetDouble(r);
      ++g.inputs_d;
    }
    if (!cols[c_min]->IsNull(r)) {
      std::string v(cols[c_min]->GetString(r));
      if (!g.has_min || v < g.min_s) {
        g.min_s = v;
        g.has_min = true;
      }
    }
    if (!cols[c_max]->IsNull(r)) {
      // NaN is above every number; ties keep the first value seen.
      double v = cols[c_max]->GetDouble(r);
      bool greater = std::isnan(v) ? !std::isnan(g.max_d)
                                   : !std::isnan(g.max_d) && v > g.max_d;
      if (!g.has_max || greater) {
        g.max_d = v;
        g.has_max = true;
      }
    }
  }
  auto bytes_of = [](const void* p, size_t n) {
    return std::string(static_cast<const char*>(p), n);
  };
  std::vector<std::string> out;
  for (const Group& g : groups) {
    std::string row = g.key;
    row += "V" + bytes_of(&g.count, 8);
    row += g.inputs_i == 0 ? "N" : "V" + bytes_of(&g.isum, 8);
    row += g.inputs_d == 0 ? "N" : "V" + bytes_of(&g.dsum, 8);
    if (g.has_min) {
      uint64_t len = g.min_s.size();
      row += "V" + bytes_of(&len, 8) + g.min_s;
    } else {
      row += "N";
    }
    row += g.has_max ? "V" + bytes_of(&g.max_d, 8) : "N";
    out.push_back(row);
  }
  return out;
}

TEST(ExecSweepTest, GroupByAndDistinctMatchReference) {
  // c0..c3 are key candidates; c4 INT, c5 DOUBLE (finite values, so
  // sums are comparable), c6 STRING feed the aggregates.
  const std::vector<DataType> types = {
      DataType::kInt64, DataType::kDouble, DataType::kString,
      DataType::kDate,  DataType::kInt64,  DataType::kDouble,
      DataType::kString};
  for (uint64_t seed = 0; seed < 40; ++seed) {
    std::mt19937_64 rng(1000 + seed);
    const size_t rows = 2500 + seed * 53;
    auto table = RandomTable(rng, types, rows);
    {
      // Finite, order-sensitive doubles for SUM: (a + b) + c != a + (b + c).
      ColumnVector& d = table->column(5);
      d.Clear();
      std::uniform_real_distribution<double> dist(-1e6, 1e6);
      for (size_t r = 0; r < rows; ++r) {
        if (r % 11 == 0) {
          d.AppendNull();
        } else {
          d.AppendDouble(dist(rng) * (r % 3 == 0 ? 1e-9 : 1.0));
        }
      }
    }
    std::vector<size_t> keys;
    for (size_t c = 0; c < 4; ++c) {
      if (rng() % 2 == 0) keys.push_back(c);
    }
    if (keys.empty()) keys.push_back(rng() % 4);
    std::shuffle(keys.begin(), keys.end(), rng);
    const size_t chunk = std::vector<size_t>{1, 100, 1024, 3000}[rng() % 4];

    std::vector<ExprPtr> group_by;
    std::vector<std::string> names;
    for (size_t k : keys) {
      group_by.push_back(Col(k, "c" + std::to_string(k), types[k]));
      names.push_back("c" + std::to_string(k));
    }
    std::vector<AggregateSpec> aggs;
    aggs.push_back({AggFunc::kCountStar, nullptr, "n"});
    aggs.push_back({AggFunc::kSum, Col(4, "c4", DataType::kInt64), "si"});
    aggs.push_back({AggFunc::kSum, Col(5, "c5", DataType::kDouble), "sd"});
    aggs.push_back({AggFunc::kMin, Col(6, "c6", DataType::kString), "ms"});
    aggs.push_back({AggFunc::kMax, Col(1, "c1", DataType::kDouble), "md"});
    auto agg = HashAggregateOperator::Create(
        std::make_unique<ChunkedScan>(table, chunk), group_by, names,
        std::move(aggs));
    ASSERT_TRUE(agg.ok());
    EXPECT_EQ(DrainBytes(agg->get()),
              ReferenceGroupBy(*table, keys, 4, 5, 6, 1))
        << "seed " << seed << " chunk " << chunk;

    // DISTINCT over the key columns: first-appearance order.
    auto cols = Columns(*table);
    std::set<std::string> seen;
    std::vector<std::string> expected;
    for (size_t r = 0; r < rows; ++r) {
      std::string row;
      for (size_t k : keys) row += CellBytes(*cols[k], r);
      if (seen.insert(row).second) expected.push_back(row);
    }
    DistinctOperator distinct(std::make_unique<ColumnStoreScan>(
        table, std::vector<size_t>(keys.begin(), keys.end())));
    EXPECT_EQ(DrainBytes(&distinct), expected) << "seed " << seed;
  }
}

TEST(ExecSweepTest, HashJoinMatchesNestedLoops) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    std::mt19937_64 rng(2000 + seed);
    // The first key pairs INT with DATE (or INT) on the build side.
    const bool date_build = seed % 2 == 0;
    auto probe = RandomTable(
        rng, {DataType::kInt64, DataType::kDouble, DataType::kString},
        300 + seed * 7);
    auto build = RandomTable(
        rng,
        {date_build ? DataType::kDate : DataType::kInt64, DataType::kDouble,
         DataType::kString, DataType::kInt64},
        200 + seed * 5);  // duplicate build keys abound
    std::vector<size_t> keys;
    for (size_t c = 0; c < 3; ++c) {
      if (rng() % 2 == 0) keys.push_back(c);
    }
    if (keys.empty()) keys.push_back(seed % 3);

    auto pcols = Columns(*probe);
    auto bcols = Columns(*build);
    std::vector<std::string> expected;
    for (size_t p = 0; p < probe->num_rows(); ++p) {
      for (size_t b = 0; b < build->num_rows(); ++b) {
        bool match = true;
        for (size_t k : keys) {
          std::string x = CellBytes(*pcols[k], p);
          if (x == "N" || x != CellBytes(*bcols[k], b)) {
            match = false;
            break;
          }
        }
        if (match) {
          expected.push_back(RowBytes(pcols.data(), pcols.size(), p) +
                             RowBytes(bcols.data(), bcols.size(), b));
        }
      }
    }

    std::vector<ExprPtr> probe_keys;
    std::vector<ExprPtr> build_keys;
    for (size_t k : keys) {
      probe_keys.push_back(Col(k, "p", probe->schema()->field(k).type));
      build_keys.push_back(Col(k, "b", build->schema()->field(k).type));
    }
    const size_t chunk = std::vector<size_t>{1, 64, 1024}[rng() % 3];
    auto join = HashJoinOperator::Create(
        std::make_unique<ChunkedScan>(probe, chunk),
        std::make_unique<ChunkedScan>(build, 1 + seed % 90), probe_keys,
        build_keys);
    ASSERT_TRUE(join.ok());
    EXPECT_EQ(DrainBytes(join->get()), expected) << "seed " << seed;
  }
}

TEST(ExecSweepTest, ManyDistinctKeysGrowTheTable) {
  // 120 000 distinct (int, string) keys, each seen twice, shuffled:
  // the key table doubles many times while groups keep
  // first-appearance order.
  const size_t distinct = 120000;
  std::vector<uint32_t> seq(2 * distinct);
  for (size_t i = 0; i < seq.size(); ++i) {
    seq[i] = static_cast<uint32_t>(i % distinct);
  }
  std::mt19937_64 rng(7);
  std::shuffle(seq.begin(), seq.end(), rng);
  auto schema = Schema::Make({{"k", DataType::kInt64},
                              {"s", DataType::kString}});
  auto table = std::make_shared<ColumnStoreTable>(schema);
  for (uint32_t v : seq) {
    table->column(0).AppendInt64(int64_t{v} * 1000003);
    table->column(1).AppendString("key_with_a_shared_prefix_" +
                                  std::to_string(v));
  }
  table->SetNumRows(seq.size());
  std::vector<uint32_t> first;
  std::vector<bool> seen(distinct, false);
  for (uint32_t v : seq) {
    if (!seen[v]) first.push_back(v);
    seen[v] = true;
  }

  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggFunc::kCountStar, nullptr, "n"});
  auto agg = HashAggregateOperator::Create(
      std::make_unique<ColumnStoreScan>(
          table, ColumnStoreScan::AllColumns(*table)),
      {Col(1, "s", DataType::kString), Col(0, "k", DataType::kInt64)},
      {"s", "k"}, std::move(aggs));
  ASSERT_TRUE(agg.ok());
  auto result = QueryResult::Drain(agg->get());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), distinct);
  for (size_t g = 0; g < distinct; g += 997) {
    auto row = result->Row(g);
    EXPECT_EQ(row[1], Value::Int64(int64_t{first[g]} * 1000003)) << g;
    EXPECT_EQ(row[2], Value::Int64(2)) << g;
  }

  DistinctOperator distinct_op(std::make_unique<ColumnStoreScan>(
      table, ColumnStoreScan::AllColumns(*table)));
  auto rows = QueryResult::Drain(&distinct_op);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->num_rows(), distinct);

  // Joining the table with itself on both keys: two matches per row,
  // in build-input order.
  auto join = HashJoinOperator::Create(
      std::make_unique<ColumnStoreScan>(
          table, ColumnStoreScan::AllColumns(*table)),
      std::make_unique<ColumnStoreScan>(
          table, ColumnStoreScan::AllColumns(*table)),
      {Col(0, "k", DataType::kInt64), Col(1, "s", DataType::kString)},
      {Col(0, "k", DataType::kInt64), Col(1, "s", DataType::kString)});
  ASSERT_TRUE(join.ok());
  auto joined = QueryResult::Drain(join->get());
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 2 * seq.size());
}

TEST(ExecSweepTest, KeyTableSeparatesBitPatternsAndNulls) {
  auto col = std::make_shared<ColumnVector>(DataType::kDouble);
  ColumnVector& d = *col;
  d.AppendDouble(0.0);
  d.AppendDouble(-0.0);
  d.AppendDouble(std::numeric_limits<double>::quiet_NaN());
  d.AppendDouble(DoubleFromBits(0x7ff8000000000001ULL));
  d.AppendNull();
  d.AppendDouble(-0.0);
  d.AppendNull();
  std::vector<std::shared_ptr<ColumnVector>> keys = {col};
  uint32_t ids[7];

  KeyTable groups({DataType::kDouble}, /*null_keys_match=*/true);
  groups.FindOrInsert(keys, 7, ids);
  EXPECT_EQ(groups.size(), 5u);
  const uint32_t expected[] = {0, 1, 2, 3, 4, 1, 4};
  for (size_t i = 0; i < 7; ++i) EXPECT_EQ(ids[i], expected[i]) << i;

  KeyTable join({DataType::kDouble}, /*null_keys_match=*/false);
  join.FindOrInsert(keys, 7, ids);
  EXPECT_EQ(join.size(), 4u);
  EXPECT_EQ(ids[4], KeyTable::kNoEntry);
  join.Find(keys, 7, ids);
  EXPECT_EQ(ids[5], 1u);
  EXPECT_EQ(ids[6], KeyTable::kNoEntry);

  ColumnVector out(DataType::kDouble);
  groups.AppendKeyColumn(0, 0, groups.size(), &out);
  ASSERT_EQ(out.size(), 5u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(CellBytes(out, i), CellBytes(d, i));
  EXPECT_TRUE(out.IsNull(4));
}

}  // namespace
}  // namespace nodb
