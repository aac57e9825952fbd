// Tests for the execution engine: expression evaluation (including SQL
// three-valued logic) and the volcano operators over a column store.

#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "exec/column_store.h"
#include "exec/distinct.h"
#include "exec/expr.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
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

}  // namespace
}  // namespace nodb
