// Property test: the columnar expression kernels agree with an
// independent, obviously-correct row-at-a-time reference interpreter
// on randomly generated expression trees over randomly generated
// batches (including NULLs, NaNs, int64 overflow and all type
// combinations the binder permits), at batch sizes around the
// executor's 1024-row batch. FilterOperator, a global
// HashAggregateOperator and DOUBLE ordering are checked against the
// same reference, since the engine-vs-engine equivalence suites run
// the same kernels on both sides and cannot catch a kernel bug.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "exec/aggregate.h"
#include "exec/column_store.h"
#include "exec/expr.h"
#include "exec/filter.h"
#include "exec/query_result.h"
#include "exec/sort.h"
#include "util/random.h"

namespace nodb {
namespace {

// ----------------------------------------------------------- reference

int64_t RefInt(const Value& v) {
  return v.is_date() ? v.date_days() : v.int64();
}

/// Two's-complement int64 arithmetic, written out independently.
int64_t RefWrap(ArithOp op, int64_t a, int64_t b) {
  uint64_t x = static_cast<uint64_t>(a);
  uint64_t y = static_cast<uint64_t>(b);
  uint64_t r = op == ArithOp::kAdd ? x + y : op == ArithOp::kSub ? x - y
                                                                 : x * y;
  return static_cast<int64_t>(r);
}

template <typename T>
bool RefCompare(CompareOp op, const T& a, const T& b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

/// Row-wise reference semantics. NULL is Value::Null(); booleans are
/// Value::Int64(0/1).
Value EvalRef(const Expr& e, const std::vector<Value>& row) {
  if (const auto* col = dynamic_cast<const ColumnRefExpr*>(&e)) {
    return row[col->index()];
  }
  if (const auto* lit = dynamic_cast<const LiteralExpr*>(&e)) {
    return lit->value();
  }
  if (const auto* cmp = dynamic_cast<const CompareExpr*>(&e)) {
    Value l = EvalRef(*cmp->left(), row);
    Value r = EvalRef(*cmp->right(), row);
    if (l.is_null() || r.is_null()) return Value::Null();
    bool pass;
    if (l.is_string()) {
      pass = RefCompare(cmp->op(), l.str(), r.str());
    } else if (!l.is_double() && !r.is_double()) {
      // Integer-exact comparison (INT/DATE).
      pass = RefCompare(cmp->op(), RefInt(l), RefInt(r));
    } else {
      // IEEE: every comparison with NaN but <> is false.
      pass = RefCompare(cmp->op(), l.AsDouble(), r.AsDouble());
    }
    return Value::Int64(pass ? 1 : 0);
  }
  if (const auto* logical = dynamic_cast<const LogicalExpr*>(&e)) {
    Value l = EvalRef(*logical->left(), row);
    if (logical->op() == LogicalOp::kNot) {
      if (l.is_null()) return Value::Null();
      return Value::Int64(l.int64() != 0 ? 0 : 1);
    }
    Value r = EvalRef(*logical->right(), row);
    int a = l.is_null() ? -1 : (l.int64() != 0 ? 1 : 0);
    int b = r.is_null() ? -1 : (r.int64() != 0 ? 1 : 0);
    int v;
    if (logical->op() == LogicalOp::kAnd) {
      v = (a == 0 || b == 0) ? 0 : ((a == -1 || b == -1) ? -1 : 1);
    } else {
      v = (a == 1 || b == 1) ? 1 : ((a == -1 || b == -1) ? -1 : 0);
    }
    return v == -1 ? Value::Null() : Value::Int64(v);
  }
  if (const auto* arith = dynamic_cast<const ArithExpr*>(&e)) {
    Value l = EvalRef(*arith->left(), row);
    Value r = EvalRef(*arith->right(), row);
    if (l.is_null() || r.is_null()) return Value::Null();
    ArithOp op = arith->op();
    if (!l.is_double() && !r.is_double() && op != ArithOp::kDiv) {
      return Value::Int64(RefWrap(op, RefInt(l), RefInt(r)));
    }
    double a = l.AsDouble();
    double b = r.AsDouble();
    switch (op) {
      case ArithOp::kAdd:
        return Value::Double(a + b);
      case ArithOp::kSub:
        return Value::Double(a - b);
      case ArithOp::kMul:
        return Value::Double(a * b);
      case ArithOp::kDiv:
        if (b == 0) return Value::Null();
        return Value::Double(a / b);
    }
    return Value::Null();
  }
  if (const auto* isnull = dynamic_cast<const IsNullExpr*>(&e)) {
    bool is_null = EvalRef(*isnull->input(), row).is_null();
    return Value::Int64(is_null != isnull->negated() ? 1 : 0);
  }
  if (const auto* like = dynamic_cast<const LikeExpr*>(&e)) {
    Value in = EvalRef(*like->input(), row);
    if (in.is_null()) return Value::Null();
    bool m = LikeExpr::Match(in.str(), like->pattern());
    return Value::Int64(m != like->negated() ? 1 : 0);
  }
  ADD_FAILURE() << "unsupported node in reference: " << e.ToString();
  return Value::Null();
}

/// PostgreSQL's DOUBLE order, written out independently: NaN equals NaN
/// and is greater than every other number.
bool RefDoubleLess(double x, double y) {
  if (std::isnan(y)) return !std::isnan(x);
  return !std::isnan(x) && x < y;
}

/// Result equality: doubles bit-for-bit (so -0.0 differs from 0.0), any
/// two NaNs alike.
bool SameValue(const Value& a, const Value& b) {
  if (a.is_double() && b.is_double()) {
    double x = a.dbl();
    double y = b.dbl();
    if (std::isnan(x) && std::isnan(y)) return true;
    uint64_t bx = 0;
    uint64_t by = 0;
    std::memcpy(&bx, &x, sizeof(x));
    std::memcpy(&by, &y, sizeof(y));
    return bx == by;
  }
  return a == b;
}

// ----------------------------------------------------------- generator

/// Builds random well-typed expressions over the test schema.
class ExprGenerator {
 public:
  ExprGenerator(std::shared_ptr<Schema> schema, uint64_t seed)
      : schema_(std::move(schema)), rng_(seed) {}

  /// A random boolean (kInt64) expression up to `depth` levels deep.
  ExprPtr Boolean(int depth) {
    if (depth <= 0 || rng_.Bernoulli(0.3)) return Leaf();
    switch (rng_.Uniform(3)) {
      case 0:
        return std::make_shared<LogicalExpr>(
            LogicalOp::kAnd, Boolean(depth - 1), Boolean(depth - 1));
      case 1:
        return std::make_shared<LogicalExpr>(
            LogicalOp::kOr, Boolean(depth - 1), Boolean(depth - 1));
      default:
        return std::make_shared<LogicalExpr>(LogicalOp::kNot,
                                             Boolean(depth - 1), nullptr);
    }
  }

  /// A random numeric expression up to `depth` levels deep.
  ExprPtr NumericTerm(int depth) {
    if (depth <= 0 || rng_.Bernoulli(0.4)) {
      return rng_.Bernoulli(0.6) ? ColumnOfType(true) : NumericLiteral();
    }
    ArithOp ops[] = {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul,
                     ArithOp::kDiv};
    return std::make_shared<ArithExpr>(ops[rng_.Uniform(4)],
                                       NumericTerm(depth - 1),
                                       NumericTerm(depth - 1));
  }

  ExprPtr ColumnOfType(bool numeric) {
    std::vector<size_t> candidates;
    for (size_t i = 0; i < schema_->num_fields(); ++i) {
      bool is_numeric = schema_->field(i).type != DataType::kString;
      if (is_numeric == numeric) candidates.push_back(i);
    }
    size_t i = candidates[rng_.Uniform(candidates.size())];
    return std::make_shared<ColumnRefExpr>(i, schema_->field(i).name,
                                           schema_->field(i).type);
  }

 private:
  ExprPtr NumericLiteral() {
    switch (rng_.Uniform(8)) {
      case 0:
      case 1:
      case 2:
        return std::make_shared<LiteralExpr>(
            Value::Int64(rng_.UniformRange(-50, 50)), DataType::kInt64);
      case 3:
      case 4:
        return std::make_shared<LiteralExpr>(
            Value::Double(static_cast<double>(rng_.UniformRange(-500, 500)) /
                          10.0),
            DataType::kDouble);
      case 5:
        return std::make_shared<LiteralExpr>(
            Value::Date(rng_.UniformRange(8000, 9000)), DataType::kDate);
      case 6:
        return std::make_shared<LiteralExpr>(
            Value::Double(std::numeric_limits<double>::quiet_NaN()),
            DataType::kDouble);
      default:
        return std::make_shared<LiteralExpr>(Value::Null(), DataType::kInt64);
    }
  }

  ExprPtr StringLiteral() {
    return std::make_shared<LiteralExpr>(
        Value::String(std::string(1, static_cast<char>('a' + rng_.Uniform(6)))),
        DataType::kString);
  }

  ExprPtr Leaf() {
    switch (rng_.Uniform(8)) {
      case 0: {
        ExprPtr in = rng_.Bernoulli(0.5) ? ColumnOfType(rng_.Bernoulli(0.5))
                                         : NumericTerm(1);
        return std::make_shared<IsNullExpr>(std::move(in),
                                            rng_.Bernoulli(0.5));
      }
      case 1: {
        const char* patterns[] = {"a%", "%b", "_", "%a_%", "c", "%"};
        return std::make_shared<LikeExpr>(ColumnOfType(false),
                                          patterns[rng_.Uniform(6)],
                                          rng_.Bernoulli(0.5));
      }
      default:
        return Comparison();
    }
  }

  ExprPtr Comparison() {
    CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
    CompareOp op = ops[rng_.Uniform(6)];
    if (rng_.Bernoulli(0.3)) {
      // String comparison: literal on the right, on the left, or none.
      switch (rng_.Uniform(3)) {
        case 0:
          return std::make_shared<CompareExpr>(op, ColumnOfType(false),
                                               StringLiteral());
        case 1:
          return std::make_shared<CompareExpr>(op, StringLiteral(),
                                               ColumnOfType(false));
        default:
          return std::make_shared<CompareExpr>(op, ColumnOfType(false),
                                               ColumnOfType(false));
      }
    }
    return std::make_shared<CompareExpr>(op, NumericTerm(2),
                                         NumericTerm(2));
  }

  std::shared_ptr<Schema> schema_;
  Random rng_;
};

// ---------------------------------------------------------------- fixture

std::shared_ptr<Schema> TestSchema() {
  return Schema::Make({{"i1", DataType::kInt64},
                       {"i2", DataType::kInt64},
                       {"big", DataType::kInt64},
                       {"d1", DataType::kDouble},
                       {"s1", DataType::kString},
                       {"s2", DataType::kString},
                       {"t1", DataType::kDate}});
}

/// A random table of `rows` rows with NULLs in every column, NaNs in
/// d1 and values near the int64 limits in `big`.
std::shared_ptr<ColumnStoreTable> RandomTable(
    const std::shared_ptr<Schema>& schema, size_t rows, Random* rng) {
  auto table = std::make_shared<ColumnStoreTable>(schema);
  RecordBatch batch(schema);
  auto maybe = [&](Value v) {
    return rng->Bernoulli(0.1) ? Value::Null() : std::move(v);
  };
  auto str = [&]() {
    return Value::String(std::string(1 + rng->Uniform(3),
                                     static_cast<char>('a' + rng->Uniform(6))));
  };
  for (size_t r = 0; r < rows; ++r) {
    int64_t big = rng->Bernoulli(0.5)
                      ? std::numeric_limits<int64_t>::max() - rng->Uniform(4)
                      : std::numeric_limits<int64_t>::min() + rng->Uniform(4);
    double d = rng->Bernoulli(0.05)
                   ? std::numeric_limits<double>::quiet_NaN()
                   : static_cast<double>(rng->UniformRange(-400, 400)) / 8.0;
    for (size_t c = 0; c < schema->num_fields(); ++c) {
      Value v;
      switch (c) {
        case 0:
          v = Value::Int64(rng->UniformRange(-40, 40));
          break;
        case 1:
          v = Value::Int64(rng->UniformRange(-5, 5));
          break;
        case 2:
          v = Value::Int64(big);
          break;
        case 3:
          v = Value::Double(d);
          break;
        case 4:
        case 5:
          v = str();
          break;
        default:
          v = Value::Date(rng->UniformRange(8000, 9000));
          break;
      }
      table->column(c).AppendValue(maybe(std::move(v)));
    }
  }
  table->SetNumRows(rows);
  return table;
}

RecordBatch WholeTable(const ColumnStoreTable& table) {
  std::vector<std::shared_ptr<ColumnVector>> cols;
  for (size_t c = 0; c < table.schema()->num_fields(); ++c) {
    cols.push_back(table.column_ptr(c));
  }
  return RecordBatch(table.schema(), std::move(cols), table.num_rows());
}

std::unique_ptr<ColumnStoreScan> ScanAll(
    const std::shared_ptr<ColumnStoreTable>& table) {
  return std::make_unique<ColumnStoreScan>(
      table, ColumnStoreScan::AllColumns(*table));
}

/// Reference for one global aggregate over `inputs` (one Value per row;
/// unused for COUNT(*)). Sums add in row order from +0.0; MIN/MAX keep
/// the first value and replace it only with a strictly better one,
/// ordering doubles by RefDoubleLess.
Value RefAggregate(AggFunc func, DataType in_type,
                   const std::vector<Value>& inputs, size_t rows) {
  if (func == AggFunc::kCountStar) {
    return Value::Int64(static_cast<int64_t>(rows));
  }
  int64_t count = 0;
  int64_t isum = 0;
  double dsum = 0;
  Value best;
  for (const Value& v : inputs) {
    if (v.is_null()) continue;
    ++count;
    if (func == AggFunc::kSum || func == AggFunc::kAvg) {
      if (v.is_double()) {
        dsum += v.dbl();
      } else {
        isum = RefWrap(ArithOp::kAdd, isum, RefInt(v));
        dsum += static_cast<double>(RefInt(v));
      }
    } else if (func == AggFunc::kMin || func == AggFunc::kMax) {
      bool better;
      if (best.is_null()) {
        better = true;
      } else if (v.is_string()) {
        better = func == AggFunc::kMin ? v.str() < best.str()
                                       : v.str() > best.str();
      } else if (v.is_double()) {
        better = func == AggFunc::kMin ? RefDoubleLess(v.dbl(), best.dbl())
                                       : RefDoubleLess(best.dbl(), v.dbl());
      } else {
        better = func == AggFunc::kMin ? RefInt(v) < RefInt(best)
                                       : RefInt(v) > RefInt(best);
      }
      if (better) best = v;
    }
  }
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int64(count);
    case AggFunc::kSum:
      if (count == 0) return Value::Null();
      return in_type == DataType::kDouble ? Value::Double(dsum)
                                          : Value::Int64(isum);
    case AggFunc::kAvg:
      if (count == 0) return Value::Null();
      return Value::Double(dsum / static_cast<double>(count));
    case AggFunc::kMin:
    case AggFunc::kMax:
      return best;
  }
  return Value::Null();
}

// --------------------------------------------------------------- the test

constexpr size_t kBatchSizes[] = {0, 1, 1023, 1024, 1025, 4097};

class ExprPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExprPropertySweep, ColumnarMatchesReference) {
  uint64_t seed = GetParam();
  Random rng(seed);
  auto schema = TestSchema();
  ExprGenerator generator(schema, seed * 31 + 7);

  std::vector<size_t> sizes(std::begin(kBatchSizes), std::end(kBatchSizes));
  sizes.push_back(50 + rng.Uniform(100));
  for (size_t rows : sizes) {
    auto table = RandomTable(schema, rows, &rng);
    RecordBatch batch = WholeTable(*table);
    std::vector<std::vector<Value>> ref_rows;
    for (size_t r = 0; r < rows; ++r) ref_rows.push_back(batch.Row(r));

    for (int iter = 0; iter < 16; ++iter) {
      ExprPtr expr =
          iter % 4 == 3 ? generator.NumericTerm(3) : generator.Boolean(3);
      ASSERT_TRUE(expr->OutputType(*schema).ok()) << expr->ToString();
      auto col = expr->Evaluate(batch);
      ASSERT_TRUE(col.ok()) << expr->ToString();
      ASSERT_EQ((*col)->size(), rows);
      for (size_t r = 0; r < rows; ++r) {
        Value expected = EvalRef(*expr, ref_rows[r]);
        Value got = (*col)->GetValue(r);
        ASSERT_TRUE(SameValue(got, expected))
            << "seed " << seed << " rows " << rows << " iter " << iter
            << " row " << r << ": " << expr->ToString() << " got "
            << got.ToString() << " want " << expected.ToString();
      }
    }
  }
}

TEST_P(ExprPropertySweep, FilterMatchesReference) {
  uint64_t seed = GetParam();
  Random rng(seed + 1000);
  auto schema = TestSchema();
  ExprGenerator generator(schema, seed * 17 + 3);
  for (size_t rows : kBatchSizes) {
    auto table = RandomTable(schema, rows, &rng);
    RecordBatch batch = WholeTable(*table);
    for (int iter = 0; iter < 4; ++iter) {
      ExprPtr predicate = generator.Boolean(2);
      FilterOperator filter(ScanAll(table), predicate);
      auto result = QueryResult::Drain(&filter);
      ASSERT_TRUE(result.ok()) << predicate->ToString();
      size_t out = 0;
      for (size_t r = 0; r < rows; ++r) {
        std::vector<Value> row = batch.Row(r);
        if (EvalRef(*predicate, row) != Value::Int64(1)) continue;
        ASSERT_LT(out, result->num_rows()) << predicate->ToString();
        std::vector<Value> got = result->Row(out++);
        for (size_t c = 0; c < row.size(); ++c) {
          ASSERT_TRUE(SameValue(got[c], row[c]))
              << "seed " << seed << " rows " << rows << " input row " << r
              << " column " << c << ": " << predicate->ToString();
        }
      }
      EXPECT_EQ(out, result->num_rows()) << predicate->ToString();
    }
  }
}

TEST_P(ExprPropertySweep, GlobalAggregateMatchesReference) {
  uint64_t seed = GetParam();
  Random rng(seed + 2000);
  auto schema = TestSchema();
  ExprGenerator generator(schema, seed * 13 + 5);
  for (size_t rows : kBatchSizes) {
    auto table = RandomTable(schema, rows, &rng);
    RecordBatch batch = WholeTable(*table);
    std::vector<std::vector<Value>> ref_rows;
    for (size_t r = 0; r < rows; ++r) ref_rows.push_back(batch.Row(r));

    std::vector<AggregateSpec> aggs;
    aggs.push_back({AggFunc::kCountStar, nullptr, "n"});
    for (size_t c = 0; c < schema->num_fields(); ++c) {
      const Field& f = schema->field(c);
      auto ref = std::make_shared<ColumnRefExpr>(c, f.name, f.type);
      aggs.push_back({AggFunc::kCount, ref, "count_" + f.name});
      aggs.push_back({AggFunc::kMin, ref, "min_" + f.name});
      aggs.push_back({AggFunc::kMax, ref, "max_" + f.name});
      if (f.type != DataType::kString) {
        aggs.push_back({AggFunc::kSum, ref, "sum_" + f.name});
        aggs.push_back({AggFunc::kAvg, ref, "avg_" + f.name});
      }
    }
    for (int i = 0; i < 4; ++i) {
      aggs.push_back({AggFunc::kSum, generator.NumericTerm(2),
                      "sum_term" + std::to_string(i)});
    }

    auto agg = HashAggregateOperator::Create(ScanAll(table), {}, {}, aggs);
    ASSERT_TRUE(agg.ok());
    auto result = QueryResult::Drain(agg->get());
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->num_rows(), 1u);
    std::vector<Value> got = result->Row(0);
    for (size_t a = 0; a < aggs.size(); ++a) {
      std::vector<Value> inputs;
      DataType in_type = DataType::kInt64;
      if (aggs[a].input != nullptr) {
        in_type = *aggs[a].input->OutputType(*schema);
        for (size_t r = 0; r < rows; ++r) {
          inputs.push_back(EvalRef(*aggs[a].input, ref_rows[r]));
        }
      }
      Value expected = RefAggregate(aggs[a].func, in_type, inputs, rows);
      EXPECT_TRUE(SameValue(got[a], expected))
          << "seed " << seed << " rows " << rows << " " << aggs[a].name
          << ": got " << got[a].ToString() << " want "
          << expected.ToString();
    }
  }
}

// DOUBLE MIN/MAX and ORDER BY follow one total order (NaN above every
// number), so shuffling the input rows changes neither answer.
TEST_P(ExprPropertySweep, DoubleOrderIgnoresRowOrder) {
  uint64_t seed = GetParam();
  Random rng(seed + 3000);
  auto schema = TestSchema();
  const size_t d1 = 3;
  for (size_t rows : kBatchSizes) {
    auto table = RandomTable(schema, rows, &rng);
    std::vector<uint32_t> perm(rows);
    for (size_t r = 0; r < rows; ++r) perm[r] = static_cast<uint32_t>(r);
    for (size_t r = rows; r > 1; --r) {
      std::swap(perm[r - 1], perm[rng.Uniform(r)]);
    }
    auto shuffled = std::make_shared<ColumnStoreTable>(schema);
    for (size_t c = 0; c < schema->num_fields(); ++c) {
      shuffled->column(c).AppendSelected(table->column(c), perm.data(),
                                         rows);
    }
    shuffled->SetNumRows(rows);

    // One row of MIN(d1), MAX(d1), then d1 in ascending and descending
    // order.
    auto answers = [&](const std::shared_ptr<ColumnStoreTable>& t) {
      std::vector<Value> out;
      auto d1_ref =
          std::make_shared<ColumnRefExpr>(d1, "d1", DataType::kDouble);
      auto agg = HashAggregateOperator::Create(
          ScanAll(t), {}, {},
          {{AggFunc::kMin, d1_ref, "min"}, {AggFunc::kMax, d1_ref, "max"}});
      EXPECT_TRUE(agg.ok());
      auto extremes = QueryResult::Drain(agg->get());
      EXPECT_TRUE(extremes.ok());
      for (const Value& v : extremes->Row(0)) out.push_back(v);
      for (bool ascending : {true, false}) {
        auto key = std::make_shared<ColumnRefExpr>(0, "d1", DataType::kDouble);
        SortOperator sort(
            std::make_unique<ColumnStoreScan>(t, std::vector<size_t>{d1}),
            {{key, ascending}});
        auto sorted = QueryResult::Drain(&sort);
        EXPECT_TRUE(sorted.ok());
        for (size_t r = 0; r < sorted->num_rows(); ++r) {
          Value v = sorted->Row(r)[0];
          if (r > 0 && !v.is_null() && !out.back().is_null()) {
            double prev = out.back().dbl();
            EXPECT_FALSE(ascending ? RefDoubleLess(v.dbl(), prev)
                                   : RefDoubleLess(prev, v.dbl()))
                << "seed " << seed << " rows " << rows << " row " << r;
          }
          out.push_back(std::move(v));
        }
      }
      return out;
    };
    std::vector<Value> want = answers(table);
    std::vector<Value> got = answers(shuffled);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(SameValue(got[i], want[i]))
          << "seed " << seed << " rows " << rows << " value " << i << ": got "
          << got[i].ToString() << " want " << want[i].ToString();
    }
  }
}

// ------------------------------------------------------ selection path

/// Column-vs-literal and column-vs-column comparisons over every type
/// pair the binder permits, AND trees of them, and now and then a
/// predicate only the mask path serves (OR, NOT, IS NULL, LIKE,
/// arithmetic operands). Literals include NULLs of each type, NaN,
/// -0.0, +0.0 and integral doubles; either side may be the literal.
class SelectionGenerator {
 public:
  SelectionGenerator(std::shared_ptr<Schema> schema, uint64_t seed)
      : schema_(schema), rng_(seed), general_(std::move(schema), seed + 1) {}

  ExprPtr Predicate(int depth) {
    if (depth > 0 && rng_.Bernoulli(0.4)) {
      return std::make_shared<LogicalExpr>(LogicalOp::kAnd,
                                           Predicate(depth - 1),
                                           Predicate(depth - 1));
    }
    if (rng_.Bernoulli(0.1)) return general_.Boolean(2);
    return Comparison();
  }

 private:
  ExprPtr Comparison() {
    CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
    const CompareOp op = ops[rng_.Uniform(6)];
    const bool strings = rng_.Bernoulli(0.25);
    ExprPtr column = general_.ColumnOfType(!strings);
    ExprPtr other;
    switch (rng_.Uniform(3)) {
      case 0:
        other = general_.ColumnOfType(!strings);
        break;
      default:
        other = strings ? StringLiteral() : NumericLiteral();
        break;
    }
    if (rng_.Bernoulli(0.5)) std::swap(column, other);  // literal on the left
    return std::make_shared<CompareExpr>(op, std::move(column),
                                         std::move(other));
  }

  ExprPtr NumericLiteral() {
    const double doubles[] = {std::numeric_limits<double>::quiet_NaN(),
                              -0.0,
                              0.0,
                              3.0,
                              -2.5,
                              static_cast<double>(rng_.UniformRange(-40, 40))};
    switch (rng_.Uniform(7)) {
      case 0:
      case 1:
        return std::make_shared<LiteralExpr>(
            Value::Int64(rng_.UniformRange(-40, 40)), DataType::kInt64);
      case 2:
      case 3:
        return std::make_shared<LiteralExpr>(
            Value::Double(doubles[rng_.Uniform(6)]), DataType::kDouble);
      case 4:
        return std::make_shared<LiteralExpr>(
            Value::Date(rng_.UniformRange(8000, 9000)), DataType::kDate);
      case 5:
        return std::make_shared<LiteralExpr>(Value::Null(), DataType::kDouble);
      default:
        return std::make_shared<LiteralExpr>(Value::Null(), DataType::kInt64);
    }
  }

  ExprPtr StringLiteral() {
    if (rng_.Bernoulli(0.15)) {
      return std::make_shared<LiteralExpr>(Value::Null(), DataType::kString);
    }
    return std::make_shared<LiteralExpr>(
        Value::String(std::string(rng_.Uniform(3),
                                  static_cast<char>('a' + rng_.Uniform(6)))),
        DataType::kString);
  }

  std::shared_ptr<Schema> schema_;
  Random rng_;
  ExprGenerator general_;
};

/// RandomTable with the DOUBLE column's non-NULL values drawn from
/// -0.0, +0.0, NaN, integral and fractional values.
std::shared_ptr<ColumnStoreTable> SelectionTable(
    const std::shared_ptr<Schema>& schema, size_t rows, Random* rng) {
  auto table = RandomTable(schema, rows, rng);
  const size_t d1 = 3;
  ColumnVector doubles(DataType::kDouble);
  for (size_t r = 0; r < rows; ++r) {
    if (table->column(d1).IsNull(r)) {
      doubles.AppendNull();
      continue;
    }
    switch (rng->Uniform(5)) {
      case 0:
        doubles.AppendDouble(-0.0);
        break;
      case 1:
        doubles.AppendDouble(0.0);
        break;
      case 2:
        doubles.AppendDouble(std::numeric_limits<double>::quiet_NaN());
        break;
      case 3:
        doubles.AppendDouble(static_cast<double>(rng->UniformRange(-40, 40)));
        break;
      default:
        doubles.AppendDouble(table->column(d1).GetDouble(r));
        break;
    }
  }
  table->column(d1).Clear();
  table->column(d1).AppendRange(doubles, 0, rows);
  return table;
}

/// Expr::Select keeps exactly the candidates the row-wise reference
/// finds TRUE, in candidate order, for every input selection: none
/// (all rows), empty, full, and random subsets — the last also with the
/// output written over the input.
TEST_P(ExprPropertySweep, SelectMatchesReference) {
  uint64_t seed = GetParam();
  Random rng(seed + 4000);
  auto schema = TestSchema();
  SelectionGenerator generator(schema, seed * 19 + 11);
  for (size_t rows : kBatchSizes) {
    auto table = SelectionTable(schema, rows, &rng);
    RecordBatch batch = WholeTable(*table);
    std::vector<std::vector<Value>> ref_rows;
    for (size_t r = 0; r < rows; ++r) ref_rows.push_back(batch.Row(r));

    std::vector<uint32_t> full(rows);
    for (size_t r = 0; r < rows; ++r) full[r] = static_cast<uint32_t>(r);
    for (int iter = 0; iter < 24; ++iter) {
      ExprPtr predicate = generator.Predicate(3);
      ASSERT_TRUE(predicate->OutputType(*schema).ok())
          << predicate->ToString();
      std::vector<bool> want_row(rows);
      for (size_t r = 0; r < rows; ++r) {
        want_row[r] = EvalRef(*predicate, ref_rows[r]) == Value::Int64(1);
      }

      std::vector<uint32_t> subset;
      for (uint32_t r = 0; r < rows; ++r) {
        if (rng.Bernoulli(0.5)) subset.push_back(r);
      }
      struct Case {
        const char* name;
        std::vector<uint32_t> in;
        bool all_rows;  // `in` is null
        bool in_place;  // `out` aliases `in`
      };
      const Case cases[] = {{"all rows", {}, true, false},
                            {"empty", {}, false, false},
                            {"full", full, false, false},
                            {"subset", subset, false, false},
                            {"subset in place", subset, false, true}};
      for (const Case& c : cases) {
        std::vector<uint32_t> want;
        const size_t n = c.all_rows ? rows : c.in.size();
        for (size_t j = 0; j < n; ++j) {
          const uint32_t r = c.all_rows ? static_cast<uint32_t>(j) : c.in[j];
          if (want_row[r]) want.push_back(r);
        }
        std::vector<uint32_t> in = c.in;
        std::vector<uint32_t> scratch(std::max<size_t>(n, 1));
        uint32_t* out = c.in_place ? in.data() : scratch.data();
        auto got = predicate->Select(batch, c.all_rows ? nullptr : in.data(),
                                     n, out);
        ASSERT_TRUE(got.ok()) << predicate->ToString();
        ASSERT_EQ(*got, want.size())
            << "seed " << seed << " rows " << rows << " " << c.name << ": "
            << predicate->ToString();
        for (size_t k = 0; k < want.size(); ++k) {
          ASSERT_EQ(out[k], want[k])
              << "seed " << seed << " rows " << rows << " " << c.name
              << " position " << k << ": " << predicate->ToString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprPropertySweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace nodb
