#ifndef NODB_EXEC_EXPR_H_
#define NODB_EXEC_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "types/record_batch.h"
#include "types/schema.h"
#include "types/value.h"
#include "util/result.h"

namespace nodb {

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// Binary comparison operators.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Binary/unary logical connectives with SQL three-valued semantics.
enum class LogicalOp { kAnd, kOr, kNot };

/// Binary arithmetic operators.
enum class ArithOp { kAdd, kSub, kMul, kDiv };

std::string_view CompareOpToString(CompareOp op);
std::string_view ArithOpToString(ArithOp op);

/// The operator with its operands swapped: `a op b` == `b Mirror(op) a`.
CompareOp MirrorCompareOp(CompareOp op);

/// Two's-complement int64 arithmetic. Computed in uint64_t, where
/// overflow wraps instead of being undefined behaviour.
inline int64_t WrappingAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
inline int64_t WrappingSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t WrappingMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

/// The one selection primitive (SQL WHERE semantics: TRUE keeps a row,
/// FALSE and NULL drop it). Reads the boolean (kInt64) `mask` at the
/// `n` candidate rows — rows [0, n) when `in` is null, else in[0..n) —
/// and writes the rows that pass to `out`, in order. `out` may alias
/// `in`. Returns the number of rows written.
size_t SelectTrue(const ColumnVector& mask, const uint32_t* in, size_t n,
                  uint32_t* out);

/// A scalar expression evaluated column-at-a-time over a RecordBatch.
///
/// Expressions are produced by the SQL binder with column references
/// already resolved to positional indices into the operator's input
/// schema. Booleans are represented as kInt64 columns holding 0/1/NULL
/// (SQL three-valued logic). Every node evaluates a whole batch with
/// one typed loop over the operands' arrays; there is no row-at-a-time
/// evaluator.
class Expr {
 public:
  virtual ~Expr() = default;

  /// Result type of this expression over `schema`.
  virtual Result<DataType> OutputType(const Schema& schema) const = 0;

  /// Evaluates over all rows of `batch`.
  virtual Result<std::shared_ptr<ColumnVector>> Evaluate(
      const RecordBatch& batch) const = 0;

  /// Writes, in order, the candidate rows of `batch` where this boolean
  /// expression is TRUE (SQL WHERE: FALSE and NULL drop a row) to `out`
  /// and returns how many it wrote. The candidates are rows [0, n) when
  /// `in` is null, else in[0..n); `out` may alias `in`, so a later
  /// conjunct narrows an earlier one's selection in place. This default
  /// evaluates every row and selects from the mask (SelectTrue);
  /// comparisons and LIKE test and compact only the candidates in one
  /// loop, and AND chains its children.
  virtual Result<size_t> Select(const RecordBatch& batch, const uint32_t* in,
                                size_t n, uint32_t* out) const;

  /// Appends the input-column indices this expression reads.
  virtual void CollectColumns(std::vector<size_t>* cols) const = 0;

  virtual std::string ToString() const = 0;
};

/// Reference to input column `index` (name kept for display).
class ColumnRefExpr final : public Expr {
 public:
  ColumnRefExpr(size_t index, std::string name, DataType type)
      : index_(index), name_(std::move(name)), type_(type) {}

  size_t index() const { return index_; }
  const std::string& name() const { return name_; }
  DataType type() const { return type_; }

  Result<DataType> OutputType(const Schema& schema) const override;
  Result<std::shared_ptr<ColumnVector>> Evaluate(
      const RecordBatch& batch) const override;
  void CollectColumns(std::vector<size_t>* cols) const override {
    cols->push_back(index_);
  }
  std::string ToString() const override { return name_; }

 private:
  size_t index_;
  std::string name_;
  DataType type_;
};

/// A constant.
class LiteralExpr final : public Expr {
 public:
  LiteralExpr(Value value, DataType type)
      : value_(std::move(value)), type_(type) {}

  const Value& value() const { return value_; }
  DataType type() const { return type_; }

  Result<DataType> OutputType(const Schema& schema) const override;
  Result<std::shared_ptr<ColumnVector>> Evaluate(
      const RecordBatch& batch) const override;
  void CollectColumns(std::vector<size_t>*) const override {}
  std::string ToString() const override { return value_.ToString(); }

 private:
  Value value_;
  DataType type_;
};

/// left <op> right with NULL-propagating semantics. INT/DATE against
/// INT/DATE compares int64-exactly; a DOUBLE on either side compares in
/// double (IEEE: any comparison with NaN but <> is false). A literal on
/// either side is compared as one scalar, never expanded into a column.
class CompareExpr final : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  CompareOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  Result<DataType> OutputType(const Schema& schema) const override;
  Result<std::shared_ptr<ColumnVector>> Evaluate(
      const RecordBatch& batch) const override;
  Result<size_t> Select(const RecordBatch& batch, const uint32_t* in,
                        size_t n, uint32_t* out) const override;
  void CollectColumns(std::vector<size_t>* cols) const override {
    left_->CollectColumns(cols);
    right_->CollectColumns(cols);
  }
  std::string ToString() const override;

 private:
  CompareOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// AND / OR / NOT with three-valued logic.
class LogicalExpr final : public Expr {
 public:
  /// For kNot, `right` is null.
  LogicalExpr(LogicalOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  LogicalOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  Result<DataType> OutputType(const Schema& schema) const override;
  Result<std::shared_ptr<ColumnVector>> Evaluate(
      const RecordBatch& batch) const override;
  /// AND selects with its left child, then narrows with its right; OR
  /// and NOT select from the evaluated mask.
  Result<size_t> Select(const RecordBatch& batch, const uint32_t* in,
                        size_t n, uint32_t* out) const override;
  void CollectColumns(std::vector<size_t>* cols) const override {
    left_->CollectColumns(cols);
    if (right_) right_->CollectColumns(cols);
  }
  std::string ToString() const override;

 private:
  LogicalOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// left <op> right. INT op INT stays INT (except /) and wraps on
/// overflow (two's complement); everything else computes in double.
/// DATE participates as its day number. x / 0 yields NULL.
class ArithExpr final : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  ArithOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  Result<DataType> OutputType(const Schema& schema) const override;
  Result<std::shared_ptr<ColumnVector>> Evaluate(
      const RecordBatch& batch) const override;
  void CollectColumns(std::vector<size_t>* cols) const override {
    left_->CollectColumns(cols);
    right_->CollectColumns(cols);
  }
  std::string ToString() const override;

 private:
  ArithOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// col IS [NOT] NULL.
class IsNullExpr final : public Expr {
 public:
  IsNullExpr(ExprPtr input, bool negated)
      : input_(std::move(input)), negated_(negated) {}

  const ExprPtr& input() const { return input_; }
  bool negated() const { return negated_; }

  Result<DataType> OutputType(const Schema& schema) const override;
  Result<std::shared_ptr<ColumnVector>> Evaluate(
      const RecordBatch& batch) const override;
  void CollectColumns(std::vector<size_t>* cols) const override {
    input_->CollectColumns(cols);
  }
  std::string ToString() const override;

 private:
  ExprPtr input_;
  bool negated_;
};

/// string LIKE pattern with '%' and '_' wildcards.
class LikeExpr final : public Expr {
 public:
  LikeExpr(ExprPtr input, std::string pattern, bool negated)
      : input_(std::move(input)),
        pattern_(std::move(pattern)),
        negated_(negated) {}

  const ExprPtr& input() const { return input_; }
  const std::string& pattern() const { return pattern_; }
  bool negated() const { return negated_; }

  Result<DataType> OutputType(const Schema& schema) const override;
  Result<std::shared_ptr<ColumnVector>> Evaluate(
      const RecordBatch& batch) const override;
  Result<size_t> Select(const RecordBatch& batch, const uint32_t* in,
                        size_t n, uint32_t* out) const override;
  void CollectColumns(std::vector<size_t>* cols) const override {
    input_->CollectColumns(cols);
  }
  std::string ToString() const override;

  /// Wildcard matcher exposed for direct use and tests.
  static bool Match(std::string_view text, std::string_view pattern);

 private:
  ExprPtr input_;
  std::string pattern_;
  bool negated_;
};

/// Clones `e` with every ColumnRefExpr index shifted down by `delta`
/// (re-targeting an expression bound over a combined join schema onto
/// the build side's own output schema). Returns nullptr for node kinds
/// it does not know how to clone — callers must treat that as "cannot
/// rebase", not an error.
ExprPtr RebaseColumnRefs(const ExprPtr& e, size_t delta);

}  // namespace nodb

#endif  // NODB_EXEC_EXPR_H_
