#include "exec/expr.h"

#include <algorithm>
#include <functional>
#include <string_view>
#include <type_traits>

#include "util/logging.h"

namespace nodb {

namespace {

bool IsComparableNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble ||
         t == DataType::kDate;
}

// ------------------------------------------------------------- kernels
//
// Every kernel below runs one tight loop over a batch's typed arrays and
// writes a pre-sized result in place (ColumnVector::WriteFixed). The
// operator and the operand types are dispatched once per batch, by the
// With* helpers, into template instantiations. A NULL result row keeps
// payload 0, exactly as ColumnVector::AppendNull leaves it.

/// Calls `fn` with the comparison functor for `op`.
template <typename Fn>
void WithCompareOp(CompareOp op, Fn&& fn) {
  switch (op) {
    case CompareOp::kEq:
      return fn(std::equal_to<>());
    case CompareOp::kNe:
      return fn(std::not_equal_to<>());
    case CompareOp::kLt:
      return fn(std::less<>());
    case CompareOp::kLe:
      return fn(std::less_equal<>());
    case CompareOp::kGt:
      return fn(std::greater<>());
    case CompareOp::kGe:
      return fn(std::greater_equal<>());
  }
}

/// Calls `fn` with the payload array of a numeric column: int64 for
/// INT and DATE, double for DOUBLE.
template <typename Fn>
void WithNumericData(const ColumnVector& col, Fn&& fn) {
  if (col.type() == DataType::kDouble) {
    fn(col.double_data());
  } else {
    fn(col.int64_data());
  }
}

/// The type two numeric operands meet in: INT/DATE against INT/DATE
/// stays int64-exact, a DOUBLE on either side takes both to double.
template <typename A, typename B>
using CommonNumeric =
    std::conditional_t<std::is_same_v<A, int64_t> && std::is_same_v<B, int64_t>,
                       int64_t, double>;

/// Operand views the loops index uniformly: a typed array, a string
/// column, or one scalar repeated for every row.
template <typename T>
struct ArrayIn {
  const T* v;
  T operator[](size_t i) const { return v[i]; }
};
struct StringIn {
  const ColumnVector* col;
  std::string_view operator[](size_t i) const { return col->GetString(i); }
};
template <typename T>
struct ScalarIn {
  T v;
  T operator[](size_t) const { return v; }
};

/// Validity of a row of two columns: both operands non-NULL.
struct BothValid {
  const uint8_t* a;
  const uint8_t* b;
  uint8_t operator[](size_t i) const { return a[i] & b[i]; }
};

/// Where the one compare loop writes. A sink visits rows with
/// `valid[i]` (every operand non-NULL) and `hit(i)` (the comparison
/// holds; its value in a NULL row does not matter).
///
/// MaskSink writes the boolean column of every row of the batch: the
/// validity, and TRUE only in valid rows where the comparison holds.
struct MaskSink {
  size_t n;
  ColumnVector::FixedWriter w;
  template <typename V, typename Hit>
  void Run(V valid, Hit hit) {
    for (size_t i = 0; i < n; ++i) {
      const uint8_t v = valid[i];
      w.validity[i] = v;
      w.ints[i] = static_cast<int64_t>(hit(i)) & v;
    }
  }
};

/// SelectSink visits only the candidate rows (rows [0, n) when `in` is
/// null, else in[0..n)) and compacts the TRUE ones into `out`,
/// branch-free: every candidate is written and the cursor advances past
/// the ones that pass; `out` may alias `in`, since the cursor never
/// passes the read.
struct SelectSink {
  const uint32_t* in;
  size_t n;
  uint32_t* out;
  size_t count = 0;
  template <typename V, typename Hit>
  void Run(V valid, Hit hit) {
    size_t k = 0;
    if (in == nullptr) {
      for (size_t i = 0; i < n; ++i) {
        out[k] = static_cast<uint32_t>(i);
        k += valid[i] & static_cast<uint8_t>(hit(i));
      }
    } else {
      for (size_t j = 0; j < n; ++j) {
        const uint32_t i = in[j];
        out[k] = i;
        k += valid[i] & static_cast<uint8_t>(hit(i));
      }
    }
    count = k;
  }
};

/// The one compare loop: feeds `sink` cmp(l[i], r[i]), both sides
/// taken to C, and the rows' validity.
template <typename C, typename L, typename R, typename V, typename Cmp,
          typename Sink>
void CompareLoop(L l, R r, V valid, Cmp cmp, Sink* sink) {
  sink->Run(valid, [&](size_t i) {
    return cmp(static_cast<C>(l[i]), static_cast<C>(r[i]));
  });
}

/// A literal as the one scalar LiteralExpr::Evaluate repeats per row,
/// converted to the literal's declared type as AppendValue would.
struct Scalar {
  bool null = true;
  int64_t i = 0;        // kInt64 / kDate
  double d = 0;         // kDouble
  std::string_view s;   // kString; views the literal's Value
};

Scalar ScalarOf(const LiteralExpr& lit) {
  Scalar out;
  const Value& v = lit.value();
  if (v.is_null()) return out;
  out.null = false;
  switch (lit.type()) {
    case DataType::kInt64:
      out.i = v.int64();
      break;
    case DataType::kDouble:
      out.d = v.is_double() ? v.dbl() : v.AsDouble();
      break;
    case DataType::kString:
      out.s = v.str();
      break;
    case DataType::kDate:
      out.i = v.is_date() ? v.date_days() : v.int64();
      break;
  }
  return out;
}

/// Arithmetic functors: int64 operands wrap (two's complement), double
/// operands follow IEEE.
struct AddOp {
  int64_t operator()(int64_t a, int64_t b) const { return WrappingAdd(a, b); }
  double operator()(double a, double b) const { return a + b; }
};
struct SubOp {
  int64_t operator()(int64_t a, int64_t b) const { return WrappingSub(a, b); }
  double operator()(double a, double b) const { return a - b; }
};
struct MulOp {
  int64_t operator()(int64_t a, int64_t b) const { return WrappingMul(a, b); }
  double operator()(double a, double b) const { return a * b; }
};

/// Calls `fn` with the functor for +, - or * (division is separate: it
/// always yields double and a zero divisor yields NULL).
template <typename Fn>
void WithArithOp(ArithOp op, Fn&& fn) {
  switch (op) {
    case ArithOp::kAdd:
      return fn(AddOp());
    case ArithOp::kSub:
      return fn(SubOp());
    case ArithOp::kMul:
      return fn(MulOp());
    case ArithOp::kDiv:
      break;
  }
}

/// out_valid[i] = a[i] & b[i].
void AndValidity(const uint8_t* a, const uint8_t* b, size_t n,
                 uint8_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] & b[i];
}

/// The comparison rules, written once for both sinks. A NULL on either
/// side drops the row. INT/DATE against INT/DATE compares int64-exactly;
/// a DOUBLE on either side compares in double (IEEE: any comparison
/// with NaN but <> is false). A literal on either side is compared as
/// one scalar, never expanded into a column; on the left, the operator
/// is mirrored. A NULL literal makes every row NULL.
template <typename Sink>
Status CompareInto(CompareOp op, const ExprPtr& left, const ExprPtr& right,
                   const RecordBatch& batch, Sink* sink) {
  const auto* lit = dynamic_cast<const LiteralExpr*>(right.get());
  const Expr* other = left.get();
  if (lit == nullptr) {
    lit = dynamic_cast<const LiteralExpr*>(left.get());
    if (lit != nullptr) {
      other = right.get();
      op = MirrorCompareOp(op);
    }
  }
  if (lit != nullptr) {
    NODB_ASSIGN_OR_RETURN(auto col, other->Evaluate(batch));
    const Scalar s = ScalarOf(*lit);
    if (s.null) {
      sink->Run(ScalarIn<uint8_t>{0}, [](size_t) { return false; });
      return Status::OK();
    }
    const ArrayIn<uint8_t> valid{col->validity()};
    WithCompareOp(op, [&](auto cmp) {
      if (col->type() == DataType::kString) {
        CompareLoop<std::string_view>(StringIn{col.get()},
                                      ScalarIn<std::string_view>{s.s}, valid,
                                      cmp, sink);
        return;
      }
      WithNumericData(*col, [&](const auto* a) {
        using A = std::remove_const_t<std::remove_pointer_t<decltype(a)>>;
        if (lit->type() == DataType::kDouble) {
          CompareLoop<double>(ArrayIn<A>{a}, ScalarIn<double>{s.d}, valid,
                              cmp, sink);
        } else {
          CompareLoop<CommonNumeric<A, int64_t>>(
              ArrayIn<A>{a}, ScalarIn<int64_t>{s.i}, valid, cmp, sink);
        }
      });
    });
    return Status::OK();
  }

  NODB_ASSIGN_OR_RETURN(auto lhs, left->Evaluate(batch));
  NODB_ASSIGN_OR_RETURN(auto rhs, right->Evaluate(batch));
  const BothValid valid{lhs->validity(), rhs->validity()};
  WithCompareOp(op, [&](auto cmp) {
    if (lhs->type() == DataType::kString) {
      CompareLoop<std::string_view>(StringIn{lhs.get()}, StringIn{rhs.get()},
                                    valid, cmp, sink);
      return;
    }
    WithNumericData(*lhs, [&](const auto* a) {
      WithNumericData(*rhs, [&](const auto* b) {
        using A = std::remove_const_t<std::remove_pointer_t<decltype(a)>>;
        using B = std::remove_const_t<std::remove_pointer_t<decltype(b)>>;
        CompareLoop<CommonNumeric<A, B>>(ArrayIn<A>{a}, ArrayIn<B>{b}, valid,
                                         cmp, sink);
      });
    });
  });
  return Status::OK();
}

}  // namespace

CompareOp MirrorCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    case CompareOp::kEq:
    case CompareOp::kNe:
      break;
  }
  return op;
}

std::string_view CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string_view ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

// ---------------------------------------------------------------- Select

size_t SelectTrue(const ColumnVector& mask, const uint32_t* in, size_t n,
                  uint32_t* out) {
  const int64_t* v = mask.int64_data();
  SelectSink sink{in, n, out};
  sink.Run(ArrayIn<uint8_t>{mask.validity()},
           [v](size_t i) { return v[i] != 0; });
  return sink.count;
}

Result<size_t> Expr::Select(const RecordBatch& batch, const uint32_t* in,
                            size_t n, uint32_t* out) const {
  NODB_ASSIGN_OR_RETURN(auto mask, Evaluate(batch));
  return SelectTrue(*mask, in, n, out);
}

// ---------------------------------------------------------------- ColumnRef

Result<DataType> ColumnRefExpr::OutputType(const Schema& schema) const {
  if (index_ >= schema.num_fields()) {
    return Status::Internal("column index out of range: " +
                            std::to_string(index_));
  }
  return schema.field(index_).type;
}

Result<std::shared_ptr<ColumnVector>> ColumnRefExpr::Evaluate(
    const RecordBatch& batch) const {
  if (index_ >= batch.num_columns()) {
    return Status::Internal("column index out of range in batch");
  }
  return batch.column_ptr(index_);
}

// ------------------------------------------------------------------ Literal

Result<DataType> LiteralExpr::OutputType(const Schema&) const {
  return type_;
}

Result<std::shared_ptr<ColumnVector>> LiteralExpr::Evaluate(
    const RecordBatch& batch) const {
  const size_t n = batch.num_rows();
  const Scalar s = ScalarOf(*this);
  auto col = std::make_shared<ColumnVector>(type_);
  if (type_ == DataType::kString) {
    col->Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (s.null) {
        col->AppendNull();
      } else {
        col->AppendString(s.s);
      }
    }
    return col;
  }
  ColumnVector::FixedWriter w = col->WriteFixed(n);
  if (s.null) {
    std::fill_n(w.validity, n, 0);
  } else if (w.doubles != nullptr) {
    std::fill_n(w.doubles, n, s.d);
  } else {
    std::fill_n(w.ints, n, s.i);
  }
  return col;
}

// ------------------------------------------------------------------ Compare

Result<DataType> CompareExpr::OutputType(const Schema& schema) const {
  NODB_ASSIGN_OR_RETURN(DataType lt, left_->OutputType(schema));
  NODB_ASSIGN_OR_RETURN(DataType rt, right_->OutputType(schema));
  bool ok = (IsComparableNumeric(lt) && IsComparableNumeric(rt)) ||
            (lt == DataType::kString && rt == DataType::kString);
  if (!ok) {
    return Status::InvalidArgument(
        "cannot compare " + std::string(DataTypeToString(lt)) + " with " +
        std::string(DataTypeToString(rt)) + " in " + ToString());
  }
  return DataType::kInt64;
}

Result<std::shared_ptr<ColumnVector>> CompareExpr::Evaluate(
    const RecordBatch& batch) const {
  const size_t n = batch.num_rows();
  auto out = std::make_shared<ColumnVector>(DataType::kInt64);
  MaskSink sink{n, out->WriteFixed(n)};
  NODB_RETURN_NOT_OK(CompareInto(op_, left_, right_, batch, &sink));
  return out;
}

Result<size_t> CompareExpr::Select(const RecordBatch& batch,
                                   const uint32_t* in, size_t n,
                                   uint32_t* out) const {
  SelectSink sink{in, n, out};
  NODB_RETURN_NOT_OK(CompareInto(op_, left_, right_, batch, &sink));
  return sink.count;
}

std::string CompareExpr::ToString() const {
  return "(" + left_->ToString() + " " +
         std::string(CompareOpToString(op_)) + " " + right_->ToString() +
         ")";
}

// ------------------------------------------------------------------ Logical

Result<DataType> LogicalExpr::OutputType(const Schema& schema) const {
  NODB_ASSIGN_OR_RETURN(DataType lt, left_->OutputType(schema));
  if (lt != DataType::kInt64) {
    return Status::InvalidArgument("logical operand is not boolean: " +
                                   left_->ToString());
  }
  if (right_) {
    NODB_ASSIGN_OR_RETURN(DataType rt, right_->OutputType(schema));
    if (rt != DataType::kInt64) {
      return Status::InvalidArgument("logical operand is not boolean: " +
                                     right_->ToString());
    }
  }
  return DataType::kInt64;
}

Result<std::shared_ptr<ColumnVector>> LogicalExpr::Evaluate(
    const RecordBatch& batch) const {
  NODB_ASSIGN_OR_RETURN(auto lhs, left_->Evaluate(batch));
  const size_t n = batch.num_rows();
  auto out = std::make_shared<ColumnVector>(DataType::kInt64);
  ColumnVector::FixedWriter w = out->WriteFixed(n);
  const uint8_t* lv = lhs->validity();
  const int64_t* l = lhs->int64_data();

  if (op_ == LogicalOp::kNot) {
    for (size_t i = 0; i < n; ++i) {
      w.validity[i] = lv[i];
      w.ints[i] = lv[i] & (l[i] == 0);
    }
    return out;
  }

  NODB_ASSIGN_OR_RETURN(auto rhs, right_->Evaluate(batch));
  const uint8_t* rv = rhs->validity();
  const int64_t* r = rhs->int64_data();
  // Three-valued logic on "known true" / "known false" bits: AND is
  // false if either side is known false, true if both are known true,
  // else unknown (NULL); OR is the dual.
  const bool is_and = op_ == LogicalOp::kAnd;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t lt = lv[i] & (l[i] != 0);
    const uint8_t lf = lv[i] & (l[i] == 0);
    const uint8_t rt = rv[i] & (r[i] != 0);
    const uint8_t rf = rv[i] & (r[i] == 0);
    if (is_and) {
      w.validity[i] = lf | rf | (lt & rt);
      w.ints[i] = lt & rt;
    } else {
      w.validity[i] = lt | rt | (lf & rf);
      w.ints[i] = lt | rt;
    }
  }
  return out;
}

Result<size_t> LogicalExpr::Select(const RecordBatch& batch,
                                   const uint32_t* in, size_t n,
                                   uint32_t* out) const {
  if (op_ != LogicalOp::kAnd) return Expr::Select(batch, in, n, out);
  NODB_ASSIGN_OR_RETURN(const size_t k, left_->Select(batch, in, n, out));
  if (k == 0) return k;
  return right_->Select(batch, out, k, out);
}

std::string LogicalExpr::ToString() const {
  if (op_ == LogicalOp::kNot) return "(NOT " + left_->ToString() + ")";
  return "(" + left_->ToString() +
         (op_ == LogicalOp::kAnd ? " AND " : " OR ") + right_->ToString() +
         ")";
}

// --------------------------------------------------------------- Arithmetic

Result<DataType> ArithExpr::OutputType(const Schema& schema) const {
  NODB_ASSIGN_OR_RETURN(DataType lt, left_->OutputType(schema));
  NODB_ASSIGN_OR_RETURN(DataType rt, right_->OutputType(schema));
  if (!IsComparableNumeric(lt) || !IsComparableNumeric(rt)) {
    return Status::InvalidArgument("arithmetic on non-numeric operand in " +
                                   ToString());
  }
  if (op_ != ArithOp::kDiv && lt != DataType::kDouble &&
      rt != DataType::kDouble) {
    return DataType::kInt64;
  }
  return DataType::kDouble;
}

Result<std::shared_ptr<ColumnVector>> ArithExpr::Evaluate(
    const RecordBatch& batch) const {
  NODB_ASSIGN_OR_RETURN(auto lhs, left_->Evaluate(batch));
  NODB_ASSIGN_OR_RETURN(auto rhs, right_->Evaluate(batch));
  const size_t n = batch.num_rows();
  const bool int_out = op_ != ArithOp::kDiv &&
                       lhs->type() != DataType::kDouble &&
                       rhs->type() != DataType::kDouble;
  auto out = std::make_shared<ColumnVector>(int_out ? DataType::kInt64
                                                    : DataType::kDouble);
  ColumnVector::FixedWriter w = out->WriteFixed(n);
  uint8_t* valid = w.validity;
  AndValidity(lhs->validity(), rhs->validity(), n, valid);

  if (int_out) {
    const int64_t* a = lhs->int64_data();
    const int64_t* b = rhs->int64_data();
    WithArithOp(op_, [&](auto fn) {
      for (size_t i = 0; i < n; ++i) {
        const int64_t v = fn(a[i], b[i]);
        w.ints[i] = valid[i] ? v : 0;
      }
    });
    return out;
  }

  WithNumericData(*lhs, [&](const auto* a) {
    WithNumericData(*rhs, [&](const auto* b) {
      if (op_ == ArithOp::kDiv) {
        for (size_t i = 0; i < n; ++i) {
          const double y = static_cast<double>(b[i]);
          // SQL engines raise an error on x / 0; this one yields NULL.
          if (valid[i] && y != 0) {
            w.doubles[i] = static_cast<double>(a[i]) / y;
          } else {
            valid[i] = 0;
          }
        }
        return;
      }
      WithArithOp(op_, [&](auto fn) {
        for (size_t i = 0; i < n; ++i) {
          const double v =
              fn(static_cast<double>(a[i]), static_cast<double>(b[i]));
          w.doubles[i] = valid[i] ? v : 0.0;
        }
      });
    });
  });
  return out;
}

std::string ArithExpr::ToString() const {
  return "(" + left_->ToString() + " " +
         std::string(ArithOpToString(op_)) + " " + right_->ToString() + ")";
}

// ------------------------------------------------------------------ IsNull

Result<DataType> IsNullExpr::OutputType(const Schema& schema) const {
  NODB_RETURN_NOT_OK(input_->OutputType(schema).status());
  return DataType::kInt64;
}

Result<std::shared_ptr<ColumnVector>> IsNullExpr::Evaluate(
    const RecordBatch& batch) const {
  NODB_ASSIGN_OR_RETURN(auto in, input_->Evaluate(batch));
  const size_t n = batch.num_rows();
  auto out = std::make_shared<ColumnVector>(DataType::kInt64);
  ColumnVector::FixedWriter w = out->WriteFixed(n);
  const uint8_t* valid = in->validity();
  const int64_t when_valid = negated_ ? 1 : 0;
  for (size_t i = 0; i < n; ++i) {
    w.ints[i] = valid[i] ? when_valid : 1 - when_valid;
  }
  return out;
}

std::string IsNullExpr::ToString() const {
  return "(" + input_->ToString() + (negated_ ? " IS NOT NULL" : " IS NULL") +
         ")";
}

// -------------------------------------------------------------------- Like

Result<DataType> LikeExpr::OutputType(const Schema& schema) const {
  NODB_ASSIGN_OR_RETURN(DataType t, input_->OutputType(schema));
  if (t != DataType::kString) {
    return Status::InvalidArgument("LIKE on non-string operand in " +
                                   ToString());
  }
  return DataType::kInt64;
}

bool LikeExpr::Match(std::string_view text, std::string_view pattern) {
  // Iterative wildcard match with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<std::shared_ptr<ColumnVector>> LikeExpr::Evaluate(
    const RecordBatch& batch) const {
  NODB_ASSIGN_OR_RETURN(auto in, input_->Evaluate(batch));
  const size_t n = batch.num_rows();
  auto out = std::make_shared<ColumnVector>(DataType::kInt64);
  ColumnVector::FixedWriter w = out->WriteFixed(n);
  const uint8_t* valid = in->validity();
  std::copy_n(valid, n, w.validity);
  for (size_t i = 0; i < n; ++i) {
    if (valid[i]) w.ints[i] = Match(in->GetString(i), pattern_) != negated_;
  }
  return out;
}

Result<size_t> LikeExpr::Select(const RecordBatch& batch, const uint32_t* in,
                                size_t n, uint32_t* out) const {
  NODB_ASSIGN_OR_RETURN(auto col, input_->Evaluate(batch));
  SelectSink sink{in, n, out};
  sink.Run(ArrayIn<uint8_t>{col->validity()}, [&](size_t i) {
    return Match(col->GetString(i), pattern_) != negated_;
  });
  return sink.count;
}

std::string LikeExpr::ToString() const {
  return "(" + input_->ToString() + (negated_ ? " NOT LIKE '" : " LIKE '") +
         pattern_ + "')";
}

// ------------------------------------------------------------------ Rebase

ExprPtr RebaseColumnRefs(const ExprPtr& e, size_t delta) {
  if (e == nullptr) return nullptr;
  if (const auto* ref = dynamic_cast<const ColumnRefExpr*>(e.get())) {
    NODB_CHECK(ref->index() >= delta);
    return std::make_shared<ColumnRefExpr>(ref->index() - delta,
                                           ref->name(), ref->type());
  }
  if (dynamic_cast<const LiteralExpr*>(e.get()) != nullptr) {
    return e;  // no column references; share the node
  }
  if (const auto* cmp = dynamic_cast<const CompareExpr*>(e.get())) {
    ExprPtr l = RebaseColumnRefs(cmp->left(), delta);
    ExprPtr r = RebaseColumnRefs(cmp->right(), delta);
    if (l == nullptr || r == nullptr) return nullptr;
    return std::make_shared<CompareExpr>(cmp->op(), std::move(l),
                                         std::move(r));
  }
  if (const auto* logical = dynamic_cast<const LogicalExpr*>(e.get())) {
    ExprPtr l = RebaseColumnRefs(logical->left(), delta);
    if (l == nullptr) return nullptr;
    ExprPtr r;
    if (logical->op() != LogicalOp::kNot) {
      r = RebaseColumnRefs(logical->right(), delta);
      if (r == nullptr) return nullptr;
    }
    return std::make_shared<LogicalExpr>(logical->op(), std::move(l),
                                         std::move(r));
  }
  if (const auto* arith = dynamic_cast<const ArithExpr*>(e.get())) {
    ExprPtr l = RebaseColumnRefs(arith->left(), delta);
    ExprPtr r = RebaseColumnRefs(arith->right(), delta);
    if (l == nullptr || r == nullptr) return nullptr;
    return std::make_shared<ArithExpr>(arith->op(), std::move(l),
                                       std::move(r));
  }
  if (const auto* isnull = dynamic_cast<const IsNullExpr*>(e.get())) {
    ExprPtr in = RebaseColumnRefs(isnull->input(), delta);
    if (in == nullptr) return nullptr;
    return std::make_shared<IsNullExpr>(std::move(in), isnull->negated());
  }
  if (const auto* like = dynamic_cast<const LikeExpr*>(e.get())) {
    ExprPtr in = RebaseColumnRefs(like->input(), delta);
    if (in == nullptr) return nullptr;
    return std::make_shared<LikeExpr>(std::move(in), like->pattern(),
                                      like->negated());
  }
  return nullptr;  // unknown node kind: caller keeps the original plan
}

}  // namespace nodb
