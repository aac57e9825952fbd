#ifndef NODB_EXEC_FILTER_H_
#define NODB_EXEC_FILTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"

namespace nodb {

/// A new batch holding rows sel[0..n) of `batch`, gathered column by
/// column with ColumnVector::AppendSelected.
BatchPtr GatherRows(const RecordBatch& batch, const uint32_t* sel,
                    size_t n);

/// Keeps rows whose predicate evaluates to TRUE (not FALSE, not NULL).
///
/// Filtering happens column-at-a-time: the predicate writes the passing
/// rows' selection vector (Expr::Select), and GatherRows copies those
/// rows into a fresh batch (a batch in which every row passes goes
/// through as-is). Combined
/// with the leaf scans emitting only required columns, this realizes the
/// paper's *selective tuple formation* — full tuples never exist for
/// rows that do not qualify.
class FilterOperator final : public ExecOperator {
 public:
  FilterOperator(OperatorPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  Status Open() override;
  Result<BatchPtr> Next() override;
  std::shared_ptr<Schema> output_schema() const override {
    return child_->output_schema();
  }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
  std::vector<uint32_t> sel_;  // reused per batch
};

}  // namespace nodb

#endif  // NODB_EXEC_FILTER_H_
