#ifndef NODB_EXEC_SORT_H_
#define NODB_EXEC_SORT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"

namespace nodb {

/// One ORDER BY key.
struct SortKey {
  ExprPtr expr;
  bool ascending = true;
};

/// Blocking in-memory sort. NULLs order first ascending / last
/// descending (PostgreSQL's NULLS semantics inverted — we use the
/// MySQL/SQLite convention of NULLs-first on ASC). INT and DATE keys
/// order int64-exactly, DOUBLE keys as doubles, STRING keys bytewise.
class SortOperator final : public ExecOperator {
 public:
  SortOperator(OperatorPtr child, std::vector<SortKey> keys)
      : child_(std::move(child)), keys_(std::move(keys)) {}

  Status Open() override;
  Result<BatchPtr> Next() override;
  std::shared_ptr<Schema> output_schema() const override {
    return child_->output_schema();
  }

 private:
  Status Materialize();

  OperatorPtr child_;
  std::vector<SortKey> keys_;
  BatchPtr materialized_;             // all input rows, concatenated
  std::vector<uint32_t> order_;       // row permutation
  size_t emit_cursor_ = 0;
  bool sorted_ = false;
};

}  // namespace nodb

#endif  // NODB_EXEC_SORT_H_
