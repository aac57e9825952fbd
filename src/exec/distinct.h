#ifndef NODB_EXEC_DISTINCT_H_
#define NODB_EXEC_DISTINCT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/key_table.h"
#include "exec/operator.h"

namespace nodb {

/// SELECT DISTINCT: streaming row deduplication over a KeyTable keyed
/// by every column (NULL is one value; DOUBLEs compare by bit pattern).
/// A row is emitted when its key first enters the table, so output
/// keeps first-appearance order and the operator pipelines: no full
/// materialization.
class DistinctOperator final : public ExecOperator {
 public:
  explicit DistinctOperator(OperatorPtr child);

  Status Open() override;
  Result<BatchPtr> Next() override;
  std::shared_ptr<Schema> output_schema() const override {
    return child_->output_schema();
  }

 private:
  OperatorPtr child_;
  KeyTable seen_;
  std::vector<uint32_t> ids_;  // entry of each row of the current batch
  std::vector<uint32_t> sel_;  // rows of the current batch seen first
};

}  // namespace nodb

#endif  // NODB_EXEC_DISTINCT_H_
