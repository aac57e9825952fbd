#ifndef NODB_EXEC_DISTINCT_H_
#define NODB_EXEC_DISTINCT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "exec/operator.h"

namespace nodb {

/// SELECT DISTINCT: streaming hash-based row deduplication. Rows are
/// serialized (type-tagged, NULL-aware) and emitted on first sight, so
/// the operator pipelines — no full materialization.
class DistinctOperator final : public ExecOperator {
 public:
  explicit DistinctOperator(OperatorPtr child)
      : child_(std::move(child)) {}

  Status Open() override;
  Result<BatchPtr> Next() override;
  std::shared_ptr<Schema> output_schema() const override {
    return child_->output_schema();
  }

 private:
  OperatorPtr child_;
  std::unordered_set<std::string> seen_;
  std::vector<uint32_t> sel_;  // rows of the current batch seen first
};

}  // namespace nodb

#endif  // NODB_EXEC_DISTINCT_H_
