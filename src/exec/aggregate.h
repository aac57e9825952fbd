#ifndef NODB_EXEC_AGGREGATE_H_
#define NODB_EXEC_AGGREGATE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"

namespace nodb {

/// Aggregate functions supported by the engine.
enum class AggFunc { kCountStar, kCount, kSum, kAvg, kMin, kMax };

std::string_view AggFuncToString(AggFunc func);

/// One aggregate in the SELECT list: FUNC(input) AS name.
struct AggregateSpec {
  AggFunc func;
  /// Input expression; null only for kCountStar.
  ExprPtr input;
  std::string name;
};

/// Hash aggregation (blocking): consumes the child fully, then emits
/// one row per group. With no GROUP BY keys a single global group is
/// emitted even over empty input, matching SQL semantics; it has one
/// state per aggregate and no key or hash probe at all.
///
/// Each aggregate folds a whole batch with one typed loop over its
/// input's arrays (per row's group when grouping). Floating-point sums
/// accumulate in row order, batch after batch — never reassociated —
/// so results are byte-identical however the input is batched.
class HashAggregateOperator final : public ExecOperator {
 public:
  static Result<OperatorPtr> Create(OperatorPtr child,
                                    std::vector<ExprPtr> group_by,
                                    std::vector<std::string> group_names,
                                    std::vector<AggregateSpec> aggregates);

  Status Open() override;
  Result<BatchPtr> Next() override;
  std::shared_ptr<Schema> output_schema() const override { return schema_; }

 private:
  /// Running state for one (group, aggregate) pair. MIN/MAX keep the
  /// extreme in the carrier of the input's type.
  struct AggState {
    int64_t count = 0;
    int64_t isum = 0;  // wraps on overflow (two's complement)
    double dsum = 0;
    bool has_value = false;
    int64_t ext_i = 0;  // INT / DATE extreme
    double ext_d = 0;   // DOUBLE extreme
    std::string ext_s;  // STRING extreme
  };

  struct Group {
    std::vector<Value> keys;
    std::vector<AggState> states;
  };

  HashAggregateOperator(OperatorPtr child, std::vector<ExprPtr> group_by,
                        std::vector<AggregateSpec> aggregates,
                        std::vector<DataType> agg_types,
                        std::shared_ptr<Schema> schema)
      : child_(std::move(child)),
        group_by_(std::move(group_by)),
        aggregates_(std::move(aggregates)),
        agg_types_(std::move(agg_types)),
        schema_(std::move(schema)) {}

  Status ConsumeChild();
  /// Maps every row of `key_cols` to its group, creating groups on
  /// first sight; fills group_ids_.
  void AssignGroups(
      const std::vector<std::shared_ptr<ColumnVector>>& key_cols,
      size_t rows);
  Value Finalize(const AggState& state, const AggregateSpec& spec,
                 DataType out_type) const;

  OperatorPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggregateSpec> aggregates_;
  std::vector<DataType> agg_types_;
  std::shared_ptr<Schema> schema_;

  std::unordered_map<std::string, size_t> group_index_;
  std::vector<Group> groups_;
  std::vector<size_t> group_ids_;  // per row of the current batch
  size_t emit_cursor_ = 0;
  bool consumed_ = false;
};

}  // namespace nodb

#endif  // NODB_EXEC_AGGREGATE_H_
