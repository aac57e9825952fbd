#ifndef NODB_EXEC_AGGREGATE_H_
#define NODB_EXEC_AGGREGATE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/expr.h"
#include "exec/key_table.h"
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
/// Groups live in a KeyTable: each batch's keys are normalized and
/// hashed column at a time, and every row gets its group's number
/// (NULL is one group; DOUBLE keys group by bit pattern). Groups are
/// numbered, and emitted, in first-appearance order, and each
/// aggregate keeps one array of states indexed by that number.
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
  /// Running state for one (group, aggregate) pair: 32 bytes. Which
  /// carrier a state uses follows from its function and input type:
  /// `i` holds an INT sum (wrapping, two's complement) or an INT / DATE
  /// extreme, `d` a DOUBLE or AVG sum or a DOUBLE extreme. A STRING
  /// extreme lives beside the states, in strings_.
  struct AggState {
    int64_t count = 0;
    int64_t i = 0;
    double d = 0;
    bool has_value = false;
  };

  HashAggregateOperator(OperatorPtr child, std::vector<ExprPtr> group_by,
                        std::vector<AggregateSpec> aggregates,
                        std::vector<DataType> agg_types,
                        std::shared_ptr<Schema> schema)
      : child_(std::move(child)),
        group_by_(std::move(group_by)),
        aggregates_(std::move(aggregates)),
        agg_types_(std::move(agg_types)),
        schema_(std::move(schema)) {
    if (group_by_.empty()) return;
    std::vector<DataType> key_types;
    for (size_t k = 0; k < group_by_.size(); ++k) {
      key_types.push_back(schema_->field(k).type);
    }
    groups_.emplace(key_types, /*null_keys_match=*/true);
  }

  Status ConsumeChild();
  /// Appends the final values of `states[0, n)` (and their STRING
  /// extremes, `strings[0, n)`) to `out`.
  static void AppendFinal(const AggState* states, const std::string* strings,
                          size_t n, AggFunc func, ColumnVector* out);
  size_t num_groups() const {
    return group_by_.empty() ? 1 : groups_->size();
  }

  OperatorPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggregateSpec> aggregates_;
  std::vector<DataType> agg_types_;
  std::shared_ptr<Schema> schema_;

  std::optional<KeyTable> groups_;  // unset without GROUP BY
  /// states_[a][g]: aggregate a's state for group g; strings_[a][g]
  /// its extreme when aggregate a is a STRING MIN/MAX (else unused).
  std::vector<std::vector<AggState>> states_;
  std::vector<std::vector<std::string>> strings_;
  std::vector<uint32_t> group_ids_;  // per row of the current batch
  size_t emit_cursor_ = 0;
  bool consumed_ = false;
};

}  // namespace nodb

#endif  // NODB_EXEC_AGGREGATE_H_
