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
/// order int64-exactly, DOUBLE keys as doubles (NaN above every
/// number), STRING keys bytewise. Each key's typed comparator is chosen
/// once from its type in Open, not per comparison; keys are evaluated
/// batch by batch.
///
/// Without a bound the operator keeps its whole input and
/// `stable_sort`s it. With `limit` set (ORDER BY … LIMIT, where the
/// planner passes LIMIT + OFFSET) it keeps a bounded max-heap of at
/// most `limit` rows ordered by (keys, input position): a row whose
/// keys do not beat the heap's worst is dropped without being copied.
/// Ties on the keys break on input position, so the output is exactly
/// the first `limit` rows of the stable sort.
class SortOperator final : public ExecOperator {
 public:
  static constexpr uint64_t kNoLimit = UINT64_MAX;

  SortOperator(OperatorPtr child, std::vector<SortKey> keys,
               uint64_t limit = kNoLimit)
      : child_(std::move(child)), keys_(std::move(keys)), limit_(limit) {}

  Status Open() override;
  Result<BatchPtr> Next() override;
  std::shared_ptr<Schema> output_schema() const override {
    return child_->output_schema();
  }

 private:
  /// Three-way compares row i of a against row j of b (same key type);
  /// NULLs first.
  using CompareFn = int (*)(const ColumnVector& a, size_t i,
                            const ColumnVector& b, size_t j);

  Status Consume();
  /// Keeps the rows of `batch` whose keys `key_cols` could still be in
  /// the output.
  void Absorb(const RecordBatch& batch,
              const std::vector<std::shared_ptr<ColumnVector>>& key_cols);
  /// Rewrites rows_ and key_rows_ to hold only the heap's rows.
  void Compact();
  /// Three-way compares kept rows a and b by the keys, directions
  /// applied.
  int CompareKept(uint32_t a, uint32_t b) const;
  /// Orders kept rows a and b by (keys, input position).
  bool Less(uint32_t a, uint32_t b) const {
    int c = CompareKept(a, b);
    return c != 0 ? c < 0 : positions_[a] < positions_[b];
  }

  OperatorPtr child_;
  std::vector<SortKey> keys_;
  const uint64_t limit_;
  std::vector<CompareFn> compare_;  // per key, chosen from its type

  BatchPtr rows_;  // kept input rows (all of them without a bound)
  std::vector<std::shared_ptr<ColumnVector>> key_rows_;  // their keys
  std::vector<uint64_t> positions_;  // their input positions
  uint64_t consumed_ = 0;            // input rows seen
  std::vector<uint32_t> heap_;       // bounded: max-heap of kept rows
  std::vector<uint32_t> order_;      // output permutation of rows_
  std::vector<uint32_t> sel_;        // scratch
  size_t emit_cursor_ = 0;
  bool sorted_ = false;
};

}  // namespace nodb

#endif  // NODB_EXEC_SORT_H_
