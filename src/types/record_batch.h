#ifndef NODB_TYPES_RECORD_BATCH_H_
#define NODB_TYPES_RECORD_BATCH_H_

#include <memory>
#include <vector>

#include "types/column_vector.h"
#include "types/schema.h"
#include "types/value.h"

namespace nodb {

/// A horizontal slice of a table: a schema plus equal-length columns.
///
/// Operators exchange batches of kDefaultBatchRows rows (volcano-style,
/// vectorized); the raw scan emits one batch per row-block. Columns are owned via shared_ptr so projections can
/// re-arrange them without copying payloads.
class RecordBatch {
 public:
  static constexpr size_t kDefaultBatchRows = 1024;

  explicit RecordBatch(std::shared_ptr<Schema> schema);

  RecordBatch(std::shared_ptr<Schema> schema,
              std::vector<std::shared_ptr<ColumnVector>> columns,
              size_t num_rows);

  const std::shared_ptr<Schema>& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }

  ColumnVector& column(size_t i) { return *columns_[i]; }
  const ColumnVector& column(size_t i) const { return *columns_[i]; }
  const std::shared_ptr<ColumnVector>& column_ptr(size_t i) const {
    return columns_[i];
  }

  /// Appends one row given as Values (engine edges / tests).
  void AppendRow(const std::vector<Value>& row);

  /// Recomputes num_rows after columns were appended to directly.
  void SetNumRows(size_t n) { num_rows_ = n; }

  /// Materializes row `i` (engine edges / tests).
  std::vector<Value> Row(size_t i) const;

 private:
  std::shared_ptr<Schema> schema_;
  std::vector<std::shared_ptr<ColumnVector>> columns_;
  size_t num_rows_ = 0;
};

}  // namespace nodb

#endif  // NODB_TYPES_RECORD_BATCH_H_
