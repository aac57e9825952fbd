#include "exec/sort.h"

#include <algorithm>

namespace nodb {

Status SortOperator::Open() {
  materialized_.reset();
  order_.clear();
  emit_cursor_ = 0;
  sorted_ = false;
  return child_->Open();
}

Status SortOperator::Materialize() {
  auto schema = child_->output_schema();
  materialized_ = std::make_shared<RecordBatch>(schema);
  size_t rows = 0;
  while (true) {
    auto next = child_->Next();
    NODB_RETURN_NOT_OK(next.status());
    BatchPtr batch = *next;
    if (batch == nullptr) break;
    for (size_t c = 0; c < batch->num_columns(); ++c) {
      materialized_->column(c).AppendRange(batch->column(c), 0,
                                           batch->num_rows());
    }
    rows += batch->num_rows();
    if (rows > UINT32_MAX) {
      return Status::InvalidArgument("ORDER BY input exceeds 2^32 rows");
    }
  }
  materialized_->SetNumRows(rows);

  // Evaluate sort keys once over the whole materialized input.
  std::vector<std::shared_ptr<ColumnVector>> key_cols;
  key_cols.reserve(keys_.size());
  for (const auto& key : keys_) {
    auto col = key.expr->Evaluate(*materialized_);
    NODB_RETURN_NOT_OK(col.status());
    key_cols.push_back(*col);
  }

  order_.resize(rows);
  for (size_t i = 0; i < rows; ++i) order_[i] = static_cast<uint32_t>(i);
  std::stable_sort(
      order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
        for (size_t k = 0; k < keys_.size(); ++k) {
          const ColumnVector& col = *key_cols[k];
          bool an = col.IsNull(a);
          bool bn = col.IsNull(b);
          int cmp;
          if (an && bn) {
            cmp = 0;
          } else if (an) {
            cmp = -1;  // NULLs first on ascending
          } else if (bn) {
            cmp = 1;
          } else if (col.type() == DataType::kString) {
            cmp = col.GetString(a).compare(col.GetString(b));
            cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
          } else if (col.type() == DataType::kDouble) {
            cmp = CompareDoubles(col.GetDouble(a), col.GetDouble(b));
          } else {
            int64_t x = col.GetInt64(a);
            int64_t y = col.GetInt64(b);
            cmp = x < y ? -1 : (x > y ? 1 : 0);
          }
          if (cmp != 0) return keys_[k].ascending ? cmp < 0 : cmp > 0;
        }
        return false;
      });
  return Status::OK();
}

Result<BatchPtr> SortOperator::Next() {
  if (!sorted_) {
    NODB_RETURN_NOT_OK(Materialize());
    sorted_ = true;
  }
  size_t total = order_.size();
  if (emit_cursor_ >= total) return BatchPtr();
  size_t n = std::min(RecordBatch::kDefaultBatchRows, total - emit_cursor_);
  auto out = std::make_shared<RecordBatch>(materialized_->schema());
  for (size_t c = 0; c < materialized_->num_columns(); ++c) {
    out->column(c).AppendSelected(materialized_->column(c),
                                  order_.data() + emit_cursor_, n);
  }
  out->SetNumRows(n);
  emit_cursor_ += n;
  return out;
}

}  // namespace nodb
