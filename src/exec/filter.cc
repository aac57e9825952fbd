#include "exec/filter.h"

namespace nodb {

BatchPtr GatherRows(const RecordBatch& batch, const uint32_t* sel,
                    size_t n) {
  auto out = std::make_shared<RecordBatch>(batch.schema());
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    out->column(c).AppendSelected(batch.column(c), sel, n);
  }
  out->SetNumRows(n);
  return out;
}

Status FilterOperator::Open() { return child_->Open(); }

Result<BatchPtr> FilterOperator::Next() {
  while (true) {
    NODB_ASSIGN_OR_RETURN(BatchPtr batch, child_->Next());
    if (batch == nullptr) return BatchPtr();
    const size_t n = batch->num_rows();
    sel_.resize(n);
    NODB_ASSIGN_OR_RETURN(
        const size_t passing,
        predicate_->Select(*batch, nullptr, n, sel_.data()));
    if (passing == 0) continue;       // fully filtered; pull next batch
    if (passing == n) return batch;   // nothing filtered; pass through
    return GatherRows(*batch, sel_.data(), passing);
  }
}

}  // namespace nodb
