#include "exec/limit.h"

namespace nodb {

Status LimitOperator::Open() {
  skipped_ = 0;
  emitted_ = 0;
  return child_->Open();
}

Result<BatchPtr> LimitOperator::Next() {
  while (emitted_ < limit_) {
    NODB_ASSIGN_OR_RETURN(BatchPtr batch, child_->Next());
    if (batch == nullptr) return BatchPtr();
    size_t n = batch->num_rows();

    size_t begin = 0;
    if (skipped_ < offset_) {
      uint64_t skip = std::min<uint64_t>(offset_ - skipped_, n);
      skipped_ += skip;
      begin = skip;
      if (begin >= n) continue;
    }
    size_t take = std::min<uint64_t>(limit_ - emitted_, n - begin);
    emitted_ += take;
    if (begin == 0 && take == n) return batch;

    auto out = std::make_shared<RecordBatch>(batch->schema());
    for (size_t c = 0; c < batch->num_columns(); ++c) {
      out->column(c).AppendRange(batch->column(c), begin, take);
    }
    out->SetNumRows(take);
    return out;
  }
  return BatchPtr();
}

}  // namespace nodb
