#include "exec/filter.h"

namespace nodb {

size_t SelectTrue(const ColumnVector& mask, const uint32_t* in, size_t n,
                  uint32_t* out) {
  const uint8_t* valid = mask.validity();
  const int64_t* v = mask.int64_data();
  size_t k = 0;
  // Branch-free compaction: every candidate is written, and the cursor
  // advances only past the ones that pass.
  if (in == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      out[k] = static_cast<uint32_t>(i);
      k += valid[i] & (v[i] != 0);
    }
  } else {
    for (size_t j = 0; j < n; ++j) {
      const uint32_t i = in[j];
      out[k] = i;
      k += valid[i] & (v[i] != 0);
    }
  }
  return k;
}

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
    NODB_ASSIGN_OR_RETURN(auto mask, predicate_->Evaluate(*batch));

    const size_t n = batch->num_rows();
    sel_.resize(n);
    const size_t passing = SelectTrue(*mask, nullptr, n, sel_.data());
    if (passing == 0) continue;       // fully filtered; pull next batch
    if (passing == n) return batch;   // nothing filtered; pass through
    return GatherRows(*batch, sel_.data(), passing);
  }
}

}  // namespace nodb
