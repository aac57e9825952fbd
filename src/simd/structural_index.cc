#include "simd/structural_index.h"

namespace nodb::simd {

void StructuralIndexer::Index(const char* data, size_t size, uint64_t base,
                              StructuralIndex* out) const {
  out->Clear();
  out->base = base;
  ClassifyBuffer(level_, data, size, /*base=*/0, delimiter_, quote_,
                 want_delims_ ? &out->delims : nullptr, &out->newlines,
                 want_quotes_ ? &out->quotes : nullptr);
}

}  // namespace nodb::simd
