#include "simd/structural_index.h"

namespace nodb::simd {

namespace {

/// Appends the position of every `needle` in data[0, size) to `out`.
void AppendPositions(SimdLevel level, const char* data, size_t size,
                     char needle, std::vector<uint32_t>* out) {
  constexpr size_t kBatch = 1024;
  size_t from = 0;
  while (true) {
    const size_t have = out->size();
    out->resize(have + kBatch);
    const size_t hits = FindBytePositions(level, data, size, from, needle,
                                          kBatch, /*bias=*/0,
                                          out->data() + have);
    out->resize(have + hits);
    if (hits < kBatch) return;
    from = size_t{out->back()} + 1;
  }
}

}  // namespace

void StructuralIndexer::Index(const char* data, size_t size, uint64_t base,
                              StructuralIndex* out) const {
  out->Clear();
  out->base = base;
  AppendPositions(level_, data, size, delimiter_, &out->delims);
  AppendPositions(level_, data, size, '\n', &out->newlines);
  if (want_quotes_) AppendPositions(level_, data, size, quote_, &out->quotes);
}

}  // namespace nodb::simd
