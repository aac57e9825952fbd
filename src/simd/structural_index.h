#ifndef NODB_SIMD_STRUCTURAL_INDEX_H_
#define NODB_SIMD_STRUCTURAL_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "csv/dialect.h"
#include "simd/simd.h"

namespace nodb::simd {

/// Every structural byte position in one contiguous slab of the raw
/// file: delimiters, newlines and (for quoting dialects) quotes.
///
/// Its only caller is perfbench's `simd.index` probe, which times it as
/// `simd.index_gbps`; no scan or bench uses it. The scans find rows with
/// BufferedReader::FindRows and fields with CsvTokenizer::ScanStarts,
/// both on simd::FindBytePositions. ROADMAP.md item 7 deletes this file
/// together with that probe.
///
/// Positions are slab-relative (the slab's first byte is 0); `base` is
/// the slab's absolute file offset, recorded so callers can translate.
struct StructuralIndex {
  uint64_t base = 0;
  std::vector<uint32_t> delims;    ///< dialect delimiter bytes
  std::vector<uint32_t> newlines;  ///< '\n' bytes (a CR stays in the row)
  std::vector<uint32_t> quotes;    ///< dialect quote bytes (quoting only)

  void Clear() {
    delims.clear();
    newlines.clear();
    quotes.clear();
  }
};

/// Builds StructuralIndexes for one dialect at one SIMD tier, one
/// FindBytePositions pass per class.
///
/// Quote positions are collected only for quoting dialects; no quote
/// state is kept, so a quoted field's raw '\n' is a newline here
/// exactly as it is to the scans' row finder.
class StructuralIndexer {
 public:
  StructuralIndexer(const CsvDialect& dialect, SimdLevel level)
      : delimiter_(dialect.delimiter),
        quote_(dialect.quote),
        want_quotes_(dialect.allow_quoting),
        level_(level) {}

  /// Replaces `out` with the index of data[0, size); `size` must fit in
  /// 32 bits (slabs are read-buffer sized). `base` is data's absolute
  /// file offset and is stored, not added to positions.
  void Index(const char* data, size_t size, uint64_t base,
             StructuralIndex* out) const;

  SimdLevel level() const { return level_; }

 private:
  char delimiter_;
  char quote_;
  bool want_quotes_;
  SimdLevel level_;
};

}  // namespace nodb::simd

#endif  // NODB_SIMD_STRUCTURAL_INDEX_H_
