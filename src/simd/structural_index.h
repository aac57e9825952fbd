#ifndef NODB_SIMD_STRUCTURAL_INDEX_H_
#define NODB_SIMD_STRUCTURAL_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "csv/dialect.h"
#include "simd/simd.h"

namespace nodb::simd {

/// Stage-1 output of the two-stage parse (the simdjson split applied to
/// CSV): every structural byte position in one contiguous slab of the
/// raw file, found by wide block scans with no per-byte branching. Stage
/// 2 walks these sorted position lists; today the parallel first touch
/// (raw/parallel_scan.h) cuts rows from the newline list.
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

/// Builds StructuralIndexes for one dialect at one SIMD tier.
///
/// `want_fields = false` drops delimiter/quote extraction (a pure
/// row-discovery pass, like the parallel first touch's, needs newlines
/// only). Quote positions are collected only for quoting dialects;
/// stage 1 keeps no quote state, so a quoted field's raw '\n' is a
/// newline here exactly as it is to the serial scan's row walk.
class StructuralIndexer {
 public:
  StructuralIndexer(const CsvDialect& dialect, SimdLevel level,
                    bool want_fields = true)
      : delimiter_(dialect.delimiter),
        quote_(dialect.quote),
        want_delims_(want_fields),
        want_quotes_(want_fields && dialect.allow_quoting),
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
  bool want_delims_;
  bool want_quotes_;
  SimdLevel level_;
};

}  // namespace nodb::simd

#endif  // NODB_SIMD_STRUCTURAL_INDEX_H_
