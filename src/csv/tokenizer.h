#ifndef NODB_CSV_TOKENIZER_H_
#define NODB_CSV_TOKENIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "csv/dialect.h"
#include "simd/simd.h"
#include "util/slice.h"

namespace nodb {

/// Finds field boundaries inside one CSV record (a line without its
/// trailing newline).
///
/// Boundary representation used across the whole system — including the
/// adaptive positional map: `starts[f]` is the offset of the first byte
/// of field f, and a *virtual* start `starts[count] = line.size() + 1`
/// closes the last field, so for every field
///   content(f) == line[starts[f] .. starts[f+1] - 1)
/// (the byte before a start is the delimiter, except past end of line).
///
/// The scan primitives are incremental on purpose: *selective
/// tokenizing* (paper §3) stops at the last attribute a query needs,
/// and positional-map hits let the caller resume scanning from the
/// middle of a record rather than from byte 0.
///
/// A trailing '\r' on the record (CRLF line endings) is treated as part
/// of the line terminator, never as field content.
class CsvTokenizer {
 public:
  /// `level` picks the delimiter-scanning kernels for the unquoted fast
  /// path (the quote-aware path is inherently serial). Every level
  /// produces byte-identical boundaries; the default is the best tier
  /// the CPU offers unless a test forced another one.
  explicit CsvTokenizer(const CsvDialect& dialect,
                        simd::SimdLevel level = simd::ActiveLevel())
      : dialect_(dialect), level_(level) {}

  /// Incremental scan. `from_offset` must be the start of field
  /// `from_field` within `line` (commonly 0/0, or a positional-map
  /// anchor). Writes `starts[f]` for every field start discovered,
  /// stopping as soon as `starts[until_field]` is known or the line is
  /// exhausted. When the line is exhausted at final field L, also
  /// writes the virtual start `starts[L+1] = line.size()+1`.
  ///
  /// Returns the largest index `h` such that `starts[h]` is now valid.
  /// `h >= until_field` means the request was satisfied; otherwise the
  /// record has exactly `h` fields (h = L+1). `starts` must have room
  /// for `until_field + 1` entries.
  uint32_t ScanStarts(Slice line, uint32_t from_field, uint32_t from_offset,
                      uint32_t until_field, uint32_t* starts) const;

  /// Tokenizes the entire record. `starts` receives `count + 1` entries
  /// (including the virtual final start). Returns the field count.
  uint32_t TokenizeLine(Slice line, std::vector<uint32_t>* starts) const;

  /// Raw bytes of the field spanning [start, next_start - 1), given the
  /// virtual-start convention above.
  static Slice RawField(Slice line, uint32_t start, uint32_t next_start) {
    return line.SubSlice(start, next_start - 1 - start);
  }

  /// Removes the outer quotes of a quoted field and collapses doubled
  /// quotes; returns `raw` unchanged when unquoted. `scratch` backs the
  /// unescaped copy when unescaping is required. The unquoted check is
  /// inline: parsers call this once per field.
  Slice DecodeField(Slice raw, std::string* scratch) const {
    if (!dialect_.allow_quoting || raw.size() < 2 ||
        raw[0] != dialect_.quote || raw[raw.size() - 1] != dialect_.quote) {
      return raw;
    }
    return DecodeQuoted(raw, scratch);
  }

  const CsvDialect& dialect() const { return dialect_; }
  simd::SimdLevel level() const { return level_; }

 private:
  /// DecodeField for a field that starts and ends with the quote.
  Slice DecodeQuoted(Slice raw, std::string* scratch) const;

  CsvDialect dialect_;
  simd::SimdLevel level_;
};

}  // namespace nodb

#endif  // NODB_CSV_TOKENIZER_H_
