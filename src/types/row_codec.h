#ifndef NODB_TYPES_ROW_CODEC_H_
#define NODB_TYPES_ROW_CODEC_H_

#include <cstddef>
#include <cstdint>

#include "types/column_vector.h"
#include "util/bytes.h"

namespace nodb {

/// The one binary layout of a column's rows, used by the snapshot
/// sidecar's store segments and the wire's RESULT_BATCH frames alike.
/// Each row is a flag byte (0 = NULL); a valid row follows it with its
/// value: 8 little-endian bytes for INT, DATE and DOUBLE (a double as
/// its IEEE-754 bit pattern, so it round-trips bit-identically), or a
/// u32 length and the bytes for STRING. The row count and the type are
/// the caller's to frame.

/// Appends rows [begin, end) of `col`.
void EncodeRows(const ColumnVector& col, size_t begin, size_t end,
                ByteWriter* w);

/// Appends `rows` decoded rows onto `col`; false when the payload does
/// not hold them. `rows` is bounded against the payload (FitsCount)
/// before anything is sized from it.
bool DecodeRows(ByteReader* r, uint64_t rows, ColumnVector* col);

}  // namespace nodb

#endif  // NODB_TYPES_ROW_CODEC_H_
