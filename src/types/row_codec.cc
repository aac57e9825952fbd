#include "types/row_codec.h"

#include <algorithm>
#include <cstring>

namespace nodb {

namespace {

bool DecodeFixedRows(ByteReader* r, uint64_t rows, ColumnVector* col) {
  ColumnVector::FixedWriter w = col->WriteFixed(rows);
  char* values = w.ints != nullptr ? reinterpret_cast<char*>(w.ints)
                                   : reinterpret_cast<char*>(w.doubles);
  uint64_t i = 0;
  // No row takes more than 9 bytes, so the next remaining()/9 rows fit
  // whatever their flags say: one bounds check covers all of them.
  // That is every row unless these rows end the payload.
  while (i < rows) {
    const uint64_t safe = std::min<uint64_t>(rows - i, r->remaining() / 9);
    if (safe == 0) break;
    const char* const start = r->Take(0);
    const char* p = start;
    for (const uint64_t end = i + safe; i < end; ++i) {
      const bool valid = Load<uint8_t>(p) != 0;
      w.validity[i] = valid ? 1 : 0;
      if (!valid) continue;
      std::memcpy(values + 8 * i, p, 8);
      p += 8;
    }
    r->Take(static_cast<size_t>(p - start));
  }
  // Fewer than 9 bytes are left, too few for a valid row: the rest
  // must be NULL flags.
  const uint64_t tail = rows - i;
  if (!r->FitsCount(tail, 1)) return false;
  const char* flags = r->Take(tail);
  for (uint64_t k = 0; k < tail; ++k, ++i) {
    if (flags[k] != 0) return false;
    w.validity[i] = 0;
  }
  return true;
}

bool DecodeStringRows(ByteReader* r, uint64_t rows, ColumnVector* col) {
  // Sized once for a fresh column (a store segment); a column that
  // already holds rows (a later RESULT_BATCH) grows geometrically, as
  // an exact reserve per batch would copy it again for every batch.
  if (col->size() == 0) col->Reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    if (r->Get<uint8_t>() == 0) {
      col->AppendNull();
      continue;
    }
    const std::string_view s = r->Str();
    col->AppendString(Slice(s.data(), s.size()));
  }
  return r->ok();
}

}  // namespace

void EncodeRows(const ColumnVector& col, size_t begin, size_t end,
                ByteWriter* w) {
  const uint8_t* validity = col.validity();
  if (col.type() == DataType::kString) {
    for (size_t i = begin; i < end; ++i) {
      w->Put<uint8_t>(validity[i] != 0 ? 1 : 0);
      if (validity[i] != 0) w->PutStr(col.GetString(i));
    }
    return;
  }
  // Both fixed-width payload arrays hold 8-byte values.
  const char* values =
      col.type() == DataType::kDouble
          ? reinterpret_cast<const char*>(col.double_data())
          : reinterpret_cast<const char*>(col.int64_data());
  size_t valid = 0;
  for (size_t i = begin; i < end; ++i) valid += validity[i] != 0 ? 1 : 0;
  char* p = w->Extend(end - begin + 8 * valid);
  for (size_t i = begin; i < end; ++i) {
    *p++ = validity[i] != 0 ? 1 : 0;
    if (validity[i] == 0) continue;
    std::memcpy(p, values + 8 * i, 8);
    p += 8;
  }
}

bool DecodeRows(ByteReader* r, uint64_t rows, ColumnVector* col) {
  if (!r->FitsCount(rows, 1)) return false;
  return col->type() == DataType::kString ? DecodeStringRows(r, rows, col)
                                          : DecodeFixedRows(r, rows, col);
}

}  // namespace nodb
