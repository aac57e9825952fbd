#ifndef NODB_CSV_VALUE_PARSER_H_
#define NODB_CSV_VALUE_PARSER_H_

#include <cstddef>
#include <cstdint>

#include "types/column_vector.h"
#include "types/data_type.h"
#include "util/result.h"
#include "util/slice.h"

namespace nodb {

/// Converts raw field text into binary values (the paper's "parsing"
/// + "conversion" phase).
///
/// All parsers are locale-independent and allocation-free. Empty fields
/// parse as NULL for every type, matching the loaders of mainstream
/// systems.
class ValueParser {
 public:
  /// Parses decimal integers with optional sign.
  static Result<int64_t> ParseInt64(Slice text);

  /// Parses floating point (accepts integer-looking text too).
  static Result<double> ParseDouble(Slice text);

  /// Parses "YYYY-MM-DD" into days since epoch.
  static Result<int64_t> ParseDateDays(Slice text);

  /// Parses `text` as `type` and appends it to `col` (NULL when empty).
  static Status ParseInto(Slice text, DataType type, ColumnVector* col);

  /// Parses `n` fields as `type` and appends them to `col`: the type
  /// switch runs once per column and each type has its own loop, where
  /// ParseInto dispatches per field. `text_at(i)` yields field i's text
  /// (empty = NULL). On failure returns ParseInto's error for the first
  /// bad field, sets `*failed` to its index and leaves `col` partially
  /// written — discard it.
  template <typename TextAt>
  static Status ParseColumn(size_t n, DataType type, const TextAt& text_at,
                            ColumnVector* col, size_t* failed);

 private:
  /// Allocation-free forms of ParseInt64 / ParseDouble / ParseDateDays:
  /// false, with `*out` unspecified, exactly where those return an error.
  static bool TryParseInt64(Slice text, int64_t* out);
  static bool TryParseDouble(Slice text, double* out);
  static bool TryParseDateDays(Slice text, int64_t* out);

  /// The error ParseInto reports for a malformed non-empty `text`.
  static Status FieldError(Slice text, DataType type);

  template <typename T, typename TextAt, typename Parse>
  static Status FillFixed(size_t n, DataType type, const TextAt& text_at,
                          Parse parse, uint8_t* validity, T* values,
                          size_t* failed) {
    for (size_t i = 0; i < n; ++i) {
      const Slice text = text_at(i);
      if (text.empty()) {
        validity[i] = 0;  // NULL keeps its 0 payload, as AppendNull does
        continue;
      }
      if (!parse(text, &values[i])) {
        *failed = i;
        return FieldError(text, type);
      }
    }
    return Status::OK();
  }
};

template <typename TextAt>
Status ValueParser::ParseColumn(size_t n, DataType type,
                                const TextAt& text_at, ColumnVector* col,
                                size_t* failed) {
  if (type == DataType::kString) {
    col->Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const Slice text = text_at(i);
      if (text.empty()) {
        col->AppendNull();
      } else {
        col->AppendString(text);
      }
    }
    return Status::OK();
  }
  ColumnVector::FixedWriter w = col->WriteFixed(n);
  switch (type) {
    case DataType::kInt64:
      return FillFixed(n, type, text_at, &TryParseInt64, w.validity, w.ints,
                       failed);
    case DataType::kDate:
      return FillFixed(n, type, text_at, &TryParseDateDays, w.validity,
                       w.ints, failed);
    case DataType::kDouble:
      return FillFixed(n, type, text_at, &TryParseDouble, w.validity,
                       w.doubles, failed);
    case DataType::kString:
      break;
  }
  return Status::Internal("unhandled type in ParseColumn");
}

}  // namespace nodb

#endif  // NODB_CSV_VALUE_PARSER_H_
