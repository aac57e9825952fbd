#ifndef NODB_TYPES_DATA_TYPE_H_
#define NODB_TYPES_DATA_TYPE_H_

#include <cmath>
#include <string>
#include <string_view>

#include "util/result.h"

namespace nodb {

/// Column data types supported by the engine.
///
/// kDate is stored as int64 days since the Unix epoch; its raw-file
/// text form is "YYYY-MM-DD" (the TPC-H convention).
enum class DataType {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
  kDate = 3,
};

/// "INT", "DOUBLE", "STRING", "DATE".
std::string_view DataTypeToString(DataType type);

/// Parses a type name (case-insensitive); accepts common aliases
/// (INT/INTEGER/BIGINT, DOUBLE/FLOAT/REAL/DECIMAL, STRING/VARCHAR/TEXT/
/// CHAR, DATE).
Result<DataType> DataTypeFromString(std::string_view name);

/// True for types whose computations run on numbers (kInt64, kDouble,
/// kDate).
bool IsNumeric(DataType type);

/// The one order on DOUBLE values, shared by ORDER BY and MIN/MAX
/// (PostgreSQL's): NaN equals NaN and is greater than every other
/// number, which makes it a strict weak ordering. Returns -1, 0 or 1.
inline int CompareDoubles(double x, double y) {
  if (std::isnan(x)) return std::isnan(y) ? 0 : 1;
  if (std::isnan(y)) return -1;
  return x < y ? -1 : (x > y ? 1 : 0);
}

}  // namespace nodb

#endif  // NODB_TYPES_DATA_TYPE_H_
