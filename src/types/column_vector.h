#ifndef NODB_TYPES_COLUMN_VECTOR_H_
#define NODB_TYPES_COLUMN_VECTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "types/data_type.h"
#include "types/value.h"
#include "util/slice.h"

namespace nodb {

/// A typed column of values with per-row validity.
///
/// Layout follows Arrow's spirit: numeric types in a flat array, strings
/// as a shared byte buffer plus offsets. This is both the executor's
/// batch column and the unit stored by the NoDB raw-data cache (the
/// paper's cache "holds binary data", i.e. exactly this representation).
///
/// Two kinds of call live here. The executor's hot path works a batch
/// at a time: the typed array accessors (validity(), int64_data(),
/// double_data()), the in-place kernel writer WriteFixed(), and the
/// gathers AppendSelected() / AppendRange(). The Append*/Get* calls for
/// one row serve parsers and row-wise consumers. GetValue() and
/// AppendValue() build or unpack a `Value` per cell and are for engine
/// edges only — literals, group keys, result rendering and tests — never
/// for a per-row loop inside an operator.
class ColumnVector {
 public:
  explicit ColumnVector(DataType type) : type_(type) {
    if (type == DataType::kString) str_offsets_.push_back(0);
  }

  DataType type() const { return type_; }
  size_t size() const { return validity_.size(); }

  void Reserve(size_t n);

  void AppendNull();
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(Slice v);
  /// Days since epoch (type must be kDate).
  void AppendDate(int64_t days);
  /// Appends a Value of matching type (or null). Engine edges only.
  void AppendValue(const Value& v);

  bool IsNull(size_t i) const { return validity_[i] == 0; }

  int64_t GetInt64(size_t i) const { return ints_[i]; }
  double GetDouble(size_t i) const { return doubles_[i]; }
  int64_t GetDate(size_t i) const { return ints_[i]; }
  std::string_view GetString(size_t i) const {
    return std::string_view(str_data_.data() + str_offsets_[i],
                            str_offsets_[i + 1] - str_offsets_[i]);
  }

  /// Numeric view for comparisons: INT/DATE -> value, DOUBLE -> value.
  double GetNumeric(size_t i) const {
    return type_ == DataType::kDouble ? doubles_[i]
                                      : static_cast<double>(ints_[i]);
  }

  /// Materializes row `i` as a Value (engine edges / tests only).
  Value GetValue(size_t i) const;

  // ---- batch-at-a-time access (the executor's kernels) ----

  /// size() bytes, 1 = valid, 0 = NULL.
  const uint8_t* validity() const { return validity_.data(); }
  /// size() payloads of a kInt64 or kDate column (0 in NULL rows).
  const int64_t* int64_data() const { return ints_.data(); }
  /// size() payloads of a kDouble column (0 in NULL rows).
  const double* double_data() const { return doubles_.data(); }

  /// The arrays of a fixed-width column, for a kernel to fill in place.
  /// `ints` is set for kInt64/kDate columns, `doubles` for kDouble.
  struct FixedWriter {
    uint8_t* validity = nullptr;
    int64_t* ints = nullptr;
    double* doubles = nullptr;
  };
  /// Appends `n` rows to a fixed-width column, all valid with zero
  /// payloads, and returns the arrays of those rows (valid until the
  /// next append). A kernel that writes a NULL also leaves that row's
  /// payload 0, as AppendNull does.
  FixedWriter WriteFixed(size_t n);

  /// Appends rows sel[0..n) of `src` (same type), in that order.
  void AppendSelected(const ColumnVector& src, const uint32_t* sel,
                      size_t n);
  /// Appends rows [begin, begin + n) of `src` (same type).
  void AppendRange(const ColumnVector& src, size_t begin, size_t n);

  /// Approximate heap footprint; used for cache accounting.
  size_t MemoryUsage() const;

  void Clear();

 private:
  DataType type_;
  std::vector<uint8_t> validity_;
  std::vector<int64_t> ints_;      // kInt64 and kDate payloads
  std::vector<double> doubles_;    // kDouble payloads
  std::vector<uint32_t> str_offsets_;  // kString: size()+1 entries
  std::string str_data_;
};

}  // namespace nodb

#endif  // NODB_TYPES_COLUMN_VECTOR_H_
