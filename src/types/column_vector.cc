#include "types/column_vector.h"

#include <cassert>

namespace nodb {

void ColumnVector::Reserve(size_t n) {
  validity_.reserve(n);
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      ints_.reserve(n);
      break;
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kString:
      str_offsets_.reserve(n + 1);
      break;
  }
}

void ColumnVector::AppendNull() {
  validity_.push_back(0);
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      ints_.push_back(0);
      break;
    case DataType::kDouble:
      doubles_.push_back(0);
      break;
    case DataType::kString:
      str_offsets_.push_back(static_cast<uint32_t>(str_data_.size()));
      break;
  }
}

void ColumnVector::AppendInt64(int64_t v) {
  assert(type_ == DataType::kInt64);
  validity_.push_back(1);
  ints_.push_back(v);
}

void ColumnVector::AppendDouble(double v) {
  assert(type_ == DataType::kDouble);
  validity_.push_back(1);
  doubles_.push_back(v);
}

void ColumnVector::AppendString(Slice v) {
  assert(type_ == DataType::kString);
  validity_.push_back(1);
  str_data_.append(v.data(), v.size());
  str_offsets_.push_back(static_cast<uint32_t>(str_data_.size()));
}

void ColumnVector::AppendDate(int64_t days) {
  assert(type_ == DataType::kDate);
  validity_.push_back(1);
  ints_.push_back(days);
}

void ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      AppendInt64(v.int64());
      return;
    case DataType::kDouble:
      AppendDouble(v.is_double() ? v.dbl() : v.AsDouble());
      return;
    case DataType::kString:
      AppendString(v.str());
      return;
    case DataType::kDate:
      AppendDate(v.is_date() ? v.date_days() : v.int64());
      return;
  }
}

Value ColumnVector::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
      return Value::Int64(ints_[i]);
    case DataType::kDouble:
      return Value::Double(doubles_[i]);
    case DataType::kString:
      return Value::String(std::string(GetString(i)));
    case DataType::kDate:
      return Value::Date(ints_[i]);
  }
  return Value::Null();
}

ColumnVector::FixedWriter ColumnVector::WriteFixed(size_t n) {
  assert(type_ != DataType::kString);
  const size_t begin = size();
  FixedWriter w;
  validity_.resize(begin + n, 1);
  w.validity = validity_.data() + begin;
  if (type_ == DataType::kDouble) {
    doubles_.resize(begin + n, 0.0);
    w.doubles = doubles_.data() + begin;
  } else {
    ints_.resize(begin + n, 0);
    w.ints = ints_.data() + begin;
  }
  return w;
}

void ColumnVector::AppendSelected(const ColumnVector& src,
                                  const uint32_t* sel, size_t n) {
  assert(src.type_ == type_ && &src != this);
  const size_t base = size();
  validity_.resize(base + n);
  uint8_t* valid = validity_.data() + base;
  for (size_t k = 0; k < n; ++k) valid[k] = src.validity_[sel[k]];
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate: {
      ints_.resize(base + n);
      int64_t* out = ints_.data() + base;
      for (size_t k = 0; k < n; ++k) out[k] = src.ints_[sel[k]];
      break;
    }
    case DataType::kDouble: {
      doubles_.resize(base + n);
      double* out = doubles_.data() + base;
      for (size_t k = 0; k < n; ++k) out[k] = src.doubles_[sel[k]];
      break;
    }
    case DataType::kString:
      str_offsets_.reserve(str_offsets_.size() + n);
      for (size_t k = 0; k < n; ++k) {
        uint32_t begin = src.str_offsets_[sel[k]];
        uint32_t end = src.str_offsets_[sel[k] + 1];
        str_data_.append(src.str_data_.data() + begin, end - begin);
        str_offsets_.push_back(static_cast<uint32_t>(str_data_.size()));
      }
      break;
  }
}

void ColumnVector::AppendRange(const ColumnVector& src, size_t begin,
                               size_t n) {
  assert(src.type_ == type_ && &src != this && begin + n <= src.size());
  if (n == 0) return;
  validity_.insert(validity_.end(), src.validity_.begin() + begin,
                   src.validity_.begin() + begin + n);
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      ints_.insert(ints_.end(), src.ints_.begin() + begin,
                   src.ints_.begin() + begin + n);
      break;
    case DataType::kDouble:
      doubles_.insert(doubles_.end(), src.doubles_.begin() + begin,
                      src.doubles_.begin() + begin + n);
      break;
    case DataType::kString: {
      // One copy of the byte run, then the offsets rebased onto it.
      const uint32_t first = src.str_offsets_[begin];
      const uint32_t shift = static_cast<uint32_t>(str_data_.size());
      str_data_.append(src.str_data_.data() + first,
                       src.str_offsets_[begin + n] - first);
      str_offsets_.reserve(str_offsets_.size() + n);
      for (size_t k = 1; k <= n; ++k) {
        str_offsets_.push_back(shift + (src.str_offsets_[begin + k] - first));
      }
      break;
    }
  }
}

size_t ColumnVector::MemoryUsage() const {
  return validity_.capacity() * sizeof(uint8_t) +
         ints_.capacity() * sizeof(int64_t) +
         doubles_.capacity() * sizeof(double) +
         str_offsets_.capacity() * sizeof(uint32_t) +
         str_data_.capacity();
}

void ColumnVector::Clear() {
  validity_.clear();
  ints_.clear();
  doubles_.clear();
  str_offsets_.assign(type_ == DataType::kString ? 1 : 0, 0);
  str_data_.clear();
}

}  // namespace nodb
