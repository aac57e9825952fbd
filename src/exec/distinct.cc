#include "exec/distinct.h"

#include "exec/filter.h"

namespace nodb {

namespace {

void SerializeCell(const ColumnVector& col, size_t row, std::string* key) {
  if (col.IsNull(row)) {
    key->push_back('\0');
    return;
  }
  key->push_back('\1');
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kDate: {
      int64_t v = col.GetInt64(row);
      key->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case DataType::kDouble: {
      double v = col.GetDouble(row);
      key->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case DataType::kString: {
      std::string_view s = col.GetString(row);
      uint32_t len = static_cast<uint32_t>(s.size());
      key->append(reinterpret_cast<const char*>(&len), sizeof(len));
      key->append(s.data(), s.size());
      break;
    }
  }
}

}  // namespace

Status DistinctOperator::Open() {
  seen_.clear();
  return child_->Open();
}

Result<BatchPtr> DistinctOperator::Next() {
  std::string key;
  while (true) {
    NODB_ASSIGN_OR_RETURN(BatchPtr batch, child_->Next());
    if (batch == nullptr) return BatchPtr();

    sel_.clear();
    for (size_t i = 0; i < batch->num_rows(); ++i) {
      key.clear();
      for (size_t c = 0; c < batch->num_columns(); ++c) {
        SerializeCell(batch->column(c), i, &key);
      }
      if (seen_.insert(key).second) sel_.push_back(static_cast<uint32_t>(i));
    }
    if (sel_.empty()) continue;
    return GatherRows(*batch, sel_.data(), sel_.size());
  }
}

}  // namespace nodb
