#include "exec/distinct.h"

#include "exec/filter.h"

namespace nodb {

namespace {

std::vector<DataType> ColumnTypes(const Schema& schema) {
  std::vector<DataType> types;
  for (const Field& f : schema.fields()) types.push_back(f.type);
  return types;
}

}  // namespace

DistinctOperator::DistinctOperator(OperatorPtr child)
    : child_(std::move(child)),
      seen_(ColumnTypes(*child_->output_schema()),
            /*null_keys_match=*/true) {}

Status DistinctOperator::Open() {
  // The table is this operator's alone: no other producer can refill
  // it, so it needs no generation fence.
  seen_.Clear();
  return child_->Open();
}

Result<BatchPtr> DistinctOperator::Next() {
  std::vector<std::shared_ptr<ColumnVector>> keys;
  while (true) {
    NODB_ASSIGN_OR_RETURN(BatchPtr batch, child_->Next());
    if (batch == nullptr) return BatchPtr();

    keys.clear();
    for (size_t c = 0; c < batch->num_columns(); ++c) {
      keys.push_back(batch->column_ptr(c));
    }
    const size_t rows = batch->num_rows();
    ids_.resize(rows);
    uint32_t next_new = static_cast<uint32_t>(seen_.size());
    seen_.FindOrInsert(keys, rows, ids_.data());
    // New entries are numbered in row order, so a row is a key's first
    // sight exactly when it carries the next unused number.
    sel_.clear();
    for (size_t i = 0; i < rows; ++i) {
      if (ids_[i] == next_new) {
        sel_.push_back(static_cast<uint32_t>(i));
        ++next_new;
      }
    }
    if (sel_.empty()) continue;
    return GatherRows(*batch, sel_.data(), sel_.size());
  }
}

}  // namespace nodb
