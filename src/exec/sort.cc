#include "exec/sort.h"

#include <algorithm>
#include <numeric>

namespace nodb {

namespace {

int CompareNulls(const ColumnVector& a, size_t i, const ColumnVector& b,
                 size_t j) {
  return static_cast<int>(b.IsNull(j)) - static_cast<int>(a.IsNull(i));
}

int CompareInt(const ColumnVector& a, size_t i, const ColumnVector& b,
               size_t j) {
  if (a.IsNull(i) || b.IsNull(j)) return CompareNulls(a, i, b, j);
  int64_t x = a.int64_data()[i];
  int64_t y = b.int64_data()[j];
  return (x > y) - (x < y);
}

int CompareDouble(const ColumnVector& a, size_t i, const ColumnVector& b,
                  size_t j) {
  if (a.IsNull(i) || b.IsNull(j)) return CompareNulls(a, i, b, j);
  return CompareDoubles(a.double_data()[i], b.double_data()[j]);
}

int CompareString(const ColumnVector& a, size_t i, const ColumnVector& b,
                  size_t j) {
  if (a.IsNull(i) || b.IsNull(j)) return CompareNulls(a, i, b, j);
  int c = a.GetString(i).compare(b.GetString(j));
  return (c > 0) - (c < 0);
}

}  // namespace

Status SortOperator::Open() {
  const Schema& in = *child_->output_schema();
  compare_.clear();
  key_rows_.clear();
  for (const auto& key : keys_) {
    NODB_ASSIGN_OR_RETURN(DataType t, key.expr->OutputType(in));
    compare_.push_back(t == DataType::kString   ? &CompareString
                       : t == DataType::kDouble ? &CompareDouble
                                                : &CompareInt);
    key_rows_.push_back(std::make_shared<ColumnVector>(t));
  }
  rows_.reset();
  positions_.clear();
  heap_.clear();
  order_.clear();
  consumed_ = 0;
  emit_cursor_ = 0;
  sorted_ = false;
  return child_->Open();
}

int SortOperator::CompareKept(uint32_t a, uint32_t b) const {
  for (size_t k = 0; k < compare_.size(); ++k) {
    int c = compare_[k](*key_rows_[k], a, *key_rows_[k], b);
    if (c != 0) return keys_[k].ascending ? c : -c;
  }
  return 0;
}

void SortOperator::Absorb(
    const RecordBatch& batch,
    const std::vector<std::shared_ptr<ColumnVector>>& key_cols) {
  const size_t n = batch.num_rows();
  // A full heap admits only rows whose keys beat its worst row's; a
  // tie loses, because the worst row came earlier in the input.
  sel_.clear();
  if (heap_.size() < limit_) {
    sel_.resize(n);
    std::iota(sel_.begin(), sel_.end(), 0u);
  } else {
    const uint32_t worst = heap_.front();
    for (size_t i = 0; i < n; ++i) {
      for (size_t k = 0; k < compare_.size(); ++k) {
        int c = compare_[k](*key_cols[k], i, *key_rows_[k], worst);
        if (c == 0) continue;
        if (keys_[k].ascending ? c < 0 : c > 0) {
          sel_.push_back(static_cast<uint32_t>(i));
        }
        break;
      }
    }
  }
  const uint64_t first_position = consumed_;
  consumed_ += n;
  if (sel_.empty()) return;

  const size_t base = rows_->num_rows();
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    rows_->column(c).AppendSelected(batch.column(c), sel_.data(),
                                    sel_.size());
  }
  for (size_t k = 0; k < key_cols.size(); ++k) {
    key_rows_[k]->AppendSelected(*key_cols[k], sel_.data(), sel_.size());
  }
  for (uint32_t i : sel_) positions_.push_back(first_position + i);
  rows_->SetNumRows(base + sel_.size());

  auto less = [this](uint32_t a, uint32_t b) { return Less(a, b); };
  for (size_t k = 0; k < sel_.size(); ++k) {
    const uint32_t row = static_cast<uint32_t>(base + k);
    if (heap_.size() < limit_) {
      heap_.push_back(row);
      std::push_heap(heap_.begin(), heap_.end(), less);
    } else if (Less(row, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), less);
      heap_.back() = row;
      std::push_heap(heap_.begin(), heap_.end(), less);
    }
  }
  if (rows_->num_rows() >= 2 * heap_.size() + RecordBatch::kDefaultBatchRows) {
    Compact();
  }
}

void SortOperator::Compact() {
  auto rows = std::make_shared<RecordBatch>(rows_->schema());
  for (size_t c = 0; c < rows_->num_columns(); ++c) {
    rows->column(c).AppendSelected(rows_->column(c), heap_.data(),
                                   heap_.size());
  }
  rows->SetNumRows(heap_.size());
  for (auto& key : key_rows_) {
    auto kept = std::make_shared<ColumnVector>(key->type());
    kept->AppendSelected(*key, heap_.data(), heap_.size());
    key = std::move(kept);
  }
  std::vector<uint64_t> positions(heap_.size());
  for (size_t i = 0; i < heap_.size(); ++i) {
    positions[i] = positions_[heap_[i]];
    heap_[i] = static_cast<uint32_t>(i);  // same order: still a heap
  }
  rows_ = std::move(rows);
  positions_ = std::move(positions);
}

Status SortOperator::Consume() {
  rows_ = std::make_shared<RecordBatch>(child_->output_schema());
  const bool bounded = limit_ != kNoLimit;
  if (limit_ == 0) return Status::OK();
  std::vector<std::shared_ptr<ColumnVector>> key_cols(keys_.size());
  while (true) {
    NODB_ASSIGN_OR_RETURN(BatchPtr batch, child_->Next());
    if (batch == nullptr) break;
    for (size_t k = 0; k < keys_.size(); ++k) {
      NODB_ASSIGN_OR_RETURN(key_cols[k], keys_[k].expr->Evaluate(*batch));
    }
    const size_t n = batch->num_rows();
    const size_t rows = rows_->num_rows() + n;
    if (rows > UINT32_MAX) {  // kept rows are numbered in 32 bits
      return Status::InvalidArgument("ORDER BY input exceeds 2^32 rows");
    }
    if (bounded) {
      Absorb(*batch, key_cols);
      continue;
    }
    for (size_t c = 0; c < batch->num_columns(); ++c) {
      rows_->column(c).AppendRange(batch->column(c), 0, n);
    }
    for (size_t k = 0; k < keys_.size(); ++k) {
      key_rows_[k]->AppendRange(*key_cols[k], 0, n);
    }
    rows_->SetNumRows(rows);
  }

  if (bounded) {
    order_ = heap_;
    std::sort(order_.begin(), order_.end(),
              [this](uint32_t a, uint32_t b) { return Less(a, b); });
  } else {
    order_.resize(rows_->num_rows());
    std::iota(order_.begin(), order_.end(), 0u);
    std::stable_sort(order_.begin(), order_.end(),
                     [this](uint32_t a, uint32_t b) {
                       return CompareKept(a, b) < 0;
                     });
  }
  return Status::OK();
}

Result<BatchPtr> SortOperator::Next() {
  if (!sorted_) {
    NODB_RETURN_NOT_OK(Consume());
    sorted_ = true;
  }
  size_t total = order_.size();
  if (emit_cursor_ >= total) return BatchPtr();
  size_t n = std::min(RecordBatch::kDefaultBatchRows, total - emit_cursor_);
  auto out = std::make_shared<RecordBatch>(rows_->schema());
  for (size_t c = 0; c < rows_->num_columns(); ++c) {
    out->column(c).AppendSelected(rows_->column(c),
                                  order_.data() + emit_cursor_, n);
  }
  out->SetNumRows(n);
  emit_cursor_ += n;
  return out;
}

}  // namespace nodb
