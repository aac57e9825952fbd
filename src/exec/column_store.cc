#include "exec/column_store.h"

namespace nodb {

ColumnStoreTable::ColumnStoreTable(std::shared_ptr<Schema> schema)
    : schema_(std::move(schema)) {
  columns_.reserve(schema_->num_fields());
  for (const Field& f : schema_->fields()) {
    columns_.push_back(std::make_shared<ColumnVector>(f.type));
  }
}

size_t ColumnStoreTable::MemoryUsage() const {
  size_t total = 0;
  for (const auto& col : columns_) total += col->MemoryUsage();
  return total;
}

ColumnStoreScan::ColumnStoreScan(
    std::shared_ptr<const ColumnStoreTable> table,
    std::vector<size_t> projection)
    : table_(std::move(table)), projection_(std::move(projection)) {
  schema_ = table_->schema()->Project(projection_);
}

std::vector<size_t> ColumnStoreScan::AllColumns(
    const ColumnStoreTable& table) {
  std::vector<size_t> all(table.schema()->num_fields());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return all;
}

Status ColumnStoreScan::Open() {
  cursor_ = 0;
  return Status::OK();
}

Result<BatchPtr> ColumnStoreScan::Next() {
  if (cursor_ >= table_->num_rows()) return BatchPtr();
  size_t n = std::min(RecordBatch::kDefaultBatchRows,
                      table_->num_rows() - cursor_);
  // Batches copy the row range column-wise; a slice view would avoid the
  // copy but complicate ownership for filters that gather anyway.
  std::vector<std::shared_ptr<ColumnVector>> cols;
  cols.reserve(projection_.size());
  for (size_t p : projection_) {
    const ColumnVector& src = table_->column(p);
    auto dst = std::make_shared<ColumnVector>(src.type());
    dst->AppendRange(src, cursor_, n);
    cols.push_back(std::move(dst));
  }
  cursor_ += n;
  return std::make_shared<RecordBatch>(schema_, std::move(cols), n);
}

}  // namespace nodb
