#include "exec/hash_join.h"

namespace nodb {

namespace {

/// Join keys normalize numerics to int64/double-compatible bytes: INT
/// and DATE serialize as int64; DOUBLE as its bit pattern. NULL keys
/// never match (SQL inner-join semantics), signaled by returning false.
bool AppendJoinKey(const ColumnVector& col, size_t row, std::string* key) {
  if (col.IsNull(row)) return false;
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kDate: {
      int64_t v = col.GetInt64(row);
      key->push_back('i');
      key->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case DataType::kDouble: {
      double v = col.GetDouble(row);
      key->push_back('d');
      key->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case DataType::kString: {
      std::string_view s = col.GetString(row);
      key->push_back('s');
      uint32_t len = static_cast<uint32_t>(s.size());
      key->append(reinterpret_cast<const char*>(&len), sizeof(len));
      key->append(s.data(), s.size());
      break;
    }
  }
  return true;
}

}  // namespace

Result<OperatorPtr> HashJoinOperator::Create(
    OperatorPtr probe, OperatorPtr build, std::vector<ExprPtr> probe_keys,
    std::vector<ExprPtr> build_keys) {
  if (probe_keys.size() != build_keys.size() || probe_keys.empty()) {
    return Status::InvalidArgument("join requires matching key lists");
  }
  for (size_t i = 0; i < probe_keys.size(); ++i) {
    NODB_ASSIGN_OR_RETURN(DataType pt,
                          probe_keys[i]->OutputType(*probe->output_schema()));
    NODB_ASSIGN_OR_RETURN(DataType bt,
                          build_keys[i]->OutputType(*build->output_schema()));
    bool compatible =
        pt == bt ||
        (pt != DataType::kString && bt != DataType::kString &&
         pt != DataType::kDouble && bt != DataType::kDouble);
    if (!compatible) {
      return Status::InvalidArgument(
          "join key type mismatch: " + std::string(DataTypeToString(pt)) +
          " vs " + std::string(DataTypeToString(bt)));
    }
  }
  std::vector<Field> fields = probe->output_schema()->fields();
  for (const Field& f : build->output_schema()->fields()) {
    fields.push_back(f);
  }
  auto schema = Schema::Make(std::move(fields));
  return OperatorPtr(new HashJoinOperator(
      std::move(probe), std::move(build), std::move(probe_keys),
      std::move(build_keys), std::move(schema)));
}

Status HashJoinOperator::Open() {
  table_.clear();
  build_rows_.reset();
  built_ = false;
  NODB_RETURN_NOT_OK(probe_->Open());
  return build_->Open();
}

Status HashJoinOperator::BuildTable() {
  build_rows_ = std::make_shared<RecordBatch>(build_->output_schema());
  size_t rows = 0;
  std::string key;
  while (true) {
    auto next = build_->Next();
    NODB_RETURN_NOT_OK(next.status());
    BatchPtr batch = *next;
    if (batch == nullptr) break;

    std::vector<std::shared_ptr<ColumnVector>> key_cols;
    for (const auto& expr : build_keys_) {
      auto col = expr->Evaluate(*batch);
      NODB_RETURN_NOT_OK(col.status());
      key_cols.push_back(*col);
    }
    if (rows + batch->num_rows() > UINT32_MAX) {
      return Status::InvalidArgument("join build side exceeds 2^32 rows");
    }
    for (size_t c = 0; c < batch->num_columns(); ++c) {
      build_rows_->column(c).AppendRange(batch->column(c), 0,
                                         batch->num_rows());
    }
    for (size_t i = 0; i < batch->num_rows(); ++i) {
      key.clear();
      bool valid = true;
      for (const auto& col : key_cols) {
        if (!AppendJoinKey(*col, i, &key)) {
          valid = false;
          break;
        }
      }
      if (valid) table_.emplace(key, rows);
      ++rows;
    }
  }
  build_rows_->SetNumRows(rows);
  return Status::OK();
}

Result<BatchPtr> HashJoinOperator::Next() {
  if (!built_) {
    NODB_RETURN_NOT_OK(BuildTable());
    built_ = true;
  }
  std::string key;
  while (true) {
    NODB_ASSIGN_OR_RETURN(BatchPtr batch, probe_->Next());
    if (batch == nullptr) return BatchPtr();

    std::vector<std::shared_ptr<ColumnVector>> key_cols;
    for (const auto& expr : probe_keys_) {
      NODB_ASSIGN_OR_RETURN(auto col, expr->Evaluate(*batch));
      key_cols.push_back(std::move(col));
    }

    probe_sel_.clear();
    build_sel_.clear();
    for (size_t i = 0; i < batch->num_rows(); ++i) {
      key.clear();
      bool valid = true;
      for (const auto& col : key_cols) {
        if (!AppendJoinKey(*col, i, &key)) {
          valid = false;
          break;
        }
      }
      if (!valid) continue;
      auto [lo, hi] = table_.equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        probe_sel_.push_back(static_cast<uint32_t>(i));
        build_sel_.push_back(static_cast<uint32_t>(it->second));
      }
    }
    const size_t out_rows = probe_sel_.size();
    if (out_rows == 0) continue;
    auto out = std::make_shared<RecordBatch>(schema_);
    const size_t probe_cols = batch->num_columns();
    for (size_t c = 0; c < probe_cols; ++c) {
      out->column(c).AppendSelected(batch->column(c), probe_sel_.data(),
                                    out_rows);
    }
    for (size_t c = 0; c < build_rows_->num_columns(); ++c) {
      out->column(probe_cols + c)
          .AppendSelected(build_rows_->column(c), build_sel_.data(),
                          out_rows);
    }
    out->SetNumRows(out_rows);
    return out;
  }
}

}  // namespace nodb
