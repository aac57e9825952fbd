#include "exec/hash_join.h"

namespace nodb {

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
  std::vector<DataType> key_types;
  for (const auto& expr : build_keys_) {
    NODB_ASSIGN_OR_RETURN(DataType t,
                          expr->OutputType(*build_->output_schema()));
    key_types.push_back(t);
  }
  table_.emplace(key_types, /*null_keys_match=*/false);
  chain_head_.clear();
  chain_tail_.clear();
  chain_next_.clear();
  build_rows_.reset();
  built_ = false;
  NODB_RETURN_NOT_OK(probe_->Open());
  return build_->Open();
}

namespace {

Result<std::vector<std::shared_ptr<ColumnVector>>> EvaluateKeys(
    const std::vector<ExprPtr>& exprs, const RecordBatch& batch) {
  std::vector<std::shared_ptr<ColumnVector>> keys;
  for (const auto& expr : exprs) {
    NODB_ASSIGN_OR_RETURN(auto col, expr->Evaluate(batch));
    keys.push_back(std::move(col));
  }
  return keys;
}

}  // namespace

Status HashJoinOperator::BuildTable() {
  constexpr uint32_t kEnd = KeyTable::kNoEntry;
  build_rows_ = std::make_shared<RecordBatch>(build_->output_schema());
  size_t rows = 0;
  while (true) {
    NODB_ASSIGN_OR_RETURN(BatchPtr batch, build_->Next());
    if (batch == nullptr) break;
    const size_t n = batch->num_rows();
    NODB_ASSIGN_OR_RETURN(auto keys, EvaluateKeys(build_keys_, *batch));
    if (rows + n >= UINT32_MAX) {
      return Status::InvalidArgument("join build side exceeds 2^32 rows");
    }
    for (size_t c = 0; c < batch->num_columns(); ++c) {
      build_rows_->column(c).AppendRange(batch->column(c), 0, n);
    }
    ids_.resize(n);
    table_->FindOrInsert(keys, n, ids_.data());
    chain_head_.resize(table_->size(), kEnd);
    chain_tail_.resize(table_->size(), kEnd);
    chain_next_.resize(rows + n, kEnd);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t id = ids_[i];
      if (id == kEnd) continue;  // NULL key: never matches
      const uint32_t row = static_cast<uint32_t>(rows + i);
      if (chain_head_[id] == kEnd) {
        chain_head_[id] = row;
      } else {
        chain_next_[chain_tail_[id]] = row;
      }
      chain_tail_[id] = row;
    }
    rows += n;
  }
  build_rows_->SetNumRows(rows);
  return Status::OK();
}

Result<BatchPtr> HashJoinOperator::Next() {
  constexpr uint32_t kEnd = KeyTable::kNoEntry;
  if (!built_) {
    NODB_RETURN_NOT_OK(BuildTable());
    built_ = true;
  }
  while (true) {
    NODB_ASSIGN_OR_RETURN(BatchPtr batch, probe_->Next());
    if (batch == nullptr) return BatchPtr();
    const size_t n = batch->num_rows();
    NODB_ASSIGN_OR_RETURN(auto keys, EvaluateKeys(probe_keys_, *batch));
    ids_.resize(n);
    table_->Find(keys, n, ids_.data());

    probe_sel_.clear();
    build_sel_.clear();
    for (size_t i = 0; i < n; ++i) {
      if (ids_[i] == kEnd) continue;
      for (uint32_t b = chain_head_[ids_[i]]; b != kEnd;
           b = chain_next_[b]) {
        probe_sel_.push_back(static_cast<uint32_t>(i));
        build_sel_.push_back(b);
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
