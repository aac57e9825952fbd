#include "exec/query_result.h"

#include <algorithm>
#include <utility>

#include "exec/cancel.h"

namespace nodb {

Result<QueryResult> QueryResult::Drain(ExecOperator* op, BatchSink* sink) {
  QueryResult result;
  result.schema_ = op->output_schema();
  result.rows_ = std::make_shared<RecordBatch>(result.schema_);
  NODB_RETURN_NOT_OK(op->Open());
  if (sink != nullptr) NODB_RETURN_NOT_OK(sink->OnSchema(result.schema_));
  size_t rows = 0;
  while (true) {
    NODB_RETURN_NOT_OK(CheckQueryNotCancelled());
    NODB_ASSIGN_OR_RETURN(BatchPtr batch, op->Next());
    if (batch == nullptr) break;
    if (sink != nullptr) {
      NODB_RETURN_NOT_OK(sink->OnBatch(*batch));
      continue;  // streamed, not materialized
    }
    for (size_t c = 0; c < batch->num_columns(); ++c) {
      result.rows_->column(c).AppendRange(batch->column(c), 0,
                                          batch->num_rows());
    }
    rows += batch->num_rows();
  }
  result.rows_->SetNumRows(rows);
  return result;
}

QueryResult QueryResult::FromParts(std::shared_ptr<Schema> schema,
                                   BatchPtr rows) {
  QueryResult result;
  result.schema_ = std::move(schema);
  result.rows_ = std::move(rows);
  return result;
}

std::vector<std::string> QueryResult::CanonicalRows() const {
  std::vector<std::string> out;
  out.reserve(num_rows());
  for (size_t i = 0; i < num_rows(); ++i) {
    std::string line;
    for (size_t c = 0; c < rows_->num_columns(); ++c) {
      if (c > 0) line += "|";
      const ColumnVector& col = rows_->column(c);
      line += col.GetValue(i).ToString();  // NOLINT(row-value): rendering
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string QueryResult::ToString(size_t max_rows) const {
  std::string out;
  for (size_t c = 0; c < schema_->num_fields(); ++c) {
    if (c > 0) out += " | ";
    out += schema_->field(c).name;
  }
  out += "\n";
  size_t n = std::min(max_rows, num_rows());
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < rows_->num_columns(); ++c) {
      if (c > 0) out += " | ";
      const ColumnVector& col = rows_->column(c);
      out += col.GetValue(i).ToString();  // NOLINT(row-value): rendering
    }
    out += "\n";
  }
  if (num_rows() > n) {
    out += "... (" + std::to_string(num_rows() - n) + " more rows)\n";
  }
  return out;
}

}  // namespace nodb
