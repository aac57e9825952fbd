#include "exec/aggregate.h"

#include <functional>
#include <string_view>

namespace nodb {

namespace {

/// Folds rows [0, n) of one aggregate's input into the state at(i)
/// returns for row i: the one global state, or the row's group's
/// (str_at(i) is the same state's STRING extreme). Each case is one
/// typed loop; sums add in row order.
template <typename StateAt, typename StringAt>
void Accumulate(AggFunc func, const ColumnVector* input, size_t n,
                StateAt at, StringAt str_at) {
  if (func == AggFunc::kCountStar) {
    for (size_t i = 0; i < n; ++i) ++at(i).count;
    return;
  }
  const uint8_t* valid = input->validity();  // aggregates skip NULLs
  auto extreme = [&](auto better) {
    switch (input->type()) {
      case DataType::kString:
        for (size_t i = 0; i < n; ++i) {
          if (!valid[i]) continue;
          std::string_view v = input->GetString(i);
          auto& s = at(i);
          std::string& ext = str_at(i);
          if (!s.has_value || better(v, std::string_view(ext))) {
            ext.assign(v.data(), v.size());
            s.has_value = true;
          }
        }
        return;
      case DataType::kDouble: {
        // CompareDoubles orders NaN above every number, so the answer
        // does not depend on row order.
        const double* v = input->double_data();
        for (size_t i = 0; i < n; ++i) {
          auto& s = at(i);
          if (valid[i] &&
              (!s.has_value || better(CompareDoubles(v[i], s.d), 0))) {
            s.d = v[i];
            s.has_value = true;
          }
        }
        return;
      }
      case DataType::kInt64:
      case DataType::kDate: {
        const int64_t* v = input->int64_data();
        for (size_t i = 0; i < n; ++i) {
          auto& s = at(i);
          if (valid[i] && (!s.has_value || better(v[i], s.i))) {
            s.i = v[i];
            s.has_value = true;
          }
        }
        return;
      }
    }
  };
  switch (func) {
    case AggFunc::kCountStar:
      break;
    case AggFunc::kCount:
      for (size_t i = 0; i < n; ++i) at(i).count += valid[i];
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      // A NULL row adds +0.0, which leaves any sum that starts at +0.0
      // bit-for-bit unchanged.
      if (input->type() == DataType::kDouble) {
        const double* v = input->double_data();
        for (size_t i = 0; i < n; ++i) {
          auto& s = at(i);
          s.count += valid[i];
          s.d += valid[i] ? v[i] : 0.0;
        }
      } else if (func == AggFunc::kSum) {
        const int64_t* v = input->int64_data();
        for (size_t i = 0; i < n; ++i) {
          auto& s = at(i);
          s.count += valid[i];
          s.i = WrappingAdd(s.i, valid[i] ? v[i] : 0);
        }
      } else {
        const int64_t* v = input->int64_data();
        for (size_t i = 0; i < n; ++i) {
          auto& s = at(i);
          s.count += valid[i];
          s.d += valid[i] ? static_cast<double>(v[i]) : 0.0;
        }
      }
      break;
    case AggFunc::kMin:
      extreme(std::less<>());
      break;
    case AggFunc::kMax:
      extreme(std::greater<>());
      break;
  }
}

}  // namespace

std::string_view AggFuncToString(AggFunc func) {
  switch (func) {
    case AggFunc::kCountStar:
      return "COUNT(*)";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

Result<OperatorPtr> HashAggregateOperator::Create(
    OperatorPtr child, std::vector<ExprPtr> group_by,
    std::vector<std::string> group_names,
    std::vector<AggregateSpec> aggregates) {
  if (group_by.size() != group_names.size()) {
    return Status::Internal("group_by exprs/names size mismatch");
  }
  const Schema& in = *child->output_schema();
  std::vector<Field> fields;
  for (size_t i = 0; i < group_by.size(); ++i) {
    NODB_ASSIGN_OR_RETURN(DataType t, group_by[i]->OutputType(in));
    fields.push_back(Field{group_names[i], t});
  }
  std::vector<DataType> agg_types;
  for (const auto& spec : aggregates) {
    DataType out = DataType::kInt64;
    switch (spec.func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        out = DataType::kInt64;
        break;
      case AggFunc::kAvg:
        out = DataType::kDouble;
        break;
      case AggFunc::kSum: {
        NODB_ASSIGN_OR_RETURN(DataType t, spec.input->OutputType(in));
        if (t == DataType::kString) {
          return Status::InvalidArgument("SUM over string column");
        }
        out = (t == DataType::kInt64 || t == DataType::kDate)
                  ? DataType::kInt64
                  : DataType::kDouble;
        break;
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        NODB_ASSIGN_OR_RETURN(out, spec.input->OutputType(in));
        break;
      }
    }
    if (spec.func == AggFunc::kAvg) {
      NODB_ASSIGN_OR_RETURN(DataType t, spec.input->OutputType(in));
      if (t == DataType::kString) {
        return Status::InvalidArgument("AVG over string column");
      }
    }
    agg_types.push_back(out);
    fields.push_back(Field{spec.name, out});
  }
  auto schema = Schema::Make(std::move(fields));
  return OperatorPtr(new HashAggregateOperator(
      std::move(child), std::move(group_by), std::move(aggregates),
      std::move(agg_types), std::move(schema)));
}

Status HashAggregateOperator::Open() {
  if (groups_.has_value()) groups_->Clear();
  states_.assign(aggregates_.size(),
                 std::vector<AggState>(group_by_.empty() ? 1 : 0));
  strings_.assign(aggregates_.size(),
                  std::vector<std::string>(group_by_.empty() ? 1 : 0));
  emit_cursor_ = 0;
  consumed_ = false;
  return child_->Open();
}

Status HashAggregateOperator::ConsumeChild() {
  while (true) {
    NODB_ASSIGN_OR_RETURN(BatchPtr batch, child_->Next());
    if (batch == nullptr) break;
    const size_t rows = batch->num_rows();

    // Evaluate group keys and aggregate inputs once per batch.
    std::vector<std::shared_ptr<ColumnVector>> key_cols;
    key_cols.reserve(group_by_.size());
    for (const auto& expr : group_by_) {
      NODB_ASSIGN_OR_RETURN(auto col, expr->Evaluate(*batch));
      key_cols.push_back(std::move(col));
    }
    std::vector<std::shared_ptr<ColumnVector>> agg_inputs(
        aggregates_.size());
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      if (aggregates_[a].input) {
        NODB_ASSIGN_OR_RETURN(agg_inputs[a],
                              aggregates_[a].input->Evaluate(*batch));
      }
    }

    if (group_by_.empty()) {
      for (size_t a = 0; a < aggregates_.size(); ++a) {
        // Fold into a local copy, which the loop can keep in registers.
        AggState s = states_[a][0];
        std::string& str = strings_[a][0];
        Accumulate(aggregates_[a].func, agg_inputs[a].get(), rows,
                   [&s](size_t) -> AggState& { return s; },
                   [&str](size_t) -> std::string& { return str; });
        states_[a][0] = s;
      }
      continue;
    }
    group_ids_.resize(rows);
    groups_->FindOrInsert(key_cols, rows, group_ids_.data());
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      std::vector<AggState>& states = states_[a];
      std::vector<std::string>& strings = strings_[a];
      states.resize(groups_->size());
      if (agg_types_[a] == DataType::kString) {
        strings.resize(groups_->size());
      }
      const uint32_t* ids = group_ids_.data();
      Accumulate(aggregates_[a].func, agg_inputs[a].get(), rows,
                 [&states, ids](size_t i) -> AggState& {
                   return states[ids[i]];
                 },
                 [&strings, ids](size_t i) -> std::string& {
                   return strings[ids[i]];
                 });
    }
  }
  return Status::OK();
}

void HashAggregateOperator::AppendFinal(const AggState* states,
                                        const std::string* strings,
                                        size_t n, AggFunc func,
                                        ColumnVector* out) {
  out->Reserve(out->size() + n);
  for (size_t g = 0; g < n; ++g) {
    const auto& s = states[g];
    switch (func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        out->AppendInt64(s.count);
        continue;
      case AggFunc::kSum:
        if (s.count == 0) {
          out->AppendNull();
        } else if (out->type() == DataType::kInt64) {
          out->AppendInt64(s.i);
        } else {
          out->AppendDouble(s.d);
        }
        continue;
      case AggFunc::kAvg:
        if (s.count == 0) {
          out->AppendNull();
        } else {
          out->AppendDouble(s.d / static_cast<double>(s.count));
        }
        continue;
      case AggFunc::kMin:
      case AggFunc::kMax:
        break;
    }
    if (!s.has_value) {
      out->AppendNull();
      continue;
    }
    switch (out->type()) {
      case DataType::kInt64:
        out->AppendInt64(s.i);
        break;
      case DataType::kDate:
        out->AppendDate(s.i);
        break;
      case DataType::kDouble:
        out->AppendDouble(s.d);
        break;
      case DataType::kString:
        out->AppendString(Slice(strings[g]));
        break;
    }
  }
}

Result<BatchPtr> HashAggregateOperator::Next() {
  if (!consumed_) {
    NODB_RETURN_NOT_OK(ConsumeChild());
    consumed_ = true;
  }
  if (emit_cursor_ >= num_groups()) return BatchPtr();

  size_t n = std::min(RecordBatch::kDefaultBatchRows,
                      num_groups() - emit_cursor_);
  auto out = std::make_shared<RecordBatch>(schema_);
  const size_t num_keys = group_by_.size();
  for (size_t k = 0; k < num_keys; ++k) {
    groups_->AppendKeyColumn(k, static_cast<uint32_t>(emit_cursor_), n,
                             &out->column(k));
  }
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    const std::string* strings = agg_types_[a] == DataType::kString
                                     ? strings_[a].data() + emit_cursor_
                                     : nullptr;
    AppendFinal(states_[a].data() + emit_cursor_, strings, n,
                aggregates_[a].func, &out->column(num_keys + a));
  }
  out->SetNumRows(n);
  emit_cursor_ += n;
  return out;
}

}  // namespace nodb
