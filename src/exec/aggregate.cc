#include "exec/aggregate.h"

#include <functional>
#include <string_view>

namespace nodb {

namespace {

/// Serializes one column cell into the group hash key.
void AppendKeyBytes(const ColumnVector& col, size_t row, std::string* key) {
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

/// Folds rows [0, n) of one aggregate's input into the state at(i)
/// returns for row i: the one global state, or the row's group's. Each
/// case is one typed loop; sums add in row order.
template <typename StateAt>
void Accumulate(AggFunc func, const ColumnVector* input, size_t n,
                StateAt at) {
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
          if (!s.has_value || better(v, std::string_view(s.ext_s))) {
            s.ext_s.assign(v.data(), v.size());
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
              (!s.has_value || better(CompareDoubles(v[i], s.ext_d), 0))) {
            s.ext_d = v[i];
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
          if (valid[i] && (!s.has_value || better(v[i], s.ext_i))) {
            s.ext_i = v[i];
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
          s.dsum += valid[i] ? v[i] : 0.0;
        }
      } else if (func == AggFunc::kSum) {
        const int64_t* v = input->int64_data();
        for (size_t i = 0; i < n; ++i) {
          auto& s = at(i);
          s.count += valid[i];
          s.isum = WrappingAdd(s.isum, valid[i] ? v[i] : 0);
        }
      } else {
        const int64_t* v = input->int64_data();
        for (size_t i = 0; i < n; ++i) {
          auto& s = at(i);
          s.count += valid[i];
          s.dsum += valid[i] ? static_cast<double>(v[i]) : 0.0;
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
  group_index_.clear();
  groups_.clear();
  emit_cursor_ = 0;
  consumed_ = false;
  return child_->Open();
}

void HashAggregateOperator::AssignGroups(
    const std::vector<std::shared_ptr<ColumnVector>>& key_cols,
    size_t rows) {
  std::string key;
  group_ids_.resize(rows);
  for (size_t row = 0; row < rows; ++row) {
    key.clear();
    for (const auto& col : key_cols) AppendKeyBytes(*col, row, &key);
    // Probe before inserting: a hit, the common case, allocates nothing.
    auto it = group_index_.find(key);
    if (it != group_index_.end()) {
      group_ids_[row] = it->second;
      continue;
    }
    group_ids_[row] = groups_.size();
    group_index_.emplace(key, groups_.size());
    Group g;
    g.keys.reserve(key_cols.size());
    for (const auto& col : key_cols) {
      g.keys.push_back(col->GetValue(row));  // NOLINT(row-value): new group
    }
    g.states.resize(aggregates_.size());
    groups_.push_back(std::move(g));
  }
}

Status HashAggregateOperator::ConsumeChild() {
  // Global aggregation has exactly one group, even over empty input.
  if (group_by_.empty()) {
    Group g;
    g.states.resize(aggregates_.size());
    groups_.push_back(std::move(g));
  }
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
        AggState& global = groups_[0].states[a];
        AggState s = std::move(global);
        Accumulate(aggregates_[a].func, agg_inputs[a].get(), rows,
                   [&s](size_t) -> AggState& { return s; });
        global = std::move(s);
      }
      continue;
    }
    AssignGroups(key_cols, rows);
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      Accumulate(aggregates_[a].func, agg_inputs[a].get(), rows,
                 [&](size_t i) -> AggState& {
                   return groups_[group_ids_[i]].states[a];
                 });
    }
  }
  return Status::OK();
}

Value HashAggregateOperator::Finalize(const AggState& state,
                                      const AggregateSpec& spec,
                                      DataType out_type) const {
  switch (spec.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int64(state.count);
    case AggFunc::kSum:
      if (state.count == 0) return Value::Null();
      return out_type == DataType::kInt64 ? Value::Int64(state.isum)
                                          : Value::Double(state.dsum);
    case AggFunc::kAvg:
      if (state.count == 0) return Value::Null();
      return Value::Double(state.dsum / static_cast<double>(state.count));
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (!state.has_value) return Value::Null();
      switch (out_type) {
        case DataType::kInt64:
          return Value::Int64(state.ext_i);
        case DataType::kDate:
          return Value::Date(state.ext_i);
        case DataType::kDouble:
          return Value::Double(state.ext_d);
        case DataType::kString:
          return Value::String(state.ext_s);
      }
      break;
  }
  return Value::Null();
}

Result<BatchPtr> HashAggregateOperator::Next() {
  if (!consumed_) {
    NODB_RETURN_NOT_OK(ConsumeChild());
    consumed_ = true;
  }
  if (emit_cursor_ >= groups_.size()) return BatchPtr();

  size_t n = std::min(RecordBatch::kDefaultBatchRows,
                      groups_.size() - emit_cursor_);
  auto out = std::make_shared<RecordBatch>(schema_);
  for (size_t i = 0; i < n; ++i) {
    const Group& g = groups_[emit_cursor_ + i];
    std::vector<Value> row;
    row.reserve(schema_->num_fields());
    for (const Value& k : g.keys) row.push_back(k);
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      row.push_back(Finalize(g.states[a], aggregates_[a], agg_types_[a]));
    }
    out->AppendRow(row);  // NOLINT(row-value): once per result row
  }
  emit_cursor_ += n;
  return out;
}

}  // namespace nodb
