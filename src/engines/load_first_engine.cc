#include "engines/load_first_engine.h"

#include "engines/csv_loader.h"
#include "sql/planner.h"
#include "types/row_codec.h"
#include "util/stopwatch.h"

namespace nodb {

std::string_view LoadProfileToString(LoadProfile profile) {
  switch (profile) {
    case LoadProfile::kPostgres:
      return "PostgreSQL";
    case LoadProfile::kMySql:
      return "MySQL";
    case LoadProfile::kDbmsX:
      return "DBMS X";
  }
  return "?";
}

class LoadFirstEngine::Factory final : public ScanFactory {
 public:
  explicit Factory(LoadFirstEngine* engine) : engine_(engine) {}

  Result<std::shared_ptr<Schema>> TableSchema(
      const std::string& table) override {
    NODB_ASSIGN_OR_RETURN(RawTableInfo info,
                          engine_->catalog_.GetTable(table));
    return info.schema;
  }

  Result<OperatorPtr> CreateScan(
      const std::string& table,
      const std::vector<size_t>& projection) override {
    auto it = engine_->tables_.find(table);
    if (it == engine_->tables_.end()) {
      return Status::Internal("table '" + table + "' not loaded");
    }
    return OperatorPtr(
        std::make_unique<ColumnStoreScan>(it->second, projection));
  }

 private:
  LoadFirstEngine* engine_;
};

LoadFirstEngine::LoadFirstEngine(Catalog catalog, LoadProfile profile,
                                 std::string name)
    : name_(name.empty() ? std::string(LoadProfileToString(profile))
                         : std::move(name)),
      catalog_(std::move(catalog)),
      profile_(profile) {}

Status LoadFirstEngine::LoadTable(const RawTableInfo& info) {
  LoadStats stats;
  NODB_ASSIGN_OR_RETURN(
      auto table, LoadCsv(info.path, info.schema, info.dialect, &stats));

  if (profile_ == LoadProfile::kMySql) {
    // Row-store conversion: materialize a row-major image. This is the
    // real extra pass a row-oriented storage engine performs at COPY.
    // Each row's cells are in the shared row layout (types/row_codec.h).
    ByteWriter rows;
    rows.Reserve(table->MemoryUsage());
    for (size_t r = 0; r < table->num_rows(); ++r) {
      for (size_t c = 0; c < table->schema()->num_fields(); ++c) {
        EncodeRows(table->column(c), r, r + 1, &rows);
      }
    }
    row_copies_[info.name] = rows.Take();
  }

  if (profile_ == LoadProfile::kDbmsX) {
    // Tuning phase: a clustered-style index on the leading column plus
    // full statistics over every column.
    auto& index = indexes_[info.name];
    if (table->schema()->num_fields() > 0 &&
        table->column(0).type() != DataType::kString) {
      const ColumnVector& key = table->column(0);
      for (size_t r = 0; r < table->num_rows(); ++r) {
        if (!key.IsNull(r)) index.emplace(key.GetInt64(r), r);
      }
    }
    for (size_t c = 0; c < table->schema()->num_fields(); ++c) {
      const ColumnVector& col = table->column(c);
      double min = 0, max = 0, sum = 0;
      bool first = true;
      for (size_t r = 0; r < table->num_rows(); ++r) {
        if (col.IsNull(r) || col.type() == DataType::kString) continue;
        double v = col.GetNumeric(r);
        if (first || v < min) min = v;
        if (first || v > max) max = v;
        sum += v;
        first = false;
      }
      // The aggregates stand in for the statistics pass; results are
      // intentionally discarded.
      (void)sum;
    }
  }

  tables_[info.name] = std::move(table);
  return Status::OK();
}

Result<int64_t> LoadFirstEngine::Initialize() {
  if (initialized_) return totals_.init_ns;
  Stopwatch watch;
  for (const std::string& name : catalog_.TableNames()) {
    NODB_ASSIGN_OR_RETURN(RawTableInfo info, catalog_.GetTable(name));
    NODB_RETURN_NOT_OK(LoadTable(info));
  }
  initialized_ = true;
  totals_.init_ns = watch.ElapsedNanos();
  return totals_.init_ns;
}

Result<QueryOutcome> LoadFirstEngine::Execute(std::string_view sql) {
  if (!initialized_) {
    NODB_RETURN_NOT_OK(Initialize().status());
  }
  Stopwatch watch;
  QueryOutcome outcome;
  outcome.metrics.sql = std::string(sql);

  Factory factory(this);
  NODB_ASSIGN_OR_RETURN(OperatorPtr plan, PlanSql(sql, &factory));
  NODB_ASSIGN_OR_RETURN(outcome.result, QueryResult::Drain(plan.get()));

  outcome.metrics.total_ns = watch.ElapsedNanos();
  totals_.AddQuery(outcome.metrics);
  return outcome;
}

Result<std::string> LoadFirstEngine::Explain(std::string_view sql) {
  if (!initialized_) {
    NODB_RETURN_NOT_OK(Initialize().status());
  }
  std::string text;
  PlannerOptions options;
  options.explain = &text;
  Factory factory(this);
  NODB_RETURN_NOT_OK(PlanSql(sql, &factory, options).status());
  return text;
}

size_t LoadFirstEngine::resident_bytes() const {
  size_t total = 0;
  for (const auto& [name, table] : tables_) total += table->MemoryUsage();
  for (const auto& [name, rows] : row_copies_) total += rows.capacity();
  for (const auto& [name, index] : indexes_) {
    total += index.size() * (sizeof(int64_t) + sizeof(uint64_t) + 48);
  }
  return total;
}

}  // namespace nodb
