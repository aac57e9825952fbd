#include "sql/planner.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "exec/aggregate.h"
#include "exec/distinct.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/limit.h"
#include "exec/project.h"
#include "exec/sort.h"
#include "obs/plan_profile.h"
#include "sql/parser.h"
#include "types/date_util.h"
#include "util/string_util.h"

namespace nodb {

namespace {

/// Does this parsed expression (sub)tree contain an aggregate call?
bool ContainsAggregate(const ParsedExpr& e) {
  if (e.kind == ParsedExpr::Kind::kAggregate) return true;
  if (e.left && ContainsAggregate(*e.left)) return true;
  if (e.right && ContainsAggregate(*e.right)) return true;
  return false;
}

/// Default output-column name for an expression without an alias.
std::string DeriveName(const ParsedExpr& e) {
  switch (e.kind) {
    case ParsedExpr::Kind::kColumn:
      return e.column;
    case ParsedExpr::Kind::kAggregate: {
      std::string base = e.agg == AggFunc::kCountStar
                             ? "count"
                             : ToLowerAscii(AggFuncToString(e.agg));
      if (e.left && e.left->kind == ParsedExpr::Kind::kColumn) {
        return base + "_" + e.left->column;
      }
      return base;
    }
    default:
      return e.ToString();
  }
}

/// Name resolution and expression binding over one or two tables.
class Binder {
 public:
  struct TableSlot {
    std::string name;   // catalog name
    std::string alias;  // effective alias (alias or name)
    std::shared_ptr<Schema> schema;
    std::set<size_t> used;
    std::vector<size_t> projection;
    std::unordered_map<size_t, size_t> remap;  // full idx -> projected idx
    size_t base = 0;  // offset in the combined projected schema
  };

  Status AddTable(const std::string& name, const std::string& alias,
                  std::shared_ptr<Schema> schema) {
    TableSlot slot;
    slot.name = name;
    slot.alias = alias.empty() ? name : alias;
    slot.schema = std::move(schema);
    for (const auto& other : slots_) {
      if (EqualsIgnoreCase(other.alias, slot.alias)) {
        return Status::InvalidArgument("duplicate table alias '" +
                                       slot.alias + "'");
      }
    }
    slots_.push_back(std::move(slot));
    return Status::OK();
  }

  size_t num_tables() const { return slots_.size(); }
  const TableSlot& slot(size_t i) const { return slots_[i]; }

  /// Resolves (qualifier, column) to a table slot + full-schema index.
  Result<std::pair<size_t, size_t>> Resolve(const std::string& qualifier,
                                            const std::string& column) const {
    if (!qualifier.empty()) {
      for (size_t s = 0; s < slots_.size(); ++s) {
        if (EqualsIgnoreCase(slots_[s].alias, qualifier) ||
            EqualsIgnoreCase(slots_[s].name, qualifier)) {
          NODB_ASSIGN_OR_RETURN(size_t idx,
                                slots_[s].schema->FieldIndex(column));
          return std::make_pair(s, idx);
        }
      }
      return Status::NotFound("unknown table qualifier '" + qualifier + "'");
    }
    std::optional<std::pair<size_t, size_t>> found;
    for (size_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s].schema->HasField(column)) {
        if (found.has_value()) {
          return Status::InvalidArgument("ambiguous column '" + column +
                                         "'");
        }
        auto idx = slots_[s].schema->FieldIndex(column);
        found = std::make_pair(s, *idx);
      }
    }
    if (!found.has_value()) {
      return Status::NotFound("no column named '" + column + "'");
    }
    return *found;
  }

  /// Pass 1: records every column a parsed expression touches.
  Status Collect(const ParsedExpr& e) {
    if (e.kind == ParsedExpr::Kind::kColumn) {
      NODB_ASSIGN_OR_RETURN(auto loc, Resolve(e.table, e.column));
      slots_[loc.first].used.insert(loc.second);
      return Status::OK();
    }
    if (e.left) NODB_RETURN_NOT_OK(Collect(*e.left));
    if (e.right) NODB_RETURN_NOT_OK(Collect(*e.right));
    return Status::OK();
  }

  /// Pass 1 for SELECT *: every column of every table is required.
  void CollectAll() {
    for (auto& slot : slots_) {
      for (size_t i = 0; i < slot.schema->num_fields(); ++i) {
        slot.used.insert(i);
      }
    }
  }

  /// Freezes per-table projections and the combined output schema.
  void FinalizeProjections() {
    std::vector<Field> combined;
    size_t base = 0;
    for (auto& slot : slots_) {
      slot.projection.assign(slot.used.begin(), slot.used.end());
      std::sort(slot.projection.begin(), slot.projection.end());
      slot.base = base;
      for (size_t i = 0; i < slot.projection.size(); ++i) {
        slot.remap[slot.projection[i]] = i;
        const Field& f = slot.schema->field(slot.projection[i]);
        // Qualified display names avoid collisions across joined tables.
        std::string display =
            slots_.size() > 1 ? slot.alias + "." + f.name : f.name;
        combined.push_back(Field{display, f.type});
      }
      base += slot.projection.size();
    }
    combined_ = Schema::Make(std::move(combined));
  }

  const std::shared_ptr<Schema>& combined_schema() const {
    return combined_;
  }

  /// Pass 2: binds to an executable expression over the combined
  /// projected schema. Aggregate nodes are rejected (they are handled
  /// by the aggregate planner, not inside scalar expressions).
  Result<ExprPtr> Bind(const ParsedExpr& e) const {
    switch (e.kind) {
      case ParsedExpr::Kind::kColumn: {
        NODB_ASSIGN_OR_RETURN(auto loc, Resolve(e.table, e.column));
        const TableSlot& slot = slots_[loc.first];
        auto it = slot.remap.find(loc.second);
        if (it == slot.remap.end()) {
          return Status::Internal("column not collected before binding: " +
                                  e.column);
        }
        size_t index = slot.base + it->second;
        return ExprPtr(std::make_shared<ColumnRefExpr>(
            index, combined_->field(index).name,
            slot.schema->field(loc.second).type));
      }
      case ParsedExpr::Kind::kLiteral:
        return ExprPtr(
            std::make_shared<LiteralExpr>(e.value, e.literal_type));
      case ParsedExpr::Kind::kCompare: {
        NODB_ASSIGN_OR_RETURN(auto left, Bind(*e.left));
        NODB_ASSIGN_OR_RETURN(auto right, Bind(*e.right));
        NODB_RETURN_NOT_OK(CoerceDateComparison(&left, &right));
        return ExprPtr(
            std::make_shared<CompareExpr>(e.cmp, std::move(left),
                                          std::move(right)));
      }
      case ParsedExpr::Kind::kLogical: {
        NODB_ASSIGN_OR_RETURN(auto left, Bind(*e.left));
        ExprPtr right;
        if (e.logic != LogicalOp::kNot) {
          NODB_ASSIGN_OR_RETURN(right, Bind(*e.right));
        }
        return ExprPtr(std::make_shared<LogicalExpr>(e.logic, std::move(left),
                                                     std::move(right)));
      }
      case ParsedExpr::Kind::kArith: {
        NODB_ASSIGN_OR_RETURN(auto left, Bind(*e.left));
        NODB_ASSIGN_OR_RETURN(auto right, Bind(*e.right));
        return ExprPtr(std::make_shared<ArithExpr>(e.arith, std::move(left),
                                                   std::move(right)));
      }
      case ParsedExpr::Kind::kIsNull: {
        NODB_ASSIGN_OR_RETURN(auto input, Bind(*e.left));
        return ExprPtr(
            std::make_shared<IsNullExpr>(std::move(input), e.negated));
      }
      case ParsedExpr::Kind::kLike: {
        NODB_ASSIGN_OR_RETURN(auto input, Bind(*e.left));
        return ExprPtr(std::make_shared<LikeExpr>(std::move(input),
                                                  e.pattern, e.negated));
      }
      case ParsedExpr::Kind::kAggregate:
        return Status::InvalidArgument(
            "aggregate used where a scalar expression is required: " +
            e.ToString());
    }
    return Status::Internal("unhandled parsed expression kind");
  }

 private:
  /// 'yyyy-mm-dd' string literals compared against DATE columns are
  /// re-typed as DATE so the comparison runs on day numbers.
  Status CoerceDateComparison(ExprPtr* left, ExprPtr* right) const {
    auto coerce = [&](ExprPtr& side, const ExprPtr& other) -> Status {
      auto* lit = dynamic_cast<LiteralExpr*>(side.get());
      if (lit == nullptr || lit->type() != DataType::kString) {
        return Status::OK();
      }
      auto other_type = other->OutputType(*combined_);
      if (!other_type.ok() || *other_type != DataType::kDate) {
        return Status::OK();
      }
      NODB_ASSIGN_OR_RETURN(int64_t days, ParseDate(lit->value().str()));
      side = std::make_shared<LiteralExpr>(Value::Date(days),
                                           DataType::kDate);
      return Status::OK();
    };
    NODB_RETURN_NOT_OK(coerce(*left, *right));
    return coerce(*right, *left);
  }

  std::vector<TableSlot> slots_;
  std::shared_ptr<Schema> combined_;
};

/// Binds a HAVING (or post-aggregate) expression against the output
/// schema of the aggregate projection. Sub-expressions that textually
/// match a SELECT item resolve to that output column (this is how
/// `HAVING COUNT(*) > 5` works when COUNT(*) is selected); bare column
/// names resolve against output names/aliases; aggregates not present
/// in the SELECT list are rejected.
Result<ExprPtr> BindOverOutput(const ParsedExpr& e, const Schema& out,
                               const std::vector<SelectItem>& items) {
  std::string key = e.ToString();
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].expr->ToString() == key) {
      return ExprPtr(std::make_shared<ColumnRefExpr>(
          i, out.field(i).name, out.field(i).type));
    }
  }
  switch (e.kind) {
    case ParsedExpr::Kind::kColumn: {
      if (e.table.empty()) {
        auto idx = out.FieldIndex(e.column);
        if (idx.ok()) {
          return ExprPtr(std::make_shared<ColumnRefExpr>(
              *idx, out.field(*idx).name, out.field(*idx).type));
        }
      }
      return Status::InvalidArgument(
          "HAVING references '" + key +
          "', which is not an output column of the aggregation");
    }
    case ParsedExpr::Kind::kLiteral:
      return ExprPtr(std::make_shared<LiteralExpr>(e.value, e.literal_type));
    case ParsedExpr::Kind::kCompare: {
      NODB_ASSIGN_OR_RETURN(auto l, BindOverOutput(*e.left, out, items));
      NODB_ASSIGN_OR_RETURN(auto r, BindOverOutput(*e.right, out, items));
      return ExprPtr(std::make_shared<CompareExpr>(e.cmp, std::move(l),
                                                   std::move(r)));
    }
    case ParsedExpr::Kind::kLogical: {
      NODB_ASSIGN_OR_RETURN(auto l, BindOverOutput(*e.left, out, items));
      ExprPtr r;
      if (e.logic != LogicalOp::kNot) {
        NODB_ASSIGN_OR_RETURN(r, BindOverOutput(*e.right, out, items));
      }
      return ExprPtr(std::make_shared<LogicalExpr>(e.logic, std::move(l),
                                                   std::move(r)));
    }
    case ParsedExpr::Kind::kArith: {
      NODB_ASSIGN_OR_RETURN(auto l, BindOverOutput(*e.left, out, items));
      NODB_ASSIGN_OR_RETURN(auto r, BindOverOutput(*e.right, out, items));
      return ExprPtr(std::make_shared<ArithExpr>(e.arith, std::move(l),
                                                 std::move(r)));
    }
    case ParsedExpr::Kind::kIsNull: {
      NODB_ASSIGN_OR_RETURN(auto in, BindOverOutput(*e.left, out, items));
      return ExprPtr(std::make_shared<IsNullExpr>(std::move(in), e.negated));
    }
    case ParsedExpr::Kind::kLike: {
      NODB_ASSIGN_OR_RETURN(auto in, BindOverOutput(*e.left, out, items));
      return ExprPtr(
          std::make_shared<LikeExpr>(std::move(in), e.pattern, e.negated));
    }
    case ParsedExpr::Kind::kAggregate:
      return Status::InvalidArgument(
          "HAVING aggregate '" + key +
          "' must also appear in the SELECT list");
  }
  return Status::Internal("unhandled expression kind in BindOverOutput");
}

/// Flattens an AND tree into conjuncts.
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  auto* logical = dynamic_cast<LogicalExpr*>(e.get());
  if (logical != nullptr && logical->op() == LogicalOp::kAnd) {
    SplitConjuncts(logical->left(), out);
    SplitConjuncts(logical->right(), out);
    return;
  }
  out->push_back(e);
}

/// Orders conjuncts most-selective-first using the stats oracle
/// (paper §3.3: on-the-fly statistics feed plan choices). Unknown
/// selectivities sort last, keeping their source order (stable sort).
void ReorderConjuncts(std::vector<ExprPtr>* conjuncts,
                      const std::string& table,
                      const SelectivityEstimator* stats) {
  if (conjuncts->size() < 2 || stats == nullptr) return;
  std::vector<std::pair<double, ExprPtr>> ranked;
  ranked.reserve(conjuncts->size());
  for (const auto& c : *conjuncts) {
    double sel = stats->EstimateSelectivity(table, *c).value_or(1.0);
    ranked.emplace_back(sel, c);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  conjuncts->clear();
  for (auto& [sel, expr] : ranked) conjuncts->push_back(std::move(expr));
}

/// Extracts equi-join key pairs from a bound ON condition over the
/// combined schema. Every conjunct must be `left_col = right_col` with
/// the two sides on different tables (`split` = first right-table
/// column index in the combined schema).
Status ExtractJoinKeys(const ExprPtr& condition, size_t split,
                       std::vector<ExprPtr>* probe_keys,
                       std::vector<ExprPtr>* build_keys) {
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(condition, &conjuncts);
  for (const auto& c : conjuncts) {
    auto* cmp = dynamic_cast<CompareExpr*>(c.get());
    if (cmp == nullptr || cmp->op() != CompareOp::kEq) {
      return Status::NotImplemented(
          "JOIN ON must be a conjunction of equalities; got " +
          c->ToString());
    }
    auto* l = dynamic_cast<ColumnRefExpr*>(cmp->left().get());
    auto* r = dynamic_cast<ColumnRefExpr*>(cmp->right().get());
    if (l == nullptr || r == nullptr) {
      return Status::NotImplemented(
          "JOIN ON must compare plain columns; got " + c->ToString());
    }
    const ColumnRefExpr* probe_side = l->index() < split ? l : r;
    const ColumnRefExpr* build_side = l->index() < split ? r : l;
    if (probe_side->index() >= split || build_side->index() < split) {
      return Status::NotImplemented(
          "JOIN ON must relate the two joined tables; got " + c->ToString());
    }
    probe_keys->push_back(std::make_shared<ColumnRefExpr>(
        probe_side->index(), probe_side->name(), probe_side->type()));
    // Build-side scan emits only the right table's columns, so rebase.
    build_keys->push_back(std::make_shared<ColumnRefExpr>(
        build_side->index() - split, build_side->name(),
        build_side->type()));
  }
  return Status::OK();
}

}  // namespace

Result<OperatorPtr> PlanSelect(const SelectStatement& stmt,
                               ScanFactory* factory,
                               const PlannerOptions& options) {
  // EXPLAIN sink: lines are appended bottom-up as the plan is built.
  auto note = [&](const std::string& line) {
    if (options.explain != nullptr) {
      *options.explain += line;
      *options.explain += '\n';
    }
  };
  // EXPLAIN ANALYZE / trace shim: wraps each operator as it is built,
  // consuming `arity` subtree roots (see obs::PlanProfiler).
  auto wrap = [&](OperatorPtr op, const char* kind, std::string label,
                  size_t arity) -> OperatorPtr {
    if (options.profile == nullptr) return op;
    return options.profile->Wrap(std::move(op), kind, std::move(label),
                                 arity);
  };

  Binder binder;
  NODB_ASSIGN_OR_RETURN(auto from_schema,
                        factory->TableSchema(stmt.from_table));
  NODB_RETURN_NOT_OK(
      binder.AddTable(stmt.from_table, stmt.from_alias, from_schema));
  if (stmt.has_join) {
    NODB_ASSIGN_OR_RETURN(auto join_schema,
                          factory->TableSchema(stmt.join_table));
    NODB_RETURN_NOT_OK(
        binder.AddTable(stmt.join_table, stmt.join_alias, join_schema));
  }

  // Rows a LIMIT consumes at most: LIMIT + OFFSET, saturating.
  const uint64_t limit_rows =
      !stmt.limit.has_value()              ? UINT64_MAX
      : *stmt.limit > UINT64_MAX - stmt.offset ? UINT64_MAX
                                           : *stmt.limit + stmt.offset;

  // ---- Pass 1: required-column analysis (drives selective parsing).
  const bool has_aggregate =
      !stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const SelectItem& item) {
                    return item.expr && ContainsAggregate(*item.expr);
                  });
  if (stmt.select_star) {
    if (has_aggregate) {
      return Status::InvalidArgument("SELECT * cannot mix with aggregates");
    }
    binder.CollectAll();
  }
  for (const auto& item : stmt.items) {
    NODB_RETURN_NOT_OK(binder.Collect(*item.expr));
  }
  if (stmt.where) NODB_RETURN_NOT_OK(binder.Collect(*stmt.where));
  if (stmt.join_condition) {
    NODB_RETURN_NOT_OK(binder.Collect(*stmt.join_condition));
  }
  for (const auto& g : stmt.group_by) NODB_RETURN_NOT_OK(binder.Collect(*g));
  if (!has_aggregate) {
    // In aggregate queries ORDER BY references output columns instead.
    for (const auto& o : stmt.order_by) {
      NODB_RETURN_NOT_OK(binder.Collect(*o.expr));
    }
  }
  binder.FinalizeProjections();

  // ---- WHERE analysis. Conjuncts are classified *before* the leaf
  // scans exist so that single-table conjuncts can be offered to their
  // scan as pushdown predicates — and, on joins, evaluated on the
  // correct side below the join (reordered by that table's statistics)
  // instead of over every joined row. Only conjuncts that genuinely
  // reference both tables remain above the HashJoin.
  const size_t split = binder.slot(0).projection.size();
  std::vector<ExprPtr> side_conjuncts[2];
  std::vector<ExprPtr> cross_conjuncts;
  if (stmt.where) {
    NODB_ASSIGN_OR_RETURN(auto predicate, binder.Bind(*stmt.where));
    NODB_ASSIGN_OR_RETURN(DataType t,
                          predicate->OutputType(*binder.combined_schema()));
    if (t != DataType::kInt64) {
      return Status::InvalidArgument("WHERE predicate is not boolean");
    }
    std::vector<ExprPtr> conjuncts;
    SplitConjuncts(predicate, &conjuncts);
    if (!stmt.has_join) {
      side_conjuncts[0] = std::move(conjuncts);
    } else {
      for (auto& c : conjuncts) {
        std::vector<size_t> cols;
        c->CollectColumns(&cols);
        bool left_only = true;
        bool right_only = true;
        for (size_t col : cols) {
          (col < split ? right_only : left_only) = false;
        }
        if (left_only) {  // includes column-free conjuncts
          side_conjuncts[0].push_back(std::move(c));
        } else if (right_only) {
          // The build-side scan emits only the right table's columns;
          // re-target the conjunct onto that schema. A node kind the
          // rebase does not know stays above the join (still correct).
          ExprPtr rebased = RebaseColumnRefs(c, split);
          if (rebased != nullptr) {
            side_conjuncts[1].push_back(std::move(rebased));
          } else {
            cross_conjuncts.push_back(std::move(c));
          }
        } else {
          cross_conjuncts.push_back(std::move(c));
        }
      }
    }
    // Most-selective-first per side, so the cheap rejections run first
    // whether the conjuncts execute inside the scan or as a cascade of
    // filters above it.
    ReorderConjuncts(&side_conjuncts[0], stmt.from_table, options.stats);
    if (stmt.has_join) {
      ReorderConjuncts(&side_conjuncts[1], stmt.join_table, options.stats);
    }
  }

  // ---- Leaf scans (the only engine-specific part of the plan). Each
  // side's conjuncts are offered to its scan; whatever the factory does
  // not consume becomes a cascade of filters directly above that scan.
  auto annotate = [&](const std::string& table, const Expr& c) {
    std::string suffix;
    // Estimates are display-only here (ordering already happened in
    // ReorderConjuncts) — skip the stats traffic unless EXPLAINing.
    if (options.explain != nullptr && options.stats != nullptr) {
      auto sel = options.stats->EstimateSelectivity(table, c);
      if (sel.has_value()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "  (selectivity ~%.4f)", *sel);
        suffix = buf;
      }
    }
    return suffix;
  };
  auto plan_scan = [&](size_t which, const std::string& table,
                       std::vector<ExprPtr>& conjuncts)
      -> Result<OperatorPtr> {
    const Binder::TableSlot& slot = binder.slot(which);
    std::string cols;
    for (size_t i : slot.projection) {
      if (!cols.empty()) cols += ", ";
      cols += slot.schema->field(i).name;
    }
    note("SCAN " + slot.name + " [" + cols + "]");
    ScanPushdown pushdown;
    pushdown.conjuncts = conjuncts;
    pushdown.pushed.assign(conjuncts.size(), false);
    // Only Project sits between the scan and Limit: the scan's rows
    // are the rows Limit counts.
    if (stmt.limit.has_value() && !has_aggregate && !stmt.has_join &&
        stmt.order_by.empty() && !stmt.distinct) {
      pushdown.row_limit = limit_rows;
    }
    NODB_ASSIGN_OR_RETURN(
        OperatorPtr scan,
        factory->CreatePushdownScan(table, slot.projection, &pushdown));
    pushdown.pushed.resize(conjuncts.size(), false);
    size_t num_pushed = 0;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (!pushdown.pushed[i]) continue;
      ++num_pushed;
      note("PUSHDOWN " + conjuncts[i]->ToString() +
           annotate(table, *conjuncts[i]));
    }
    std::string scan_label = "SCAN " + slot.name + " [" + cols + "]";
    if (num_pushed > 0) {
      scan_label += " (+" + std::to_string(num_pushed) + " pushed)";
    }
    scan = wrap(std::move(scan), "scan", std::move(scan_label), 0);
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (pushdown.pushed[i]) continue;
      note("FILTER " + conjuncts[i]->ToString() +
           annotate(table, *conjuncts[i]));
      std::string label = "FILTER " + conjuncts[i]->ToString();
      scan = wrap(std::make_unique<FilterOperator>(std::move(scan),
                                                   conjuncts[i]),
                  "filter", std::move(label), 1);
    }
    return scan;
  };

  NODB_ASSIGN_OR_RETURN(
      OperatorPtr plan,
      plan_scan(0, stmt.from_table, side_conjuncts[0]));
  if (stmt.has_join) {
    NODB_ASSIGN_OR_RETURN(
        OperatorPtr build,
        plan_scan(1, stmt.join_table, side_conjuncts[1]));
    if (stmt.join_condition == nullptr) {
      return Status::InvalidArgument("JOIN requires an ON condition");
    }
    NODB_ASSIGN_OR_RETURN(auto condition, binder.Bind(*stmt.join_condition));
    std::vector<ExprPtr> probe_keys, build_keys;
    NODB_RETURN_NOT_OK(
        ExtractJoinKeys(condition, split, &probe_keys, &build_keys));
    std::string keys;
    for (size_t i = 0; i < probe_keys.size(); ++i) {
      if (i > 0) keys += ", ";
      keys += probe_keys[i]->ToString() + " = " +
              build_keys[i]->ToString();
    }
    note("HASH JOIN on " + keys);
    NODB_ASSIGN_OR_RETURN(
        plan, HashJoinOperator::Create(std::move(plan), std::move(build),
                                       std::move(probe_keys),
                                       std::move(build_keys)));
    plan = wrap(std::move(plan), "join", "HASH JOIN on " + keys, 2);
    // Cross-table residue: only these conjuncts see joined rows.
    for (auto& conjunct : cross_conjuncts) {
      note("FILTER " + conjunct->ToString());
      std::string label = "FILTER " + conjunct->ToString();
      plan = wrap(std::make_unique<FilterOperator>(std::move(plan),
                                                   std::move(conjunct)),
                  "filter", std::move(label), 1);
    }
  }

  // The combined schema must match what the scans emit; rename to the
  // binder's display names so later OutputType calls line up.
  // (Scans emit per-table projected schemas; for joins the HashJoin
  // concatenates them in the same order the binder used.)

  // ORDER BY directly under a LIMIT keeps only the rows the LIMIT can
  // emit (top-N). EXPLAIN prints one "SORT by" line per key, the last
  // ending in the bound; EXPLAIN ANALYZE names the node "SORT TOP n".
  std::vector<std::string> sort_lines;
  auto add_sort = [&](OperatorPtr child, std::vector<SortKey> keys,
                      uint64_t bound) {
    std::string label = "SORT";
    if (bound != SortOperator::kNoLimit) {
      std::string top = " TOP " + std::to_string(bound);
      sort_lines.back() += top;
      label += top;
    }
    for (const auto& line : sort_lines) note(line);
    return wrap(std::make_unique<SortOperator>(std::move(child),
                                               std::move(keys), bound),
                "sort", std::move(label), 1);
  };

  if (has_aggregate) {
    // ---- Aggregate path: Agg -> Project(reorder) -> Sort -> Limit.
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    std::vector<std::string> group_keys;  // parsed text, for matching
    for (const auto& g : stmt.group_by) {
      NODB_ASSIGN_OR_RETURN(auto bound, binder.Bind(*g));
      group_exprs.push_back(std::move(bound));
      group_names.push_back(DeriveName(*g));
      group_keys.push_back(g->ToString());
    }

    struct ItemPlan {
      bool is_group = false;
      size_t index = 0;  // group index or aggregate ordinal
      std::string name;
    };
    std::vector<ItemPlan> item_plans;
    std::vector<AggregateSpec> aggs;
    for (const auto& item : stmt.items) {
      ItemPlan ip;
      ip.name = item.alias.empty() ? DeriveName(*item.expr) : item.alias;
      if (item.expr->kind == ParsedExpr::Kind::kAggregate) {
        AggregateSpec spec;
        spec.func = item.expr->agg;
        if (spec.func != AggFunc::kCountStar) {
          NODB_ASSIGN_OR_RETURN(spec.input, binder.Bind(*item.expr->left));
        }
        spec.name = ip.name;
        ip.index = aggs.size();
        aggs.push_back(std::move(spec));
      } else {
        std::string key = item.expr->ToString();
        auto it = std::find(group_keys.begin(), group_keys.end(), key);
        if (it == group_keys.end()) {
          return Status::InvalidArgument(
              "SELECT item must be an aggregate or appear in GROUP BY: " +
              key);
        }
        ip.is_group = true;
        ip.index = static_cast<size_t>(it - group_keys.begin());
      }
      item_plans.push_back(std::move(ip));
    }

    std::string agg_label;
    {
      std::string groups;
      for (size_t i = 0; i < group_keys.size(); ++i) {
        if (i > 0) groups += ", ";
        groups += group_keys[i];
      }
      std::string agg_list;
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (i > 0) agg_list += ", ";
        agg_list += aggs[i].name;
      }
      note("AGGREGATE groups=[" + groups + "] aggs=[" + agg_list + "]");
      agg_label = "AGGREGATE groups=[" + groups + "] aggs=[" + agg_list +
                  "]";
    }
    NODB_ASSIGN_OR_RETURN(
        plan, HashAggregateOperator::Create(std::move(plan),
                                            std::move(group_exprs),
                                            group_names, std::move(aggs)));
    plan = wrap(std::move(plan), "aggregate", std::move(agg_label), 1);

    // Reorder aggregate output into SELECT order.
    const Schema& agg_schema = *plan->output_schema();
    size_t num_groups = group_keys.size();
    std::vector<ExprPtr> out_exprs;
    std::vector<std::string> out_names;
    for (const auto& ip : item_plans) {
      size_t idx = ip.is_group ? ip.index : num_groups + ip.index;
      out_exprs.push_back(std::make_shared<ColumnRefExpr>(
          idx, agg_schema.field(idx).name, agg_schema.field(idx).type));
      out_names.push_back(ip.name);
    }
    NODB_ASSIGN_OR_RETURN(
        plan, ProjectOperator::Create(std::move(plan), std::move(out_exprs),
                                      std::move(out_names)));
    plan = wrap(std::move(plan), "project", "PROJECT (select order)", 1);

    // HAVING filters groups, evaluated over the projected output.
    if (stmt.having) {
      NODB_ASSIGN_OR_RETURN(
          auto having, BindOverOutput(*stmt.having, *plan->output_schema(),
                                      stmt.items));
      NODB_ASSIGN_OR_RETURN(DataType t,
                            having->OutputType(*plan->output_schema()));
      if (t != DataType::kInt64) {
        return Status::InvalidArgument("HAVING predicate is not boolean");
      }
      note("HAVING " + having->ToString());
      std::string label = "HAVING " + having->ToString();
      plan = wrap(std::make_unique<FilterOperator>(std::move(plan),
                                                   std::move(having)),
                  "filter", std::move(label), 1);
    }
    if (stmt.distinct) {
      note("DISTINCT");
      plan = wrap(std::make_unique<DistinctOperator>(std::move(plan)),
                  "distinct", "DISTINCT", 1);
    }

    // ORDER BY over the projected output: match an output column by
    // name/alias, or a select item by its textual expression (e.g.
    // "ORDER BY b.g" matching the select item "b.g").
    if (!stmt.order_by.empty()) {
      const Schema& out_schema = *plan->output_schema();
      std::vector<SortKey> keys;
      for (const auto& o : stmt.order_by) {
        std::optional<size_t> idx;
        if (o.expr->kind == ParsedExpr::Kind::kColumn &&
            o.expr->table.empty()) {
          auto found = out_schema.FieldIndex(o.expr->column);
          if (found.ok()) idx = *found;
        }
        if (!idx.has_value()) {
          std::string key = o.expr->ToString();
          for (size_t i = 0; i < stmt.items.size(); ++i) {
            if (stmt.items[i].expr->ToString() == key) {
              idx = i;
              break;
            }
          }
        }
        if (!idx.has_value()) {
          return Status::NotImplemented(
              "ORDER BY in aggregate queries must name an output "
              "column or select item: " +
              o.expr->ToString());
        }
        keys.push_back(SortKey{
            std::make_shared<ColumnRefExpr>(*idx,
                                            out_schema.field(*idx).name,
                                            out_schema.field(*idx).type),
            o.ascending});
        sort_lines.push_back(std::string("SORT by ") +
                             out_schema.field(*idx).name +
                             (o.ascending ? " ASC" : " DESC"));
      }
      // The sort sits directly under the LIMIT on this path.
      plan = add_sort(std::move(plan), std::move(keys), limit_rows);
    }
  } else {
    // ---- Scalar path: Sort (pre-projection) -> Project -> Limit.
    if (!stmt.order_by.empty()) {
      std::vector<SortKey> keys;
      for (const auto& o : stmt.order_by) {
        NODB_ASSIGN_OR_RETURN(auto bound, binder.Bind(*o.expr));
        sort_lines.push_back("SORT by " + bound->ToString() +
                             (o.ascending ? " ASC" : " DESC"));
        keys.push_back(SortKey{std::move(bound), o.ascending});
      }
      // Only the row-for-row Project may sit between this sort and the
      // LIMIT: a DISTINCT above it drops rows, so the first
      // LIMIT + OFFSET sorted rows may not hold LIMIT + OFFSET
      // distinct ones.
      plan = add_sort(std::move(plan), std::move(keys),
                      stmt.distinct ? SortOperator::kNoLimit : limit_rows);
    }

    std::vector<ExprPtr> out_exprs;
    std::vector<std::string> out_names;
    if (stmt.select_star) {
      const Schema& combined = *binder.combined_schema();
      for (size_t i = 0; i < combined.num_fields(); ++i) {
        out_exprs.push_back(std::make_shared<ColumnRefExpr>(
            i, combined.field(i).name, combined.field(i).type));
        out_names.push_back(combined.field(i).name);
      }
    }
    for (const auto& item : stmt.items) {
      NODB_ASSIGN_OR_RETURN(auto bound, binder.Bind(*item.expr));
      out_exprs.push_back(std::move(bound));
      out_names.push_back(item.alias.empty() ? DeriveName(*item.expr)
                                             : item.alias);
    }
    NODB_ASSIGN_OR_RETURN(
        plan, ProjectOperator::Create(std::move(plan), std::move(out_exprs),
                                      std::move(out_names)));
    plan = wrap(std::move(plan), "project", "PROJECT", 1);
    if (stmt.having) {
      return Status::InvalidArgument(
          "HAVING requires GROUP BY or aggregates");
    }
    if (stmt.distinct) {
      note("DISTINCT");
      plan = wrap(std::make_unique<DistinctOperator>(std::move(plan)),
                  "distinct", "DISTINCT", 1);
    }
  }

  {
    std::string names;
    const Schema& out = *plan->output_schema();
    for (size_t i = 0; i < out.num_fields(); ++i) {
      if (i > 0) names += ", ";
      names += out.field(i).name;
    }
    note("PROJECT [" + names + "]");
  }
  if (stmt.limit.has_value()) {
    std::string label =
        "LIMIT " + std::to_string(*stmt.limit) +
        (stmt.offset > 0 ? " OFFSET " + std::to_string(stmt.offset) : "");
    note(label);
    plan = wrap(std::make_unique<LimitOperator>(std::move(plan),
                                                *stmt.limit, stmt.offset),
                "limit", std::move(label), 1);
  }
  return plan;
}

Result<OperatorPtr> PlanSql(std::string_view sql, ScanFactory* factory,
                            const PlannerOptions& options) {
  NODB_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  return PlanSelect(stmt, factory, options);
}

}  // namespace nodb
