#ifndef NODB_SQL_PLANNER_H_
#define NODB_SQL_PLANNER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"
#include "sql/ast.h"
#include "util/result.h"

namespace nodb {

namespace obs {
class PlanProfiler;
}  // namespace obs

/// Predicate-pushdown offer handed to ScanFactory::CreatePushdownScan.
/// `conjuncts` are boolean expressions bound over the scan's *output*
/// schema (the projected columns, in projection order) — every column
/// they reference is in the projection by construction. The factory
/// marks the conjuncts it consumed in `pushed` (parallel to
/// `conjuncts`, pre-sized to false); the planner keeps a FilterOperator
/// above the scan for every conjunct left unpushed, so a factory that
/// ignores the offer still yields a correct plan.
///
/// `row_limit` is how many rows the plan consumes at most if the scan
/// takes every conjunct: LIMIT + OFFSET (saturating) for a single-table
/// query with no aggregate, GROUP BY, ORDER BY or DISTINCT, else
/// UINT64_MAX. A factory may stop its scan there.
struct ScanPushdown {
  std::vector<ExprPtr> conjuncts;
  std::vector<bool> pushed;
  uint64_t row_limit = UINT64_MAX;
};

/// Supplies leaf scans to the planner.
///
/// This is the seam the NoDB philosophy turns on: the identical plan
/// (filter/project/aggregate/join/sort/limit) runs over an in-situ raw
/// scan, the external-files re-scan, or a loaded binary table — only
/// this factory differs between engines. `projection` lists the table
/// columns the plan needs, ascending; an empty list requests
/// zero-column row-count batches (COUNT(*)).
class ScanFactory {
 public:
  virtual ~ScanFactory() = default;

  virtual Result<std::shared_ptr<Schema>> TableSchema(
      const std::string& table) = 0;

  virtual Result<OperatorPtr> CreateScan(
      const std::string& table, const std::vector<size_t>& projection) = 0;

  /// CreateScan plus a predicate-pushdown offer (see ScanPushdown).
  /// The default implementation ignores the offer and forwards to
  /// CreateScan — engines whose leaves cannot evaluate predicates need
  /// not change; the NoDB factory overrides this to push eligible
  /// conjuncts into the two-phase raw scan.
  virtual Result<OperatorPtr> CreatePushdownScan(
      const std::string& table, const std::vector<size_t>& projection,
      ScanPushdown* pushdown) {
    (void)pushdown;
    return CreateScan(table, projection);
  }
};

/// Selectivity oracle for predicate ordering, implemented by the NoDB
/// on-the-fly statistics store (paper §3.3). Estimates are fractions in
/// [0,1]; nullopt = no information (planner keeps source order).
class SelectivityEstimator {
 public:
  virtual ~SelectivityEstimator() = default;

  virtual std::optional<double> EstimateSelectivity(
      const std::string& table, const Expr& predicate) const = 0;
};

struct PlannerOptions {
  /// When set, AND-conjuncts are reordered most-selective-first.
  const SelectivityEstimator* stats = nullptr;

  /// When set, receives a bottom-up textual description of the built
  /// plan (EXPLAIN). Filter lines appear in execution order, so the
  /// effect of statistics-driven predicate reordering is visible.
  std::string* explain = nullptr;

  /// When set, every operator is wrapped in a timing shim and the
  /// operator tree is recorded (EXPLAIN ANALYZE, per-operator trace
  /// spans). The profiler must outlive the returned plan.
  obs::PlanProfiler* profile = nullptr;
};

/// Binds and plans `stmt` into an executable operator tree.
///
/// Column pruning is computed here and pushed into ScanFactory —
/// for the NoDB engine this is exactly the "requested attributes" set
/// that drives selective tokenizing/parsing.
Result<OperatorPtr> PlanSelect(const SelectStatement& stmt,
                               ScanFactory* factory,
                               const PlannerOptions& options = {});

/// Parses and plans in one step.
Result<OperatorPtr> PlanSql(std::string_view sql, ScanFactory* factory,
                            const PlannerOptions& options = {});

}  // namespace nodb

#endif  // NODB_SQL_PLANNER_H_
