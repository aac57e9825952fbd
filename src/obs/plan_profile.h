#ifndef NODB_OBS_PLAN_PROFILE_H_
#define NODB_OBS_PLAN_PROFILE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace nodb {

struct QueryMetrics;
struct ScanMetrics;

namespace obs {

class TraceContext;

/// Wraps every operator of a plan with a timing shim and reconstructs
/// the operator tree, for EXPLAIN ANALYZE and per-operator trace
/// spans.
///
/// The planner builds plans bottom-up, so the profiler maintains a
/// stack of subtree roots: wrapping an operator with arity N pops its
/// N children (the N most recent roots) and pushes itself. A profiler
/// is single-query, single-threaded — the wrapper counts with plain
/// integers, which is what keeps the instrumented path within the
/// overhead gate.
class PlanProfiler {
 public:
  struct Node {
    std::string kind;   ///< scan, filter, join, aggregate, ...
    std::string label;  ///< the EXPLAIN note line, e.g. "SCAN t [a, b]"
    int64_t open_ns = 0;
    int64_t next_ns = 0;  ///< all Next() calls, inclusive of children
    uint64_t rows = 0;
    uint64_t batches = 0;
    std::vector<const Node*> children;

    int64_t TotalNs() const { return open_ns + next_ns; }
    /// Time attributable to this operator alone.
    int64_t SelfNs() const;
  };

  /// Takes ownership of `op`, returns the timing wrapper. `arity` is
  /// the number of direct children `op` consumed (0 for leaf scans,
  /// 2 for joins).
  OperatorPtr Wrap(OperatorPtr op, std::string kind, std::string label,
                   size_t arity);

  /// Nodes in creation (bottom-up) order; addresses are stable.
  const std::vector<const Node*>& nodes() const { return order_; }

  /// The plan root (last node wrapped); nullptr when nothing was.
  const Node* root() const {
    return roots_.empty() ? nullptr : roots_.back();
  }

  /// Emits one pre-measured "exec.<kind>" span per node (inclusive
  /// operator time), anchored at `start_ns`.
  void EmitExecSpans(TraceContext* ctx, int64_t start_ns) const;

 private:
  std::deque<Node> storage_;  // stable addresses for Node pointers
  std::vector<Node*> roots_;  // subtree roots during construction
  std::vector<const Node*> order_;
};

/// Scan time the five ScanMetrics categories (io, locate, tokenize,
/// convert, maintain) do not cover: the summed self time of the
/// profiler's scan nodes minus `scan.TotalScanNs()`, floored at 0 —
/// batch assembly, pushed-predicate evaluation, map-served row
/// location and the timers' own cost.
int64_t ScanOtherNs(const PlanProfiler& profiler, const ScanMetrics& scan);

/// Renders the annotated plan: one line per operator (bottom-up, the
/// same order as EXPLAIN) with inclusive/self times, row and batch
/// counts, then footer lines accounting the full wall time
/// (parse/plan/execute/output), the tier attribution and the span
/// coverage percentage the acceptance gate checks, and the scan's
/// cost categories plus `other` (ScanOtherNs).
std::string RenderAnalyze(const PlanProfiler& profiler,
                          const QueryMetrics& metrics);

}  // namespace obs
}  // namespace nodb

#endif  // NODB_OBS_PLAN_PROFILE_H_
