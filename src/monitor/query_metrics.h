#ifndef NODB_MONITOR_QUERY_METRICS_H_
#define NODB_MONITOR_QUERY_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>

#include "raw/scan_metrics.h"

namespace nodb {

/// End-to-end cost of one query in the Figure-3 categories.
struct QueryMetrics {
  std::string sql;
  int64_t total_ns = 0;
  ScanMetrics scan;

  /// Phase wall times (filled by NoDbEngine; zero on engines that do
  /// not split phases): SQL text -> AST, AST -> operator tree, and
  /// draining the tree into the materialized result. Disjoint
  /// sub-intervals of total_ns, so parse + plan + drain <= total and
  /// the gap is engine glue — EXPLAIN ANALYZE's accounting check.
  int64_t parse_ns = 0;
  int64_t plan_ns = 0;
  int64_t drain_ns = 0;

  /// Plan work above the scan (filters, aggregation, joins,
  /// materialization): everything the scan categories do not explain.
  int64_t processing_ns() const {
    return std::max<int64_t>(0, total_ns - scan.TotalScanNs());
  }
};

using QueryField = MetricField<QueryMetrics>;

/// QueryMetrics' own fields (the scan's are kScanFields), in
/// RESULT_DONE order: a new field is appended at the end.
inline constexpr QueryField kQueryFields[] = {
    {"total", &QueryMetrics::total_ns},
    {"parse", &QueryMetrics::parse_ns},
    {"plan", &QueryMetrics::plan_ns},
    {"drain", &QueryMetrics::drain_ns},
};

static_assert(sizeof(QueryMetrics) ==
                  sizeof(std::string) + sizeof(ScanMetrics) +
                      std::size(kQueryFields) * sizeof(int64_t),
              "every QueryMetrics field needs a kQueryFields entry");

/// Cumulative engine-level accounting for the data-to-query-time race
/// (§4.3): initialization (loading/tuning) plus every query so far.
struct EngineTotals {
  int64_t init_ns = 0;
  int64_t query_ns = 0;
  uint64_t queries = 0;

  int64_t data_to_query_ns() const { return init_ns + query_ns; }

  void AddQuery(const QueryMetrics& metrics) {
    query_ns += metrics.total_ns;
    ++queries;
  }
};

}  // namespace nodb

#endif  // NODB_MONITOR_QUERY_METRICS_H_
