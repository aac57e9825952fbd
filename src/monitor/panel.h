#ifndef NODB_MONITOR_PANEL_H_
#define NODB_MONITOR_PANEL_H_

#include <string>
#include <vector>

#include "engines/query_session.h"
#include "monitor/query_metrics.h"
#include "raw/table_state.h"
#include "server/server_stats.h"

namespace nodb {

/// Text renderings of the demo's GUI panels.
///
/// The original demonstration visualizes internal PostgresRaw state in
/// a graphical interface (Figure 2); this library exposes the same
/// counters as ASCII panels and CSV series so benches, examples and
/// logs can show the identical information.
class MonitorPanel {
 public:
  /// The System Monitoring Panel (Figure 2): map/cache/store
  /// utilization bars, structure sizes, per-attribute access counts
  /// and known-file coverage shading for the touched attributes.
  static std::string RenderTableState(const RawTableState& state);

  /// The storage-tier report (the shell's \tiers command): raw file →
  /// cache → shadow store, with per-tier bytes vs budgets, hit
  /// counters and the promoted columns' heat and coverage.
  static std::string RenderStorageTiers(const RawTableState& state);

  /// The Query Execution Breakdown panel (Figure 3): one stacked row
  /// of Processing / IO / Convert / Parsing / Tokenizing / NoDB.
  static std::string RenderBreakdown(const std::string& label,
                                     const QueryMetrics& metrics);

  /// The concurrent-serving panel: per-query rows (client, timing,
  /// Figure-3 breakdown) for a multi-client batch plus the aggregate
  /// line — wall time, queries/sec, peak queries in flight, failures.
  static std::string RenderConcurrentBatch(
      const ConcurrentBatchOutcome& batch);

  /// The server front-end panel (shell \metrics server section):
  /// connections, in-flight vs capacity, queue depth, admission
  /// totals, and one row per tenant with rows served and reserved
  /// memory.
  static std::string RenderServer(const server::ServerStats& stats);

  /// CSV header + row emitters for machine-readable series (the
  /// benches print these so experiments can be re-plotted).
  static std::string BreakdownCsvHeader();
  static std::string BreakdownCsvRow(const std::string& label,
                                     const QueryMetrics& metrics);

  /// A horizontal percentage bar, e.g. "[#####.....] 50.0%".
  static std::string Bar(double fraction, size_t width = 30);
};

}  // namespace nodb

#endif  // NODB_MONITOR_PANEL_H_
