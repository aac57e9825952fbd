// Tests for the monitoring library: metrics arithmetic, bar rendering,
// panel content and CSV emitters.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "io/file.h"
#include "io/temp_dir.h"
#include "monitor/panel.h"
#include "monitor/query_metrics.h"
#include "raw/table_state.h"
#include "util/string_util.h"

namespace nodb {
namespace {

TEST(QueryMetricsTest, ProcessingIsResidual) {
  QueryMetrics metrics;
  metrics.total_ns = 100;
  metrics.scan.io_ns = 20;
  metrics.scan.tokenize_ns = 30;
  metrics.scan.parsing_ns = 10;
  metrics.scan.convert_ns = 15;
  metrics.scan.nodb_ns = 5;
  EXPECT_EQ(metrics.scan.TotalScanNs(), 80);
  EXPECT_EQ(metrics.processing_ns(), 20);
  // Never negative even when timers overlap slightly.
  metrics.total_ns = 50;
  EXPECT_EQ(metrics.processing_ns(), 0);
}

TEST(QueryMetricsTest, ScanMetricsAddIsComponentWise) {
  ScanMetrics a;
  a.io_ns = 1;
  a.rows_scanned = 10;
  a.cache_block_hits = 2;
  ScanMetrics b;
  b.io_ns = 2;
  b.rows_scanned = 20;
  b.map_exact_probes = 7;
  a.Add(b);
  EXPECT_EQ(a.io_ns, 3);
  EXPECT_EQ(a.rows_scanned, 30u);
  EXPECT_EQ(a.cache_block_hits, 2u);
  EXPECT_EQ(a.map_exact_probes, 7u);
}

TEST(QueryMetricsTest, AddAndTotalCoverEveryTableField) {
  ScanMetrics a;
  for (size_t i = 0; i < std::size(kScanFields); ++i) {
    kScanFields[i].SetWord(&a, 1 + i);
  }
  ScanMetrics sum = a;
  sum.Add(a);
  int64_t times = 0;
  for (const ScanField& f : kScanFields) {
    EXPECT_EQ(f.Word(sum), 2 * f.Word(a)) << f.name;
    if (f.kind == MetricKind::kTime) times += a.*f.ns;
  }
  EXPECT_EQ(a.TotalScanNs(), times);
  EXPECT_EQ(times, 1 + 2 + 3 + 4 + 5 + 6);  // the six categories lead
}

TEST(EngineTotalsTest, DataToQueryTime) {
  EngineTotals totals;
  totals.init_ns = 100;
  QueryMetrics q;
  q.total_ns = 40;
  totals.AddQuery(q);
  totals.AddQuery(q);
  EXPECT_EQ(totals.queries, 2u);
  EXPECT_EQ(totals.query_ns, 80);
  EXPECT_EQ(totals.data_to_query_ns(), 180);
}

TEST(PanelTest, BarRendering) {
  EXPECT_EQ(MonitorPanel::Bar(0.0, 10), "[..........]   0.0%");
  EXPECT_EQ(MonitorPanel::Bar(0.5, 10), "[#####.....]  50.0%");
  EXPECT_EQ(MonitorPanel::Bar(1.0, 10), "[##########] 100.0%");
  // Over-budget fractions clamp the bar but report the true percent.
  EXPECT_EQ(MonitorPanel::Bar(1.5, 10), "[##########] 150.0%");
  EXPECT_EQ(MonitorPanel::Bar(-0.1, 10), "[..........]   0.0%");
}

TEST(PanelTest, BreakdownLineContainsAllCategories) {
  QueryMetrics metrics;
  metrics.total_ns = 5000000;
  metrics.scan.io_ns = 1000000;
  metrics.scan.tokenize_ns = 500000;
  std::string line = MonitorPanel::RenderBreakdown("label", metrics);
  // The scan categories carry EXPLAIN ANALYZE's names.
  for (const char* token : {"label", "total", "proc", "io", "locate",
                            "tokenize", "convert", "maintain", "filter"}) {
    EXPECT_NE(line.find(token), std::string::npos) << token;
  }
}

TEST(PanelTest, BreakdownClampsNegativeProcessing) {
  // Per-category timers are measured independently, so on a tiny query
  // their sum can exceed the wall clock; the derived Processing column
  // must clamp at zero instead of rendering a negative duration.
  QueryMetrics metrics;
  metrics.total_ns = 1000;
  metrics.scan.io_ns = 800;
  metrics.scan.parsing_ns = 400;
  metrics.scan.tokenize_ns = 300;
  metrics.scan.convert_ns = 200;
  metrics.scan.nodb_ns = 100;
  ASSERT_GT(metrics.scan.TotalScanNs(), metrics.total_ns);
  std::string line = MonitorPanel::RenderBreakdown("tiny", metrics);
  EXPECT_NE(line.find(FormatNanos(0)), std::string::npos) << line;
  // Every value follows a space; the footer's "zone-skipped" is the
  // only hyphen the line may hold.
  EXPECT_EQ(line.find(" -"), std::string::npos) << line;
}

TEST(PanelTest, CsvRowAlignsWithHeader) {
  QueryMetrics metrics;
  metrics.scan.rows_scanned = 42;
  std::string header = MonitorPanel::BreakdownCsvHeader();
  std::string row = MonitorPanel::BreakdownCsvRow("x", metrics);
  EXPECT_EQ(SplitString(header, ',').size(), SplitString(row, ',').size());
  EXPECT_EQ(SplitString(row, ',')[0], "x");
  // One column per table field, named by its short name.
  const std::vector<std::string> columns = SplitString(header, ',');
  EXPECT_EQ(columns.size(),
            2 + std::size(kQueryFields) + std::size(kScanFields));
  for (const char* column : {"total_ns", "processing_ns", "locate_ns",
                             "maintain_ns", "filter_ns", "rows_scanned",
                             "pushdown_phase2_fields"}) {
    EXPECT_NE(std::find(columns.begin(), columns.end(), column),
              columns.end())
        << column;
  }
}

TEST(PanelTest, TableStatePanelShowsStructures) {
  auto dir = TempDir::Create("nodb-monitor");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->FilePath("t.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2\n3,4\n").ok());
  RawTableInfo info{"watched", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64}}),
                    CsvDialect()};
  RawTableState state(info, NoDbConfig());
  ASSERT_TRUE(state.Open().ok());
  state.RecordAttributeAccess({0});
  std::string panel = MonitorPanel::RenderTableState(state);
  EXPECT_NE(panel.find("watched"), std::string::npos);
  EXPECT_NE(panel.find("positional map"), std::string::npos);
  EXPECT_NE(panel.find("cache"), std::string::npos);
  EXPECT_NE(panel.find("tuple index"), std::string::npos);
  EXPECT_NE(panel.find("a "), std::string::npos);  // accessed attribute
}

TEST(PanelTest, ConcurrentBatchPanelAggregates) {
  ConcurrentBatchOutcome batch;
  batch.clients = 3;
  batch.wall_ns = 2'000'000;  // 2 ms for 4 queries -> 2000 q/s
  for (size_t i = 0; i < 4; ++i) {
    ConcurrentQueryReport report;
    report.index = i;
    report.client = "client-" + std::to_string(i % 3);
    report.sql = "SELECT " + std::to_string(i);
    report.metrics.total_ns = 900'000;
    // Overlapping pairs: q0/q1 together, then q2/q3 together.
    report.start_ns = static_cast<int64_t>((i / 2) * 1'000'000);
    report.finish_ns = report.start_ns + 900'000;
    batch.reports.push_back(std::move(report));
  }
  batch.reports[3].status = Status::ParseError("bad row");

  EXPECT_EQ(batch.peak_in_flight(), 2u);
  EXPECT_EQ(batch.failures(), 1u);
  EXPECT_NEAR(batch.queries_per_second(), 2000.0, 1.0);

  std::string panel = MonitorPanel::RenderConcurrentBatch(batch);
  EXPECT_NE(panel.find("4 queries on 3 client(s)"), std::string::npos);
  EXPECT_NE(panel.find("peak in flight 2"), std::string::npos);
  EXPECT_NE(panel.find("failures 1"), std::string::npos);
  EXPECT_NE(panel.find("client-1"), std::string::npos);
  EXPECT_NE(panel.find("FAILED"), std::string::npos);
  EXPECT_NE(panel.find("queries/s"), std::string::npos);
}

TEST(PanelTest, PeakInFlightBackToBackDoesNotOverlap) {
  ConcurrentBatchOutcome batch;
  batch.clients = 1;
  batch.wall_ns = 2'000'000;
  for (size_t i = 0; i < 3; ++i) {
    ConcurrentQueryReport report;
    report.index = i;
    report.start_ns = static_cast<int64_t>(i) * 500'000;
    report.finish_ns = report.start_ns + 500'000;  // finish == next start
    batch.reports.push_back(std::move(report));
  }
  EXPECT_EQ(batch.peak_in_flight(), 1u);
}

}  // namespace
}  // namespace nodb
