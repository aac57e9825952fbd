// Tests for the observability layer: metrics registry primitives
// (sharded counters, gauges, log-bucketed latency histograms,
// Prometheus exposition), trace-span integrity (every span closed,
// monotone timestamps, wall-time coverage), client attribution under
// concurrency, and the EXPLAIN / EXPLAIN ANALYZE surfaces.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engines/nodb_engine.h"
#include "exec/query_result.h"
#include "io/file.h"
#include "io/temp_dir.h"
#include "monitor/query_metrics.h"
#include "obs/metrics.h"
#include "obs/plan_profile.h"
#include "obs/trace.h"
#include "raw/raw_scan.h"
#include "sql/parser.h"

namespace nodb {
namespace {

// ----------------------------------------------------------- metrics

TEST(MetricsTest, CounterSumsAcrossThreads) {
  obs::Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 10000; ++i) counter.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), 80000u);
}

TEST(MetricsTest, GaugeAddSubSet) {
  obs::Gauge gauge;
  gauge.Add(5);
  gauge.Sub(2);
  EXPECT_EQ(gauge.Value(), 3);
  gauge.Set(-7);
  EXPECT_EQ(gauge.Value(), -7);
}

TEST(MetricsTest, HistogramBucketsAreConservative) {
  // Every value maps to a bucket whose upper bound is >= the value and
  // within 25% of it (4 sub-buckets per octave).
  for (uint64_t v : {1ull, 3ull, 4ull, 5ull, 100ull, 1023ull, 1024ull,
                     999999ull, 123456789ull}) {
    size_t index = obs::LatencyHistogram::BucketIndex(v);
    uint64_t bound = obs::LatencyHistogram::BucketUpperBound(index);
    EXPECT_GE(bound, v) << v;
    EXPECT_LE(bound, v + v / 4 + 1) << v;
    if (index > 0) {
      EXPECT_LT(obs::LatencyHistogram::BucketUpperBound(index - 1), v)
          << v;
    }
  }
}

TEST(MetricsTest, HistogramSnapshotQuantiles) {
  obs::LatencyHistogram histogram;
  for (int i = 1; i <= 1000; ++i) histogram.Record(i * 1000);
  obs::HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.max, 1000000u);
  // Quantiles resolve to bucket upper bounds: conservative (>= true
  // value) but never past the recorded max.
  EXPECT_GE(snap.p50, 500000u);
  EXPECT_LE(snap.p50, 700000u);
  EXPECT_GE(snap.p99, 990000u);
  EXPECT_LE(snap.p99, 1000000u);
  EXPECT_LE(snap.p95, snap.p99);
  EXPECT_LE(snap.p99, snap.max);
}

TEST(MetricsTest, HistogramConcurrentRecords) {
  obs::LatencyHistogram histogram;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < 5000; ++i) histogram.Record(42);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(histogram.Snapshot().count, 20000u);
  EXPECT_EQ(histogram.Snapshot().max, 42u);
}

TEST(MetricsTest, RegistryHandlesAreStable) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("test_total", "help one");
  obs::Counter* b = registry.GetCounter("test_total", "help two");
  EXPECT_EQ(a, b);  // same name = same metric; first help wins
  a->Add(3);
  EXPECT_EQ(b->Value(), 3u);
  EXPECT_NE(registry.GetGauge("test_gauge"), nullptr);
  EXPECT_NE(registry.GetHistogram("test_ns"), nullptr);
}

TEST(MetricsTest, RenderPrometheusExposition) {
  obs::MetricsRegistry registry;
  registry.GetCounter("demo_total", "A demo counter")->Add(7);
  registry.GetGauge("demo_depth", "A demo gauge")->Set(2);
  registry.GetHistogram("demo_ns", "A demo histogram")->Record(1000);
  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP demo_total A demo counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_total counter"), std::string::npos);
  EXPECT_NE(text.find("demo_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("demo_depth 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_ns summary"), std::string::npos);
  EXPECT_NE(text.find("demo_ns{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(text.find("demo_ns_count 1"), std::string::npos);
  std::string compact = registry.RenderText();
  EXPECT_NE(compact.find("demo_total"), std::string::npos);
}

// ------------------------------------------------------------- spans

TEST(TraceTest, SpansNestAndClose) {
  obs::TraceContext ctx(7, "client-0", "SELECT 1");
  size_t outer = ctx.OpenSpan("query.execute");
  size_t inner = ctx.OpenSpan("query.parse");
  EXPECT_EQ(ctx.open_spans(), 2u);
  ctx.CloseSpan(inner);
  ctx.CloseSpan(outer);
  EXPECT_EQ(ctx.open_spans(), 0u);
  obs::QueryTrace trace = ctx.Finish();
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.id, 7u);
  EXPECT_EQ(trace.events[0].name, "query.execute");
  EXPECT_EQ(trace.events[0].depth, 0);
  EXPECT_EQ(trace.events[1].depth, 1);
  for (const obs::TraceEvent& event : trace.events) {
    EXPECT_GE(event.dur_ns, 0) << event.name;
  }
}

TEST(TraceTest, FinishForceClosesLeakedSpans) {
  obs::TraceContext ctx(1, "", "q");
  ctx.OpenSpan("query.execute");
  ctx.OpenSpan("query.drain");
  obs::QueryTrace trace = ctx.Finish();
  for (const obs::TraceEvent& event : trace.events) {
    EXPECT_GE(event.dur_ns, 0) << event.name;  // none left open
  }
}

TEST(TraceTest, OutOfOrderCloseStillFinishes) {
  obs::TraceContext ctx(2, "", "q");
  size_t outer = ctx.OpenSpan("query.execute");
  size_t inner = ctx.OpenSpan("query.parse");
  ctx.CloseSpan(outer);  // not top-of-stack
  EXPECT_EQ(ctx.open_spans(), 1u);
  ctx.CloseSpan(outer);  // double close is a no-op
  EXPECT_EQ(ctx.open_spans(), 1u);
  obs::QueryTrace trace = ctx.Finish();  // must close `inner` and return
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_GE(trace.events[inner].dur_ns, 0);
  EXPECT_GE(trace.events[outer].dur_ns, 0);
}

TEST(TraceTest, ScopedSpanIsNullSafe) {
  obs::ScopedSpan nothing(nullptr, "query.execute");
  nothing.Close();  // all no-ops
  obs::TraceContext ctx(1, "", "q");
  {
    obs::ScopedSpan span(&ctx, "query.execute");
  }
  EXPECT_EQ(ctx.open_spans(), 0u);
  EXPECT_EQ(ctx.num_events(), 1u);
}

TEST(TraceTest, JsonLinesAreChromeEvents) {
  obs::TraceContext ctx(3, "cli", "SELECT \"x\"");
  obs::ScopedSpan span(&ctx, "query.execute");
  span.Close();
  std::string lines = obs::Tracer::ToJsonLines(ctx.Finish());
  EXPECT_NE(lines.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(lines.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(lines.find("\"name\":\"query.execute\""), std::string::npos);
  EXPECT_NE(lines.find("\\\"x\\\""), std::string::npos);  // escaped SQL
}

TEST(TraceTest, TracerCollectsAndWritesFile) {
  auto dir = TempDir::Create("nodb-obs");
  ASSERT_TRUE(dir.ok());
  obs::Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.SetEnabled(true);
  EXPECT_TRUE(tracer.enabled());
  uint64_t first = tracer.NextQueryId();
  EXPECT_LT(first, tracer.NextQueryId());  // ids increase

  obs::TraceContext ctx(first, "cli", "SELECT 1");
  obs::ScopedSpan span(&ctx, "query.execute");
  span.Close();
  tracer.Collect(ctx.Finish());
  ASSERT_EQ(tracer.Snapshot().size(), 1u);
  EXPECT_EQ(tracer.Snapshot()[0].client, "cli");

  std::string path = dir->FilePath("trace.jsonl");
  ASSERT_TRUE(tracer.WriteChromeTrace(path).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->rfind("[\n", 0), 0u);  // Chrome array opener
  EXPECT_NE(bytes->find("query.execute"), std::string::npos);
}

TEST(TraceTest, SessionLabelNestsPerThread) {
  EXPECT_EQ(obs::ScopedSessionLabel::Current(), "");
  {
    std::string outer_label = "outer";
    obs::ScopedSessionLabel outer(outer_label);
    EXPECT_EQ(obs::ScopedSessionLabel::Current(), "outer");
    {
      std::string inner_label = "inner";
      obs::ScopedSessionLabel inner(inner_label);
      EXPECT_EQ(obs::ScopedSessionLabel::Current(), "inner");
    }
    EXPECT_EQ(obs::ScopedSessionLabel::Current(), "outer");
    std::thread other([] {
      EXPECT_EQ(obs::ScopedSessionLabel::Current(), "");  // thread-local
    });
    other.join();
  }
  EXPECT_EQ(obs::ScopedSessionLabel::Current(), "");
}

// ---------------------------------------------- engine integration

class ObsEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("nodb-obs-engine");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    std::string path = dir_->FilePath("sales.csv");
    std::string content;
    const char* regions[] = {"north", "south", "east", "west"};
    for (int i = 0; i < 4000; ++i) {
      content += std::to_string(i);
      content += ",";
      content += regions[i % 4];
      content += ",";
      content += std::to_string((i * 7) % 100);
      content += ".25\n";
    }
    ASSERT_TRUE(WriteStringToFile(path, content).ok());
    auto schema = Schema::Make({{"id", DataType::kInt64},
                                {"region", DataType::kString},
                                {"amount", DataType::kDouble}});
    ASSERT_TRUE(
        catalog_.RegisterTable({"sales", path, schema, CsvDialect()}).ok());
  }

  std::unique_ptr<TempDir> dir_;
  Catalog catalog_;
};

TEST_F(ObsEngineTest, TracedQueryHasClosedMonotoneSpans) {
  NoDbConfig config;
  config.rows_per_block = 256;
  config.trace_mode = TraceMode::kOn;
  NoDbEngine engine(catalog_, config);
  ASSERT_TRUE(engine.tracer().enabled());

  auto outcome =
      engine.Execute("SELECT COUNT(*) FROM sales WHERE amount > 50");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  engine.WaitForPromotions();

  std::vector<obs::QueryTrace> traces = engine.tracer().Snapshot();
  ASSERT_FALSE(traces.empty());
  const obs::QueryTrace& trace = traces[0];
  EXPECT_EQ(trace.sql, "SELECT COUNT(*) FROM sales WHERE amount > 50");

  ASSERT_FALSE(trace.events.empty());
  EXPECT_EQ(trace.events[0].name, "query.execute");
  int64_t last_start = 0;
  std::set<std::string> names;
  for (const obs::TraceEvent& event : trace.events) {
    EXPECT_GE(event.dur_ns, 0) << event.name;  // every span closed
    EXPECT_GE(event.start_ns, last_start) << event.name;  // monotone
    last_start = event.start_ns;
    names.insert(event.name);
  }
  for (const char* expected :
       {"query.execute", "query.parse", "query.plan", "query.drain"}) {
    EXPECT_TRUE(names.count(expected)) << expected;
  }
  // The raw scan did real work, so its cost categories became spans,
  // and the profiler recorded the operator tree.
  EXPECT_TRUE(names.count("scan.tokenize"));
  EXPECT_TRUE(names.count("exec.scan"));

  // Coverage: the root span tracks the query wall time, and the three
  // measured phases account for (nearly) all of it.
  const obs::TraceEvent& root = trace.events[0];
  const QueryMetrics& metrics = outcome->metrics;
  int64_t accounted =
      metrics.parse_ns + metrics.plan_ns + metrics.drain_ns;
  EXPECT_GE(accounted,
            static_cast<int64_t>(0.95 * static_cast<double>(root.dur_ns)));
  EXPECT_GE(root.dur_ns,
            static_cast<int64_t>(
                0.95 * static_cast<double>(metrics.total_ns)));
}

TEST_F(ObsEngineTest, BackgroundPromotionIsTraced) {
  NoDbConfig config;
  config.rows_per_block = 256;
  config.trace_mode = TraceMode::kOn;
  config.promote_after_accesses = 2;
  NoDbEngine engine(catalog_, config);
  // LIMIT abandons the scan after the first batch, so piggybacked
  // promotion cannot cover the file and a real background pass runs.
  for (int i = 0; i < 4; ++i) {
    auto outcome =
        engine.Execute("SELECT amount FROM sales LIMIT 5");
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  }
  engine.WaitForPromotions();
  bool saw_promotion = false;
  for (const obs::QueryTrace& trace : engine.tracer().Snapshot()) {
    for (const obs::TraceEvent& event : trace.events) {
      if (event.name == "promoter.pass") {
        saw_promotion = true;
        EXPECT_EQ(trace.client, "background");
        EXPECT_NE(trace.sql.find("promote sales"), std::string::npos);
      }
    }
  }
  EXPECT_TRUE(saw_promotion);
}

TEST_F(ObsEngineTest, ConcurrentClientsGetAttributedTraces) {
  NoDbConfig config;
  config.rows_per_block = 256;
  NoDbEngine serial_engine(catalog_, config);

  std::vector<std::string> sqls;
  for (int i = 0; i < 16; ++i) {
    sqls.push_back("SELECT region, COUNT(*) AS n FROM sales WHERE id >= " +
                   std::to_string(i * 100) +
                   " GROUP BY region ORDER BY region");
  }
  // Reference: the same batch executed serially, untraced.
  std::vector<std::vector<std::string>> expected;
  for (const std::string& sql : sqls) {
    auto outcome = serial_engine.Execute(sql);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    expected.push_back(outcome->result.CanonicalRows());
  }

  config.trace_mode = TraceMode::kOn;
  NoDbEngine engine(catalog_, config);
  ConcurrentBatchOutcome batch = engine.ExecuteConcurrent(sqls, 8);
  EXPECT_EQ(batch.clients, 8u);
  ASSERT_EQ(batch.reports.size(), sqls.size());
  for (size_t i = 0; i < batch.reports.size(); ++i) {
    ASSERT_TRUE(batch.reports[i].status.ok())
        << batch.reports[i].status.ToString();
    // Identical answers with tracing on, concurrently.
    EXPECT_EQ(batch.reports[i].result.CanonicalRows(), expected[i]) << i;
  }
  engine.WaitForPromotions();

  std::set<uint64_t> ids;
  size_t query_traces = 0;
  for (const obs::QueryTrace& trace : engine.tracer().Snapshot()) {
    EXPECT_TRUE(ids.insert(trace.id).second) << "duplicate trace id";
    if (trace.client == "background") continue;
    ++query_traces;
    // Attribution: the session label of the executing client.
    EXPECT_EQ(trace.client.rfind("client-", 0), 0u) << trace.client;
    ASSERT_FALSE(trace.events.empty());
    EXPECT_EQ(trace.events[0].name, "query.execute");
    int64_t last_start = 0;
    for (const obs::TraceEvent& event : trace.events) {
      EXPECT_GE(event.dur_ns, 0) << event.name;
      EXPECT_GE(event.start_ns, last_start) << event.name;
      last_start = event.start_ns;
    }
  }
  EXPECT_EQ(query_traces, sqls.size());
}

TEST_F(ObsEngineTest, QueryTelemetryLandsInGlobalRegistry) {
  NoDbConfig config;
  config.rows_per_block = 256;
  NoDbEngine engine(catalog_, config);
  auto outcome = engine.Execute("SELECT COUNT(*) FROM sales");
  ASSERT_TRUE(outcome.ok());
  std::string text = obs::MetricsRegistry::Global().RenderPrometheus();
  EXPECT_NE(text.find("nodb_queries_total"), std::string::npos);
  EXPECT_NE(text.find("nodb_query_latency_ns"), std::string::npos);
  EXPECT_NE(text.find("nodb_scan_rows_total"), std::string::npos);
}

// ------------------------------------------- EXPLAIN [ANALYZE]

TEST(StripExplainTest, RecognizesPrefixes) {
  std::string_view sql = "EXPLAIN SELECT 1";
  bool analyze = true;
  EXPECT_TRUE(StripExplainPrefix(&sql, &analyze));
  EXPECT_FALSE(analyze);
  EXPECT_EQ(sql, "SELECT 1");

  sql = "  explain Analyze  SELECT * FROM t";
  EXPECT_TRUE(StripExplainPrefix(&sql, &analyze));
  EXPECT_TRUE(analyze);
  EXPECT_EQ(sql, "SELECT * FROM t");

  sql = "SELECT explain FROM t";
  analyze = true;
  EXPECT_FALSE(StripExplainPrefix(&sql, &analyze));
  EXPECT_EQ(sql, "SELECT explain FROM t");

  // Word boundary: EXPLAINX is not the keyword.
  sql = "EXPLAINX SELECT 1";
  EXPECT_FALSE(StripExplainPrefix(&sql, &analyze));
}

TEST_F(ObsEngineTest, ExplainReturnsPlanText) {
  NoDbConfig config;
  config.rows_per_block = 256;
  NoDbEngine engine(catalog_, config);
  auto outcome = engine.Execute(
      "EXPLAIN SELECT region FROM sales WHERE amount > 10");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->result.schema()->num_fields(), 1u);
  EXPECT_EQ(outcome->result.schema()->field(0).name, "QUERY PLAN");
  std::string text;
  for (size_t i = 0; i < outcome->result.num_rows(); ++i) {
    text += outcome->result.Row(i)[0].str() + "\n";
  }
  EXPECT_NE(text.find("SCAN sales"), std::string::npos) << text;
}

TEST_F(ObsEngineTest, ExplainAnalyzeAccountsWallTime) {
  NoDbConfig config;
  config.rows_per_block = 256;
  NoDbEngine engine(catalog_, config);
  auto outcome = engine.Execute(
      "EXPLAIN ANALYZE SELECT region, COUNT(*) AS n FROM sales "
      "WHERE amount > 25 GROUP BY region ORDER BY region");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  std::string text;
  for (size_t i = 0; i < outcome->result.num_rows(); ++i) {
    text += outcome->result.Row(i)[0].str() + "\n";
  }
  // The annotated tree: operator lines with rows, then accounting.
  EXPECT_NE(text.find("SCAN sales"), std::string::npos) << text;
  EXPECT_NE(text.find("AGGREGATE"), std::string::npos) << text;
  EXPECT_NE(text.find("rows"), std::string::npos) << text;
  EXPECT_NE(text.find("accounted"), std::string::npos) << text;

  // The acceptance gate: parse+plan+execute within 5% of wall time.
  size_t at = text.find("accounted ");
  ASSERT_NE(at, std::string::npos);
  double coverage = std::stod(text.substr(at + 10));
  EXPECT_GE(coverage, 95.0) << text;
  EXPECT_LE(coverage, 100.5) << text;

  // It really executed: the metrics carry the scan's work.
  EXPECT_GT(outcome->metrics.scan.rows_scanned, 0u);
  EXPECT_GT(outcome->metrics.drain_ns, 0);
}

TEST_F(ObsEngineTest, ExplainAnalyzeNamesTheTopNBound) {
  NoDbEngine engine(catalog_, NoDbConfig{});
  auto outcome = engine.Execute(
      "EXPLAIN ANALYZE SELECT region FROM sales ORDER BY amount DESC "
      "LIMIT 2 OFFSET 3");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  std::string text;
  for (size_t i = 0; i < outcome->result.num_rows(); ++i) {
    text += outcome->result.Row(i)[0].str() + "\n";
  }
  EXPECT_NE(text.find("SORT TOP 5"), std::string::npos) << text;
}

TEST_F(ObsEngineTest, ExplainAnalyzeRowsMatchPlainQuery) {
  NoDbConfig config;
  config.rows_per_block = 256;
  NoDbEngine engine(catalog_, config);
  auto plain = engine.Execute("SELECT COUNT(*) FROM sales");
  ASSERT_TRUE(plain.ok());
  auto analyzed = engine.Execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM sales");
  ASSERT_TRUE(analyzed.ok());
  std::string text;
  for (size_t i = 0; i < analyzed->result.num_rows(); ++i) {
    text += analyzed->result.Row(i)[0].str() + "\n";
  }
  // The aggregate emitted exactly one row, visible in the tree.
  EXPECT_NE(text.find("AGGREGATE"), std::string::npos) << text;
  EXPECT_EQ(plain->result.Row(0)[0], Value::Int64(4000));
}

TEST(ScanBreakdownTest, CategoriesPlusOtherAddUpToScanSelfTime) {
  // A cold pushed-predicate scan of a 12-int-column file, profiled the
  // way EXPLAIN ANALYZE profiles it: io + locate + tokenize + convert +
  // maintain + other is exactly the scan node's self time, and the
  // five measured categories carry most of it.
  auto dir = TempDir::Create("nodb-obs-scan");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->FilePath("t.csv");
  std::string content;
  std::vector<Field> fields;
  for (uint64_t c = 0; c < 12; ++c) {
    fields.push_back(Field{"attr" + std::to_string(c), DataType::kInt64});
  }
  for (uint64_t r = 0; r < 60000; ++r) {
    for (uint64_t c = 0; c < 12; ++c) {
      if (c > 0) content += ',';
      content += std::to_string((r * 2654435761u + c * 40503u) % 1000000000u);
    }
    content += '\n';
  }
  ASSERT_TRUE(WriteStringToFile(path, content).ok());

  // Each attempt is a cold scan over fresh state. The coverage bound is
  // a timing property, so it must hold on one of three attempts: a
  // preemption inside an untimed stretch is not a regression.
  double best_coverage = 0;
  for (int attempt = 0; attempt < 3 && best_coverage < 0.85; ++attempt) {
    RawTableState state({"t", path, Schema::Make(fields), CsvDialect()},
                        NoDbConfig());
    ScanMetrics metrics;
    auto scan = std::make_unique<RawScanOperator>(
        &state, std::vector<uint32_t>{1, 2, 9}, &metrics);
    scan->SetPushdownPredicates({std::make_shared<CompareExpr>(
        CompareOp::kLt,
        std::make_shared<ColumnRefExpr>(0, "attr1", DataType::kInt64),
        std::make_shared<LiteralExpr>(Value::Int64(500000000),
                                      DataType::kInt64))});
    obs::PlanProfiler profiler;
    OperatorPtr root = profiler.Wrap(std::move(scan), "scan", "SCAN t", 0);
    auto result = QueryResult::Drain(root.get());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->num_rows(), 0u);
    EXPECT_LT(result->num_rows(), 60000u);

    const int64_t self = profiler.root()->SelfNs();
    const int64_t categories = metrics.TotalScanNs();
    const int64_t other = obs::ScanOtherNs(profiler, metrics);
    EXPECT_EQ(categories + other, self)
        << "categories " << categories << " ns, self " << self << " ns";
    const double coverage = static_cast<double>(categories) /
                            static_cast<double>(std::max<int64_t>(self, 1));
    best_coverage = std::max(best_coverage, coverage);

    QueryMetrics query;
    query.scan = metrics;
    std::string text = obs::RenderAnalyze(profiler, query);
    EXPECT_NE(text.find("| other "), std::string::npos) << text;
  }
  EXPECT_GE(best_coverage, 0.85);
}

}  // namespace
}  // namespace nodb
