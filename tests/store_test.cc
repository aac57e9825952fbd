// Tests for the shadow column store subsystem: access-heat tracking,
// piggybacked and background promotion, hybrid store/cache/raw
// serving, append/rewrite lifecycle (generation fencing of both
// segment tiers), and byte-identical results under concurrent
// promotion. SegmentStore's unit cases live in segment_store_test.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engines/load_first_engine.h"
#include "engines/nodb_engine.h"
#include "exec/query_result.h"
#include "io/file.h"
#include "io/temp_dir.h"
#include "raw/raw_scan.h"
#include "raw/table_state.h"
#include "store/promoter.h"
#include "store/segment_store.h"

namespace nodb {
namespace {

std::shared_ptr<const ColumnVector> MakeSegment(size_t rows,
                                                int64_t start) {
  auto col = std::make_shared<ColumnVector>(DataType::kInt64);
  for (size_t i = 0; i < rows; ++i) {
    col->AppendInt64(start + static_cast<int64_t>(i));
  }
  return col;
}

// ---------------------------------------------------------------------
// State-level integration: heat, piggybacked promotion, hybrid serving.

class StoreScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("nodb-store");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
  }

  /// value(row, col) = row * 100 + col, like raw_scan_test's fixture.
  RawTableInfo WriteFixture(const std::string& name, size_t rows,
                            size_t cols) {
    std::string content;
    std::vector<Field> fields;
    for (size_t c = 0; c < cols; ++c) {
      fields.push_back(Field{"c" + std::to_string(c), DataType::kInt64});
    }
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        if (c > 0) content += ',';
        content += std::to_string(r * 100 + c);
      }
      content += '\n';
    }
    std::string path = dir_->FilePath(name + ".csv");
    EXPECT_TRUE(WriteStringToFile(path, content).ok());
    return RawTableInfo{name, path, Schema::Make(fields), CsvDialect()};
  }

  NoDbConfig StoreConfig() {
    NoDbConfig config;
    config.rows_per_block = 64;
    config.promote_after_accesses = 2;
    return config;
  }

  void VerifyScan(RawTableState* state, std::vector<uint32_t> projection,
                  size_t expected_rows, ScanMetrics* metrics = nullptr) {
    RawScanOperator scan(state, projection, metrics);
    auto result = QueryResult::Drain(&scan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->num_rows(), expected_rows);
    for (size_t r = 0; r < expected_rows; ++r) {
      auto row = result->Row(r);
      for (size_t i = 0; i < projection.size(); ++i) {
        ASSERT_EQ(row[i], Value::Int64(static_cast<int64_t>(
                              r * 100 + projection[i])))
            << "row " << r << " attr " << projection[i];
      }
    }
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(StoreScanTest, HeatTracksAccessesAndHotAttributes) {
  auto info = WriteFixture("t", 10, 4);
  RawTableState state(info, StoreConfig());
  ASSERT_TRUE(state.Open().ok());
  EXPECT_TRUE(HotAttributes(state).empty());

  state.RecordAttributeAccess({0, 2});
  EXPECT_EQ(state.stats().access_heat(0), 1u);
  EXPECT_EQ(state.stats().access_heat(1), 0u);
  EXPECT_TRUE(HotAttributes(state).empty());

  state.RecordAttributeAccess({0, 2});
  EXPECT_EQ(state.stats().access_heat(0), 2u);
  EXPECT_EQ(HotAttributes(state), (std::vector<uint32_t>{0, 2}));
}

TEST_F(StoreScanTest, ThirdScanIsServedEntirelyFromStore) {
  auto info = WriteFixture("t", 300, 6);
  RawTableState state(info, StoreConfig());

  ScanMetrics cold;
  VerifyScan(&state, {0, 2}, 300, &cold);
  EXPECT_EQ(cold.rows_from_store, 0u);
  EXPECT_EQ(cold.rows_from_raw, 300u);
  EXPECT_EQ(state.store().num_segments(), 0u);  // heat 1 < threshold 2

  // The second scan crosses the threshold: cache segments are handed
  // to the store as blocks commit (no re-parse), but serving is still
  // the cache path.
  ScanMetrics warm;
  VerifyScan(&state, {0, 2}, 300, &warm);
  EXPECT_EQ(warm.rows_from_store, 0u);
  EXPECT_EQ(warm.rows_from_cache, 300u);
  EXPECT_EQ(state.store().rows_materialized(0), 300u);
  EXPECT_EQ(state.store().rows_materialized(2), 300u);

  // Third scan: every block is materialized — no row location, no
  // tokenizing, no parsing, no raw-file I/O.
  ScanMetrics hot;
  VerifyScan(&state, {0, 2}, 300, &hot);
  EXPECT_EQ(hot.rows_from_store, 300u);
  EXPECT_EQ(hot.rows_from_cache, 0u);
  EXPECT_EQ(hot.rows_from_raw, 0u);
  EXPECT_GT(hot.store_block_hits, 0u);
  EXPECT_EQ(hot.fields_tokenized, 0u);
  EXPECT_EQ(hot.fields_converted, 0u);
  EXPECT_EQ(hot.bytes_read, 0u);
  EXPECT_EQ(hot.map_exact_probes, 0u);  // no positional-map lookups
}

TEST_F(StoreScanTest, PromotionWithoutCacheParsesOnceThenServes) {
  auto info = WriteFixture("t", 200, 5);
  NoDbConfig config = StoreConfig();
  config.enable_cache = false;  // piggyback must use the parsed vectors
  RawTableState state(info, config);

  VerifyScan(&state, {1}, 200);
  ScanMetrics warm;
  VerifyScan(&state, {1}, 200, &warm);
  EXPECT_GT(warm.fields_converted, 0u);  // no cache: re-parsed once more
  EXPECT_EQ(state.store().rows_materialized(1), 200u);

  ScanMetrics hot;
  VerifyScan(&state, {1}, 200, &hot);
  EXPECT_EQ(hot.rows_from_store, 200u);
  EXPECT_EQ(hot.fields_converted, 0u);
}

TEST_F(StoreScanTest, PromotionWorksWithCacheAndStatsDisabled) {
  // Regression: with cache AND statistics off, the store is the only
  // consumer of the per-block building vectors — the side-effect path
  // must still run for them.
  auto info = WriteFixture("t", 200, 5);
  NoDbConfig config = StoreConfig();
  config.enable_cache = false;
  config.enable_statistics = false;
  RawTableState state(info, config);

  VerifyScan(&state, {1}, 200);
  VerifyScan(&state, {1}, 200);
  EXPECT_EQ(state.store().rows_materialized(1), 200u);

  ScanMetrics hot;
  VerifyScan(&state, {1}, 200, &hot);
  EXPECT_EQ(hot.rows_from_store, 200u);
  EXPECT_EQ(hot.fields_converted, 0u);
}

TEST_F(StoreScanTest, ServingRequiresPositionalMap) {
  auto info = WriteFixture("t", 300, 4);
  NoDbConfig config = StoreConfig();
  config.enable_positional_map = false;
  RawTableState state(info, config);

  for (int i = 0; i < 3; ++i) {
    ScanMetrics metrics;
    VerifyScan(&state, {0, 1}, 300, &metrics);
    // The hybrid plan's raw residue needs the map to locate rows, so
    // the store fast path stays off without it.
    EXPECT_EQ(metrics.rows_from_store, 0u);
  }
}

TEST_F(StoreScanTest, HybridPlanServesStorePrefixAndCacheTail) {
  auto info = WriteFixture("t", 640, 4);  // 10 blocks of 64
  NoDbConfig config = StoreConfig();
  config.promote_after_accesses = 100;  // promotion only by hand below
  RawTableState state(info, config);

  VerifyScan(&state, {3}, 640);  // fills map + cache
  // Materialize only the first half of the column: the scan must mix
  // store-served blocks with cache-served blocks in one pass.
  for (uint64_t block = 0; block < 5; ++block) {
    auto seg = state.cache().Get(3, block);
    ASSERT_NE(seg, nullptr);
    state.store().Put(3, block, seg, state.store().generation());
  }

  ScanMetrics mixed;
  VerifyScan(&state, {3}, 640, &mixed);
  EXPECT_EQ(mixed.rows_from_store, 5u * 64u);
  EXPECT_EQ(mixed.rows_from_cache, 640u - 5u * 64u);
  EXPECT_EQ(mixed.rows_from_raw, 0u);
  EXPECT_EQ(mixed.store_block_hits, 5u);
}

TEST_F(StoreScanTest, TinyBudgetEvictsButResultsStayCorrect) {
  auto info = WriteFixture("t", 640, 4);  // 10 blocks of 64
  NoDbConfig config = StoreConfig();
  // Room for roughly half the blocks of one column: eviction races
  // promotion, and repeated scans keep re-promoting under pressure.
  config.store_budget = MakeSegment(64, 0)->MemoryUsage() * 5;
  RawTableState state(info, config);

  for (int i = 0; i < 3; ++i) {
    ScanMetrics metrics;
    VerifyScan(&state, {3}, 640, &metrics);
    EXPECT_EQ(metrics.rows_from_store + metrics.rows_from_cache +
                  metrics.rows_from_raw,
              640u);
  }
  EXPECT_GT(state.store().evictions(), 0u);
  EXPECT_LE(state.store().bytes_used(), state.store().budget_bytes());
  EXPECT_GT(state.store().num_segments(), 0u);
}

TEST_F(StoreScanTest, AppendKeepsPromotedPrefixAndPromotesTail) {
  NoDbConfig config = StoreConfig();
  config.rows_per_block = 16;
  // 100 rows: blocks 0-5 full, block 6 holds 4 rows.
  std::string content;
  for (int r = 0; r < 100; ++r) {
    content += std::to_string(r) + "," + std::to_string(r * 2) + "\n";
  }
  std::string path = dir_->FilePath("t.csv");
  ASSERT_TRUE(WriteStringToFile(path, content).ok());
  RawTableInfo info{"t", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64}}),
                    CsvDialect()};
  RawTableState state(info, config);

  auto scan_all = [&](ScanMetrics* metrics, size_t expect) {
    RawScanOperator scan(&state, {0, 1}, metrics);
    auto result = QueryResult::Drain(&scan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->num_rows(), expect);
    for (size_t r = 0; r < expect; ++r) {
      ASSERT_EQ(result->Row(r)[0], Value::Int64(static_cast<int64_t>(r)));
      ASSERT_EQ(result->Row(r)[1],
                Value::Int64(static_cast<int64_t>(r) * 2));
    }
  };
  scan_all(nullptr, 100);
  scan_all(nullptr, 100);
  ASSERT_EQ(state.store().rows_materialized(0), 100u);

  // Clean append of 28 rows: blocks 6 and 7 become full.
  auto app = OpenAppendableFile(path);
  ASSERT_TRUE(app.ok());
  std::string extra;
  for (int r = 100; r < 128; ++r) {
    extra += std::to_string(r) + "," + std::to_string(r * 2) + "\n";
  }
  ASSERT_TRUE((*app)->Append(extra).ok());
  ASSERT_TRUE((*app)->Close().ok());
  auto change = state.CheckForUpdates();
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(*change, FileChange::kAppended);

  // The partial tail block (6) was dropped; full blocks 0-5 survive.
  EXPECT_EQ(state.store().rows_materialized(0), 96u);
  EXPECT_TRUE(state.store().Contains(0, 5));
  EXPECT_FALSE(state.store().Contains(0, 6));

  // First post-append scan: prefix from the store, tail re-parsed and
  // re-promoted as its blocks fill.
  ScanMetrics after;
  scan_all(&after, 128);
  EXPECT_EQ(after.rows_from_store, 96u);
  EXPECT_EQ(state.store().rows_materialized(0), 128u);

  ScanMetrics hot;
  scan_all(&hot, 128);
  EXPECT_EQ(hot.rows_from_store, 128u);
}

TEST_F(StoreScanTest, RewriteDropsStoreAndHeat) {
  auto info = WriteFixture("t", 120, 3);
  RawTableState state(info, StoreConfig());
  VerifyScan(&state, {0, 1}, 120);
  VerifyScan(&state, {0, 1}, 120);
  ASSERT_GT(state.store().num_segments(), 0u);
  ASSERT_GE(state.stats().access_heat(0), 2u);

  std::string fresh;
  for (int r = 0; r < 30; ++r) fresh += "7,8,9\n";
  ASSERT_TRUE(WriteStringToFile(info.path, fresh).ok());
  auto change = state.CheckForUpdates();
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(*change, FileChange::kRewritten);
  EXPECT_EQ(state.store().num_segments(), 0u);
  EXPECT_EQ(state.stats().access_heat(0), 0u);

  RawScanOperator scan(&state, {0, 1, 2}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 30u);
  EXPECT_EQ(result->Row(0)[0], Value::Int64(7));
}

TEST_F(StoreScanTest, ScanOpenedBeforeRewriteCannotRefillTheCache) {
  // A scan that took its file handle before a rewrite parses the old
  // file to the end; none of its segments may enter the cache of the
  // new generation. The map and store are off, so the cache is the one
  // tier that could serve stale rows (the map is not generation-pinned
  // per query yet).
  auto info = WriteFixture("t", 8, 2);
  NoDbConfig config;
  config.rows_per_block = 4;
  config.enable_positional_map = false;
  config.enable_store = false;
  RawTableState state(info, config);
  ASSERT_TRUE(state.Open().ok());

  RawScanOperator stale(&state, {0, 1}, nullptr);
  ASSERT_TRUE(stale.Open().ok());
  std::string fresh;
  for (int r = 0; r < 8; ++r) fresh += "7,8\n";
  ASSERT_TRUE(WriteFileAtomic(info.path, fresh).ok());
  auto change = state.CheckForUpdates();
  ASSERT_TRUE(change.ok());
  ASSERT_EQ(*change, FileChange::kRewritten);
  ASSERT_EQ(state.cache().num_segments(), 0u);

  size_t stale_rows = 0;
  while (true) {
    auto batch = stale.Next();
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (*batch == nullptr) break;
    stale_rows += (*batch)->num_rows();
  }
  EXPECT_EQ(stale_rows, 8u);  // the old file, through the old handle
  EXPECT_EQ(state.cache().num_segments(), 0u);

  RawScanOperator scan(&state, {0, 1}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 8u);
  for (size_t r = 0; r < 8; ++r) {
    EXPECT_EQ(result->Row(r)[0], Value::Int64(7)) << "row " << r;
    EXPECT_EQ(result->Row(r)[1], Value::Int64(8)) << "row " << r;
  }
}

// ---------------------------------------------------------------------
// Engine-level: background promotion and concurrent serving.

class StoreEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("nodb-store-engine");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    path_ = dir_->FilePath("t.csv");
    std::string content;
    for (int r = 0; r < 3000; ++r) {
      content += std::to_string(r) + "," + std::to_string(r % 13) + "," +
                 std::to_string(r * 3) + "\n";
    }
    ASSERT_TRUE(WriteStringToFile(path_, content).ok());
    schema_ = Schema::Make({{"id", DataType::kInt64},
                            {"grp", DataType::kInt64},
                            {"x", DataType::kInt64}});
    ASSERT_TRUE(
        catalog_.RegisterTable({"t", path_, schema_, CsvDialect()}).ok());
  }

  std::unique_ptr<TempDir> dir_;
  Catalog catalog_;
  std::string path_;
  std::shared_ptr<Schema> schema_;
};

TEST_F(StoreEngineTest, BackgroundPromotionCompletesWhatLimitScansSkip) {
  NoDbConfig config;
  config.rows_per_block = 64;
  config.promote_after_accesses = 2;
  NoDbEngine engine(catalog_, config);

  // LIMIT abandons the scan after the first batch: piggybacking alone
  // cannot cover the file, so the background pass must finish the job.
  ASSERT_TRUE(engine.Execute("SELECT id FROM t LIMIT 10").ok());
  ASSERT_TRUE(engine.Execute("SELECT id FROM t LIMIT 10").ok());
  engine.WaitForPromotions();

  const RawTableState* state = engine.table_state("t");
  ASSERT_NE(state, nullptr);
  EXPECT_TRUE(state->map().rows_complete());
  EXPECT_EQ(state->map().known_rows(), 3000u);
  EXPECT_EQ(state->store().rows_materialized(0), 3000u);

  auto hot = engine.Execute("SELECT id FROM t LIMIT 10");
  ASSERT_TRUE(hot.ok());
  EXPECT_GT(hot->metrics.scan.rows_from_store, 0u);
  EXPECT_EQ(hot->metrics.scan.fields_converted, 0u);
}

TEST_F(StoreEngineTest, FullyMaterializedPresetLoadsOnFirstTouch) {
  NoDbConfig config = NoDbConfig::FullyMaterialized();
  config.rows_per_block = 128;
  NoDbEngine engine(catalog_, config);

  auto first = engine.Execute("SELECT id, x FROM t WHERE x > 30");
  ASSERT_TRUE(first.ok());
  engine.WaitForPromotions();
  const RawTableState* state = engine.table_state("t");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->store().rows_materialized(0), 3000u);
  EXPECT_EQ(state->store().rows_materialized(2), 3000u);

  auto second = engine.Execute("SELECT id, x FROM t WHERE x > 30");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->metrics.scan.rows_from_store, 3000u);
  EXPECT_EQ(second->result.CanonicalRows(), first->result.CanonicalRows());
}

TEST_F(StoreEngineTest, StoreToggleDisablesServingButKeepsResults) {
  NoDbConfig config;
  config.rows_per_block = 64;
  config.promote_after_accesses = 2;
  NoDbEngine engine(catalog_, config);
  const char* sql = "SELECT grp, x FROM t WHERE id < 500 ORDER BY id";

  auto baseline = engine.Execute(sql);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(engine.Execute(sql).ok());
  engine.WaitForPromotions();

  engine.SetStoreEnabled(false);
  auto off = engine.Execute(sql);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->metrics.scan.rows_from_store, 0u);
  EXPECT_EQ(off->result.CanonicalRows(), baseline->result.CanonicalRows());

  engine.SetStoreEnabled(true);
  auto on = engine.Execute(sql);
  ASSERT_TRUE(on.ok());
  EXPECT_GT(on->metrics.scan.rows_from_store, 0u);
  EXPECT_EQ(on->result.CanonicalRows(), baseline->result.CanonicalRows());
}

TEST_F(StoreEngineTest, ConcurrentPromotionStaysByteIdentical) {
  NoDbConfig config;
  config.rows_per_block = 32;  // many blocks promoting concurrently
  config.promote_after_accesses = 2;
  // A constrained store keeps eviction racing promotion and serving.
  config.store_budget = 64 * 1024;
  NoDbEngine engine(catalog_, config);

  LoadFirstEngine reference(catalog_, LoadProfile::kPostgres);
  ASSERT_TRUE(reference.Initialize().ok());

  const std::vector<std::string> unique = {
      "SELECT grp, COUNT(*) AS n, SUM(x) AS s FROM t GROUP BY grp "
      "ORDER BY grp",
      "SELECT id, x FROM t WHERE x > 600 ORDER BY id LIMIT 25",
      "SELECT COUNT(*) AS n FROM t WHERE grp = 7",
      "SELECT MIN(x) AS lo, MAX(x) AS hi FROM t",
      "SELECT id FROM t WHERE id >= 2990 ORDER BY id",
  };
  std::vector<std::string> batch;
  std::vector<std::vector<std::string>> expected;
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& sql : unique) batch.push_back(sql);
  }
  for (const auto& sql : batch) {
    auto ref = reference.Execute(sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    expected.push_back(ref->result.CanonicalRows());
  }

  // Three rounds over shared state: cold, promoting, store-served —
  // with background promotion passes overlapping the later rounds.
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ConcurrentBatchOutcome outcome = engine.ExecuteConcurrent(batch, 8);
    ASSERT_EQ(outcome.reports.size(), batch.size());
    EXPECT_EQ(outcome.failures(), 0u);
    for (size_t i = 0; i < outcome.reports.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i) + ": " + batch[i]);
      ASSERT_TRUE(outcome.reports[i].status.ok())
          << outcome.reports[i].status.ToString();
      EXPECT_EQ(outcome.reports[i].result.CanonicalRows(), expected[i]);
    }
  }
  engine.WaitForPromotions();

  const RawTableState* state = engine.table_state("t");
  ASSERT_NE(state, nullptr);
  EXPECT_GT(state->store().promotions(), 0u);
  EXPECT_GT(state->store().hits(), 0u);
  EXPECT_LE(state->store().bytes_used(), state->store().budget_bytes());
}

}  // namespace
}  // namespace nodb
