// Tests for RawTableState: the demo's "Updates" scenario — append
// detection with structure retention, rewrite invalidation, and file
// replacement.

#include <gtest/gtest.h>

#include "exec/query_result.h"
#include "io/file.h"
#include "io/temp_dir.h"
#include "raw/raw_scan.h"
#include "raw/table_state.h"
#include "util/random.h"

namespace nodb {
namespace {

class TableStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("nodb-state");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    path_ = dir_->FilePath("t.csv");
    schema_ = Schema::Make({{"a", DataType::kInt64},
                            {"b", DataType::kInt64}});
  }

  RawTableInfo Info() { return {"t", path_, schema_, CsvDialect()}; }

  static std::string Rows(int64_t from, int64_t to) {
    std::string out;
    for (int64_t r = from; r < to; ++r) {
      out += std::to_string(r) + "," + std::to_string(r * 2) + "\n";
    }
    return out;
  }

  NoDbConfig Config() {
    NoDbConfig config;
    config.rows_per_block = 16;
    return config;
  }

  Result<size_t> ScanCount(RawTableState* state) {
    RawScanOperator scan(state, {0, 1}, nullptr);
    NODB_ASSIGN_OR_RETURN(auto result, QueryResult::Drain(&scan));
    return result.num_rows();
  }

  std::unique_ptr<TempDir> dir_;
  std::string path_;
  std::shared_ptr<Schema> schema_;
};

TEST_F(TableStateTest, UnchangedFileKeepsEverything) {
  ASSERT_TRUE(WriteStringToFile(path_, Rows(0, 100)).ok());
  RawTableState state(Info(), Config());
  ASSERT_TRUE(state.Open().ok());
  EXPECT_EQ(*ScanCount(&state), 100u);
  size_t map_bytes = state.map().bytes_used();
  auto change = state.CheckForUpdates();
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(*change, FileChange::kUnchanged);
  EXPECT_EQ(state.map().bytes_used(), map_bytes);
  EXPECT_TRUE(state.map().rows_complete());
}

TEST_F(TableStateTest, AppendKeepsStructuresAndScansTail) {
  ASSERT_TRUE(WriteStringToFile(path_, Rows(0, 100)).ok());
  RawTableState state(Info(), Config());
  ASSERT_TRUE(state.Open().ok());
  EXPECT_EQ(*ScanCount(&state), 100u);
  uint64_t known_before = state.map().known_rows();
  size_t cache_segments = state.cache().num_segments();
  ASSERT_GT(cache_segments, 0u);

  auto app = OpenAppendableFile(path_);
  ASSERT_TRUE(app.ok());
  ASSERT_TRUE((*app)->Append(Rows(100, 150)).ok());
  ASSERT_TRUE((*app)->Close().ok());

  auto change = state.CheckForUpdates();
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(*change, FileChange::kAppended);
  // Old structures retained; discovery reopened for the tail.
  EXPECT_EQ(state.map().known_rows(), known_before);
  EXPECT_FALSE(state.map().rows_complete());
  EXPECT_GT(state.cache().num_segments(), 0u);

  ScanMetrics metrics;
  RawScanOperator scan(&state, {0, 1}, &metrics);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 150u);
  EXPECT_EQ(result->Row(149)[0], Value::Int64(149));
  // Cache still serves the old region: far fewer conversions than a
  // cold 150-row x 2-attr scan.
  EXPECT_LT(metrics.fields_converted, 2u * 150u);
  EXPECT_GT(metrics.cache_block_hits, 0u);
  EXPECT_TRUE(state.map().rows_complete());
  EXPECT_EQ(state.map().known_rows(), 150u);
}

TEST_F(TableStateTest, AppendTruncatesTheCacheAtTheFrontier) {
  // 100 rows in 16-row blocks: block 6 holds the 4-row tail. A clean
  // append grows it, so both segment tiers drop it; full blocks stay.
  ASSERT_TRUE(WriteStringToFile(path_, Rows(0, 100)).ok());
  RawTableState state(Info(), Config());
  ASSERT_TRUE(state.Open().ok());
  EXPECT_EQ(*ScanCount(&state), 100u);
  ASSERT_TRUE(state.cache().Contains(0, 6));
  ASSERT_TRUE(state.cache().Contains(1, 6));

  auto app = OpenAppendableFile(path_);
  ASSERT_TRUE(app.ok());
  ASSERT_TRUE((*app)->Append(Rows(100, 150)).ok());
  ASSERT_TRUE((*app)->Close().ok());
  auto change = state.CheckForUpdates();
  ASSERT_TRUE(change.ok());
  ASSERT_EQ(*change, FileChange::kAppended);

  EXPECT_FALSE(state.cache().Contains(0, 6));
  EXPECT_FALSE(state.cache().Contains(1, 6));
  EXPECT_TRUE(state.cache().Contains(0, 5));

  RawScanOperator scan(&state, {0, 1}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 150u);
  for (size_t r = 0; r < 150; ++r) {
    const auto v = static_cast<int64_t>(r);
    ASSERT_EQ(result->Row(r)[0], Value::Int64(v)) << "row " << r;
    ASSERT_EQ(result->Row(r)[1], Value::Int64(v * 2)) << "row " << r;
  }
}

TEST_F(TableStateTest, RewriteDropsEverything) {
  ASSERT_TRUE(WriteStringToFile(path_, Rows(0, 100)).ok());
  RawTableState state(Info(), Config());
  ASSERT_TRUE(state.Open().ok());
  EXPECT_EQ(*ScanCount(&state), 100u);

  ASSERT_TRUE(WriteStringToFile(path_, Rows(500, 520)).ok());
  auto change = state.CheckForUpdates();
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(*change, FileChange::kRewritten);
  EXPECT_EQ(state.map().known_rows(), 0u);
  EXPECT_EQ(state.cache().num_segments(), 0u);
  EXPECT_TRUE(state.stats().CoveredAttributes().empty());

  RawScanOperator scan(&state, {0}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 20u);
  EXPECT_EQ(result->Row(0)[0], Value::Int64(500));
}

TEST_F(TableStateTest, AppendWithoutTrailingNewlineIsRewrite) {
  // Old content not newline-terminated: the final old tuple may have
  // been extended, so appending must invalidate.
  ASSERT_TRUE(WriteStringToFile(path_, "1,2\n3,4").ok());
  RawTableState state(Info(), Config());
  ASSERT_TRUE(state.Open().ok());
  EXPECT_EQ(*ScanCount(&state), 2u);

  auto app = OpenAppendableFile(path_);
  ASSERT_TRUE(app.ok());
  ASSERT_TRUE((*app)->Append("5\n6,7\n").ok());  // old last row becomes 3,45
  ASSERT_TRUE((*app)->Close().ok());

  auto change = state.CheckForUpdates();
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(*change, FileChange::kRewritten);
  RawScanOperator scan(&state, {0, 1}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 3u);
  EXPECT_EQ(result->Row(1)[1], Value::Int64(45));
}

TEST_F(TableStateTest, ReplaceFilePointsAtNewData) {
  ASSERT_TRUE(WriteStringToFile(path_, Rows(0, 10)).ok());
  RawTableState state(Info(), Config());
  ASSERT_TRUE(state.Open().ok());
  EXPECT_EQ(*ScanCount(&state), 10u);

  std::string other = dir_->FilePath("other.csv");
  ASSERT_TRUE(WriteStringToFile(other, Rows(0, 25)).ok());
  RawTableInfo info = Info();
  info.path = other;
  ASSERT_TRUE(state.ReplaceFile(info).ok());
  EXPECT_EQ(state.map().known_rows(), 0u);
  EXPECT_EQ(*ScanCount(&state), 25u);
}

TEST_F(TableStateTest, RandomAppendSequencesStayConsistent) {
  // Property: after any sequence of appends (interleaved with scans of
  // random projections), a scan of the adaptive state matches a fresh
  // ground-truth read of the current file.
  Random rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    std::string path = dir_->FilePath("seq" + std::to_string(trial) +
                                      ".csv");
    int64_t rows = 20 + static_cast<int64_t>(rng.Uniform(80));
    {
      auto content = Rows(0, rows);
      ASSERT_TRUE(WriteStringToFile(path, content).ok());
    }
    RawTableInfo info{"t", path, schema_, CsvDialect()};
    NoDbConfig config;
    config.rows_per_block = 8 + static_cast<uint32_t>(rng.Uniform(24));
    RawTableState state(info, config);
    ASSERT_TRUE(state.Open().ok());

    for (int step = 0; step < 6; ++step) {
      // Scan a random projection.
      std::vector<uint32_t> projection;
      if (rng.Bernoulli(0.7)) projection.push_back(0);
      if (rng.Bernoulli(0.7)) projection.push_back(1);
      RawScanOperator scan(&state, projection, nullptr);
      auto result = QueryResult::Drain(&scan);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->num_rows(), static_cast<size_t>(rows))
          << "trial " << trial << " step " << step;
      if (!projection.empty() && result->num_rows() > 0) {
        size_t last = result->num_rows() - 1;
        int64_t expect = projection[0] == 0 ? rows - 1 : (rows - 1) * 2;
        EXPECT_EQ(result->Row(last)[0], Value::Int64(expect));
      }
      // Randomly append.
      if (rng.Bernoulli(0.7)) {
        int64_t extra = 1 + static_cast<int64_t>(rng.Uniform(50));
        auto app = OpenAppendableFile(path);
        ASSERT_TRUE(app.ok());
        ASSERT_TRUE((*app)->Append(Rows(rows, rows + extra)).ok());
        ASSERT_TRUE((*app)->Close().ok());
        rows += extra;
        auto change = state.CheckForUpdates();
        ASSERT_TRUE(change.ok());
        EXPECT_EQ(*change, FileChange::kAppended);
      }
    }
  }
}

TEST_F(TableStateTest, AccessCountsAccumulate) {
  ASSERT_TRUE(WriteStringToFile(path_, Rows(0, 5)).ok());
  RawTableState state(Info(), Config());
  ASSERT_TRUE(state.Open().ok());
  state.RecordAttributeAccess({0, 1});
  state.RecordAttributeAccess({1});
  EXPECT_EQ(state.attribute_access_counts()[0], 1u);
  EXPECT_EQ(state.attribute_access_counts()[1], 2u);
}

}  // namespace
}  // namespace nodb
