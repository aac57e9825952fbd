// Tests for the in-situ raw scan operator: correctness of selective
// tokenizing/parsing against a ground-truth load, positional-map and
// cache warm paths, partial blocks, headers, malformed input and
// update interplay.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <numeric>
#include <optional>

#include "csv/csv_writer.h"
#include "engines/csv_loader.h"
#include "exec/filter.h"
#include "exec/query_result.h"
#include "io/file.h"
#include "io/temp_dir.h"
#include "raw/parallel_scan.h"
#include "raw/raw_scan.h"
#include "util/random.h"

namespace nodb {
namespace {

class RawScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("nodb-rawscan");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
  }

  /// Writes a deterministic CSV: value(row, col) = row * 100 + col,
  /// with variable-width fields to make positions non-trivial.
  RawTableInfo WriteFixture(const std::string& name, size_t rows,
                            size_t cols, bool header = false) {
    std::string content;
    std::vector<Field> fields;
    for (size_t c = 0; c < cols; ++c) {
      fields.push_back(Field{"c" + std::to_string(c), DataType::kInt64});
    }
    if (header) {
      for (size_t c = 0; c < cols; ++c) {
        if (c > 0) content += ',';
        content += "c" + std::to_string(c);
      }
      content += '\n';
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
    CsvDialect dialect;
    dialect.has_header = header;
    return RawTableInfo{name, path, Schema::Make(fields), dialect};
  }

  /// Drains a scan over `projection` and checks every value.
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

  NoDbConfig SmallBlocks(bool map, bool cache, bool stats) {
    NoDbConfig config;
    config.enable_positional_map = map;
    config.enable_cache = cache;
    config.enable_statistics = stats;
    config.rows_per_block = 64;  // force multi-block handling
    return config;
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(RawScanTest, ColdScanMatchesGroundTruth) {
  auto info = WriteFixture("t", 500, 8);
  RawTableState state(info, SmallBlocks(true, true, true));
  VerifyScan(&state, {1, 4, 6}, 500);
}

/// All 8 knob combinations produce identical results.
class KnobSweep : public RawScanTest,
                  public ::testing::WithParamInterface<int> {};

TEST_P(KnobSweep, ResultsIdenticalAcrossConfigs) {
  int mask = GetParam();
  auto info = WriteFixture("t", 300, 6);
  RawTableState state(info, SmallBlocks(mask & 1, mask & 2, mask & 4));
  VerifyScan(&state, {0, 3, 5}, 300);
  VerifyScan(&state, {2}, 300);       // different combination, warm state
  VerifyScan(&state, {0, 3, 5}, 300); // repeat the first
}

INSTANTIATE_TEST_SUITE_P(AllKnobCombos, KnobSweep,
                         ::testing::Range(0, 8));

TEST_F(RawScanTest, EmptyProjectionCountsRows) {
  auto info = WriteFixture("t", 123, 4);
  RawTableState state(info, SmallBlocks(true, true, true));
  ScanMetrics metrics;
  RawScanOperator scan(&state, {}, &metrics);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 123u);
  EXPECT_EQ(metrics.rows_scanned, 123u);
  EXPECT_EQ(metrics.fields_tokenized, 0u);   // selective tokenizing:
  EXPECT_EQ(metrics.fields_converted, 0u);   // nothing parsed at all
}

TEST_F(RawScanTest, WarmMapServesExactSpans) {
  auto info = WriteFixture("t", 400, 10);
  NoDbConfig config = SmallBlocks(true, false, false);  // map only
  RawTableState state(info, config);

  ScanMetrics cold;
  VerifyScan(&state, {3, 7}, 400, &cold);
  EXPECT_GT(cold.fields_tokenized, 0u);
  EXPECT_EQ(cold.map_exact_probes, 0u);

  ScanMetrics warm;
  VerifyScan(&state, {3, 7}, 400, &warm);
  // Every probe is exact now: no tokenizing at all.
  EXPECT_EQ(warm.fields_tokenized, 0u);
  EXPECT_EQ(warm.map_exact_probes, 2u * 400u);
  EXPECT_EQ(warm.map_blind_rows, 0u);
  // And row ends come from the tuple index: no newline scans either.
  EXPECT_EQ(warm.parsing_ns, 0);
}

TEST_F(RawScanTest, AnchorsReduceTokenizingForNearbyAttributes) {
  auto info = WriteFixture("t", 200, 12);
  RawTableState state(info, SmallBlocks(true, false, false));

  ScanMetrics first;
  VerifyScan(&state, {8}, 200, &first);
  // Cold: tokenize from field 0 through field 9 per row.
  EXPECT_EQ(first.fields_tokenized, 200u * 9u);

  ScanMetrics second;
  VerifyScan(&state, {9}, 200, &second);
  // Attr 9 probes anchor at attr 9 via the {8} chunk (end(8)+1), so
  // only the span of 9 itself is scanned: 1 field per row.
  EXPECT_EQ(second.fields_tokenized, 200u * 1u);
  EXPECT_EQ(second.map_anchor_probes, 200u);
}

TEST_F(RawScanTest, WarmCacheSkipsFileEntirely) {
  auto info = WriteFixture("t", 300, 6);
  RawTableState state(info, SmallBlocks(true, true, false));

  ScanMetrics cold;
  VerifyScan(&state, {1, 2}, 300, &cold);
  EXPECT_GT(cold.bytes_read, 0u);
  EXPECT_EQ(cold.cache_block_hits, 0u);

  ScanMetrics warm;
  VerifyScan(&state, {1, 2}, 300, &warm);
  EXPECT_EQ(warm.cache_block_misses, 0u);
  EXPECT_GT(warm.cache_block_hits, 0u);
  EXPECT_EQ(warm.bytes_read, 0u);  // zero raw-file I/O
  EXPECT_EQ(warm.fields_converted, 0u);
}

TEST_F(RawScanTest, PartialCacheServesSubsetOfAttributes) {
  auto info = WriteFixture("t", 200, 8);
  RawTableState state(info, SmallBlocks(true, true, false));
  VerifyScan(&state, {2}, 200);  // cache attr 2

  ScanMetrics mixed;
  VerifyScan(&state, {2, 5}, 200, &mixed);
  EXPECT_GT(mixed.cache_block_hits, 0u);    // attr 2 from cache
  EXPECT_GT(mixed.fields_converted, 0u);    // attr 5 parsed
  // Only attr 5 converted: one field per row.
  EXPECT_EQ(mixed.fields_converted, 200u);
}

TEST_F(RawScanTest, HeaderLineSkipped) {
  auto info = WriteFixture("t", 50, 3, /*header=*/true);
  RawTableState state(info, SmallBlocks(true, true, true));
  VerifyScan(&state, {0, 1, 2}, 50);
  // Re-scan (map-known path) also skips the header.
  VerifyScan(&state, {0, 1, 2}, 50);
}

TEST_F(RawScanTest, FileWithoutTrailingNewline) {
  std::string path = dir_->FilePath("nonl.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2\n3,4\n5,6").ok());
  RawTableInfo info{"nonl", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  RawScanOperator scan(&state, {0, 1}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 3u);
  EXPECT_EQ(result->Row(2)[0], Value::Int64(5));
  EXPECT_EQ(result->Row(2)[1], Value::Int64(6));
  // Warm re-scan over the tuple index agrees.
  RawScanOperator again(&state, {0, 1}, nullptr);
  auto warm = QueryResult::Drain(&again);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->num_rows(), 3u);
  EXPECT_EQ(warm->Row(2)[1], Value::Int64(6));
}

TEST_F(RawScanTest, CrlfLineEndingsTolerated) {
  std::string path = dir_->FilePath("crlf.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2\r\n3,4\r\n5,6\r\n").ok());
  RawTableInfo info{"crlf", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  RawScanOperator scan(&state, {0, 1}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 3u);
  EXPECT_EQ(result->Row(1)[1], Value::Int64(4));  // no trailing \r
  EXPECT_EQ(result->Row(2)[1], Value::Int64(6));
  // The bulk loader agrees.
  auto loaded = LoadCsv(path, info.schema, info.dialect);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->column(1).GetInt64(2), 6);
}

TEST_F(RawScanTest, EmptyFileYieldsNoRows) {
  std::string path = dir_->FilePath("empty.csv");
  ASSERT_TRUE(WriteStringToFile(path, "").ok());
  RawTableInfo info{"empty", path,
                    Schema::Make({{"a", DataType::kInt64}}), CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  RawScanOperator scan(&state, {0}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST_F(RawScanTest, MissingFieldIsParseError) {
  std::string path = dir_->FilePath("short.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2,3\n4,5\n6,7,8\n").ok());
  RawTableInfo info{"short", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64},
                                  {"c", DataType::kInt64}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  RawScanOperator scan(&state, {2}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsParseError());
  EXPECT_NE(result.status().message().find("row 1"), std::string::npos);
}

TEST_F(RawScanTest, MalformedValueIsParseError) {
  std::string path = dir_->FilePath("bad.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2\n3,oops\n").ok());
  RawTableInfo info{"bad", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  RawScanOperator scan(&state, {1}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsParseError());
  // But attr 0 alone scans fine (selective parsing never touches 'oops').
  RawScanOperator ok_scan(&state, {0}, nullptr);
  auto ok = QueryResult::Drain(&ok_scan);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->num_rows(), 2u);
}

TEST_F(RawScanTest, EmptyFieldsParseAsNull) {
  std::string path = dir_->FilePath("nulls.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,,x\n,5,\n").ok());
  RawTableInfo info{"nulls", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64},
                                  {"c", DataType::kString}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  RawScanOperator scan(&state, {0, 1, 2}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->Row(0)[1].is_null());
  EXPECT_EQ(result->Row(0)[2], Value::String("x"));
  EXPECT_TRUE(result->Row(1)[0].is_null());
  EXPECT_TRUE(result->Row(1)[2].is_null());  // empty string field -> NULL
}

TEST_F(RawScanTest, AbandonedScanLeavesStateConsistent) {
  auto info = WriteFixture("t", 500, 5);
  RawTableState state(info, SmallBlocks(true, true, true));
  {
    // Pull one batch and drop the scan (LIMIT-style early stop).
    RawScanOperator scan(&state, {1}, nullptr);
    ASSERT_TRUE(scan.Open().ok());
    auto batch = scan.Next();
    ASSERT_TRUE(batch.ok());
    ASSERT_NE(*batch, nullptr);
  }
  // A full scan afterwards sees every row with correct values.
  VerifyScan(&state, {1, 3}, 500);
  VerifyScan(&state, {1, 3}, 500);
}

TEST_F(RawScanTest, MixedTypesParseCorrectly) {
  std::string path = dir_->FilePath("mixed.csv");
  ASSERT_TRUE(WriteStringToFile(
                  path, "1,2.5,hello,1994-01-02\n2,3.5,world,1995-06-07\n")
                  .ok());
  RawTableInfo info{"mixed", path,
                    Schema::Make({{"i", DataType::kInt64},
                                  {"d", DataType::kDouble},
                                  {"s", DataType::kString},
                                  {"t", DataType::kDate}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  RawScanOperator scan(&state, {0, 1, 2, 3}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto row = result->Row(1);
  EXPECT_EQ(row[0], Value::Int64(2));
  EXPECT_DOUBLE_EQ(row[1].dbl(), 3.5);
  EXPECT_EQ(row[2], Value::String("world"));
  EXPECT_EQ(row[3].ToString(), "1995-06-07");
}

TEST_F(RawScanTest, QuotedDialectEndToEnd) {
  std::string path = dir_->FilePath("quoted.csv");
  ASSERT_TRUE(WriteStringToFile(
                  path, "1,\"a,b\",2\n3,\"say \"\"hi\"\"\",4\n")
                  .ok());
  RawTableInfo info{"quoted", path,
                    Schema::Make({{"x", DataType::kInt64},
                                  {"s", DataType::kString},
                                  {"y", DataType::kInt64}}),
                    CsvDialect::QuotedCsv()};
  RawTableState state(info, SmallBlocks(true, true, true));
  RawScanOperator scan(&state, {0, 1, 2}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->Row(0)[1], Value::String("a,b"));
  EXPECT_EQ(result->Row(1)[1], Value::String("say \"hi\""));
  EXPECT_EQ(result->Row(1)[2], Value::Int64(4));
}

TEST_F(RawScanTest, QuotedRandomFieldsAgainstBulkLoader) {
  // Property: quote-heavy string data (embedded delimiters, escaped
  // quotes, empty fields) survives the in-situ path exactly as the
  // bulk loader reads it, in every knob configuration.
  Random rng(4242);
  CsvDialect dialect = CsvDialect::QuotedCsv();
  for (int iter = 0; iter < 6; ++iter) {
    std::string path =
        dir_->FilePath("quoted" + std::to_string(iter) + ".csv");
    size_t rows = 30 + rng.Uniform(100);
    {
      auto file = OpenWritableFile(path);
      ASSERT_TRUE(file.ok());
      CsvWriter writer(std::move(*file), dialect);
      for (size_t r = 0; r < rows; ++r) {
        writer.BeginRecord();
        writer.AddField(std::to_string(r));
        for (int c = 0; c < 3; ++c) {
          std::string field;
          size_t len = rng.Uniform(10);
          for (size_t i = 0; i < len; ++i) {
            switch (rng.Uniform(5)) {
              case 0:
                field.push_back(',');
                break;
              case 1:
                field.push_back('"');
                break;
              default:
                field.push_back(static_cast<char>('a' + rng.Uniform(26)));
            }
          }
          writer.AddField(field);
        }
        ASSERT_TRUE(writer.FinishRecord().ok());
      }
      ASSERT_TRUE(writer.Close().ok());
    }
    auto schema = Schema::Make({{"id", DataType::kInt64},
                                {"s1", DataType::kString},
                                {"s2", DataType::kString},
                                {"s3", DataType::kString}});
    auto loaded = LoadCsv(path, schema, dialect);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    RawTableInfo info{"q", path, schema, dialect};
    RawTableState state(info, SmallBlocks(iter % 2 == 0, iter % 3 == 0,
                                          false));
    for (auto projection : std::vector<std::vector<uint32_t>>{
             {0, 1, 2, 3}, {2}, {1, 3}}) {
      RawScanOperator scan(&state, projection, nullptr);
      auto result = QueryResult::Drain(&scan);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->num_rows(), rows);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t i = 0; i < projection.size(); ++i) {
          ASSERT_EQ(result->Row(r)[i],
                    (*loaded)->column(projection[i]).GetValue(r))
              << "iter " << iter << " row " << r << " attr "
              << projection[i];
        }
      }
    }
  }
}

TEST_F(RawScanTest, RandomizedAgainstBulkLoader) {
  // Property: for random shapes, the selective in-situ scan agrees
  // with the full bulk loader on every projected cell.
  Random rng(77);
  for (int iter = 0; iter < 10; ++iter) {
    size_t rows = 50 + rng.Uniform(400);
    size_t cols = 2 + rng.Uniform(10);
    auto info = WriteFixture("r" + std::to_string(iter), rows, cols);
    auto loaded = LoadCsv(info.path, info.schema, info.dialect);
    ASSERT_TRUE(loaded.ok());

    NoDbConfig config = SmallBlocks(rng.Bernoulli(0.5),
                                    rng.Bernoulli(0.5),
                                    rng.Bernoulli(0.5));
    RawTableState state(info, config);
    for (int q = 0; q < 3; ++q) {
      std::vector<uint32_t> projection;
      for (uint32_t c = 0; c < cols; ++c) {
        if (rng.Bernoulli(0.4)) projection.push_back(c);
      }
      if (projection.empty()) projection.push_back(0);
      RawScanOperator scan(&state, projection, nullptr);
      auto result = QueryResult::Drain(&scan);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->num_rows(), rows);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t i = 0; i < projection.size(); ++i) {
          ASSERT_EQ(result->Row(r)[i],
                    (*loaded)->column(projection[i]).GetValue(r))
              << "iter " << iter << " q " << q << " row " << r;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Parallel chunked scan: the multi-threaded first-touch path must leave
// the table state — and therefore every later query — byte-identical to
// what the serial scan produces, at any thread count.

TEST_F(RawScanTest, ParallelPrewarmServesWarmScans) {
  for (uint32_t threads : {1u, 2u, 8u}) {
    auto info =
        WriteFixture("p" + std::to_string(threads), 500, 8);
    RawTableState state(info, SmallBlocks(true, true, true));
    auto stats = ParallelChunkedScan(&state, {1, 4, 6}, threads);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->rows, 500u);

    // The scan behaves fully warm: no tokenizing, no raw-file I/O.
    ScanMetrics warm;
    VerifyScan(&state, {1, 4, 6}, 500, &warm);
    EXPECT_EQ(warm.fields_tokenized, 0u) << threads << " threads";
    EXPECT_EQ(warm.bytes_read, 0u) << threads << " threads";
    EXPECT_GT(warm.cache_block_hits, 0u);
  }
}

TEST_F(RawScanTest, ParallelStateIdenticalToSerialAtAnyThreadCount) {
  // 777 rows with 64-row blocks: a partial tail block included.
  auto info = WriteFixture("serial", 777, 6);
  RawTableState serial(info, SmallBlocks(true, true, true));
  VerifyScan(&serial, {0, 2, 5}, 777);  // cold serial scan adapts

  for (uint32_t threads : {1u, 2u, 8u}) {
    RawTableState state(info, SmallBlocks(true, true, true));
    auto stats = ParallelChunkedScan(&state, {0, 2, 5}, threads);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    SCOPED_TRACE(std::to_string(threads) + " threads");
    EXPECT_EQ(state.map().known_rows(), serial.map().known_rows());
    EXPECT_TRUE(state.map().rows_complete());
    EXPECT_EQ(state.map().num_chunks(), serial.map().num_chunks());
    EXPECT_EQ(state.map().bytes_used(), serial.map().bytes_used());
    EXPECT_EQ(state.cache().num_segments(),
              serial.cache().num_segments());
    EXPECT_EQ(state.cache().bytes_used(), serial.cache().bytes_used());
    EXPECT_EQ(state.zones().num_entries(), serial.zones().num_entries());
    EXPECT_EQ(state.stats().CoveredAttributes(),
              serial.stats().CoveredAttributes());
    VerifyScan(&state, {0, 2, 5}, 777);
  }
}

TEST_F(RawScanTest, ParallelPrewarmCrlfFixture) {
  std::string content;
  for (int r = 0; r < 200; ++r) {
    content += std::to_string(r) + "," + std::to_string(r * 2) + ",s" +
               std::to_string(r) + "\r\n";
  }
  std::string path = dir_->FilePath("crlf_par.csv");
  ASSERT_TRUE(WriteStringToFile(path, content).ok());
  RawTableInfo info{"crlfp", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64},
                                  {"s", DataType::kString}}),
                    CsvDialect()};
  for (uint32_t threads : {1u, 2u, 8u}) {
    RawTableState state(info, SmallBlocks(true, true, true));
    auto stats = ParallelChunkedScan(&state, {0, 1, 2}, threads);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->rows, 200u);
    RawScanOperator scan(&state, {0, 1, 2}, nullptr);
    auto result = QueryResult::Drain(&scan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->num_rows(), 200u);
    // No '\r' leaked into the cached last column.
    EXPECT_EQ(result->Row(7)[2], Value::String("s7"));
    EXPECT_EQ(result->Row(199)[1], Value::Int64(398));
  }
}

TEST_F(RawScanTest, ParallelPrewarmHeaderAndMissingFinalNewline) {
  auto with_header = WriteFixture("hdr", 150, 4, /*header=*/true);
  RawTableState hstate(with_header, SmallBlocks(true, true, true));
  ASSERT_TRUE(ParallelChunkedScan(&hstate, {0, 3}, 8).ok());
  VerifyScan(&hstate, {0, 3}, 150);

  std::string path = dir_->FilePath("nonl_par.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2\n3,4\n5,6").ok());
  RawTableInfo info{"nonlp", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  auto stats = ParallelChunkedScan(&state, {0, 1}, 8);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows, 3u);
  RawScanOperator scan(&state, {0, 1}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 3u);
  EXPECT_EQ(result->Row(2)[1], Value::Int64(6));
}

TEST_F(RawScanTest, ParallelMapOnlyNoFinalNewlineLastRowIntact) {
  // Regression: empty tail chunks (boundary targets landing inside a
  // row) used to clobber the discovery cursor, truncating the final
  // unterminated row. Map-only config so nothing is served from cache.
  std::string path = dir_->FilePath("nonl_maponly.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2\n3,4\n5,6").ok());
  RawTableInfo info{"nonlm", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64}}),
                    CsvDialect()};
  for (uint32_t threads : {2u, 8u, 16u}) {
    RawTableState state(info, SmallBlocks(true, false, false));
    auto stats = ParallelChunkedScan(&state, {0, 1}, threads);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->rows, 3u);
    RawScanOperator scan(&state, {0, 1}, nullptr);
    auto result = QueryResult::Drain(&scan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->num_rows(), 3u);
    EXPECT_EQ(result->Row(2)[0], Value::Int64(5)) << threads;
    EXPECT_EQ(result->Row(2)[1], Value::Int64(6)) << threads;
  }
}

TEST_F(RawScanTest, ParallelBoundaryTargetsInsideOneRowStillSplit) {
  // Regression: when one boundary target fell inside the previous
  // boundary's row, every later boundary collapsed to end-of-file and
  // the scan degraded to a single chunk. A long first row followed by
  // many short rows must still produce multiple non-empty chunks.
  std::string content = "9";
  content.append(2000, '0');  // one very long first field
  content += ",1\n";
  for (int r = 0; r < 50; ++r) {
    content += std::to_string(r) + "," + std::to_string(r * 2) + "\n";
  }
  std::string path = dir_->FilePath("longrow.csv");
  ASSERT_TRUE(WriteStringToFile(path, content).ok());
  RawTableInfo info{"longrow", path,
                    Schema::Make({{"a", DataType::kString},
                                  {"b", DataType::kInt64}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  auto stats = ParallelChunkedScan(&state, {0, 1}, 8);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows, 51u);
  RawScanOperator scan(&state, {0, 1}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 51u);
  EXPECT_EQ(result->Row(50)[1], Value::Int64(98));
}

TEST_F(RawScanTest, ParallelPrewarmEmptyProjectionBuildsRowIndex) {
  auto info = WriteFixture("count", 321, 4);
  RawTableState state(info, SmallBlocks(true, true, true));
  auto stats = ParallelChunkedScan(&state, {}, 4);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows, 321u);
  EXPECT_EQ(state.map().known_rows(), 321u);
  EXPECT_TRUE(state.map().rows_complete());
  // A COUNT(*)-style scan now locates rows without newline hunting.
  ScanMetrics metrics;
  RawScanOperator scan(&state, {}, &metrics);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 321u);
  EXPECT_EQ(metrics.parsing_ns, 0);
}

TEST_F(RawScanTest, ParallelPrewarmSurfacesSerialErrorUntouched) {
  std::string path = dir_->FilePath("bad_par.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2\n3,oops\n5,6\n").ok());
  RawTableInfo info{"badp", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  auto stats = ParallelChunkedScan(&state, {1}, 8);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsParseError());
  // Same "row N" the serial scan reports, and the state a failed serial
  // scan leaves on a fresh state: the row index, no segments.
  EXPECT_NE(stats.status().message().find("row 1"), std::string::npos);
  RawTableState serial(info, SmallBlocks(true, true, true));
  RawScanOperator serial_scan(&serial, {1}, nullptr);
  ASSERT_FALSE(QueryResult::Drain(&serial_scan).ok());
  EXPECT_EQ(state.map().known_rows(), serial.map().known_rows());
  EXPECT_EQ(state.map().known_rows(), 3u);
  EXPECT_EQ(state.cache().num_segments(), serial.cache().num_segments());
  EXPECT_EQ(state.cache().num_segments(), 0u);

  // Short rows likewise mirror the serial field-count error.
  std::string short_path = dir_->FilePath("short_par.csv");
  ASSERT_TRUE(WriteStringToFile(short_path, "1,2,3\n4,5\n6,7,8\n").ok());
  RawTableInfo short_info{"shortp", short_path,
                          Schema::Make({{"a", DataType::kInt64},
                                        {"b", DataType::kInt64},
                                        {"c", DataType::kInt64}}),
                          CsvDialect()};
  RawTableState short_state(short_info, SmallBlocks(true, true, true));
  auto short_stats = ParallelChunkedScan(&short_state, {2}, 8);
  ASSERT_FALSE(short_stats.ok());
  EXPECT_TRUE(short_stats.status().IsParseError());
  EXPECT_NE(short_stats.status().message().find("row 1"),
            std::string::npos);

  // Many block ranges, two of them failing: the first failing range
  // holds the first failing row, and its message is the serial one.
  std::string many;
  for (int r = 0; r < 640; ++r) {
    many += std::to_string(r) + "," +
            (r == 100 || r == 500 ? "bad" : std::to_string(r)) + "\n";
  }
  std::string many_path = dir_->FilePath("many_bad_par.csv");
  ASSERT_TRUE(WriteStringToFile(many_path, many).ok());
  RawTableInfo many_info{"manyp", many_path,
                         Schema::Make({{"a", DataType::kInt64},
                                       {"b", DataType::kInt64}}),
                         CsvDialect()};
  RawTableState many_serial(many_info, SmallBlocks(true, true, true));
  RawScanOperator many_scan(&many_serial, {0, 1}, nullptr);
  auto serial_error = QueryResult::Drain(&many_scan);
  ASSERT_FALSE(serial_error.ok());
  RawTableState many_state(many_info, SmallBlocks(true, true, true));
  auto many_stats = ParallelChunkedScan(&many_state, {0, 1}, 8);
  ASSERT_FALSE(many_stats.ok());
  EXPECT_NE(many_stats.status().message().find("row 100"),
            std::string::npos);
  EXPECT_EQ(many_stats.status().message(),
            serial_error.status().message());
}

// -------------------------------------------- pushdown and zone maps

/// Drains `scan` into a QueryResult, asserting success.
QueryResult MustDrain(RawScanOperator* scan) {
  auto result = QueryResult::Drain(scan);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(*result) : QueryResult();
}

ExprPtr LessThan(size_t slot, const std::string& name, int64_t lit) {
  return std::make_shared<CompareExpr>(
      CompareOp::kLt,
      std::make_shared<ColumnRefExpr>(slot, name, DataType::kInt64),
      std::make_shared<LiteralExpr>(Value::Int64(lit), DataType::kInt64));
}

TEST_F(RawScanTest, ErrorsStayInRowOrder) {
  // The scan tokenizes a whole block, then converts it column by
  // column; the error it reports must still be the first failing field
  // in row order — the one a row-at-a-time parse stops at. Within one
  // row the field-count check comes first, as it always has.
  struct Case {
    const char* content;
    std::vector<uint32_t> projection;
    const char* message;
  };
  const Case cases[] = {
      // Row 1 attr 1, then row 2 attr 0, then a short row 3: a
      // column-at-a-time walk would meet row 2 first.
      {"1,2\n3,x\ny,4\n5\n", {0, 1},
       "bad: row 1, attribute 1: not an integer: 'x'"},
      // A short row before a malformed value.
      {"1,2\n3\ny,4\n", {0, 1},
       "bad: row 1 has 1 fields, attribute 1 requested (file "},
      // A malformed value before a short row.
      {"1,2\nx,3\n4\n", {0, 1},
       "bad: row 1, attribute 0: not an integer: 'x'"},
      // Both in one row: the field count fails first.
      {"1,2,3\nx,5\n", {0, 2},
       "bad: row 1 has 2 fields, attribute 2 requested (file "},
  };
  for (const Case& c : cases) {
    std::string path = dir_->FilePath("bad.csv");
    ASSERT_TRUE(WriteStringToFile(path, c.content).ok());
    RawTableInfo info{"bad", path,
                      Schema::Make({{"a", DataType::kInt64},
                                    {"b", DataType::kInt64},
                                    {"c", DataType::kInt64}}),
                      CsvDialect()};
    for (int mask = 0; mask < 8; ++mask) {
      RawTableState state(info, SmallBlocks(mask & 1, mask & 2, mask & 4));
      RawScanOperator scan(&state, c.projection, nullptr);
      auto result = QueryResult::Drain(&scan);
      ASSERT_FALSE(result.ok()) << c.content;
      EXPECT_TRUE(result.status().IsParseError());
      EXPECT_EQ(result.status().message().rfind(c.message, 0), 0u)
          << c.content << " mask " << mask << ": "
          << result.status().message();
    }
  }
}

TEST_F(RawScanTest, PhaseTwoErrorsStayInRowOrder) {
  // Pushed c0 < 4: rows 0, 2 and 3 qualify. Row 1's malformed fields
  // are never parsed; among the qualifying rows, row 2's c2 fails
  // before row 3's c1, although c1 is the earlier phase-2 column.
  std::string path = dir_->FilePath("bad2.csv");
  ASSERT_TRUE(
      WriteStringToFile(path, "1,2,3\n5,x,x\n2,4,y\n3,z,6\n").ok());
  RawTableInfo info{"bad2", path,
                    Schema::Make({{"c0", DataType::kInt64},
                                  {"c1", DataType::kInt64},
                                  {"c2", DataType::kInt64}}),
                    CsvDialect()};
  for (int mask = 0; mask < 8; ++mask) {
    RawTableState state(info, SmallBlocks(mask & 1, mask & 2, mask & 4));
    RawScanOperator scan(&state, {0, 1, 2}, nullptr);
    scan.SetPushdownPredicates({LessThan(0, "c0", 4)});
    auto result = QueryResult::Drain(&scan);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsParseError());
    EXPECT_EQ(result.status().message(),
              "bad2: row 2, attribute 2: not an integer: 'y'")
        << "mask " << mask;
  }
}

TEST_F(RawScanTest, ColdTwoPhaseScanReadsNoMoreThanBaseline) {
  // 3000 rows x 20 int columns; c1 is scattered, so `c1 < 500000`
  // keeps about half the rows of every block and phase 2 revisits
  // rows all over each block. The NoDB structures may save reads but
  // must never add any: the first (cold) scan reads no more bytes
  // than the Baseline external-files scan of the same query.
  std::string content;
  for (uint64_t r = 0; r < 3000; ++r) {
    for (uint64_t c = 0; c < 20; ++c) {
      if (c > 0) content += ',';
      content += std::to_string((r * 7919 % 1000) * 1000 + c);
    }
    content += '\n';
  }
  std::string path = dir_->FilePath("wide.csv");
  ASSERT_TRUE(WriteStringToFile(path, content).ok());
  std::vector<Field> fields;
  for (int c = 0; c < 20; ++c) {
    fields.push_back(Field{"c" + std::to_string(c), DataType::kInt64});
  }
  RawTableInfo info{"wide", path, Schema::Make(fields), CsvDialect()};

  auto cold_scan = [&](NoDbConfig config, ScanMetrics* metrics) {
    config.rows_per_block = 1024;
    config.read_buffer_bytes = 64 * 1024;
    RawTableState state(info, config);
    RawScanOperator scan(&state, {1, 5, 19}, metrics);
    scan.SetPushdownPredicates({LessThan(0, "c1", 500000)});
    return MustDrain(&scan).CanonicalRows();
  };
  ScanMetrics nodb;
  ScanMetrics baseline;
  std::vector<std::string> nodb_rows = cold_scan(NoDbConfig(), &nodb);
  std::vector<std::string> baseline_rows =
      cold_scan(NoDbConfig::Baseline(), &baseline);
  EXPECT_EQ(nodb_rows, baseline_rows);
  EXPECT_EQ(nodb_rows.size(), 1500u);
  EXPECT_GT(nodb.pushdown_phase2_fields, 0u);
  EXPECT_LE(nodb.bytes_read, baseline.bytes_read);
}

TEST_F(RawScanTest, BlocksLargerThanTheReadBufferRunInPieces) {
  // 600 rows x 20 int columns, about 130 B a row. With a 4 KiB read
  // buffer every block is read and parsed in runs that fit the buffer,
  // so a scan holds a buffer of raw bytes, not a block; a 20-column
  // projection also splits a 600-row run into tokenize/convert batches.
  // Cold and warm (cache-resident predicate columns), with and without
  // pushdown, every knob combination returns the file's rows and reads
  // no more bytes than Baseline. Errors come out as from one whole-
  // block pass: a phase-1 error in a later run beats a phase-2 error
  // in an earlier one.
  std::vector<std::vector<std::string>> cells(600,
                                              std::vector<std::string>(20));
  for (uint64_t r = 0; r < cells.size(); ++r) {
    for (uint64_t c = 0; c < 20; ++c) {
      cells[r][c] = std::to_string((r * 7919 % 1000) * 1000 + c);
    }
  }
  auto write = [&](const std::string& name,
                   const std::vector<std::pair<size_t, size_t>>& bad) {
    std::string content;
    for (size_t r = 0; r < cells.size(); ++r) {
      for (size_t c = 0; c < 20; ++c) {
        if (c > 0) content += ',';
        bool is_bad = false;
        for (const auto& cell : bad) is_bad |= cell == std::make_pair(r, c);
        content += is_bad ? std::string("x") : cells[r][c];
      }
      content += '\n';
    }
    std::string path = dir_->FilePath(name + ".csv");
    EXPECT_TRUE(WriteStringToFile(path, content).ok());
    std::vector<Field> fields;
    for (int c = 0; c < 20; ++c) {
      fields.push_back(Field{"c" + std::to_string(c), DataType::kInt64});
    }
    return RawTableInfo{name, path, Schema::Make(fields), CsvDialect()};
  };
  // Pushed `c1 < 500000` keeps about half the rows, scattered; the
  // predicate column is projection slot 0.
  auto scan = [&](RawTableState* state, const std::vector<uint32_t>& proj,
                  bool pushdown, ScanMetrics* metrics) {
    RawScanOperator scan(state, proj, metrics);
    if (pushdown) scan.SetPushdownPredicates({LessThan(0, "c1", 500000)});
    return QueryResult::Drain(&scan);
  };
  auto expected = [&](const std::vector<uint32_t>& proj, bool pushdown) {
    std::vector<std::string> rows;
    for (const auto& row : cells) {
      if (pushdown && std::stoll(row[1]) >= 500000) continue;
      std::string line;
      for (uint32_t c : proj) line += (line.empty() ? "" : "|") + row[c];
      rows.push_back(line);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  auto sized = [](NoDbConfig config, uint32_t rows_per_block,
                  size_t buffer) {
    config.rows_per_block = rows_per_block;
    config.read_buffer_bytes = buffer;
    return config;
  };

  RawTableInfo info = write("runs", {});
  std::vector<uint32_t> all(20);
  std::iota(all.begin(), all.end(), 0u);
  for (const auto& proj : {std::vector<uint32_t>{1, 5, 19}, all}) {
    for (bool pushdown : {false, true}) {
      const std::vector<std::string> want = expected(proj, pushdown);
      for (uint32_t rows_per_block : {64u, 1024u}) {
        for (size_t buffer : {size_t{4096}, size_t{1} << 20}) {
          ScanMetrics baseline;
          RawTableState base(info, sized(NoDbConfig::Baseline(),
                                         rows_per_block, buffer));
          ASSERT_TRUE(scan(&base, proj, pushdown, &baseline).ok());
          for (int mask = 0; mask < 8; ++mask) {
            RawTableState state(
                info, sized(SmallBlocks(mask & 1, mask & 2, mask & 4),
                            rows_per_block, buffer));
            for (int pass = 0; pass < 2; ++pass) {
              ScanMetrics metrics;
              auto result = scan(&state, proj, pushdown, &metrics);
              ASSERT_TRUE(result.ok()) << result.status().ToString();
              EXPECT_EQ(result->CanonicalRows(), want)
                  << "width " << proj.size() << " pushdown " << pushdown
                  << " block " << rows_per_block << " buffer " << buffer
                  << " mask " << mask << " pass " << pass;
              if (pass == 0) {
                EXPECT_LE(metrics.bytes_read, baseline.bytes_read);
              }
            }
          }
        }
      }
    }
  }

  // Row 0 qualifies (c1 = 1) and its phase-2 c19 is malformed; row 40,
  // about 5 KB further into the same 64-row block, has a malformed
  // phase-1 c1. Without pushdown, rows 300 and 500 fall in different
  // batches of a 600-row run.
  const struct {
    std::vector<std::pair<size_t, size_t>> bad;
    std::vector<uint32_t> proj;
    bool pushdown;
    uint32_t rows_per_block;
    const char* message;
  } cases[] = {
      {{{0, 19}, {40, 1}}, {1, 5, 19}, true, 64,
       "bad: row 40, attribute 1: not an integer: 'x'"},
      {{{0, 19}}, {1, 5, 19}, true, 64,
       "bad: row 0, attribute 19: not an integer: 'x'"},
      {{{500, 0}, {300, 7}}, all, false, 1024,
       "bad: row 300, attribute 7: not an integer: 'x'"},
  };
  for (const auto& c : cases) {
    RawTableInfo bad = write("bad", c.bad);
    for (size_t buffer : {size_t{4096}, size_t{1} << 20}) {
      RawTableState state(bad, sized(SmallBlocks(true, true, true),
                                     c.rows_per_block, buffer));
      auto result = scan(&state, c.proj, c.pushdown, nullptr);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().message(), c.message) << "buffer " << buffer;
    }
  }
}

TEST_F(RawScanTest, PushdownMatchesFilterOperatorAndSkipsBlocks) {
  // Fixture values are r * 100 + c: attribute c1 is clustered
  // ascending, so zone maps can prune whole blocks once warm.
  auto info = WriteFixture("t", 500, 6);
  NoDbConfig config = SmallBlocks(true, true, true);
  RawTableState state(info, config);
  ASSERT_TRUE(state.Open().ok());

  // Reference: the unfiltered scan under a FilterOperator — over its
  // own state, so the pushdown scan below starts genuinely cold.
  std::vector<std::string> expected;
  {
    RawTableState ref_state(info, config);
    ASSERT_TRUE(ref_state.Open().ok());
    auto scan = std::make_unique<RawScanOperator>(&ref_state,
        std::vector<uint32_t>{1, 3}, nullptr);
    FilterOperator filter(std::move(scan), LessThan(0, "c1", 10000));
    auto result = QueryResult::Drain(&filter);
    ASSERT_TRUE(result.ok());
    expected = result->CanonicalRows();
    ASSERT_EQ(expected.size(), 100u);  // rows 0..99: r*100+1 < 10000
  }

  // Cold pushdown: phase 1 parses c1 for every row, phase 2 parses c3
  // only for the 100 qualifying rows.
  {
    ScanMetrics metrics;
    RawScanOperator scan(&state, {1, 3}, &metrics);
    scan.SetPushdownPredicates({LessThan(0, "c1", 10000)});
    QueryResult result = MustDrain(&scan);
    EXPECT_EQ(result.CanonicalRows(), expected);
    EXPECT_EQ(metrics.rows_scanned, 500u);
    EXPECT_EQ(metrics.pushdown_rows_pruned, 400u);
    EXPECT_EQ(metrics.pushdown_phase1_fields, 500u);
    EXPECT_EQ(metrics.pushdown_phase2_fields, 100u);
    EXPECT_EQ(metrics.zone_skipped_blocks, 0u);  // no summaries yet
  }

  // Warm: the first scan summarized every block; disjoint blocks are
  // now skipped without locating a single row.
  {
    ScanMetrics metrics;
    RawScanOperator scan(&state, {1, 3}, &metrics);
    scan.SetPushdownPredicates({LessThan(0, "c1", 10000)});
    QueryResult result = MustDrain(&scan);
    EXPECT_EQ(result.CanonicalRows(), expected);
    // Blocks of 64 rows: c1 spans [6400b + 1, 6400b + 6301]; blocks
    // 2..7 have min >= 10000 and vanish (6 of 8, tail included).
    EXPECT_EQ(metrics.zone_skipped_blocks, 6u);
    EXPECT_EQ(metrics.rows_scanned + metrics.zone_skipped_rows, 500u);
    EXPECT_EQ(metrics.pushdown_phase1_fields, 0u);  // cache-served
  }

  // Pushdown off the same way the planner would leave it: identical.
  {
    RawScanOperator scan(&state, {1, 3}, nullptr);
    QueryResult all = MustDrain(&scan);
    EXPECT_EQ(all.num_rows(), 500u);
  }
}

TEST_F(RawScanTest, PushdownNullSemanticsMatchFilterOperator) {
  // Empty CSV fields parse as NULL. c1 is NULL on every third row and
  // otherwise >= 100, so `c1 < 50` matches nothing — and NULL-bearing
  // blocks must never be zone-skipped, the rows are dropped row by
  // row exactly like FilterOperator drops them.
  std::string content;
  for (int r = 0; r < 200; ++r) {
    content += std::to_string(r) + ",";
    if (r % 3 != 0) content += std::to_string(100 + r);
    content += "," + std::to_string(r * 2) + "\n";
  }
  std::string path = dir_->FilePath("nulls.csv");
  ASSERT_TRUE(WriteStringToFile(path, content).ok());
  RawTableInfo info{"nulls", path,
                    Schema::Make({{"c0", DataType::kInt64},
                                  {"c1", DataType::kInt64},
                                  {"c2", DataType::kInt64}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  ASSERT_TRUE(state.Open().ok());

  ExprPtr pred = LessThan(1, "c1", 50);
  std::vector<std::string> expected;
  {
    auto scan = std::make_unique<RawScanOperator>(
        &state, std::vector<uint32_t>{0, 1, 2}, nullptr);
    FilterOperator filter(std::move(scan), pred);
    auto result = QueryResult::Drain(&filter);
    ASSERT_TRUE(result.ok());
    expected = result->CanonicalRows();
    EXPECT_TRUE(expected.empty());
  }
  for (int round = 0; round < 2; ++round) {  // cold, then warm zones
    ScanMetrics metrics;
    RawScanOperator scan(&state, {0, 1, 2}, &metrics);
    scan.SetPushdownPredicates({pred});
    QueryResult result = MustDrain(&scan);
    EXPECT_EQ(result.CanonicalRows(), expected);
    // Every block holds NULLs: conservatively non-skippable.
    EXPECT_EQ(metrics.zone_skipped_blocks, 0u);
    EXPECT_EQ(metrics.rows_scanned, 200u);
  }

  // IS NULL rides the pushdown path too (never zone-checked).
  auto is_null = std::make_shared<IsNullExpr>(
      std::make_shared<ColumnRefExpr>(1, "c1", DataType::kInt64), false);
  {
    auto scan = std::make_unique<RawScanOperator>(
        &state, std::vector<uint32_t>{0, 1}, nullptr);
    FilterOperator filter(std::move(scan), is_null);
    auto ref = QueryResult::Drain(&filter);
    ASSERT_TRUE(ref.ok());
    ScanMetrics metrics;
    RawScanOperator pushed(&state, {0, 1}, &metrics);
    pushed.SetPushdownPredicates({is_null});
    QueryResult result = MustDrain(&pushed);
    EXPECT_EQ(result.CanonicalRows(), ref->CanonicalRows());
    EXPECT_EQ(result.num_rows(), 67u);  // rows 0, 3, 6, ... 198
  }
}

TEST_F(RawScanTest, ZoneMapsDropOnAppendAndClearOnRewrite) {
  auto info = WriteFixture("zt", 200, 3);
  NoDbConfig config = SmallBlocks(true, true, true);
  RawTableState state(info, config);
  ASSERT_TRUE(state.Open().ok());
  VerifyScan(&state, {0, 1}, 200);
  ASSERT_GT(state.zones().num_entries(), 0u);
  uint64_t generation = state.zones().generation();

  // Clean append: the frontier block's summaries vanish (block 3 of
  // 64-row blocks holds rows 192..199), earlier full blocks stay.
  size_t before = state.zones().num_entries();
  auto app = OpenAppendableFile(info.path);
  ASSERT_TRUE(app.ok());
  ASSERT_TRUE((*app)->Append("20000,20001,20002\n").ok());
  ASSERT_TRUE((*app)->Close().ok());
  auto change = state.CheckForUpdates();
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(*change, FileChange::kAppended);
  EXPECT_LT(state.zones().num_entries(), before);
  EXPECT_GT(state.zones().num_entries(), 0u);
  EXPECT_EQ(state.zones().generation(), generation);
  ScanMetrics metrics;
  RawScanOperator scan(&state, {0}, &metrics);
  QueryResult result = MustDrain(&scan);
  EXPECT_EQ(result.num_rows(), 201u);

  // Rewrite: everything drops, generation advances, and a stale
  // observation against the old generation is rejected.
  ASSERT_TRUE(WriteStringToFile(info.path, "1,2,3\n4,5,6\n").ok());
  auto rewritten = state.CheckForUpdates();
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(*rewritten, FileChange::kRewritten);
  EXPECT_EQ(state.zones().num_entries(), 0u);
  EXPECT_GT(state.zones().generation(), generation);
  ColumnVector stale(DataType::kInt64);
  stale.AppendInt64(7);
  state.zones().Observe(0, 0, stale, generation);  // old generation
  EXPECT_EQ(state.zones().num_entries(), 0u);
}

TEST_F(RawScanTest, PushdownServesFromShadowStoreWithZoneSkips) {
  auto info = WriteFixture("st", 400, 4);
  NoDbConfig config = SmallBlocks(true, true, true);
  config.enable_store = true;
  config.promote_after_accesses = 1;  // first touch promotes
  RawTableState state(info, config);
  ASSERT_TRUE(state.Open().ok());

  // Touch both columns so the piggyback promotes them block by block.
  VerifyScan(&state, {0, 2}, 400);
  ASSERT_GT(state.store().num_segments(), 0u);

  // The pushed scan now serves from the store — and zone maps prune
  // store blocks too: only qualifying blocks are even probed.
  ScanMetrics metrics;
  RawScanOperator scan(&state, {0, 2}, &metrics);
  scan.SetPushdownPredicates({LessThan(0, "c0", 10000)});
  QueryResult result = MustDrain(&scan);
  EXPECT_EQ(result.num_rows(), 100u);  // rows 0..99
  EXPECT_GT(metrics.zone_skipped_blocks, 0u);
  EXPECT_GT(metrics.rows_from_store, 0u);
  EXPECT_EQ(metrics.rows_from_raw, 0u);
  EXPECT_EQ(metrics.fields_converted, 0u);
  EXPECT_EQ(metrics.rows_scanned + metrics.zone_skipped_rows, 400u);
}

// ------------------------------------------- one block pipeline

/// Conjunct-free scans return one batch per block, and a block in which
/// every row qualifies leaves the scan as its segments, uncopied:
/// freshly parsed (the segments the scan handed the cache),
/// cache-resident, and store-resident.
TEST_F(RawScanTest, ConjunctFreeBlocksLeaveAsTheirSegments) {
  auto info = WriteFixture("zc", 150, 4);  // blocks of 64, 64 and 22
  const std::vector<uint32_t> attrs = {1, 3};
  enum class Tier { kFresh, kCache, kStore };
  for (Tier tier : {Tier::kFresh, Tier::kCache, Tier::kStore}) {
    NoDbConfig config = SmallBlocks(true, true, true);
    config.enable_store = tier == Tier::kStore;
    config.promote_after_accesses = 1;
    RawTableState state(info, config);
    if (tier != Tier::kFresh) VerifyScan(&state, attrs, 150);

    ScanMetrics metrics;
    RawScanOperator scan(&state, attrs, &metrics);
    ASSERT_TRUE(scan.Open().ok());
    uint64_t block = 0;
    while (true) {
      auto batch = scan.Next();
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      if (*batch == nullptr) break;
      for (size_t i = 0; i < attrs.size(); ++i) {
        std::shared_ptr<const ColumnVector> segment =
            tier == Tier::kStore ? state.store().Get(attrs[i], block)
                                 : state.cache().Get(attrs[i], block);
        ASSERT_NE(segment, nullptr) << "block " << block;
        EXPECT_EQ((*batch)->column_ptr(i).get(), segment.get())
            << "tier " << static_cast<int>(tier) << " block " << block;
      }
      ++block;
    }
    EXPECT_EQ(block, 3u);
    EXPECT_EQ(metrics.rows_scanned, 150u);
    if (tier == Tier::kFresh) {
      EXPECT_EQ(metrics.rows_from_raw, 150u);
    } else {
      EXPECT_EQ(metrics.fields_converted, 0u);
      EXPECT_EQ(tier == Tier::kStore ? metrics.rows_from_store
                                     : metrics.rows_from_cache,
                150u);
    }
  }
}

/// A row limit inside a block locates and parses only the wanted rows,
/// and the block cut short teaches nothing; a block the limit does not
/// cut teaches as usual.
TEST_F(RawScanTest, BlockCutShortByRowLimitTeachesNothing) {
  auto info = WriteFixture("cut", 300, 5);
  NoDbConfig config = SmallBlocks(true, true, true);
  config.enable_store = true;
  config.promote_after_accesses = 1;
  RawTableState state(info, config);
  VerifyScan(&state, {0}, 300);
  const size_t segments = state.cache().num_segments();
  const size_t chunks = state.map().num_chunks();
  const size_t zones = state.zones().num_entries();
  const size_t promoted = state.store().num_segments();

  auto check = [&](uint64_t limit, size_t expected_rows) {
    ScanMetrics metrics;
    RawScanOperator scan(&state, {1, 3}, &metrics);
    scan.SetRowLimit(limit);
    QueryResult result = MustDrain(&scan);
    ASSERT_EQ(result.num_rows(), expected_rows);
    for (size_t r = 0; r < expected_rows; ++r) {
      ASSERT_EQ(result.Row(r)[1], Value::Int64(static_cast<int64_t>(
                                      r * 100 + 3)));
    }
    EXPECT_EQ(metrics.rows_scanned, expected_rows);
    EXPECT_EQ(metrics.fields_converted, 2 * expected_rows);
  };

  check(10, 10);
  EXPECT_EQ(state.cache().num_segments(), segments);
  EXPECT_EQ(state.map().num_chunks(), chunks);
  EXPECT_EQ(state.zones().num_entries(), zones);
  EXPECT_EQ(state.store().num_segments(), promoted);

  // 70 rows: block 0 whole, then 6 rows of block 1 — only block 0
  // lands in the cache, the zone maps and the store.
  check(70, 70);
  EXPECT_EQ(state.cache().num_segments(), segments + 2);
  EXPECT_EQ(state.zones().num_entries(), zones + 2);
  EXPECT_EQ(state.store().num_segments(), promoted + 2);
  EXPECT_TRUE(state.cache().Contains(1, 0));
  EXPECT_FALSE(state.cache().Contains(1, 1));
}

TEST_F(RawScanTest, ParallelPrewarmBuildsZoneMaps) {
  auto info = WriteFixture("pz", 300, 4);
  RawTableState state(info, SmallBlocks(true, true, true));
  ASSERT_TRUE(state.Open().ok());
  ASSERT_TRUE(ParallelChunkedScan(&state, {0, 2}, 4).ok());
  EXPECT_GT(state.zones().num_entries(), 0u);

  // The first post-prewarm query already zone-skips.
  ScanMetrics metrics;
  RawScanOperator scan(&state, {0, 2}, &metrics);
  scan.SetPushdownPredicates({LessThan(0, "c0", 5000)});
  QueryResult result = MustDrain(&scan);
  EXPECT_EQ(result.num_rows(), 50u);
  EXPECT_GT(metrics.zone_skipped_blocks, 0u);
  EXPECT_EQ(metrics.rows_scanned + metrics.zone_skipped_rows, 300u);
}

TEST_F(RawScanTest, ParallelPrewarmKnobSubsets) {
  // Each knob subset only populates its enabled structures.
  auto info = WriteFixture("knobs", 300, 5);
  for (int mask = 0; mask < 8; ++mask) {
    RawTableState state(info, SmallBlocks(mask & 1, mask & 2, mask & 4));
    ASSERT_TRUE(ParallelChunkedScan(&state, {1, 3}, 4).ok());
    if (mask & 1) {
      EXPECT_EQ(state.map().known_rows(), 300u);
    } else {
      EXPECT_EQ(state.map().known_rows(), 0u);
    }
    if (mask & 2) {
      EXPECT_GT(state.cache().num_segments(), 0u);
    } else {
      EXPECT_EQ(state.cache().num_segments(), 0u);
    }
    VerifyScan(&state, {1, 3}, 300);
  }
}

// -------------------------------------------- row finding and cutting

TEST_F(RawScanTest, WarmReadsFetchWhatTheRunNeeds) {
  // 3000 rows x 20 columns (about 400 KB) against a 64 KiB buffer.
  // Once the row index is warm, a LIMIT 10 peek reads its rows' bytes,
  // plus at most one row, and a full scan reads the file about once —
  // not a buffer-aligned block around every run.
  auto info = WriteFixture("warm_reads", 3000, 20);
  NoDbConfig config = SmallBlocks(true, false, false);
  config.enable_store = false;  // every scan re-reads the raw bytes
  config.rows_per_block = 1024;
  config.read_buffer_bytes = 64 * 1024;
  RawTableState state(info, config);
  VerifyScan(&state, {1}, 3000);
  ASSERT_TRUE(state.map().rows_complete());
  auto file_size = GetFileSize(info.path);
  ASSERT_TRUE(file_size.ok());

  ScanMetrics peek;
  RawScanOperator scan(&state, {0, 3, 6}, &peek);
  scan.SetRowLimit(10);
  EXPECT_EQ(MustDrain(&scan).num_rows(), 10u);
  EXPECT_GT(peek.bytes_read, 0u);
  EXPECT_LE(peek.bytes_read, state.map().row_start(11));

  ScanMetrics full;
  VerifyScan(&state, {2, 19}, 3000, &full);
  EXPECT_GT(full.bytes_read, 0u);
  EXPECT_LE(static_cast<double>(full.bytes_read),
            1.01 * static_cast<double>(*file_size));
}

/// Row starts of `content` by a naive memchr split: every '\n' ends a
/// row, a non-empty unterminated tail is the last row, and a header
/// line is skipped. `*next` is one past the last row's terminator.
std::vector<uint64_t> NaiveRowStarts(const std::string& content,
                                     bool header, uint64_t* next) {
  std::vector<uint64_t> starts;
  const char* data = content.data();
  size_t pos = 0;
  bool in_header = header;
  while (pos < content.size()) {
    const void* nl = std::memchr(data + pos, '\n', content.size() - pos);
    const size_t end =
        nl == nullptr ? content.size()
                      : static_cast<size_t>(static_cast<const char*>(nl) - data);
    if (!in_header) starts.push_back(pos);
    in_header = false;
    pos = end + 1;
  }
  *next = starts.empty() ? std::min(pos, content.size()) : pos;
  return starts;
}

/// Field 0 of each row of `content` at `starts`, as a STRING column
/// scan returns it: up to the first ',', without a trailing '\r'.
std::vector<Value> NaiveFirstFields(const std::string& content,
                                    const std::vector<uint64_t>& starts) {
  std::vector<Value> out;
  for (uint64_t start : starts) {
    size_t end = content.find('\n', start);
    if (end == std::string::npos) end = content.size();
    std::string line = content.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::string field = line.substr(0, line.find(','));
    out.push_back(field.empty() ? Value::Null() : Value::String(field));
  }
  return out;
}

TEST_F(RawScanTest, RowFinderMatchesNaiveSplitProperty) {
  // Random files — empty rows, rows longer than any buffer, CRLF
  // endings, a header, no final newline — scanned cold, then again
  // after an append, by the serial scan with and without the map and by
  // the parallel row pass, at every SIMD tier, buffer size and block
  // size: the row index is the naive split, and the rows' first fields
  // are the naive ones.
  Random rng(1919);
  auto rows = [&](size_t n, bool crlf, bool terminated) {
    std::string out;
    for (size_t r = 0; r < n; ++r) {
      const uint64_t kind = rng.Uniform(12);
      if (kind == 0) {
        // empty row
      } else if (kind == 1) {
        out += rng.NextString(70 * 1024 + rng.Uniform(3000));
      } else {
        out += rng.NextString(1 + rng.Uniform(30)) + "," +
               std::to_string(rng.Uniform(100000)) + "," +
               rng.NextString(rng.Uniform(20));
      }
      if (r + 1 < n || terminated) out += crlf ? "\r\n" : "\n";
    }
    return out;
  };
  const std::string path = dir_->FilePath("rows.csv");
  for (int trial = 0; trial < 3; ++trial) {
    const bool header = trial != 1;
    const bool crlf = trial != 0;
    const bool final_newline = trial == 2;
    const std::string first =
        (header ? std::string(crlf ? "s,n,t\r\n" : "s,n,t\n") : "") +
        rows(40 + rng.Uniform(40), crlf, true);
    const std::string appended =
        rows(20 + rng.Uniform(40), crlf, final_newline);
    CsvDialect dialect;
    dialect.has_header = header;
    const RawTableInfo info{"rows", path,
                            Schema::Make({{"s", DataType::kString}}),
                            dialect};
    for (simd::SimdLevel level : simd::RunnableLevels()) {
      simd::ForceLevel(level);
      for (size_t buffer : {size_t{4096}, size_t{20000}, size_t{65536}}) {
        for (uint32_t rows_per_block : {3u, 64u, 1024u}) {
          for (int mode = 0; mode < 3; ++mode) {  // map, no map, parallel
            SCOPED_TRACE("trial " + std::to_string(trial) + " level " +
                         simd::LevelName(level) + " buffer " +
                         std::to_string(buffer) + " block " +
                         std::to_string(rows_per_block) + " mode " +
                         std::to_string(mode));
            NoDbConfig config = SmallBlocks(mode != 1, false, false);
            config.enable_store = false;
            config.rows_per_block = rows_per_block;
            config.read_buffer_bytes = buffer;
            ASSERT_TRUE(WriteStringToFile(path, first).ok());
            RawTableState state(info, config);
            ASSERT_TRUE(state.Open().ok());
            std::string content = first;
            for (int pass = 0; pass < 2; ++pass) {
              if (pass == 1) {
                auto app = OpenAppendableFile(path);
                ASSERT_TRUE(app.ok());
                ASSERT_TRUE((*app)->Append(appended).ok());
                ASSERT_TRUE((*app)->Close().ok());
                content += appended;
                auto change = state.CheckForUpdates();
                ASSERT_TRUE(change.ok());
                ASSERT_EQ(*change, FileChange::kAppended);
              }
              uint64_t next = 0;
              const std::vector<uint64_t> want =
                  NaiveRowStarts(content, header, &next);
              if (mode == 2 && pass == 0) {
                auto stats = ParallelChunkedScan(&state, {}, 3);
                ASSERT_TRUE(stats.ok()) << stats.status().ToString();
                EXPECT_EQ(stats->rows, want.size());
              } else {
                RawScanOperator scan(&state, {0}, nullptr);
                QueryResult result = MustDrain(&scan);
                const std::vector<Value> fields =
                    NaiveFirstFields(content, want);
                ASSERT_EQ(result.num_rows(), fields.size());
                for (size_t r = 0; r < fields.size(); ++r) {
                  ASSERT_EQ(result.Row(r)[0], fields[r]) << "row " << r;
                }
              }
              if (mode == 1) continue;
              PositionalMap::Image image = state.map().ExportImage();
              EXPECT_EQ(image.row_starts, want);
              EXPECT_TRUE(image.rows_complete);
              EXPECT_EQ(image.next_discovery_offset, next);
            }
          }
        }
      }
    }
  }
  simd::ClearForcedLevel();
}

/// The per-row reference for SpanCutter: each attribute cut on its own
/// by one ScanStarts call from its best anchor, one Lookup per (row,
/// attribute).
Status ReferenceCut(const CsvTokenizer& tokenizer, Slice line, uint64_t row,
                    const PositionalMap::BlockPlan* plan,
                    const std::vector<uint32_t>& attrs,
                    const std::vector<size_t>& subset, bool count_blind,
                    uint32_t* starts, uint32_t* ends, ScanMetrics* metrics,
                    const std::string& table, const std::string& path) {
  auto error = [&](uint32_t fields, uint32_t attr) {
    return Status::ParseError(table + ": row " + std::to_string(row) +
                              " has " + std::to_string(fields) +
                              " fields, attribute " + std::to_string(attr) +
                              " requested (file " + path + ")");
  };
  const uint32_t size = static_cast<uint32_t>(line.size());
  uint32_t content = size;
  if (content > 0 && line[content - 1] == '\r') --content;
  std::vector<uint32_t> field_starts(attrs.back() + 2);
  uint32_t record_fields = UINT32_MAX;
  uint32_t field = 0;
  uint32_t offset = 0;
  bool had_help = false;
  for (size_t k = 0; k < subset.size(); ++k) {
    const uint32_t attr = attrs[subset[k]];
    if (attr >= record_fields) return error(record_fields, attr);
    PositionalMap::Probe probe;
    if (plan != nullptr) probe = plan->Lookup(row, subset[k]);
    if (probe.exact) {
      starts[k] = probe.start;
      ends[k] = probe.end;
      ++metrics->map_exact_probes;
      had_help = true;
      if (probe.end >= content) record_fields = attr + 1;
      field = attr + 1;
      offset = std::min(probe.end + 1, size);
      continue;
    }
    if (probe.anchor_attr > field) {
      field = probe.anchor_attr;
      offset = std::min(probe.anchor_rel, size);
      ++metrics->map_anchor_probes;
      had_help = true;
    }
    const uint32_t high = tokenizer.ScanStarts(line, field, offset, attr + 1,
                                               field_starts.data());
    if (high < attr + 1) return error(high, attr);
    metrics->fields_tokenized += attr + 1 - field;
    starts[k] = field_starts[attr];
    ends[k] = field_starts[attr + 1] - 1;
    if (ends[k] >= content) record_fields = attr + 1;
    field = attr + 1;
    offset = std::min(field_starts[attr + 1], size);
  }
  if (count_blind && !had_help && !subset.empty()) ++metrics->map_blind_rows;
  return Status::OK();
}

TEST(SpanCutterTest, PerPassCutMatchesPerRowReference) {
  // Random rows (short, empty, CRLF-terminated, and for the quoting
  // dialect quoted, escaped and unterminated fields), random exact and
  // anchor chunks over a leading part of the block, random attribute
  // sets reaching past the rows' ends: at every SIMD tier, for both
  // dialects, SpanCutter's spans, the four tokenize/map counters and
  // the errors equal the per-row reference's, row by row.
  const std::string table = "t";
  const std::string path = "t.csv";
  constexpr uint32_t kBlock = 48;
  constexpr uint64_t kFirst = 2 * kBlock;  // the plan's block is block 2
  constexpr uint32_t kFields = 12;
  Random rng(77);
  ScanMetrics total;  // the sweep must exercise every kind of help
  uint64_t errors = 0;
  for (simd::SimdLevel level : simd::RunnableLevels()) {
    for (bool quoting : {false, true}) {
      CsvDialect dialect;
      dialect.allow_quoting = quoting;
      const CsvTokenizer tokenizer(dialect, level);
      for (int trial = 0; trial < 150; ++trial) {
        SCOPED_TRACE(std::string(simd::LevelName(level)) + " quoting " +
                     std::to_string(quoting) + " trial " +
                     std::to_string(trial));
        std::vector<std::string> lines(kBlock);
        for (std::string& line : lines) {
          const uint32_t fields =
              rng.Bernoulli(0.8) ? kFields
                                 : static_cast<uint32_t>(rng.Uniform(kFields));
          for (uint32_t f = 0; f < fields; ++f) {
            if (f > 0) line += ',';
            const uint64_t kind = rng.Uniform(8);
            if (quoting && kind == 0) {
              line += "\"a,b\"\"c\"";
            } else if (quoting && kind == 1 && f + 1 == fields) {
              line += "\"open,ended";
            } else if (kind != 2) {
              line += std::to_string(rng.Uniform(1000000));
            }
          }
          if (rng.Bernoulli(0.2)) line += '\r';
        }
        // Chunks cover each block's leading rows that have all of
        // their attributes, with the spans a full tokenization finds.
        PositionalMap map(1 << 20, kBlock, /*max_covering_chunks=*/1);
        const uint64_t chunks = rng.Uniform(4);
        for (uint64_t c = 0; c < chunks; ++c) {
          std::vector<uint32_t> chunk_attrs;
          for (uint32_t a = 0; a < kFields; ++a) {
            if (rng.Bernoulli(0.25)) chunk_attrs.push_back(a);
          }
          if (chunk_attrs.empty()) continue;
          PositionalMap::ChunkBuilder builder =
              map.StartChunk(kFirst, chunk_attrs);
          const uint64_t covered = rng.Uniform(kBlock + 1);
          std::vector<uint32_t> s(chunk_attrs.size());
          std::vector<uint32_t> e(chunk_attrs.size());
          for (uint64_t r = 0; r < covered; ++r) {
            std::vector<uint32_t> field_starts;
            const uint32_t count =
                tokenizer.TokenizeLine(Slice(lines[r]), &field_starts);
            if (chunk_attrs.back() >= count) break;
            for (size_t j = 0; j < chunk_attrs.size(); ++j) {
              s[j] = field_starts[chunk_attrs[j]];
              e[j] = field_starts[chunk_attrs[j] + 1] - 1;
            }
            builder.AddRow(s.data(), e.data());
          }
          map.CommitChunk(std::move(builder));
        }
        std::vector<uint32_t> attrs;
        for (uint32_t a = 0; a < kFields + 2; ++a) {
          if (rng.Bernoulli(0.3)) attrs.push_back(a);
        }
        if (attrs.empty()) attrs.push_back(static_cast<uint32_t>(rng.Uniform(kFields)));
        std::vector<size_t> subset;
        for (size_t j = 0; j < attrs.size(); ++j) {
          if (rng.Bernoulli(0.7)) subset.push_back(j);
        }
        if (subset.empty()) subset.push_back(0);
        const bool use_plan = rng.Bernoulli(0.8);
        const bool count_blind = rng.Bernoulli(0.5);
        std::optional<PositionalMap::BlockPlan> plan;
        if (use_plan) plan = map.PrepareBlock(kFirst, attrs);
        const PositionalMap::BlockPlan* plan_ptr =
            use_plan ? &*plan : nullptr;

        SpanCutter cutter(&tokenizer, &table, &path);
        cutter.Prepare(plan_ptr, attrs, subset, count_blind);
        ScanMetrics got;
        ScanMetrics want;
        std::vector<uint32_t> gs(subset.size()), ge(subset.size());
        std::vector<uint32_t> ws(subset.size()), we(subset.size());
        for (uint32_t r = 0; r < kBlock; ++r) {
          const Slice line(lines[r]);
          Status g;
          const bool cut =
              cutter.Cut(line, kFirst + r, gs.data(), ge.data(), &got, &g);
          EXPECT_EQ(cut, g.ok());
          Status w = ReferenceCut(tokenizer, line, kFirst + r, plan_ptr, attrs,
                                  subset, count_blind, ws.data(), we.data(),
                                  &want, table, path);
          ASSERT_EQ(g.ok(), w.ok()) << "row " << r << ": " << w.ToString();
          if (w.ok()) {
            ASSERT_EQ(gs, ws) << "row " << r;
            ASSERT_EQ(ge, we) << "row " << r;
          } else {
            ASSERT_EQ(g.message(), w.message()) << "row " << r;
          }
          ASSERT_EQ(got.fields_tokenized, want.fields_tokenized) << "row " << r;
          ASSERT_EQ(got.map_exact_probes, want.map_exact_probes) << "row " << r;
          ASSERT_EQ(got.map_anchor_probes, want.map_anchor_probes)
              << "row " << r;
          ASSERT_EQ(got.map_blind_rows, want.map_blind_rows) << "row " << r;
          errors += g.ok() ? 0 : 1;
        }
        total.Add(got);
      }
    }
  }
  EXPECT_GT(total.map_exact_probes, 0u);
  EXPECT_GT(total.map_anchor_probes, 0u);
  EXPECT_GT(total.map_blind_rows, 0u);
  EXPECT_GT(errors, 0u);
}

}  // namespace
}  // namespace nodb
