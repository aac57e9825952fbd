// The engine-equivalence property suite: for randomized data and
// queries, the in-situ engine (in every knob configuration, cold and
// warm) must return exactly the rows a conventional load-first engine
// returns. This is the core correctness claim of the reproduction —
// the NoDB structures are pure accelerators.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/synthetic.h"
#include "engines/load_first_engine.h"
#include "engines/nodb_engine.h"
#include "io/temp_dir.h"
#include "util/random.h"

namespace nodb {
namespace {

/// Builds random-but-valid SQL over the synthetic schema
/// (attr0 INT, attr1 DOUBLE, attr2 STRING, attr3 DATE, attr4 INT, ...).
class QueryGenerator {
 public:
  QueryGenerator(const Schema& schema, uint64_t seed)
      : schema_(schema), rng_(seed) {}

  std::string Next() {
    switch (rng_.Uniform(4)) {
      case 0:
        return Projection();
      case 1:
        return GlobalAggregate();
      case 2:
        return GroupBy();
      default:
        return Projection();
    }
  }

 private:
  std::string RandomColumn(bool numeric_only = false) {
    while (true) {
      size_t i = rng_.Uniform(schema_.num_fields());
      if (!numeric_only || schema_.field(i).type != DataType::kString) {
        return schema_.field(i).name;
      }
    }
  }

  std::string RandomPredicate() {
    size_t i = rng_.Uniform(schema_.num_fields());
    const Field& f = schema_.field(i);
    const char* ops[] = {"<", "<=", ">", ">=", "=", "<>"};
    std::string op = ops[rng_.Uniform(6)];
    switch (f.type) {
      case DataType::kInt64:
        return f.name + " " + op + " " +
               std::to_string(rng_.Uniform(1000000));
      case DataType::kDouble:
        return f.name + " " + op + " " +
               std::to_string(rng_.Uniform(10000)) + ".5";
      case DataType::kDate: {
        unsigned day = 1 + static_cast<unsigned>(rng_.Uniform(28));
        unsigned month = 1 + static_cast<unsigned>(rng_.Uniform(12));
        unsigned year = 1992 + static_cast<unsigned>(rng_.Uniform(7));
        char buf[48];
        std::snprintf(buf, sizeof(buf), "DATE '%04u-%02u-%02u'", year,
                      month, day);
        return f.name + " " + op + " " + buf;
      }
      case DataType::kString:
        if (rng_.Bernoulli(0.5)) {
          return f.name + " LIKE '" +
                 std::to_string(rng_.Uniform(10)) + "%'";
        }
        return f.name + " " + op + " '" +
               std::to_string(rng_.Uniform(10)) + "'";
    }
    return "1 = 1";
  }

  std::string MaybeWhere() {
    switch (rng_.Uniform(4)) {
      case 0:
        return "";
      case 1:
        return " WHERE " + RandomPredicate();
      case 2:
        return " WHERE " + RandomPredicate() + " AND " + RandomPredicate();
      default:
        return " WHERE " + RandomPredicate() + " OR " + RandomPredicate();
    }
  }

  std::string Projection() {
    size_t n = 1 + rng_.Uniform(3);
    std::string cols;
    std::string first_col;
    for (size_t i = 0; i < n; ++i) {
      std::string c = RandomColumn();
      if (i == 0) first_col = c;
      if (i > 0) cols += ", ";
      cols += c;
    }
    std::string sql = "SELECT " + cols + " FROM t" + MaybeWhere();
    // Deterministic order + limit so row sets stay comparable and small.
    sql += " ORDER BY " + first_col;
    sql += " LIMIT 50";
    return sql;
  }

  std::string GlobalAggregate() {
    std::string c = RandomColumn(/*numeric_only=*/true);
    const char* funcs[] = {"COUNT", "SUM", "MIN", "MAX", "AVG"};
    std::string f = funcs[rng_.Uniform(5)];
    return "SELECT COUNT(*) AS n, " + f + "(" + c + ") AS v FROM t" +
           MaybeWhere();
  }

  std::string GroupBy() {
    // Group by a string attribute prefix-heavy domain or an int column.
    std::string key = RandomColumn();
    std::string agg = RandomColumn(/*numeric_only=*/true);
    return "SELECT " + key + ", COUNT(*) AS n, MIN(" + agg +
           ") AS lo FROM t" + MaybeWhere() + " GROUP BY " + key +
           " ORDER BY " + key + " LIMIT 40";
  }

  const Schema& schema_;
  Random rng_;
};

struct EquivalenceCase {
  int knob_mask;       // bit0 map, bit1 cache, bit2 stats
  uint32_t rows_per_block;
  // false: WHERE runs as FilterOperators above a conjunct-free scan.
  bool pushdown = true;
};

class EquivalenceSweep
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(EquivalenceSweep, NoDbMatchesLoadFirstOnRandomWorkloads) {
  const EquivalenceCase param = GetParam();
  auto dir = TempDir::Create("nodb-equiv");
  ASSERT_TRUE(dir.ok());

  SyntheticSpec spec;
  spec.num_tuples = 600;
  spec.num_attributes = 8;
  spec.ints_per_cycle = 1;
  spec.doubles_per_cycle = 1;
  spec.strings_per_cycle = 1;
  spec.dates_per_cycle = 1;
  spec.attribute_width = 7;
  spec.null_fraction = 0.05;
  spec.seed = 1234 + param.knob_mask;
  std::string path = dir->FilePath("t.csv");
  ASSERT_TRUE(GenerateSyntheticCsv(path, spec, CsvDialect()).ok());

  Catalog catalog;
  auto schema = spec.MakeSchema();
  ASSERT_TRUE(
      catalog.RegisterTable({"t", path, schema, CsvDialect()}).ok());

  NoDbConfig config;
  config.enable_positional_map = param.knob_mask & 1;
  config.enable_cache = param.knob_mask & 2;
  config.enable_statistics = param.knob_mask & 4;
  config.rows_per_block = param.rows_per_block;
  config.enable_pushdown = param.pushdown;
  // A deliberately tiny map budget on some configs exercises eviction
  // during the workload.
  if (param.knob_mask == 7) config.positional_map_budget = 8 * 1024;

  NoDbEngine nodb(catalog, config);
  LoadFirstEngine reference(catalog, LoadProfile::kPostgres);
  ASSERT_TRUE(reference.Initialize().ok());

  QueryGenerator generator(*schema, 99 + param.knob_mask);
  for (int q = 0; q < 25; ++q) {
    std::string sql = generator.Next();
    SCOPED_TRACE("query " + std::to_string(q) + ": " + sql);
    auto expected = reference.Execute(sql);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    // Run twice: cold structures, then warm (the warm path must not
    // change results).
    auto first = nodb.Execute(sql);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(first->result.CanonicalRows(),
              expected->result.CanonicalRows());
    auto second = nodb.Execute(sql);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(second->result.CanonicalRows(),
              expected->result.CanonicalRows());
  }
}

INSTANTIATE_TEST_SUITE_P(
    KnobAndBlockSweep, EquivalenceSweep,
    ::testing::Values(EquivalenceCase{0, 128}, EquivalenceCase{1, 128},
                      EquivalenceCase{2, 128}, EquivalenceCase{3, 64},
                      EquivalenceCase{4, 128}, EquivalenceCase{5, 256},
                      EquivalenceCase{6, 32}, EquivalenceCase{7, 128},
                      EquivalenceCase{7, 16}, EquivalenceCase{7, 1024},
                      EquivalenceCase{0, 128, false},
                      EquivalenceCase{3, 64, false},
                      EquivalenceCase{6, 32, false},
                      EquivalenceCase{7, 128, false},
                      EquivalenceCase{7, 16, false}));

/// Rows in result order (LIMIT without ORDER BY keeps file order, so
/// the order is part of the answer).
std::vector<std::string> OrderedRows(const QueryResult& result) {
  std::vector<std::string> rows;
  for (size_t r = 0; r < result.num_rows(); ++r) {
    std::string line;
    for (const Value& v : result.Row(r)) line += v.ToString() + "|";
    rows.push_back(std::move(line));
  }
  return rows;
}

/// LIMIT and LIMIT ... OFFSET without ORDER BY stop the scan early (the
/// planner hands the scan a row limit). The first rows in file order
/// must come back from cold, cache-resident and store-resident tables
/// alike, with limits and offsets below, at and across a block.
TEST(LimitEquivalence, LimitWithoutOrderMatchesLoadFirstOnEveryTier) {
  auto dir = TempDir::Create("nodb-equiv-limit");
  ASSERT_TRUE(dir.ok());
  SyntheticSpec spec;
  spec.num_tuples = 300;
  spec.num_attributes = 6;
  spec.ints_per_cycle = 1;
  spec.doubles_per_cycle = 1;
  spec.strings_per_cycle = 1;
  spec.dates_per_cycle = 1;
  spec.attribute_width = 7;
  spec.null_fraction = 0.05;
  spec.seed = 99;
  std::string path = dir->FilePath("t.csv");
  ASSERT_TRUE(GenerateSyntheticCsv(path, spec, CsvDialect()).ok());
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterTable({"t", path, spec.MakeSchema(),
                                  CsvDialect()})
                  .ok());
  LoadFirstEngine reference(catalog, LoadProfile::kPostgres);
  ASSERT_TRUE(reference.Initialize().ok());

  constexpr uint32_t kBlock = 64;
  std::vector<std::string> queries;
  for (uint64_t limit : {1, 10, 63, 64, 65, 130, 299, 300, 1000}) {
    for (uint64_t offset : {0, 1, 63, 64, 100, 290, 400}) {
      std::string sql = "SELECT attr0, attr2, attr5 FROM t LIMIT " +
                        std::to_string(limit);
      if (offset > 0) sql += " OFFSET " + std::to_string(offset);
      queries.push_back(std::move(sql));
    }
  }
  queries.push_back("SELECT * FROM t LIMIT 70 OFFSET 5");
  queries.push_back("SELECT attr1 FROM t WHERE attr0 > 300000 LIMIT 7");
  queries.push_back("SELECT attr1 FROM t WHERE attr0 > 300000 LIMIT 70 "
                    "OFFSET 3");
  queries.push_back("SELECT attr0 FROM t LIMIT 9223372036854775807 "
                    "OFFSET 70");
  queries.push_back("SELECT attr0 FROM t LIMIT 9223372036854775807 "
                    "OFFSET 9223372036854775807");
  const char* warmup = "SELECT attr0, attr1, attr2, attr5 FROM t";

  enum class Tier { kCold, kCache, kStore };
  for (Tier tier : {Tier::kCold, Tier::kCache, Tier::kStore}) {
    for (bool pushdown : {true, false}) {
      NoDbConfig config;
      config.rows_per_block = kBlock;
      config.enable_pushdown = pushdown;
      config.enable_store = tier == Tier::kStore;
      config.promote_after_accesses = 1;
      for (const std::string& sql : queries) {
        SCOPED_TRACE("tier " + std::to_string(static_cast<int>(tier)) +
                     (pushdown ? " pushdown: " : " filters: ") + sql);
        // A fresh engine per query, so every query meets its tier.
        NoDbEngine nodb(catalog, config);
        if (tier != Tier::kCold) {
          ASSERT_TRUE(nodb.Execute(warmup).ok());
          nodb.WaitForPromotions();
        }
        auto expected = reference.Execute(sql);
        ASSERT_TRUE(expected.ok()) << expected.status().ToString();
        auto got = nodb.Execute(sql);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(OrderedRows(got->result), OrderedRows(expected->result));
        if (tier == Tier::kStore && sql.find("WHERE") == std::string::npos &&
            sql.find('*') == std::string::npos) {
          EXPECT_GT(got->metrics.scan.rows_from_store, 0u);
        } else if (tier == Tier::kCache &&
                   sql.find('*') == std::string::npos) {
          EXPECT_EQ(got->metrics.scan.rows_from_raw, 0u);
        }
        // The warm rerun sees whatever the limited scan taught.
        auto again = nodb.Execute(sql);
        ASSERT_TRUE(again.ok()) << again.status().ToString();
        EXPECT_EQ(OrderedRows(again->result), OrderedRows(expected->result));
      }
    }
  }
}

/// Runs each query cold, then warm, on a fresh NoDB engine over
/// `catalog` (64-row blocks); both answers must equal the load-first
/// reference's.
void ExpectColdAndWarmMatchReference(const Catalog& catalog,
                                     const std::vector<std::string>& queries) {
  LoadFirstEngine reference(catalog, LoadProfile::kPostgres);
  ASSERT_TRUE(reference.Initialize().ok());
  NoDbConfig config;
  config.rows_per_block = 64;
  NoDbEngine nodb(catalog, config);
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    auto expected = reference.Execute(sql);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto cold = nodb.Execute(sql);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(cold->result.CanonicalRows(), expected->result.CanonicalRows());
    auto warm = nodb.Execute(sql);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(warm->result.CanonicalRows(), expected->result.CanonicalRows());
  }
}

/// CRLF line endings are part of the terminator: no string column
/// comes back with a trailing '\r', cold or warm.
TEST(CrlfEquivalence, CrlfFileMatchesReference) {
  auto dir = TempDir::Create("nodb-equiv-crlf");
  ASSERT_TRUE(dir.ok());
  std::string content;
  for (int i = 0; i < 250; ++i) {
    content += std::to_string(i) + ",v" + std::to_string(i % 7) + "," +
               std::to_string(i) + ".5\r\n";
  }
  std::string path = dir->FilePath("crlf.csv");
  ASSERT_TRUE(WriteStringToFile(path, content).ok());

  Catalog catalog;
  auto schema = Schema::Make({{"id", DataType::kInt64},
                              {"grp", DataType::kString},
                              {"x", DataType::kDouble}});
  ASSERT_TRUE(
      catalog.RegisterTable({"t", path, schema, CsvDialect()}).ok());
  ExpectColdAndWarmMatchReference(
      catalog, {"SELECT grp, COUNT(*) AS n, SUM(x) AS s FROM t GROUP BY grp "
                "ORDER BY grp",
                "SELECT id, grp FROM t WHERE x > 100 ORDER BY id LIMIT 20",
                "SELECT COUNT(*) AS n FROM t"});
}

/// Quoted CSV: embedded delimiters and doubled quotes inside quoted
/// fields decode as the load-first engine decodes them.
TEST(QuotedCsvEquivalence, QuotedFieldsMatchReference) {
  auto dir = TempDir::Create("nodb-equiv-quoted");
  ASSERT_TRUE(dir.ok());
  std::string content;
  for (int i = 0; i < 300; ++i) {
    content += std::to_string(i) + ",\"v," + std::to_string(i % 7) +
               ",\"\"q\"\"\"," + std::to_string(i) + ".25\n";
  }
  std::string path = dir->FilePath("quoted.csv");
  ASSERT_TRUE(WriteStringToFile(path, content).ok());

  Catalog catalog;
  auto schema = Schema::Make({{"id", DataType::kInt64},
                              {"txt", DataType::kString},
                              {"x", DataType::kDouble}});
  ASSERT_TRUE(
      catalog.RegisterTable({"t", path, schema, CsvDialect::QuotedCsv()})
          .ok());
  ExpectColdAndWarmMatchReference(
      catalog, {"SELECT txt, COUNT(*) AS n FROM t GROUP BY txt ORDER BY txt",
                "SELECT id, txt, x FROM t WHERE x > 100 ORDER BY id LIMIT 20",
                "SELECT COUNT(*) AS n FROM t"});
}

/// Quoted fields holding raw newlines: every raw '\n' ends a row, in
/// every dialect, so each record here is two rows — for the in-situ
/// scan and the load-first engine alike.
TEST(QuotedCsvEquivalence, RawNewlinesInQuotesEndRowsLikeReference) {
  auto dir = TempDir::Create("nodb-equiv-quoted-newlines");
  ASSERT_TRUE(dir.ok());
  std::string content;
  for (int i = 0; i < 200; ++i) {
    content += std::to_string(i) + ",\"a\nb" + std::to_string(i) + "\"\n";
  }
  std::string path = dir->FilePath("newlines.csv");
  ASSERT_TRUE(WriteStringToFile(path, content).ok());

  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterTable({"t", path,
                                  Schema::Make({{"id", DataType::kString}}),
                                  CsvDialect::QuotedCsv()})
                  .ok());
  ExpectColdAndWarmMatchReference(
      catalog, {"SELECT COUNT(*) AS n FROM t",
                "SELECT id, COUNT(*) AS n FROM t GROUP BY id ORDER BY id "
                "LIMIT 30"});
  NoDbEngine nodb(catalog, NoDbConfig());
  auto count = nodb.Execute("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->result.Row(0)[0], Value::Int64(400));
}

/// The concurrent-serving property: N clients hammering one shared
/// TableState — mixed cold and warm, every knob on, small blocks so
/// many chunks/segments publish concurrently — must return exactly the
/// rows the serial engines return, for every query.
class ConcurrentEquivalence : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ConcurrentEquivalence, ClientsMatchSerialOnSharedState) {
  const uint32_t clients = GetParam();
  auto dir = TempDir::Create("nodb-equiv-conc");
  ASSERT_TRUE(dir.ok());

  SyntheticSpec spec;
  spec.num_tuples = 700;
  spec.num_attributes = 8;
  spec.ints_per_cycle = 1;
  spec.doubles_per_cycle = 1;
  spec.strings_per_cycle = 1;
  spec.dates_per_cycle = 1;
  spec.attribute_width = 7;
  spec.null_fraction = 0.05;
  spec.seed = 777;
  std::string path = dir->FilePath("t.csv");
  ASSERT_TRUE(GenerateSyntheticCsv(path, spec, CsvDialect()).ok());

  Catalog catalog;
  auto schema = spec.MakeSchema();
  ASSERT_TRUE(
      catalog.RegisterTable({"t", path, schema, CsvDialect()}).ok());

  NoDbConfig config;
  config.rows_per_block = 32;  // many blocks -> many concurrent commits
  // A small map budget keeps eviction racing against publication.
  config.positional_map_budget = 32 * 1024;

  LoadFirstEngine reference(catalog, LoadProfile::kPostgres);
  ASSERT_TRUE(reference.Initialize().ok());
  NoDbEngine serial(catalog, config);

  // Each query appears twice in the batch, so one shared state serves
  // cold and warm instances of the same query at the same time.
  QueryGenerator generator(*schema, 31337);
  std::vector<std::string> batch;
  std::vector<std::string> unique;
  for (int q = 0; q < 12; ++q) unique.push_back(generator.Next());
  for (int q = 0; q < 12; ++q) {
    batch.push_back(unique[q]);
    batch.push_back(unique[(q + 5) % 12]);
  }

  std::vector<std::vector<std::string>> expected;
  expected.reserve(batch.size());
  for (const std::string& sql : batch) {
    auto ref = reference.Execute(sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    auto ser = serial.Execute(sql);
    ASSERT_TRUE(ser.ok()) << ser.status().ToString();
    ASSERT_EQ(ser->result.CanonicalRows(), ref->result.CanonicalRows())
        << sql;
    expected.push_back(ref->result.CanonicalRows());
  }

  NoDbEngine concurrent(catalog, config);
  for (int round = 0; round < 2; ++round) {  // cold batch, then warm
    SCOPED_TRACE("round " + std::to_string(round) + ", " +
                 std::to_string(clients) + " clients");
    ConcurrentBatchOutcome outcome =
        concurrent.ExecuteConcurrent(batch, clients);
    ASSERT_EQ(outcome.reports.size(), batch.size());
    EXPECT_EQ(outcome.failures(), 0u);
    for (size_t i = 0; i < outcome.reports.size(); ++i) {
      const ConcurrentQueryReport& report = outcome.reports[i];
      SCOPED_TRACE("query " + std::to_string(i) + ": " + batch[i]);
      ASSERT_TRUE(report.status.ok()) << report.status.ToString();
      EXPECT_EQ(report.result.CanonicalRows(), expected[i]);
    }
  }

  // The shared state really was exercised by the batch.
  const RawTableState* state = concurrent.table_state("t");
  ASSERT_NE(state, nullptr);
  EXPECT_TRUE(state->map().rows_complete());
  EXPECT_EQ(state->map().known_rows(), spec.num_tuples);
}

INSTANTIATE_TEST_SUITE_P(ClientCounts, ConcurrentEquivalence,
                         ::testing::Values(2u, 8u));

TEST(ConcurrentEquivalence, RawExecutePathIsThreadSafeWithoutSessions) {
  // Plain Engine::Execute from bare threads (no ExecuteConcurrent, no
  // pool): the documented contract is the method itself.
  auto dir = TempDir::Create("nodb-equiv-bare");
  ASSERT_TRUE(dir.ok());
  std::string content;
  for (int i = 0; i < 500; ++i) {
    content += std::to_string(i) + "," + std::to_string(i % 13) + "," +
               std::to_string(i * 3) + "\n";
  }
  std::string path = dir->FilePath("t.csv");
  ASSERT_TRUE(WriteStringToFile(path, content).ok());

  Catalog catalog;
  auto schema = Schema::Make({{"id", DataType::kInt64},
                              {"grp", DataType::kInt64},
                              {"x", DataType::kInt64}});
  ASSERT_TRUE(
      catalog.RegisterTable({"t", path, schema, CsvDialect()}).ok());

  NoDbConfig config;
  config.rows_per_block = 64;
  NoDbEngine nodb(catalog, config);
  LoadFirstEngine reference(catalog, LoadProfile::kPostgres);
  ASSERT_TRUE(reference.Initialize().ok());

  const std::vector<std::string> queries = {
      "SELECT grp, COUNT(*) AS n, SUM(x) AS s FROM t GROUP BY grp "
      "ORDER BY grp",
      "SELECT id, x FROM t WHERE x > 600 ORDER BY id LIMIT 25",
      "SELECT COUNT(*) AS n FROM t WHERE grp = 7",
      "SELECT MIN(x) AS lo, MAX(x) AS hi FROM t",
  };
  std::vector<std::vector<std::string>> expected;
  for (const auto& sql : queries) {
    auto ref = reference.Execute(sql);
    ASSERT_TRUE(ref.ok());
    expected.push_back(ref->result.CanonicalRows());
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 6; ++round) {
        size_t q = static_cast<size_t>(t + round) % queries.size();
        auto got = nodb.Execute(queries[q]);
        if (!got.ok() ||
            got->result.CanonicalRows() != expected[q]) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// Pushdown + zone maps under concurrency: 8 clients hammering one
/// shared state with selective predicates over a *clustered* attribute
/// must return byte-identical rows to the serial engines, and the
/// per-query ScanMetrics must stay consistent — every row of every
/// full scan is either examined or zone-skipped, never lost.
class PushdownConcurrentStress : public ::testing::TestWithParam<uint32_t> {
};

TEST_P(PushdownConcurrentStress, SkippedBlockCountersStayConsistent) {
  const uint32_t clients = GetParam();
  auto dir = TempDir::Create("nodb-pushdown-stress");
  ASSERT_TRUE(dir.ok());

  // id ascending (clustered), grp cyclic, x with NULL holes.
  constexpr int kRows = 4096;
  std::string content;
  for (int i = 0; i < kRows; ++i) {
    content += std::to_string(i) + "," + std::to_string(i % 17) + ",";
    if (i % 11 != 0) content += std::to_string(i * 3);
    content += "\n";
  }
  std::string path = dir->FilePath("t.csv");
  ASSERT_TRUE(WriteStringToFile(path, content).ok());

  Catalog catalog;
  auto schema = Schema::Make({{"id", DataType::kInt64},
                              {"grp", DataType::kInt64},
                              {"x", DataType::kInt64}});
  ASSERT_TRUE(
      catalog.RegisterTable({"t", path, schema, CsvDialect()}).ok());

  NoDbConfig config;
  config.rows_per_block = 128;  // 32 blocks
  LoadFirstEngine reference(catalog, LoadProfile::kPostgres);
  ASSERT_TRUE(reference.Initialize().ok());
  NoDbEngine serial(catalog, config);

  // Full-scan aggregates (no LIMIT): rows_scanned + zone_skipped_rows
  // must cover the whole table on every execution.
  std::vector<std::string> batch;
  for (int k = 1; k <= 6; ++k) {
    batch.push_back("SELECT COUNT(*) AS n, SUM(x) AS s FROM t WHERE id < " +
                    std::to_string(k * 300));
    batch.push_back("SELECT COUNT(*) AS n FROM t WHERE id >= " +
                    std::to_string(4096 - k * 250) + " AND grp = 3");
  }
  batch.push_back("SELECT COUNT(*) AS n FROM t WHERE x IS NULL");
  batch.push_back("SELECT COUNT(*) AS n, MIN(id) AS lo FROM t");

  std::vector<std::vector<std::string>> expected;
  for (const auto& sql : batch) {
    auto ref = reference.Execute(sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    auto ser = serial.Execute(sql);
    ASSERT_TRUE(ser.ok()) << ser.status().ToString();
    ASSERT_EQ(ser->result.CanonicalRows(), ref->result.CanonicalRows())
        << sql;
    expected.push_back(ref->result.CanonicalRows());
  }

  NoDbEngine concurrent(catalog, config);
  uint64_t total_skipped = 0;
  for (int round = 0; round < 3; ++round) {  // cold, warm, store-warm
    SCOPED_TRACE("round " + std::to_string(round));
    ConcurrentBatchOutcome outcome =
        concurrent.ExecuteConcurrent(batch, clients);
    ASSERT_EQ(outcome.reports.size(), batch.size());
    EXPECT_EQ(outcome.failures(), 0u);
    for (size_t i = 0; i < outcome.reports.size(); ++i) {
      const ConcurrentQueryReport& report = outcome.reports[i];
      SCOPED_TRACE("query " + std::to_string(i) + ": " + batch[i]);
      ASSERT_TRUE(report.status.ok()) << report.status.ToString();
      EXPECT_EQ(report.result.CanonicalRows(), expected[i]);
      const ScanMetrics& scan = report.metrics.scan;
      // Full scans: every row examined or provably skipped.
      EXPECT_EQ(scan.rows_scanned + scan.zone_skipped_rows,
                static_cast<uint64_t>(kRows));
      // A skipped block accounts for at least one and at most one
      // block's worth of rows.
      EXPECT_LE(scan.zone_skipped_rows,
                scan.zone_skipped_blocks * config.rows_per_block);
      EXPECT_GE(scan.zone_skipped_rows, scan.zone_skipped_blocks);
      total_skipped += scan.zone_skipped_blocks;
    }
    concurrent.WaitForPromotions();
  }
  // Once the first round summarized the blocks, the clustered-id
  // predicates really pruned.
  EXPECT_GT(total_skipped, 0u);
}

INSTANTIATE_TEST_SUITE_P(ClientCounts, PushdownConcurrentStress,
                         ::testing::Values(2u, 8u));

TEST(EquivalenceJoinTest, JoinsMatchAcrossEngines) {
  auto dir = TempDir::Create("nodb-equiv-join");
  ASSERT_TRUE(dir.ok());

  // Two tables with a shared key domain.
  std::string left_path = dir->FilePath("l.csv");
  std::string right_path = dir->FilePath("r.csv");
  std::string l, r;
  Random rng(5);
  for (int i = 0; i < 300; ++i) {
    l += std::to_string(rng.Uniform(60)) + "," + std::to_string(i) + "\n";
  }
  for (int i = 0; i < 80; ++i) {
    r += std::to_string(rng.Uniform(60)) + ",grp" +
         std::to_string(i % 5) + "\n";
  }
  ASSERT_TRUE(WriteStringToFile(left_path, l).ok());
  ASSERT_TRUE(WriteStringToFile(right_path, r).ok());

  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterTable({"l", left_path,
                                  Schema::Make({{"k", DataType::kInt64},
                                                {"v", DataType::kInt64}}),
                                  CsvDialect()})
                  .ok());
  ASSERT_TRUE(catalog
                  .RegisterTable({"r", right_path,
                                  Schema::Make({{"k", DataType::kInt64},
                                                {"g", DataType::kString}}),
                                  CsvDialect()})
                  .ok());

  NoDbConfig config;
  config.rows_per_block = 64;
  NoDbEngine nodb(catalog, config);
  LoadFirstEngine reference(catalog, LoadProfile::kPostgres);

  const char* queries[] = {
      "SELECT a.v, b.g FROM l a JOIN r b ON a.k = b.k",
      "SELECT b.g, COUNT(*) AS n, SUM(a.v) AS s FROM l a JOIN r b "
      "ON a.k = b.k GROUP BY b.g ORDER BY b.g",
      "SELECT COUNT(*) AS n FROM l a JOIN r b ON a.k = b.k "
      "WHERE a.v > 100",
  };
  for (const char* sql : queries) {
    SCOPED_TRACE(sql);
    auto expected = reference.Execute(sql);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto cold = nodb.Execute(sql);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(cold->result.CanonicalRows(),
              expected->result.CanonicalRows());
    auto warm = nodb.Execute(sql);
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm->result.CanonicalRows(),
              expected->result.CanonicalRows());
  }
}

}  // namespace
}  // namespace nodb
