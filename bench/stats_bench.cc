// Experiment E9 — §3.3 on-the-fly statistics and plan quality.
//
// A workload whose WHERE mixes a cheap, highly selective numeric
// predicate with an expensive LIKE predicate. Without statistics the
// planner keeps source order (LIKE first); with statistics gathered as
// a side-effect of the *first* query, the numeric conjunct is ordered
// first. Also reports the accuracy of the collected sample.
//
// Gate: exits non-zero unless the statistics engine's plan orders the
// numeric conjunct first (the no-statistics plan keeps the LIKE first),
// and its best warm query is no slower than the no-statistics engine's
// (within a 1.25x noise margin; the two engines' warm queries
// alternate).
//
// Usage: stats_bench (fixed scale)

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "datagen/synthetic.h"
#include "engines/nodb_engine.h"
#include "io/temp_dir.h"

using namespace nodb;
using namespace nodb::bench;

namespace {

/// Best warm time a stats-on run may take, as a multiple of stats-off.
constexpr double kWarmMargin = 1.25;
constexpr int kWarmQueries = 9;

}  // namespace

int main() {
  PrintHeader("E9 / on-the-fly statistics and predicate ordering");

  auto dir = CheckOk(TempDir::Create("nodb-stats"), "temp dir");
  SyntheticSpec spec;
  spec.num_tuples = 120000;
  spec.num_attributes = 6;
  spec.ints_per_cycle = 2;
  spec.strings_per_cycle = 1;
  spec.doubles_per_cycle = 0;
  spec.dates_per_cycle = 0;
  spec.attribute_width = 16;  // long strings make LIKE expensive
  std::string path = dir.FilePath("skewed.csv");
  CheckOk(GenerateSyntheticCsv(path, spec, CsvDialect()).status(),
          "generate");
  Catalog catalog;
  CheckOk(catalog.RegisterTable(
              {"skewed", path, spec.MakeSchema(), CsvDialect()}),
          "register");

  // attr0/attr1 INT, attr2 STRING, repeating. The LIKE pattern with a
  // leading wildcard inspects the strings up to their first 'e' and
  // keeps about 40% of rows; the numeric predicate passes ~0.1%. So the
  // source order runs the LIKE over every row, and the order statistics
  // choose runs it over the few rows the numeric conjunct keeps.
  const std::string selective = "attr0 < 1000";
  const std::string like = "attr2 LIKE '%e%'";
  const std::string sql =
      "SELECT COUNT(*) AS n FROM skewed WHERE " + like + " AND " + selective;

  // Query 1 is identical for both engines: no statistics exist yet.
  // It builds map+cache (and, when enabled, statistics); query 2
  // crosses the promotion threshold, so once promotion settles both
  // engines serve the warm queries from the same tier and only the
  // predicate order differs. The warm queries alternate between the
  // engines, so drift hits both sides alike.
  struct Side {
    std::unique_ptr<NoDbEngine> engine;
    double q1_ms = 0;
    bool numeric_first = false;
    int64_t best_warm_ns = INT64_MAX;
  };
  Side sides[2];  // [0] without statistics, [1] with
  for (int s = 0; s < 2; ++s) {
    NoDbConfig config;
    config.enable_statistics = s == 1;
    sides[s].engine = std::make_unique<NoDbEngine>(
        catalog, config, s == 1 ? "with-stats" : "no-stats");
    NoDbEngine& engine = *sides[s].engine;
    sides[s].q1_ms =
        CheckOk(engine.Execute(sql), "q1").metrics.total_ns / 1e6;
    CheckOk(engine.Execute(sql).status(), "q2");
    engine.WaitForPromotions();
    const std::string plan = CheckOk(engine.Explain(sql), "explain");
    sides[s].numeric_first =
        plan.find("PUSHDOWN (" + selective + ")") < plan.find("LIKE");
  }
  std::string n;
  for (int q = 0; q < kWarmQueries; ++q) {
    for (Side& side : sides) {
      auto warm = CheckOk(side.engine->Execute(sql), "warm");
      side.best_warm_ns = std::min(side.best_warm_ns, warm.metrics.total_ns);
      n = warm.result.Row(0)[0].ToString();
    }
  }

  NoDbEngine counter(catalog, NoDbConfig::Baseline());
  const std::string like_rows =
      CheckOk(counter.Execute("SELECT COUNT(*) FROM skewed WHERE " + like),
              "like count")
          .result.Row(0)[0]
          .ToString();
  std::printf("\npredicate: LIKE-first in source order; %s keeps %s of "
              "%llu rows; selectivity of numeric conjunct ~0.1%% (n=%s)\n\n",
              like.c_str(), like_rows.c_str(),
              static_cast<unsigned long long>(spec.num_tuples), n.c_str());
  for (const Side& side : sides) {
    std::printf("%-11s q1 %8.2f ms   best warm %8.2f ms   "
                "first conjunct: %s\n",
                std::string(side.engine->name()).c_str(), side.q1_ms,
                side.best_warm_ns / 1e6,
                side.numeric_first ? selective.c_str() : "LIKE");
  }
  const double ratio = static_cast<double>(sides[0].best_warm_ns) /
                       static_cast<double>(sides[1].best_warm_ns);
  std::printf("\nshape: with statistics the warm queries run %.2fx the "
              "speed of without\n",
              ratio);

  // --- sample accuracy report, after one cold scan of attr0.
  NoDbEngine engine(catalog, NoDbConfig());
  auto count = CheckOk(
      engine.Execute("SELECT COUNT(*) FROM skewed WHERE " + selective),
      "full scan");
  const RawTableState* state = engine.table_state("skewed");
  const AttributeStats* stats = state->stats().GetStats(0);
  if (stats != nullptr) {
    const double truth = count.result.Row(0)[0].AsDouble() /
                         static_cast<double>(spec.num_tuples);
    std::printf(
        "\nattr0 statistics after one scan: rows=%llu sample=%zu   "
        "%s: estimated %.5f, true %.5f\n",
        static_cast<unsigned long long>(stats->row_count()),
        stats->ExportImage().numeric_sample.size(), selective.c_str(),
        stats->EstimateCompareSelectivity(CompareOp::kLt, Value::Int64(1000))
            .value_or(-1),
        truth);
  }

  bool ok = true;
  if (sides[0].numeric_first || !sides[1].numeric_first) {
    std::fprintf(stderr,
                 "GATE FAILED: expected the no-statistics plan to keep the "
                 "LIKE first and the statistics plan to order %s first\n",
                 selective.c_str());
    ok = false;
  }
  if (ratio * kWarmMargin < 1.0) {
    std::fprintf(stderr,
                 "GATE FAILED: warm queries with statistics ran %.2fx "
                 "slower than without (margin %.2fx)\n",
                 1.0 / ratio, kWarmMargin);
    ok = false;
  }
  return ok ? 0 : 1;
}
