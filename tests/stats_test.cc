// Tests for the on-the-fly statistics: the skip-counted reservoir
// sample, sample-based selectivity, the planner bridge and zone maps.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "raw/stats_collector.h"

namespace nodb {
namespace {

ColumnVector IntColumn(const std::vector<int64_t>& values,
                       const std::vector<bool>& nulls = {}) {
  ColumnVector col(DataType::kInt64);
  for (size_t i = 0; i < values.size(); ++i) {
    if (!nulls.empty() && nulls[i]) {
      col.AppendNull();
    } else {
      col.AppendInt64(values[i]);
    }
  }
  return col;
}

TEST(AttributeStatsTest, RowCountAndSampleSkipNulls) {
  AttributeStats stats(DataType::kInt64);
  stats.Observe(IntColumn({5, -3, 10, 0}, {false, false, false, true}));
  EXPECT_EQ(stats.row_count(), 4u);
  auto image = stats.ExportImage();
  EXPECT_EQ(image.sampled_stream, 3u);
  EXPECT_EQ(image.numeric_sample, (std::vector<double>{5, -3, 10}));
}

/// Value `v` as a `type` cell: itself, or a zero-padded string that
/// sorts and parses back like the number.
void AppendValue(ColumnVector* col, int64_t v) {
  if (col->type() == DataType::kString) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "v%07lld", static_cast<long long>(v));
    col->AppendString(buf);
  } else {
    col->AppendInt64(v);
  }
}

TEST(AttributeStatsTest, ReservoirIsAUniformSample) {
  // Values 0..199 999 in blocks of 4096 rows, every other block with a
  // NULL in every seventh row (so both the counting and the skipping
  // walk run): the 512-value sample's mean sits near the middle,
  // every decile holds its share, and every sampled value was observed.
  // A reservoir exported halfway and imported into fresh stats resumes
  // with a fresh skip and stays just as uniform.
  const int64_t kValues = 200000;
  for (DataType type : {DataType::kInt64, DataType::kString}) {
    for (bool thaw_halfway : {false, true}) {
      SCOPED_TRACE(std::string(DataTypeToString(type)) +
                   (thaw_halfway ? ", thawed halfway" : ""));
      auto stats = std::make_unique<AttributeStats>(type);
      int64_t next = 0;
      uint64_t nulls = 0;
      bool thawed = false;
      for (int block = 0; next < kValues; ++block) {
        if (thaw_halfway && !thawed && next >= kValues / 2) {
          auto fresh = std::make_unique<AttributeStats>(type);
          ASSERT_TRUE(fresh->ImportImage(stats->ExportImage()));
          stats = std::move(fresh);
          thawed = true;
        }
        ColumnVector col(type);
        for (int row = 0; row < 4096 && next < kValues; ++row) {
          if (block % 2 == 1 && row % 7 == 3) {
            col.AppendNull();
            ++nulls;
          } else {
            AppendValue(&col, next++);
          }
        }
        stats->Observe(col);
      }
      EXPECT_EQ(stats->row_count(), kValues + nulls);
      auto image = stats->ExportImage();
      EXPECT_EQ(image.sampled_stream, static_cast<uint64_t>(kValues));
      std::vector<double> sample = image.numeric_sample;
      if (type == DataType::kString) {
        ASSERT_TRUE(sample.empty());
        for (const std::string& s : image.string_sample) {
          ASSERT_EQ(s.size(), 8u) << s;
          sample.push_back(std::stod(s.substr(1)));
        }
      }
      ASSERT_EQ(sample.size(), AttributeStats::kReservoirSize);
      double sum = 0;
      std::vector<int> deciles(10, 0);
      for (double v : sample) {
        ASSERT_GE(v, 0);
        ASSERT_LT(v, kValues);
        sum += v;
        ++deciles[static_cast<size_t>(v * 10 / kValues)];
      }
      // Mean of 512 uniform draws: standard error ~2 550; allow ~4
      // sigma. A decile holds 51.2 on average, standard deviation ~6.8.
      EXPECT_NEAR(sum / sample.size(), kValues / 2.0, 10000);
      for (int d = 0; d < 10; ++d) {
        EXPECT_GT(deciles[d], 20) << "decile " << d;
        EXPECT_LT(deciles[d], 85) << "decile " << d;
      }
    }
  }
}

TEST(AttributeStatsTest, CompareSelectivityFromSample) {
  AttributeStats stats(DataType::kInt64);
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 10000; ++i) col.AppendInt64(i % 100);
  stats.Observe(col);
  auto sel = stats.EstimateCompareSelectivity(CompareOp::kLt,
                                              Value::Int64(10));
  ASSERT_TRUE(sel.has_value());
  EXPECT_NEAR(*sel, 0.10, 0.06);
  auto eq = stats.EstimateCompareSelectivity(CompareOp::kEq,
                                             Value::Int64(5));
  ASSERT_TRUE(eq.has_value());
  EXPECT_LT(*eq, 0.1);
  auto none = stats.EstimateCompareSelectivity(CompareOp::kEq,
                                               Value::String("x"));
  EXPECT_FALSE(none.has_value());
}

TEST(AttributeStatsTest, EqualityMissGetsHalfASampledValue) {
  AttributeStats stats(DataType::kInt64);
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 1000; ++i) col.AppendInt64(i);
  stats.Observe(col);
  // A value outside the sample: rarer than one sampled value, not zero.
  auto sel = stats.EstimateCompareSelectivity(CompareOp::kEq,
                                              Value::Int64(-12345));
  ASSERT_TRUE(sel.has_value());
  EXPECT_GT(*sel, 0.0);
  EXPECT_LT(*sel, 0.01);
}

TEST(AttributeStatsTest, StringSelectivity) {
  AttributeStats stats(DataType::kString);
  ColumnVector col(DataType::kString);
  const char* words[] = {"apple", "banana", "cherry", "apricot"};
  for (int i = 0; i < 400; ++i) col.AppendString(words[i % 4]);
  stats.Observe(col);
  auto eq = stats.EstimateCompareSelectivity(CompareOp::kEq,
                                             Value::String("apple"));
  ASSERT_TRUE(eq.has_value());
  EXPECT_NEAR(*eq, 0.25, 0.1);
}

TEST(StatsCollectorTest, ObserveBlockDeduplicates) {
  auto schema = Schema::Make({{"a", DataType::kInt64},
                              {"b", DataType::kInt64}});
  StatsCollector collector(schema);
  auto col = IntColumn({1, 2, 3});
  collector.ObserveBlock(0, 0, col);
  collector.ObserveBlock(0, 0, col);  // second fold-in is ignored
  EXPECT_EQ(collector.GetStats(0)->row_count(), 3u);
  collector.ObserveBlock(0, 1, col);
  EXPECT_EQ(collector.GetStats(0)->row_count(), 6u);
  EXPECT_FALSE(collector.HasStats(1));
  EXPECT_EQ(collector.CoveredAttributes(), (std::vector<uint32_t>{0}));
  collector.Clear();
  EXPECT_FALSE(collector.HasStats(0));
}

TEST(StatsSelectivityEstimatorTest, BridgesBoundPredicates) {
  auto schema = Schema::Make({{"a", DataType::kInt64},
                              {"b", DataType::kInt64}});
  StatsCollector collector(schema);
  ColumnVector skewed(DataType::kInt64);
  for (int i = 0; i < 1000; ++i) skewed.AppendInt64(i < 990 ? 1 : 2);
  collector.ObserveBlock(0, 0, skewed);

  StatsSelectivityEstimator estimator;
  estimator.Register("t", &collector, schema);

  auto col_a = std::make_shared<ColumnRefExpr>(0, "a", DataType::kInt64);
  auto lit2 = std::make_shared<LiteralExpr>(Value::Int64(2),
                                            DataType::kInt64);
  CompareExpr rare(CompareOp::kEq, col_a, lit2);
  auto sel = estimator.EstimateSelectivity("t", rare);
  ASSERT_TRUE(sel.has_value());
  EXPECT_LT(*sel, 0.1);

  // Literal-on-the-left mirrors the operator.
  CompareExpr mirrored(CompareOp::kGt, lit2, col_a);  // 2 > a  ==  a < 2
  auto msel = estimator.EstimateSelectivity("t", mirrored);
  ASSERT_TRUE(msel.has_value());
  EXPECT_GT(*msel, 0.8);

  // Unknown table / unknown column -> no estimate.
  EXPECT_FALSE(estimator.EstimateSelectivity("nope", rare).has_value());
  auto col_b = std::make_shared<ColumnRefExpr>(1, "b", DataType::kInt64);
  CompareExpr unstat(CompareOp::kEq, col_b, lit2);
  EXPECT_FALSE(estimator.EstimateSelectivity("t", unstat).has_value());

  // AND combines multiplicatively.
  auto both = LogicalExpr(
      LogicalOp::kAnd,
      std::make_shared<CompareExpr>(CompareOp::kEq, col_a, lit2),
      std::make_shared<CompareExpr>(CompareOp::kEq, col_a, lit2));
  auto combined = estimator.EstimateSelectivity("t", both);
  ASSERT_TRUE(combined.has_value());
  EXPECT_NEAR(*combined, *sel * *sel, 1e-9);
}

// --------------------------------------------------- degenerate stats

TEST(AttributeStatsTest, AllNullColumnIsDegenerateButSafe) {
  AttributeStats stats(DataType::kInt64);
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 100; ++i) col.AppendNull();
  stats.Observe(col);
  EXPECT_EQ(stats.row_count(), 100u);
  EXPECT_EQ(stats.ExportImage().sampled_stream, 0u);
  // No sample -> no estimate; never NaN or a division by zero.
  for (CompareOp op : {CompareOp::kLt, CompareOp::kEq}) {
    EXPECT_FALSE(
        stats.EstimateCompareSelectivity(op, Value::Int64(5)).has_value());
  }
}

TEST(AttributeStatsTest, ZeroWidthRangeStaysFinite) {
  AttributeStats stats(DataType::kInt64);
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 1000; ++i) col.AppendInt64(7);
  stats.Observe(col);
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    for (int64_t lit : {6, 7, 8}) {
      auto sel = stats.EstimateCompareSelectivity(op, Value::Int64(lit));
      ASSERT_TRUE(sel.has_value());
      EXPECT_TRUE(std::isfinite(*sel));
      EXPECT_GE(*sel, 0.0);
      EXPECT_LE(*sel, 1.0);
    }
  }
}

TEST(AttributeStatsTest, NanValuesNeverPoisonEstimates) {
  AttributeStats stats(DataType::kDouble);
  ColumnVector col(DataType::kDouble);
  for (int i = 0; i < 200; ++i) {
    if (i % 5 == 0) {
      col.AppendDouble(std::nan(""));
    } else {
      col.AppendDouble(static_cast<double>(i));
    }
  }
  stats.Observe(col);
  for (CompareOp op : {CompareOp::kEq, CompareOp::kLt, CompareOp::kGe}) {
    auto sel = stats.EstimateCompareSelectivity(op, Value::Double(50.0));
    if (sel.has_value()) {
      EXPECT_TRUE(std::isfinite(*sel));
      EXPECT_GE(*sel, 0.0);
      EXPECT_LE(*sel, 1.0);
    }
  }
}

TEST(StatsSelectivityEstimatorTest, DegenerateStatsNeverYieldNanOrInf) {
  auto schema = Schema::Make({{"allnull", DataType::kInt64},
                              {"constant", DataType::kInt64}});
  StatsCollector collector(schema);
  ColumnVector nulls(DataType::kInt64);
  ColumnVector constant(DataType::kInt64);
  for (int i = 0; i < 500; ++i) {
    nulls.AppendNull();
    constant.AppendInt64(42);
  }
  collector.ObserveBlock(0, 0, nulls);
  collector.ObserveBlock(1, 0, constant);

  StatsSelectivityEstimator estimator;
  estimator.Register("t", &collector, schema);

  auto col_null =
      std::make_shared<ColumnRefExpr>(0, "allnull", DataType::kInt64);
  auto col_const =
      std::make_shared<ColumnRefExpr>(1, "constant", DataType::kInt64);
  auto lit = std::make_shared<LiteralExpr>(Value::Int64(42),
                                           DataType::kInt64);
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kGe}) {
    for (const auto& col : {col_null, col_const}) {
      CompareExpr pred(op, col, lit);
      auto sel = estimator.EstimateSelectivity("t", pred);
      if (sel.has_value()) {
        EXPECT_TRUE(std::isfinite(*sel)) << pred.ToString();
        EXPECT_GE(*sel, 0.0);
        EXPECT_LE(*sel, 1.0);
      }
    }
  }
  // AND/OR over a degenerate and an estimable side stay clamped.
  LogicalExpr both(
      LogicalOp::kAnd,
      std::make_shared<CompareExpr>(CompareOp::kEq, col_const, lit),
      std::make_shared<CompareExpr>(CompareOp::kLt, col_null, lit));
  auto combined = estimator.EstimateSelectivity("t", both);
  if (combined.has_value()) {
    EXPECT_TRUE(std::isfinite(*combined));
    EXPECT_GE(*combined, 0.0);
    EXPECT_LE(*combined, 1.0);
  }
}

TEST(StatsSelectivityEstimatorTest, QualifiedNamesResolveToColumns) {
  // Join-side conjuncts reference "alias.column" display names; the
  // estimator strips the qualifier to reach the table schema.
  auto schema = Schema::Make({{"a", DataType::kInt64}});
  StatsCollector collector(schema);
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 1000; ++i) col.AppendInt64(i % 10);
  collector.ObserveBlock(0, 0, col);
  StatsSelectivityEstimator estimator;
  estimator.Register("t", &collector, schema);
  auto qualified =
      std::make_shared<ColumnRefExpr>(0, "x.a", DataType::kInt64);
  auto lit =
      std::make_shared<LiteralExpr>(Value::Int64(5), DataType::kInt64);
  CompareExpr pred(CompareOp::kLt, qualified, lit);
  auto sel = estimator.EstimateSelectivity("t", pred);
  ASSERT_TRUE(sel.has_value());
  EXPECT_NEAR(*sel, 0.5, 0.1);
}

// ------------------------------------------------------------ zone maps

TEST(ZoneMapsTest, ObserveComputesBoundsPerPayload) {
  ZoneMaps zones;
  ColumnVector ints(DataType::kInt64);
  for (int64_t v : {5, -3, 10, 0}) ints.AppendInt64(v);
  zones.Observe(0, 0, ints, zones.generation());
  auto entry = zones.Get(0, 0);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->is_int);
  EXPECT_EQ(entry->min_i, -3);
  EXPECT_EQ(entry->max_i, 10);
  EXPECT_DOUBLE_EQ(entry->min_d, -3.0);
  EXPECT_DOUBLE_EQ(entry->max_d, 10.0);
  EXPECT_EQ(entry->rows, 4u);
  EXPECT_FALSE(entry->has_null);
  EXPECT_TRUE(entry->non_null);
  EXPECT_FALSE(entry->unsafe);

  ColumnVector doubles(DataType::kDouble);
  doubles.AppendDouble(1.5);
  doubles.AppendNull();
  doubles.AppendDouble(-2.5);
  zones.Observe(1, 3, doubles, zones.generation());
  auto d = zones.Get(1, 3);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->is_int);
  EXPECT_DOUBLE_EQ(d->min_d, -2.5);
  EXPECT_DOUBLE_EQ(d->max_d, 1.5);
  EXPECT_TRUE(d->has_null);

  // Strings are never summarized; NaN marks the entry unusable;
  // all-NULL blocks report no usable bounds.
  ColumnVector strings(DataType::kString);
  strings.AppendString("abc");
  zones.Observe(2, 0, strings, zones.generation());
  EXPECT_FALSE(zones.Contains(2, 0));
  ColumnVector nan_col(DataType::kDouble);
  nan_col.AppendDouble(std::nan(""));
  nan_col.AppendDouble(1.0);
  zones.Observe(3, 0, nan_col, zones.generation());
  ASSERT_TRUE(zones.Get(3, 0).has_value());
  EXPECT_TRUE(zones.Get(3, 0)->unsafe);
  ColumnVector all_null(DataType::kInt64);
  all_null.AppendNull();
  zones.Observe(4, 0, all_null, zones.generation());
  ASSERT_TRUE(zones.Get(4, 0).has_value());
  EXPECT_FALSE(zones.Get(4, 0)->non_null);
  EXPECT_TRUE(zones.Get(4, 0)->has_null);
}

TEST(ZoneMapsTest, GenerationTaggingAndInvalidation) {
  ZoneMaps zones;
  ColumnVector col(DataType::kInt64);
  col.AppendInt64(1);
  uint64_t old_generation = zones.generation();
  for (uint64_t block = 0; block < 4; ++block) {
    zones.Observe(0, block, col, old_generation);
  }
  EXPECT_EQ(zones.num_entries(), 4u);

  // Append truncation: blocks >= 2 vanish, earlier ones stay.
  zones.DropBlocksFrom(2);
  EXPECT_EQ(zones.num_entries(), 2u);
  EXPECT_TRUE(zones.Contains(0, 1));
  EXPECT_FALSE(zones.Contains(0, 2));

  // Rewrite: everything drops, and an in-flight observation against
  // the old generation is rejected — a stale map can never skip live
  // rows.
  zones.Clear();
  EXPECT_EQ(zones.num_entries(), 0u);
  EXPECT_GT(zones.generation(), old_generation);
  zones.Observe(0, 0, col, old_generation);
  EXPECT_EQ(zones.num_entries(), 0u);
  zones.Observe(0, 0, col, zones.generation());
  EXPECT_EQ(zones.num_entries(), 1u);
}

}  // namespace
}  // namespace nodb
