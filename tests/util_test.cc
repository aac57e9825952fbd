// Unit tests for the foundation utilities: Status/Result, Slice,
// Random/Zipf, string helpers and hashing.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/hash.h"
#include "util/random.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/string_util.h"

namespace nodb {
namespace {

// ------------------------------------------------------------------ Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsSetCodeAndMessage) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_EQ(Status::IOError("disk on fire").ToString(),
            "IOError: disk on fire");
}

Status FailsWhenNegative(int v) {
  if (v < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status PropagatesViaMacro(int v) {
  NODB_RETURN_NOT_OK(FailsWhenNegative(v));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(PropagatesViaMacro(1).ok());
  EXPECT_TRUE(PropagatesViaMacro(-1).IsInvalidArgument());
}

// ------------------------------------------------------------------ Result

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v * 2;
}

Result<int> ChainedViaMacro(int v) {
  NODB_ASSIGN_OR_RETURN(int doubled, ParsePositive(v));
  return doubled + 1;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_EQ(bad.ValueOr(7), 7);
  EXPECT_EQ(ok.ValueOr(7), 42);
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*ChainedViaMacro(1), 3);
  EXPECT_FALSE(ChainedViaMacro(0).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> owned = std::move(r).value();
  EXPECT_EQ(*owned, 5);
}

// ------------------------------------------------------------------- Slice

TEST(SliceTest, BasicViews) {
  std::string s = "hello,world";
  Slice slice(s);
  EXPECT_EQ(slice.size(), 11u);
  EXPECT_EQ(slice[5], ',');
  EXPECT_EQ(slice.SubSlice(6, 5).ToString(), "world");
  EXPECT_EQ(slice.SubSlice(6, 100).ToString(), "world");
  EXPECT_TRUE(slice.SubSlice(20, 5).empty());
  slice.RemovePrefix(6);
  EXPECT_EQ(slice.ToString(), "world");
}

TEST(SliceTest, Equality) {
  EXPECT_EQ(Slice("abc"), Slice(std::string("abc")));
  EXPECT_NE(Slice("abc"), Slice("abd"));
  EXPECT_NE(Slice("abc"), Slice("ab"));
  EXPECT_EQ(Slice(), Slice(""));
}

// ------------------------------------------------------------------ Random

TEST(RandomTest, DeterministicBySeed) {
  Random a(7);
  Random b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
  Random c(8);
  bool differs = false;
  Random a2(7);
  for (int i = 0; i < 10; ++i) {
    if (a2.NextUint64() != c.NextUint64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, NextStringHasRequestedLengthAndAlphabet) {
  Random rng(1);
  std::string s = rng.NextString(32);
  EXPECT_EQ(s.size(), 32u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(RandomTest, BernoulliApproximatesProbability) {
  Random rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

/// Property sweep: Zipf output respects the domain and skews toward
/// small ranks as theta grows.
class ZipfSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSweep, SkewGrowsWithTheta) {
  double theta = GetParam();
  ZipfGenerator zipf(1000, theta, 99);
  uint64_t head = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t v = zipf.Next();
    EXPECT_LT(v, 1000u);
    if (v < 10) ++head;
  }
  double head_fraction = static_cast<double>(head) / kDraws;
  if (theta == 0.0) {
    EXPECT_NEAR(head_fraction, 0.01, 0.01);  // uniform
  } else if (theta >= 1.0) {
    EXPECT_GT(head_fraction, 0.3);  // strongly skewed
  } else {
    EXPECT_GT(head_fraction, 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfSweep,
                         ::testing::Values(0.0, 0.5, 0.8, 1.0, 1.2));

// ----------------------------------------------------------------- strings

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
  EXPECT_EQ(SplitString("", ',').size(), 1u);
}

TEST(StringUtilTest, JoinIsInverseOfSplit) {
  std::vector<std::string> parts = {"x", "", "yz"};
  EXPECT_EQ(JoinStrings(parts, ","), "x,,yz");
  EXPECT_EQ(SplitString(JoinStrings(parts, ","), ','), parts);
}

TEST(StringUtilTest, TrimAndCase) {
  EXPECT_EQ(TrimView("  hi \t\n"), "hi");
  EXPECT_EQ(TrimView("   "), "");
  EXPECT_EQ(ToLowerAscii("SeLeCt"), "select");
  EXPECT_TRUE(EqualsIgnoreCase("WHERE", "where"));
  EXPECT_FALSE(EqualsIgnoreCase("WHERE", "wher"));
  EXPECT_TRUE(StartsWith("SELECT *", "SELECT"));
  EXPECT_FALSE(StartsWith("SEL", "SELECT"));
}

TEST(StringUtilTest, HumanReadableFormats) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KiB");
  EXPECT_EQ(FormatBytes(3u << 20), "3.0 MiB");
  EXPECT_EQ(FormatNanos(500), "500 ns");
  EXPECT_EQ(FormatNanos(1500), "1.5 us");
  EXPECT_EQ(FormatNanos(2500000), "2.5 ms");
  EXPECT_EQ(FormatNanos(1200000000), "1.20 s");
}

// -------------------------------------------------------------------- hash

TEST(HashTest, Fnv1aMatchesKnownVector) {
  // FNV-1a("a") with standard offset basis.
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(Fnv1a64("abc", 3), Fnv1a64("abd", 3));
}

TEST(HashTest, MixAndCombineSpreadBits) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) seen.insert(MixHash64(i));
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_NE(CombineHash64(1, 2), CombineHash64(2, 1));
}

}  // namespace
}  // namespace nodb
