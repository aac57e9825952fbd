// Unit and property tests for the CSV machinery: tokenizer (including
// the incremental ScanStarts contract the positional map relies on),
// field decoding, value parsing and the writer.

#include <gtest/gtest.h>

#include <charconv>
#include <clocale>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "csv/csv_writer.h"
#include "csv/dialect.h"
#include "csv/tokenizer.h"
#include "csv/value_parser.h"
#include "io/file.h"
#include "io/temp_dir.h"
#include "util/random.h"
#include "util/string_util.h"

namespace nodb {
namespace {

/// Reference splitter: straightforward, obviously-correct field
/// extraction honoring quoting. Property tests compare the production
/// tokenizer against this.
std::vector<std::string> ReferenceSplit(const std::string& line,
                                        const CsvDialect& d) {
  std::vector<std::string> fields;
  std::string cur;
  size_t i = 0;
  while (true) {
    if (d.allow_quoting && i < line.size() && line[i] == d.quote) {
      ++i;
      while (i < line.size()) {
        if (line[i] == d.quote) {
          if (i + 1 < line.size() && line[i + 1] == d.quote) {
            cur.push_back(d.quote);
            i += 2;
          } else {
            ++i;
            break;
          }
        } else {
          cur.push_back(line[i++]);
        }
      }
      // Trailing garbage after the closing quote is kept verbatim.
      while (i < line.size() && line[i] != d.delimiter) cur.push_back(line[i++]);
    } else {
      while (i < line.size() && line[i] != d.delimiter) cur.push_back(line[i++]);
    }
    fields.push_back(cur);
    cur.clear();
    if (i >= line.size()) break;
    ++i;  // skip delimiter
  }
  return fields;
}

/// Extracts field `f` using the production tokenizer's span convention.
std::string TokenizedField(const CsvTokenizer& tok, const std::string& line,
                           const std::vector<uint32_t>& starts, size_t f,
                           std::string* scratch) {
  Slice raw = CsvTokenizer::RawField(line, starts[f], starts[f + 1]);
  return tok.DecodeField(raw, scratch).ToString();
}

TEST(TokenizerTest, SimpleCommaLine) {
  CsvTokenizer tok{CsvDialect()};
  std::vector<uint32_t> starts;
  uint32_t n = tok.TokenizeLine("a,bb,ccc", &starts);
  ASSERT_EQ(n, 3u);
  ASSERT_EQ(starts.size(), 4u);
  EXPECT_EQ(starts[0], 0u);
  EXPECT_EQ(starts[1], 2u);
  EXPECT_EQ(starts[2], 5u);
  EXPECT_EQ(starts[3], 9u);  // virtual: line size + 1
  std::string scratch;
  EXPECT_EQ(TokenizedField(tok, "a,bb,ccc", starts, 0, &scratch), "a");
  EXPECT_EQ(TokenizedField(tok, "a,bb,ccc", starts, 1, &scratch), "bb");
  EXPECT_EQ(TokenizedField(tok, "a,bb,ccc", starts, 2, &scratch), "ccc");
}

TEST(TokenizerTest, EmptyFieldsPreserved) {
  CsvTokenizer tok{CsvDialect()};
  std::vector<uint32_t> starts;
  EXPECT_EQ(tok.TokenizeLine(",,", &starts), 3u);
  EXPECT_EQ(tok.TokenizeLine("", &starts), 1u);
  std::string scratch;
  tok.TokenizeLine("a,,b", &starts);
  EXPECT_EQ(TokenizedField(tok, "a,,b", starts, 1, &scratch), "");
}

TEST(TokenizerTest, SelectiveScanStopsAtRequestedField) {
  CsvTokenizer tok{CsvDialect()};
  std::string line = "0,1,2,3,4,5,6,7,8,9";
  std::vector<uint32_t> starts(12);
  // Ask for the start of field 4 only (enough to slice field 3).
  uint32_t high = tok.ScanStarts(line, 0, 0, 4, starts.data());
  EXPECT_EQ(high, 4u);
  EXPECT_EQ(starts[3], 6u);
  EXPECT_EQ(starts[4], 8u);
}

TEST(TokenizerTest, ScanResumesFromMidRowAnchor) {
  CsvTokenizer tok{CsvDialect()};
  std::string line = "aaa,bb,c,dddd,ee";
  // Caller knows field 2 starts at offset 7 (a positional-map anchor).
  std::vector<uint32_t> starts(8);
  uint32_t high = tok.ScanStarts(line, 2, 7, 4, starts.data());
  EXPECT_EQ(high, 4u);
  EXPECT_EQ(starts[2], 7u);
  EXPECT_EQ(starts[3], 9u);
  EXPECT_EQ(starts[4], 14u);
  std::string scratch;
  EXPECT_EQ(TokenizedField(tok, line, starts, 3, &scratch), "dddd");
}

TEST(TokenizerTest, ExhaustedLineReportsFieldCount) {
  CsvTokenizer tok{CsvDialect()};
  std::string line = "x,y";
  std::vector<uint32_t> starts(10);
  uint32_t high = tok.ScanStarts(line, 0, 0, 7, starts.data());
  EXPECT_EQ(high, 2u);  // only two fields exist
  EXPECT_EQ(starts[2], line.size() + 1);
}

TEST(TokenizerTest, QuotedFieldWithEmbeddedDelimiter) {
  CsvTokenizer tok{CsvDialect::QuotedCsv()};
  std::string line = "a,\"x,y\",b";
  std::vector<uint32_t> starts;
  ASSERT_EQ(tok.TokenizeLine(line, &starts), 3u);
  std::string scratch;
  EXPECT_EQ(TokenizedField(tok, line, starts, 1, &scratch), "x,y");
  EXPECT_EQ(TokenizedField(tok, line, starts, 2, &scratch), "b");
}

TEST(TokenizerTest, QuotedFieldWithEscapedQuotes) {
  CsvTokenizer tok{CsvDialect::QuotedCsv()};
  std::string line = "\"he said \"\"hi\"\"\",2";
  std::vector<uint32_t> starts;
  ASSERT_EQ(tok.TokenizeLine(line, &starts), 2u);
  std::string scratch;
  EXPECT_EQ(TokenizedField(tok, line, starts, 0, &scratch),
            "he said \"hi\"");
}

TEST(TokenizerTest, TrailingCarriageReturnIsNotData) {
  // Regression: CRLF files used to leak '\r' into the last field of
  // every record, corrupting strings and failing numeric parses.
  CsvTokenizer tok{CsvDialect()};
  std::vector<uint32_t> starts;
  std::string line = "12,34\r";
  ASSERT_EQ(tok.TokenizeLine(line, &starts), 2u);
  std::string scratch;
  EXPECT_EQ(TokenizedField(tok, line, starts, 0, &scratch), "12");
  EXPECT_EQ(TokenizedField(tok, line, starts, 1, &scratch), "34");
  EXPECT_TRUE(ValueParser::ParseInt64(
                  CsvTokenizer::RawField(line, starts[1], starts[2]))
                  .ok());
}

TEST(TokenizerTest, CarriageReturnOnlyRecordIsOneEmptyField) {
  CsvTokenizer tok{CsvDialect()};
  std::vector<uint32_t> starts;
  ASSERT_EQ(tok.TokenizeLine("\r", &starts), 1u);
  std::string scratch;
  EXPECT_EQ(TokenizedField(tok, "\r", starts, 0, &scratch), "");
}

TEST(TokenizerTest, OnlyOneCarriageReturnIsTerminator) {
  // "a\r\r\n" on disk is the record "a\r\r": exactly one '\r' belongs
  // to the line ending; the one before it is field data. Guards
  // against double-trimming across layers.
  CsvTokenizer tok{CsvDialect()};
  std::vector<uint32_t> starts;
  std::string line = "a\r\r";
  ASSERT_EQ(tok.TokenizeLine(line, &starts), 1u);
  std::string scratch;
  EXPECT_EQ(TokenizedField(tok, line, starts, 0, &scratch), "a\r");
}

TEST(TokenizerTest, CrlfWithSelectiveScan) {
  CsvTokenizer tok{CsvDialect()};
  std::string line = "a,b,c\r";
  std::vector<uint32_t> starts(8);
  // Incremental request for the final field still excludes the '\r'.
  uint32_t high = tok.ScanStarts(line, 0, 0, 3, starts.data());
  EXPECT_EQ(high, 3u);
  EXPECT_EQ(starts[2], 4u);
  EXPECT_EQ(starts[3], 6u);  // virtual: CR-trimmed size + 1
  std::string scratch;
  EXPECT_EQ(TokenizedField(tok, line, starts, 2, &scratch), "c");
  // Interior carriage returns are data, not line endings.
  std::vector<uint32_t> all;
  ASSERT_EQ(tok.TokenizeLine("x\ry,z", &all), 2u);
  EXPECT_EQ(TokenizedField(tok, "x\ry,z", all, 0, &scratch), "x\ry");
}

TEST(TokenizerTest, CrlfQuotedDialect) {
  CsvTokenizer tok{CsvDialect::QuotedCsv()};
  std::vector<uint32_t> starts;
  std::string line = "1,\"a,b\"\r";
  ASSERT_EQ(tok.TokenizeLine(line, &starts), 2u);
  std::string scratch;
  EXPECT_EQ(TokenizedField(tok, line, starts, 1, &scratch), "a,b");
}

TEST(TokenizerTest, QuotingDisabledTreatsQuoteAsData) {
  CsvTokenizer tok{CsvDialect()};  // allow_quoting = false
  std::string line = "\"a,b\"";
  std::vector<uint32_t> starts;
  ASSERT_EQ(tok.TokenizeLine(line, &starts), 2u);
  std::string scratch;
  EXPECT_EQ(TokenizedField(tok, line, starts, 0, &scratch), "\"a");
}

/// Property sweep: tokenizer vs. the reference splitter over random
/// lines in several dialects.
struct DialectCase {
  char delimiter;
  bool quoting;
};

class TokenizerProperty : public ::testing::TestWithParam<DialectCase> {};

TEST_P(TokenizerProperty, MatchesReferenceOnRandomLines) {
  DialectCase param = GetParam();
  CsvDialect dialect;
  dialect.delimiter = param.delimiter;
  dialect.allow_quoting = param.quoting;
  CsvTokenizer tok(dialect);
  Random rng(static_cast<uint64_t>(param.delimiter) * 31 + param.quoting);

  for (int iter = 0; iter < 300; ++iter) {
    // Build a line from random fields; write them with proper quoting.
    size_t nfields = 1 + rng.Uniform(8);
    std::vector<std::string> fields;
    std::string line;
    for (size_t f = 0; f < nfields; ++f) {
      std::string field;
      size_t len = rng.Uniform(12);
      for (size_t i = 0; i < len; ++i) {
        // Bias towards tricky characters.
        switch (rng.Uniform(6)) {
          case 0:
            field.push_back(param.quoting ? param.delimiter : 'd');
            break;
          case 1:
            field.push_back(param.quoting ? '"' : 'q');
            break;
          default:
            field.push_back(static_cast<char>('a' + rng.Uniform(26)));
        }
      }
      fields.push_back(field);
      if (f > 0) line.push_back(param.delimiter);
      bool needs_quote =
          param.quoting &&
          (field.find(param.delimiter) != std::string::npos ||
           field.find('"') != std::string::npos);
      if (needs_quote) {
        line.push_back('"');
        for (char c : field) {
          line.push_back(c);
          if (c == '"') line.push_back('"');
        }
        line.push_back('"');
      } else {
        line += field;
      }
    }

    auto expected = ReferenceSplit(line, dialect);
    std::vector<uint32_t> starts;
    uint32_t n = tok.TokenizeLine(line, &starts);
    ASSERT_EQ(n, expected.size()) << "line: " << line;
    std::string scratch;
    for (size_t f = 0; f < n; ++f) {
      EXPECT_EQ(TokenizedField(tok, line, starts, f, &scratch),
                expected[f])
          << "line: " << line << " field " << f;
    }
    // Incremental scans agree with the full tokenize at every anchor.
    for (size_t f = 0; f + 1 < n; ++f) {
      std::vector<uint32_t> partial(starts.size() + 2);
      uint32_t high = tok.ScanStarts(line, static_cast<uint32_t>(f),
                                     starts[f],
                                     static_cast<uint32_t>(n),
                                     partial.data());
      ASSERT_EQ(high, n);
      for (size_t g = f; g <= n; ++g) {
        EXPECT_EQ(partial[g], starts[g]) << "anchor " << f << " field " << g;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dialects, TokenizerProperty,
    ::testing::Values(DialectCase{',', false}, DialectCase{'|', false},
                      DialectCase{'\t', false}, DialectCase{',', true},
                      DialectCase{';', true}));

// ------------------------------------------------------------- ValueParser

TEST(ValueParserTest, Integers) {
  EXPECT_EQ(*ValueParser::ParseInt64("42"), 42);
  EXPECT_EQ(*ValueParser::ParseInt64("-7"), -7);
  EXPECT_EQ(*ValueParser::ParseInt64("0001"), 1);
  EXPECT_FALSE(ValueParser::ParseInt64("").ok());
  EXPECT_FALSE(ValueParser::ParseInt64("4x").ok());
  EXPECT_FALSE(ValueParser::ParseInt64("4.5").ok());
  EXPECT_FALSE(ValueParser::ParseInt64(" 4").ok());
  EXPECT_FALSE(
      ValueParser::ParseInt64("99999999999999999999").ok());  // overflow
}

TEST(ValueParserTest, Doubles) {
  EXPECT_DOUBLE_EQ(*ValueParser::ParseDouble("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*ValueParser::ParseDouble("-2e3"), -2000.0);
  EXPECT_DOUBLE_EQ(*ValueParser::ParseDouble("7"), 7.0);
  EXPECT_FALSE(ValueParser::ParseDouble("abc").ok());
  EXPECT_FALSE(ValueParser::ParseDouble("1.5x").ok());
}

TEST(ValueParserTest, LeadingPlusSignAccepted) {
  // Regression: std::from_chars rejects an explicit '+', so "+3.5" in
  // a numeric column used to hard-fail the load.
  EXPECT_EQ(*ValueParser::ParseInt64("+42"), 42);
  EXPECT_EQ(*ValueParser::ParseInt64("+0"), 0);
  EXPECT_DOUBLE_EQ(*ValueParser::ParseDouble("+3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ValueParser::ParseDouble("+.5"), 0.5);
  EXPECT_DOUBLE_EQ(*ValueParser::ParseDouble("+2e3"), 2000.0);
  // The plus must introduce a number, not another sign or nothing.
  EXPECT_FALSE(ValueParser::ParseInt64("+").ok());
  EXPECT_FALSE(ValueParser::ParseInt64("+-3").ok());
  EXPECT_FALSE(ValueParser::ParseInt64("++1").ok());
  EXPECT_FALSE(ValueParser::ParseInt64(" +4").ok());
  EXPECT_FALSE(ValueParser::ParseDouble("+").ok());
  EXPECT_FALSE(ValueParser::ParseDouble("+-3.5").ok());
  EXPECT_FALSE(ValueParser::ParseDouble("+x").ok());
}

// The branchless fast paths (SWAR integers, Clinger decimals) must be
// indistinguishable from the pre-fast-path parser — the differential
// reference below is exactly what it did: strip the documented leading
// '+' extension, then hand everything to std::from_chars.

Slice ReferenceStripPlus(Slice text) {
  if (text.size() >= 2 && text[0] == '+' && text[1] != '+' &&
      text[1] != '-') {
    text.RemovePrefix(1);
  }
  return text;
}

Result<int64_t> FromCharsInt64(Slice raw) {
  const Slice text = ReferenceStripPlus(raw);
  int64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::ParseError("reference reject");
  }
  return value;
}

Result<double> FromCharsDouble(Slice raw) {
  const Slice text = ReferenceStripPlus(raw);
  double value = 0;
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::ParseError("reference reject");
  }
  return value;
}

void ExpectInt64MatchesReference(const std::string& text) {
  auto got = ValueParser::ParseInt64(text);
  auto want = FromCharsInt64(text);
  ASSERT_EQ(got.ok(), want.ok()) << "'" << text << "'";
  if (got.ok()) {
    EXPECT_EQ(*got, *want) << "'" << text << "'";
  }
}

void ExpectDoubleMatchesReference(const std::string& text) {
  auto got = ValueParser::ParseDouble(text);
  auto want = FromCharsDouble(text);
  ASSERT_EQ(got.ok(), want.ok()) << "'" << text << "'";
  if (got.ok()) {
    // Bit-identical, not just close: memcmp through uint64 views so
    // -0.0 vs 0.0 and NaN payloads count as differences.
    uint64_t got_bits = 0;
    uint64_t want_bits = 0;
    std::memcpy(&got_bits, &*got, sizeof(got_bits));
    std::memcpy(&want_bits, &*want, sizeof(want_bits));
    EXPECT_EQ(got_bits, want_bits) << "'" << text << "'";
  }
}

TEST(ValueParserTest, FastPathsMatchFromCharsOnEdgeCorpus) {
  const char* corpus[] = {
      "0", "-0", "7", "-7", "00000001", "12345678", "123456789",
      "999999999999999999",    // 18 digits, fast-path ceiling
      "1234567890123456789",   // 19 digits, slow path, fits
      "9223372036854775807",   // INT64_MAX
      "-9223372036854775808",  // INT64_MIN
      "9223372036854775808",   // overflow by one
      "18446744073709551616", "1234567x", "12345678x", "x2345678", "--1",
      "1-", "", "-", ".", "-.", "3.", ".5", "-.5", "3.14", "-0.0", "0.3",
      "1.050", "0.1", "2.675",
      "9007199254740992",      // 2^53, largest exact mantissa
      "9007199254740993",      // 2^53+1, must take the slow path
      "9007199254740992.0", "9007199254740993.5",
      "0.0000000000000000000001",  // 22 fraction digits
      "1e3", "-2e3", "2E-5", "1.5e300", "1.5e-300", "1e999", "-1e999",
      "inf", "INF", "infinity", "-inf", "nan", "NaN", "-nan", "nan(2)",
      "0x10", "1.2.3", "1..2", "1,5", " 1", "1 ",
  };
  for (const char* text : corpus) {
    ExpectInt64MatchesReference(text);
    ExpectDoubleMatchesReference(text);
  }
}

TEST(ValueParserTest, FastPathsMatchFromCharsOnRandomInputs) {
  Random rng(271828);
  const char alphabet[] = "0123456789.-+eE";
  for (int round = 0; round < 5000; ++round) {
    std::string text;
    const size_t len = rng.Uniform(26);
    for (size_t i = 0; i < len; ++i) {
      text.push_back(alphabet[rng.Uniform(sizeof(alphabet) - 1)]);
    }
    ExpectInt64MatchesReference(text);
    ExpectDoubleMatchesReference(text);
  }
}

TEST(ValueParserTest, RandomValuesRoundTripExactly) {
  Random rng(161803);
  for (int round = 0; round < 2000; ++round) {
    const int64_t value = static_cast<int64_t>(rng.NextUint64());
    EXPECT_EQ(*ValueParser::ParseInt64(std::to_string(value)), value);
  }
  for (int round = 0; round < 2000; ++round) {
    // Decimal strings of the shape the fast path targets.
    const int64_t whole = rng.UniformRange(-999999, 999999);
    const uint64_t frac = rng.Uniform(10000);
    const double value = static_cast<double>(whole) +
                         (whole < 0 ? -1.0 : 1.0) *
                             static_cast<double>(frac) / 10000.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    EXPECT_DOUBLE_EQ(*ValueParser::ParseDouble(buf), value) << buf;
    ExpectDoubleMatchesReference(buf);
  }
}

TEST(ValueParserTest, ExponentInfNanSpellingsRoundTrip) {
  // Exponent forms always take the from_chars path; these pin the
  // values (and the rejections) the fast path must never intercept.
  EXPECT_DOUBLE_EQ(*ValueParser::ParseDouble("1.5e2"), 150.0);
  EXPECT_DOUBLE_EQ(*ValueParser::ParseDouble("-1.5E-2"), -0.015);
  EXPECT_DOUBLE_EQ(*ValueParser::ParseDouble("+1e0"), 1.0);
  EXPECT_TRUE(std::isinf(*ValueParser::ParseDouble("inf")));
  EXPECT_TRUE(std::isinf(*ValueParser::ParseDouble("-INF")));
  EXPECT_TRUE(std::isinf(*ValueParser::ParseDouble("infinity")));
  EXPECT_TRUE(std::isnan(*ValueParser::ParseDouble("nan")));
  EXPECT_TRUE(std::isnan(*ValueParser::ParseDouble("-NaN")));
  EXPECT_FALSE(ValueParser::ParseDouble("in").ok());
  EXPECT_FALSE(ValueParser::ParseDouble("nane").ok());
  EXPECT_FALSE(ValueParser::ParseDouble("1e").ok());
  // A finite spelling whose value overflows is a rejection (ERANGE from
  // from_chars), never a silent infinity.
  EXPECT_FALSE(ValueParser::ParseDouble("1e999").ok());
  EXPECT_FALSE(ValueParser::ParseDouble("-1e999").ok());
}

TEST(ValueParserTest, LocaleIndependentDecimalPoint) {
  // A comma-decimal locale must not change what parses: both the
  // branchless path and std::from_chars are locale-independent by
  // construction (the very reason from_chars backs this parser).
  const char* previous = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = previous != nullptr ? previous : "C";
  const bool have_locale =
      std::setlocale(LC_NUMERIC, "de_DE.UTF-8") != nullptr ||
      std::setlocale(LC_NUMERIC, "de_DE") != nullptr;
  EXPECT_DOUBLE_EQ(*ValueParser::ParseDouble("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*ValueParser::ParseDouble("1234.875"), 1234.875);
  EXPECT_DOUBLE_EQ(*ValueParser::ParseDouble("-2.5e3"), -2500.0);
  EXPECT_FALSE(ValueParser::ParseDouble("1,5").ok());
  std::setlocale(LC_NUMERIC, saved.c_str());
  if (!have_locale) {
    GTEST_LOG_(INFO) << "no de_DE locale installed; ran under "
                     << saved;
  }
}

TEST(ValueParserTest, ParseIntoHandlesNullsAndTypes) {
  ColumnVector ints(DataType::kInt64);
  ASSERT_TRUE(ValueParser::ParseInto("5", DataType::kInt64, &ints).ok());
  ASSERT_TRUE(ValueParser::ParseInto("", DataType::kInt64, &ints).ok());
  EXPECT_EQ(ints.GetInt64(0), 5);
  EXPECT_TRUE(ints.IsNull(1));

  ColumnVector dates(DataType::kDate);
  ASSERT_TRUE(
      ValueParser::ParseInto("1994-02-01", DataType::kDate, &dates).ok());
  EXPECT_EQ(dates.GetValue(0).ToString(), "1994-02-01");
  EXPECT_FALSE(
      ValueParser::ParseInto("not-a-date", DataType::kDate, &dates).ok());

  ColumnVector strs(DataType::kString);
  ASSERT_TRUE(ValueParser::ParseInto("text", DataType::kString, &strs).ok());
  EXPECT_EQ(strs.GetString(0), "text");
}

TEST(ValueParserTest, ParseColumnMatchesParseInto) {
  // The column loop is ParseInto hoisted out of the row loop: same
  // values, NULLs and error text, plus the index of the first bad field.
  struct Case {
    DataType type;
    std::vector<std::string> texts;
  };
  const Case cases[] = {
      {DataType::kInt64, {"5", "", "-12", "+7", "9223372036854775807"}},
      {DataType::kInt64, {"5", "", "123456789012345678901", "y"}},
      {DataType::kInt64, {"1", "2", "x3", "y"}},
      {DataType::kDouble, {"1.5", "", "-2e3", "+.5", "7"}},
      {DataType::kDouble, {"1.5", "", "1.5x", "z"}},
      {DataType::kDate, {"1994-02-01", "", "2000-02-29"}},
      {DataType::kDate, {"1994-02-01", "", "1994-13-01"}},
      {DataType::kString, {"a", "", "b,c"}},
  };
  for (const Case& c : cases) {
    ColumnVector expected(c.type);
    Status expected_status;
    size_t expected_failed = c.texts.size();
    for (size_t i = 0; i < c.texts.size(); ++i) {
      expected_status = ValueParser::ParseInto(c.texts[i], c.type, &expected);
      if (!expected_status.ok()) {
        expected_failed = i;
        break;
      }
    }
    ColumnVector got(c.type);
    size_t failed = c.texts.size();
    Status status = ValueParser::ParseColumn(
        c.texts.size(), c.type,
        [&](size_t i) { return Slice(c.texts[i]); }, &got, &failed);
    EXPECT_EQ(status.ok(), expected_status.ok());
    EXPECT_EQ(status.message(), expected_status.message());
    if (!status.ok()) {
      EXPECT_EQ(failed, expected_failed);
      continue;
    }
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got.GetValue(i), expected.GetValue(i)) << i;
    }
    // ParseColumn appends: two calls over the halves build the same
    // column as one call over all of it.
    ColumnVector halves(c.type);
    const size_t mid = c.texts.size() / 2;
    ASSERT_TRUE(ValueParser::ParseColumn(
                    mid, c.type, [&](size_t i) { return Slice(c.texts[i]); },
                    &halves, &failed)
                    .ok());
    ASSERT_TRUE(ValueParser::ParseColumn(
                    c.texts.size() - mid, c.type,
                    [&](size_t i) { return Slice(c.texts[mid + i]); },
                    &halves, &failed)
                    .ok());
    ASSERT_EQ(halves.size(), expected.size());
    for (size_t i = 0; i < halves.size(); ++i) {
      EXPECT_EQ(halves.GetValue(i), expected.GetValue(i)) << i;
    }
  }
}

// --------------------------------------------------------------- CsvWriter

TEST(CsvWriterTest, WriteThenTokenizeRoundTrips) {
  auto dir = TempDir::Create("nodb-csv");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->FilePath("out.csv");
  CsvDialect dialect = CsvDialect::QuotedCsv();
  {
    auto file = OpenWritableFile(path);
    ASSERT_TRUE(file.ok());
    CsvWriter writer(std::move(*file), dialect);
    ASSERT_TRUE(writer.WriteRecord({"plain", "with,comma", "with\"quote"})
                    .ok());
    ASSERT_TRUE(writer.WriteRecord({"", "last"}).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  auto lines = SplitString(*content, '\n');
  ASSERT_GE(lines.size(), 2u);
  CsvTokenizer tok(dialect);
  std::vector<uint32_t> starts;
  std::string scratch;
  ASSERT_EQ(tok.TokenizeLine(lines[0], &starts), 3u);
  EXPECT_EQ(TokenizedField(tok, lines[0], starts, 0, &scratch), "plain");
  EXPECT_EQ(TokenizedField(tok, lines[0], starts, 1, &scratch),
            "with,comma");
  EXPECT_EQ(TokenizedField(tok, lines[0], starts, 2, &scratch),
            "with\"quote");
  ASSERT_EQ(tok.TokenizeLine(lines[1], &starts), 2u);
  EXPECT_EQ(TokenizedField(tok, lines[1], starts, 0, &scratch), "");
}

TEST(CsvWriterTest, BuffersAndCountsBytes) {
  auto dir = TempDir::Create("nodb-csv");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->FilePath("buf.csv");
  auto file = OpenWritableFile(path);
  ASSERT_TRUE(file.ok());
  CsvWriter writer(std::move(*file), CsvDialect(), /*buffer_bytes=*/64);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(writer.WriteRecord({"aaaa", "bbbb"}).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(*GetFileSize(path), 100u * 10u);
}

}  // namespace
}  // namespace nodb
