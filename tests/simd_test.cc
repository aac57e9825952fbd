// Differential fuzz suite for the SIMD byte-search kernel: every tier
// must agree with a per-byte reference loop on random buffers and at
// every block boundary, on random slab splits, through the tokenizer,
// and end-to-end through the engine at every runnable tier and several
// thread counts. The scalar tier is the engine's semantics reference;
// the SIMD tiers are pure accelerators, exactly like the NoDB
// structures themselves.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "csv/dialect.h"
#include "csv/tokenizer.h"
#include "engines/load_first_engine.h"
#include "engines/nodb_engine.h"
#include "io/file.h"
#include "io/temp_dir.h"
#include "simd/simd.h"
#include "simd/structural_index.h"
#include "util/random.h"

namespace nodb {
namespace {

using simd::SimdLevel;

/// Random buffer dense in structural bytes (delimiters, newlines,
/// quotes, CR) so position lists are long and block masks are busy.
std::string RandomStructuralBuffer(Random* rng, size_t size, char delim,
                                   char quote) {
  std::string out;
  out.reserve(size);
  const char specials[] = {delim, '\n', quote, '\r'};
  for (size_t i = 0; i < size; ++i) {
    if (rng->Bernoulli(0.3)) {
      out.push_back(specials[rng->Uniform(4)]);
    } else {
      out.push_back(static_cast<char>('a' + rng->Uniform(26)));
    }
  }
  return out;
}

TEST(SimdDispatch, DetectionAndForcing) {
  const SimdLevel detected = simd::DetectedLevel();
  EXPECT_TRUE(simd::LevelAvailable(detected));
  EXPECT_TRUE(simd::LevelAvailable(SimdLevel::kScalar));
  EXPECT_EQ(simd::ActiveLevel(), detected);

  EXPECT_EQ(simd::ForceLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(simd::ActiveLevel(), SimdLevel::kScalar);

  // Forcing always lands on a runnable tier, whatever was asked for.
  for (SimdLevel level : {SimdLevel::kSSE2, SimdLevel::kNEON,
                          SimdLevel::kAVX2, SimdLevel::kScalar}) {
    EXPECT_TRUE(simd::LevelAvailable(simd::ForceLevel(level)));
  }

  simd::ClearForcedLevel();
  EXPECT_EQ(simd::ActiveLevel(), detected);
  EXPECT_STRNE(simd::LevelName(detected), "unknown");
}

/// Per-byte reference for FindBytePositions, independent of every tier.
size_t FindPositionsOracle(const std::string& data, size_t from, char needle,
                           size_t max_hits, uint32_t bias, uint32_t* out) {
  size_t hits = 0;
  for (size_t i = from; i < data.size() && hits < max_hits; ++i) {
    if (data[i] == needle) out[hits++] = static_cast<uint32_t>(i) + bias;
  }
  return hits;
}

TEST(SimdKernels, FindBytePositionsMatchesScalarOnRandomCalls) {
  struct Call {
    std::string buffer;
    size_t from;
    size_t max_hits;
    uint32_t bias;
  };
  Random rng(7);
  std::vector<Call> calls;
  for (int round = 0; round < 300; ++round) {
    const size_t size = rng.Uniform(200);
    std::string buffer = RandomStructuralBuffer(&rng, size, ',', '"');
    const size_t from = rng.Uniform(size + 2);
    const size_t max_hits = rng.Uniform(20);
    const uint32_t bias = static_cast<uint32_t>(rng.Uniform(2));
    calls.push_back({std::move(buffer), from, max_hits, bias});
  }
  // Sizes straddling every tier's block boundary (16, 32 and 64 bytes):
  // empty, sub-block, exactly one block, one byte either side,
  // multi-block plus tail — searched whole, with no hit limit.
  for (size_t size : {0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128,
                      129, 255, 256, 300}) {
    calls.push_back(
        {RandomStructuralBuffer(&rng, size, ',', '"'), 0, SIZE_MAX, 0});
  }
  for (size_t c = 0; c < calls.size(); ++c) {
    const Call& call = calls[c];
    const size_t room = std::min(call.max_hits, call.buffer.size()) + 1;
    for (const char needle : {',', '\n', '"'}) {
      std::vector<uint32_t> want(room, 0xDEADu);
      const size_t want_n =
          FindPositionsOracle(call.buffer, call.from, needle, call.max_hits,
                              call.bias, want.data());
      for (SimdLevel level : simd::RunnableLevels()) {
        SCOPED_TRACE(std::string(simd::LevelName(level)) + " call " +
                     std::to_string(c) + " needle " +
                     std::to_string(static_cast<int>(needle)));
        std::vector<uint32_t> got(room, 0xDEADu);
        const size_t got_n = simd::FindBytePositions(
            level, call.buffer.data(), call.buffer.size(), call.from, needle,
            call.max_hits, call.bias, got.data());
        ASSERT_EQ(got_n, want_n);
        EXPECT_EQ(got, want);  // including the untouched sentinel slots
      }
    }
  }
}

TEST(SimdStructuralIndex, RandomSlabSplitsConcatenateExactly) {
  Random rng(99);
  const CsvDialect dialect = CsvDialect::QuotedCsv();
  for (int round = 0; round < 60; ++round) {
    const size_t size = 1 + rng.Uniform(600);
    const std::string buffer =
        RandomStructuralBuffer(&rng, size, dialect.delimiter, dialect.quote);

    simd::StructuralIndexer scalar_indexer(dialect, SimdLevel::kScalar);
    simd::StructuralIndex whole;
    scalar_indexer.Index(buffer.data(), size, /*base=*/0, &whole);

    for (SimdLevel level : simd::RunnableLevels()) {
      SCOPED_TRACE(std::string(simd::LevelName(level)) + " round " +
                   std::to_string(round));
      // Split the buffer at random points; indexing the pieces and
      // rebasing must reproduce the whole-buffer index exactly — the
      // position lists are stateless, so splits cannot hide drift even
      // when they land inside "\r\n" or a doubled quote.
      simd::StructuralIndexer indexer(dialect, level);
      simd::StructuralIndex piece;
      std::vector<uint32_t> delims;
      std::vector<uint32_t> newlines;
      std::vector<uint32_t> quotes;
      size_t offset = 0;
      while (offset < size) {
        const size_t piece_size =
            std::min<size_t>(1 + rng.Uniform(97), size - offset);
        indexer.Index(buffer.data() + offset, piece_size, offset, &piece);
        EXPECT_EQ(piece.base, offset);
        for (uint32_t pos : piece.delims) {
          delims.push_back(pos + static_cast<uint32_t>(offset));
        }
        for (uint32_t pos : piece.newlines) {
          newlines.push_back(pos + static_cast<uint32_t>(offset));
        }
        for (uint32_t pos : piece.quotes) {
          quotes.push_back(pos + static_cast<uint32_t>(offset));
        }
        offset += piece_size;
      }
      EXPECT_EQ(delims, whole.delims);
      EXPECT_EQ(newlines, whole.newlines);
      EXPECT_EQ(quotes, whole.quotes);
    }
  }
}

TEST(SimdTokenizer, ScanStartsIdenticalAcrossLevelsOnRandomLines) {
  Random rng(555);
  for (const char delim : {',', '|'}) {
    CsvDialect dialect;
    dialect.delimiter = delim;
    std::vector<CsvTokenizer> tokenizers;
    for (SimdLevel level : simd::RunnableLevels()) {
      tokenizers.emplace_back(dialect, level);
    }
    for (int round = 0; round < 400; ++round) {
      std::string line;
      const size_t len = rng.Uniform(120);
      for (size_t i = 0; i < len; ++i) {
        if (rng.Bernoulli(0.2)) {
          line.push_back(delim);
        } else {
          line.push_back(static_cast<char>('a' + rng.Uniform(26)));
        }
      }
      if (rng.Bernoulli(0.25)) line.push_back('\r');

      // Full tokenize plus a random incremental resume — both must be
      // invariant across tiers.
      std::vector<uint32_t> want_starts;
      const uint32_t want_count =
          tokenizers[0].TokenizeLine(line, &want_starts);
      const uint32_t from_field = static_cast<uint32_t>(
          rng.Uniform(want_count + 1));
      const uint32_t until_field =
          from_field + static_cast<uint32_t>(rng.Uniform(6));
      std::vector<uint32_t> want_resume(until_field + 2, 0xDEADu);
      const uint32_t want_high = tokenizers[0].ScanStarts(
          line, from_field, want_starts[from_field], until_field,
          want_resume.data());

      for (size_t t = 1; t < tokenizers.size(); ++t) {
        SCOPED_TRACE(std::string(simd::LevelName(tokenizers[t].level())) +
                     " round " + std::to_string(round));
        std::vector<uint32_t> starts;
        ASSERT_EQ(tokenizers[t].TokenizeLine(line, &starts), want_count);
        EXPECT_EQ(starts, want_starts);
        std::vector<uint32_t> resume(until_field + 2, 0xDEADu);
        ASSERT_EQ(tokenizers[t].ScanStarts(line, from_field,
                                           want_starts[from_field],
                                           until_field, resume.data()),
                  want_high);
        EXPECT_EQ(resume, want_resume);
      }
    }
  }
}

// ------------------------------------------------------------- end to end

struct EndToEndCase {
  const char* name;
  bool quoting;
  bool crlf;
  char delimiter;
};

class SimdEngineDifferential
    : public ::testing::TestWithParam<EndToEndCase> {};

/// Random file in the given dialect: ints, strings (with embedded
/// delimiters/quotes when quoting), doubles, occasional empty fields.
std::string MakeRandomCsv(Random* rng, const EndToEndCase& dialect_case,
                          int rows) {
  std::string content;
  const std::string eol = dialect_case.crlf ? "\r\n" : "\n";
  const char d = dialect_case.delimiter;
  for (int i = 0; i < rows; ++i) {
    content += std::to_string(i);
    content += d;
    if (rng->Bernoulli(0.1)) {
      // empty string field
    } else if (dialect_case.quoting && rng->Bernoulli(0.4)) {
      content += '"';
      content += "v";
      content += d;                        // embedded delimiter
      content += std::to_string(i % 5);
      if (rng->Bernoulli(0.5)) content += "\"\"q";  // escaped quote
      content += '"';
    } else {
      content += "v" + std::to_string(i % 7);
    }
    content += d;
    content += std::to_string(i) + "." + std::to_string(rng->Uniform(100));
    content += eol;
  }
  return content;
}

TEST_P(SimdEngineDifferential, ByteIdenticalResultsAcrossLevels) {
  const EndToEndCase param = GetParam();
  auto dir = TempDir::Create("nodb-simd-e2e");
  ASSERT_TRUE(dir.ok());

  Random rng(4242);
  const std::string content = MakeRandomCsv(&rng, param, 300);
  const std::string path = dir->FilePath("t.csv");
  ASSERT_TRUE(WriteStringToFile(path, content).ok());

  CsvDialect dialect;
  dialect.delimiter = param.delimiter;
  dialect.allow_quoting = param.quoting;
  Catalog catalog;
  auto schema = Schema::Make({{"id", DataType::kInt64},
                              {"grp", DataType::kString},
                              {"x", DataType::kDouble}});
  ASSERT_TRUE(catalog.RegisterTable({"t", path, schema, dialect}).ok());

  LoadFirstEngine reference(catalog, LoadProfile::kPostgres);
  ASSERT_TRUE(reference.Initialize().ok());

  const char* queries[] = {
      "SELECT COUNT(*) AS n FROM t",
      "SELECT grp, COUNT(*) AS n, SUM(x) AS s FROM t GROUP BY grp "
      "ORDER BY grp",
      "SELECT id, grp, x FROM t WHERE x > 100 ORDER BY id LIMIT 25",
      "SELECT id FROM t WHERE id >= 10 AND id < 50 ORDER BY id",
  };

  for (const char* sql : queries) {
    auto expected = reference.Execute(sql);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    const auto want = expected->result.CanonicalRows();
    for (SimdLevel level : simd::RunnableLevels()) {
      simd::ForceLevel(level);
      // Tiny read buffers force many slabs per block, landing rows,
      // CRLF pairs and quoted fields across slab boundaries.
      for (const size_t read_buffer : {size_t{16}, size_t{1} << 20}) {
        SCOPED_TRACE(std::string(sql) + " level=" + simd::LevelName(level) +
                     " buf=" + std::to_string(read_buffer));
        NoDbConfig config;
        config.rows_per_block = 64;
        config.read_buffer_bytes = read_buffer;
        NoDbEngine nodb(catalog, config);
        auto cold = nodb.Execute(sql);
        ASSERT_TRUE(cold.ok()) << cold.status().ToString();
        EXPECT_EQ(cold->result.CanonicalRows(), want);
        auto warm = nodb.Execute(sql);
        ASSERT_TRUE(warm.ok()) << warm.status().ToString();
        EXPECT_EQ(warm->result.CanonicalRows(), want);
        nodb.WaitForPromotions();
      }
    }
    simd::ClearForcedLevel();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dialects, SimdEngineDifferential,
    ::testing::Values(EndToEndCase{"comma_lf", false, false, ','},
                      EndToEndCase{"comma_crlf", false, true, ','},
                      EndToEndCase{"pipe_lf", false, false, '|'},
                      EndToEndCase{"quoted_lf", true, false, ','},
                      EndToEndCase{"quoted_crlf", true, true, ','}),
    [](const ::testing::TestParamInfo<EndToEndCase>& info) {
      return info.param.name;
    });

TEST(SimdEngineDifferential, MalformedFileFailsIdenticallyAtEveryLevel) {
  auto dir = TempDir::Create("nodb-simd-err");
  ASSERT_TRUE(dir.ok());
  // Row 2 is short: tokenizing attribute 2 must fail with the same
  // message whichever kernels found the boundaries.
  const std::string path = dir->FilePath("bad.csv");
  ASSERT_TRUE(
      WriteStringToFile(path, "1,a,1.5\n2,b,2.5\n3,c\n4,d,4.5\n").ok());
  Catalog catalog;
  auto schema = Schema::Make({{"id", DataType::kInt64},
                              {"grp", DataType::kString},
                              {"x", DataType::kDouble}});
  ASSERT_TRUE(
      catalog.RegisterTable({"t", path, schema, CsvDialect()}).ok());

  std::string scalar_message;
  for (SimdLevel level : simd::RunnableLevels()) {
    simd::ForceLevel(level);
    NoDbEngine nodb(catalog, NoDbConfig());
    auto out = nodb.Execute("SELECT SUM(x) AS s FROM t");
    nodb.WaitForPromotions();
    ASSERT_FALSE(out.ok());
    if (scalar_message.empty()) {
      scalar_message = out.status().ToString();
    } else {
      EXPECT_EQ(out.status().ToString(), scalar_message)
          << "level=" << simd::LevelName(level);
    }
  }
  simd::ClearForcedLevel();
}

}  // namespace
}  // namespace nodb
