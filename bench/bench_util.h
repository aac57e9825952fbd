#ifndef NODB_BENCH_BENCH_UTIL_H_
#define NODB_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "csv/tokenizer.h"
#include "datagen/synthetic.h"
#include "io/buffered_reader.h"
#include "io/file.h"
#include "io/temp_dir.h"
#include "simd/simd.h"
#include "util/result.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace nodb::bench {

/// Aborts with a message when a Status/Result is not OK — benches have
/// no meaningful recovery path.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T CheckOk(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Generates the demo's default workload file: `tuples` rows of
/// `attrs` zero-padded integer attributes (the shape PostgresRaw's
/// Figure-3 experiment uses), registered as table `name`.
struct Workload {
  TempDir dir;
  Catalog catalog;
  std::shared_ptr<Schema> schema;
  std::string path;
  uint64_t file_bytes = 0;
};

inline Workload MakeIntWorkload(const std::string& name, uint64_t tuples,
                                uint32_t attrs, uint32_t width = 8,
                                uint64_t seed = 42) {
  Workload w{CheckOk(TempDir::Create("nodb-bench"), "temp dir"), {}, {},
             {}, 0};
  SyntheticSpec spec;
  spec.num_tuples = tuples;
  spec.num_attributes = attrs;
  spec.attribute_width = width;
  spec.seed = seed;
  w.schema = spec.MakeSchema();
  w.path = w.dir.FilePath(name + ".csv");
  w.file_bytes =
      CheckOk(GenerateSyntheticCsv(w.path, spec, CsvDialect()), "generate");
  CheckOk(w.catalog.RegisterTable({name, w.path, w.schema, CsvDialect()}),
          "register");
  return w;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================\n");
}

/// Median wall time, in ms, of `reps` calls of `fn` (at least one).
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < std::max(1, reps); ++i) {
    Stopwatch watch;
    fn();
    ms.push_back(static_cast<double>(watch.ElapsedNanos()) / 1e6);
  }
  std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
  return ms[ms.size() / 2];
}

/// Times the two byte-search kernels a cold scan runs over the raw file
/// at `path`, best of `reps` passes per tier with the tiers interleaved:
///   - BufferedReader::FindRows, the row finder, walking the file one
///     buffer window at a time (reads included), at every runnable tier;
///   - CsvTokenizer::ScanStarts cutting every field of every row, at the
///     active tier against kScalar.
/// Prints both and returns ScanStarts' speedup (scalar ns per row over
/// active ns per row). Returns 0, with a notice, when the active tier is
/// scalar (scalar-only build or CPU): there is nothing to compare.
inline double ReportTokenizerKernels(const std::string& path,
                                     const CsvDialect& dialect,
                                     int reps = 15) {
  const std::vector<simd::SimdLevel> levels = simd::RunnableLevels();
  const std::string data = CheckOk(ReadFileToString(path), "read raw file");
  std::shared_ptr<RandomAccessFile> file =
      CheckOk(OpenRandomAccessFile(path), "open raw file");
  BufferedReader reader(file);
  CheckOk(reader.Refresh(), "stat raw file");
  std::vector<uint64_t> row_starts;
  std::vector<double> find_rows_ns(levels.size(), 1e30);
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t l = 0; l < levels.size(); ++l) {
      row_starts.clear();
      Stopwatch watch;
      uint64_t next = 0;
      for (uint64_t offset = 0; offset < data.size(); offset = next) {
        CheckOk(reader.FindRows(offset, data.size(), SIZE_MAX, levels[l],
                                &row_starts, &next),
                "find rows");
        if (next == offset) break;
      }
      find_rows_ns[l] = std::min(
          find_rows_ns[l], static_cast<double>(watch.ElapsedNanos()));
    }
  }
  for (size_t l = 0; l < levels.size(); ++l) {
    std::printf("FindRows %-6s %6.2f GB/s\n", simd::LevelName(levels[l]),
                static_cast<double>(data.size()) /
                    std::max(find_rows_ns[l], 1.0));
  }

  const simd::SimdLevel active = simd::ActiveLevel();
  if (active == simd::SimdLevel::kScalar) {
    std::printf(
        "ScanStarts: no SIMD tier available (scalar build) — speedup not "
        "measured\n");
    return 0;
  }
  std::vector<Slice> rows;
  for (uint64_t start : row_starts) {
    const size_t end = std::min(data.find('\n', start), data.size());
    rows.emplace_back(data.data() + start, end - start);
  }
  const CsvTokenizer simd_tokenizer(dialect, active);
  const CsvTokenizer scalar_tokenizer(dialect, simd::SimdLevel::kScalar);
  std::vector<uint32_t> starts;
  const uint32_t fields =
      rows.empty() ? 0 : scalar_tokenizer.TokenizeLine(rows[0], &starts);
  starts.assign(fields + 2, 0);
  uint64_t sink = 0;  // keeps the cut boundaries observably live
  auto pass_ns = [&](const CsvTokenizer& tokenizer) {
    Stopwatch watch;
    for (const Slice& row : rows) {
      sink += tokenizer.ScanStarts(row, 0, 0, fields, starts.data());
    }
    return static_cast<double>(watch.ElapsedNanos());
  };
  double simd_ns = 1e30;
  double scalar_ns = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    simd_ns = std::min(simd_ns, pass_ns(simd_tokenizer));
    scalar_ns = std::min(scalar_ns, pass_ns(scalar_tokenizer));
  }
  if (sink == 0) std::printf("(ScanStarts cut no fields)\n");
  const double n = static_cast<double>(std::max<size_t>(rows.size(), 1));
  const double ratio = scalar_ns / std::max(simd_ns, 1.0);
  std::printf(
      "ScanStarts (%u fields/row): %s %.1f ns/row vs scalar %.1f ns/row — "
      "%.2fx\n",
      fields, simd::LevelName(active), simd_ns / n, scalar_ns / n, ratio);
  return ratio;
}

}  // namespace nodb::bench

#endif  // NODB_BENCH_BENCH_UTIL_H_
