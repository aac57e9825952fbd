#ifndef NODB_BENCH_BENCH_UTIL_H_
#define NODB_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "datagen/synthetic.h"
#include "io/file.h"
#include "io/temp_dir.h"
#include "simd/structural_index.h"
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

/// Best-of-three structural-indexing throughput (bytes/s) over `data`
/// at `level`, processed in read-buffer-sized slabs exactly like the
/// first-touch scan's stage 1.
inline double StructuralScanBps(const std::string& data,
                                const CsvDialect& dialect,
                                simd::SimdLevel level) {
  const simd::StructuralIndexer indexer(dialect, level);
  simd::StructuralIndex index;
  constexpr size_t kSlab = size_t{1} << 20;
  double best_ns = 1e30;
  uint64_t sink = 0;  // keep the index observably live
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch watch;
    for (size_t offset = 0; offset < data.size(); offset += kSlab) {
      indexer.Index(data.data() + offset,
                    std::min(kSlab, data.size() - offset), offset, &index);
      sink += index.newlines.size() + index.delims.size();
    }
    best_ns = std::min(best_ns, static_cast<double>(watch.ElapsedNanos()));
  }
  if (sink == 0) std::printf("(structural scan found no structure)\n");
  if (best_ns <= 0) best_ns = 1;
  return static_cast<double>(data.size()) / best_ns * 1e9;
}

/// The tentpole's hard perf gate: stage-1 structural indexing of `path`
/// with the active SIMD tier must beat the scalar fallback kernels by
/// `min_ratio` (the cold first-touch component the SIMD layer owns).
/// Prints both throughputs; exits non-zero under the gate. Skipped —
/// with a note — when no SIMD tier is available (scalar-only build or
/// exotic CPU), since there is nothing to compare.
inline void GateStructuralSpeedup(const std::string& path,
                                  const CsvDialect& dialect,
                                  double min_ratio) {
  const simd::SimdLevel active = simd::ActiveLevel();
  if (active == simd::SimdLevel::kScalar) {
    std::printf(
        "structural scan: no SIMD tier available (scalar build) — "
        "speedup gate skipped\n");
    return;
  }
  const std::string data = CheckOk(ReadFileToString(path), "read raw file");
  const double simd_bps = StructuralScanBps(data, dialect, active);
  const double scalar_bps =
      StructuralScanBps(data, dialect, simd::SimdLevel::kScalar);
  const double ratio = scalar_bps > 0 ? simd_bps / scalar_bps : 0;
  std::printf(
      "structural scan: %s %.2f GB/s vs scalar %.2f GB/s — %.1fx\n",
      simd::LevelName(active), simd_bps / 1e9, scalar_bps / 1e9, ratio);
  if (ratio < min_ratio) {
    std::fprintf(stderr,
                 "FAIL: structural-scan speedup %.2fx is under the %.1fx "
                 "gate\n",
                 ratio, min_ratio);
    std::exit(1);
  }
}

}  // namespace nodb::bench

#endif  // NODB_BENCH_BENCH_UTIL_H_
