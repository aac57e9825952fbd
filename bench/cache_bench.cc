// Experiment E7 — cache ablation.
//
// §3.2: repeated access to hot attributes is served from the binary
// cache, eliminating tokenizing, parsing *and* raw-file I/O. The
// budget sweep shows graceful degradation when the hot set does not
// fit. Each row is the median of `reps` warm scans after one warm-up
// scan, printed as a table.
//
// Usage: cache_bench [tuples] [reps]   (default 20000 10; CI smoke
// passes less)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/query_result.h"
#include "raw/raw_scan.h"

using namespace nodb;
using namespace nodb::bench;

namespace {

constexpr uint32_t kAttrs = 20;

void DrainScan(RawTableState* state, const std::vector<uint32_t>& attrs,
               uint64_t tuples) {
  RawScanOperator scan(state, attrs, nullptr);
  auto result = CheckOk(QueryResult::Drain(&scan), "scan");
  if (result.num_rows() != tuples) {
    std::fprintf(stderr, "scan returned %zu rows, want %llu\n",
                 result.num_rows(), static_cast<unsigned long long>(tuples));
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("E7 / cache ablation (§3.2)");
  const uint64_t tuples =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  const int reps = argc > 2 ? std::atoi(argv[2]) : 10;
  Workload w = MakeIntWorkload("cache", tuples, kAttrs);
  const RawTableInfo info{"cache", w.path, w.schema, CsvDialect()};

  std::printf("%llu tuples x %u int attributes, median of %d warm scans\n\n",
              static_cast<unsigned long long>(tuples), kAttrs, reps);
  std::printf("%-26s %10s %12s %11s %10s\n", "config", "ms/scan",
              "Mtuples/s", "hit_blocks", "evictions");

  // One warm-up scan builds whatever the config retains; the timed
  // scans then run over it.
  auto run = [&](const std::string& name, const NoDbConfig& config,
                 const std::vector<uint32_t>& attrs) {
    RawTableState table(info, config);
    CheckOk(table.Open(), "open");
    DrainScan(&table, attrs, tuples);
    const double ms =
        MedianMs(reps, [&] { DrainScan(&table, attrs, tuples); });
    std::printf("%-26s %10.3f %12.2f %11llu %10llu\n", name.c_str(), ms,
                ms > 0 ? static_cast<double>(tuples) / ms / 1e3 : 0.0,
                static_cast<unsigned long long>(table.cache().hits()),
                static_cast<unsigned long long>(table.cache().evictions()));
  };

  // Hot two-attribute scan with the cache off (every query re-parses,
  // the map is warm) against the same scan fully cache-served. The
  // shadow store is off throughout, so the cache is the only tier that
  // serves binary data.
  NoDbConfig warm_cache;
  warm_cache.enable_statistics = false;
  warm_cache.enable_store = false;
  NoDbConfig no_cache = warm_cache;
  no_cache.enable_cache = false;
  run("hot scan, no cache", no_cache, {3, 7});
  run("hot scan, warm cache", warm_cache, {3, 7});

  // Budget sweep over a 4-attribute hot set (about 0.7 MiB binary at
  // the default scale): small budgets thrash, larger ones converge to the
  // warm-cache cost.
  for (size_t budget : {size_t{0}, size_t{256} << 10, size_t{1} << 20,
                        size_t{16} << 20}) {
    NoDbConfig config = warm_cache;
    config.cache_budget = budget;
    run("budget " + std::to_string(budget >> 10) + " KiB", config,
        {1, 5, 9, 13});
  }
  return 0;
}
