// Experiment E6 — positional-map ablation.
//
// Measures the paper's §3.1 claims directly:
//   - without a map, per-tuple tokenizing cost grows with the target
//     attribute's position in the tuple;
//   - with a warm map, cost is (nearly) position-independent;
//   - shrinking the map budget degrades gracefully via LRU;
// plus the row-block granularity and the distance policy. Each row is
// the median of `reps` scans after the row's warm-up, printed as a
// table. A last table asks whether the map's span chunks still pay
// next to re-tokenizing: for the same rows, the tokenize pass's cost
// per field served by an exact chunk, cut from an anchor chunk (the
// attribute before it) and cut from byte 0 (a map reduced to its row
// index).
//
// Usage: positional_map_bench [tuples] [reps]   (default 20000 10; CI
// smoke passes less)

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/query_result.h"
#include "io/file.h"
#include "raw/raw_scan.h"

using namespace nodb;
using namespace nodb::bench;

namespace {

constexpr uint32_t kAttrs = 40;

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

/// The map-isolating config: cache, statistics and the shadow store
/// off, so a warm scan still converts every value.
NoDbConfig MapOnly() {
  NoDbConfig config;
  config.enable_cache = false;
  config.enable_statistics = false;
  config.enable_store = false;
  return config;
}

/// Median ns per row of SpanCutter cutting attribute `attr` out of
/// every row of `lines` (views into one buffer, like a scan's slab),
/// with `chunk_attr`'s spans in the map (none when negative).
double CutNsPerRow(const std::vector<Slice>& lines, uint32_t attr,
                   int chunk_attr, int reps) {
  const CsvTokenizer tokenizer{CsvDialect()};
  const uint32_t rows = static_cast<uint32_t>(lines.size());
  PositionalMap map(size_t{1} << 30, rows, 1);
  if (chunk_attr >= 0) {
    const std::vector<uint32_t> attrs{static_cast<uint32_t>(chunk_attr)};
    PositionalMap::ChunkBuilder chunk = map.StartChunk(0, attrs);
    std::vector<uint32_t> starts;
    for (Slice line : lines) {
      tokenizer.TokenizeLine(line, &starts);
      const uint32_t end = starts[attrs[0] + 1] - 1;
      chunk.AddRow(&starts[attrs[0]], &end);
    }
    map.CommitChunk(std::move(chunk));
  }
  const std::vector<uint32_t> attrs{attr};
  const PositionalMap::BlockPlan plan = map.PrepareBlock(0, attrs);
  const std::string table = "map";
  const std::string path = "map.csv";
  SpanCutter cutter(&tokenizer, &table, &path);
  cutter.Prepare(&plan, attrs, {0}, true);
  ScanMetrics metrics;
  Status error;
  uint32_t start = 0;
  uint32_t end = 0;
  const double ms = MedianMs(reps, [&] {
    for (uint32_t r = 0; r < rows; ++r) {
      if (!cutter.Cut(lines[r], r, &start, &end, &metrics, &error)) break;
    }
  });
  CheckOk(error, "cut");
  return ms * 1e6 / rows;
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("E6 / positional-map ablation (§3.1)");
  const uint64_t tuples =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  const int reps = argc > 2 ? std::atoi(argv[2]) : 10;
  Workload w = MakeIntWorkload("map", tuples, kAttrs);
  const RawTableInfo info{"map", w.path, w.schema, CsvDialect()};

  std::printf("%llu tuples x %u int attributes, median of %d scans\n\n",
              static_cast<unsigned long long>(tuples), kAttrs, reps);
  std::printf("%-30s %10s %12s %8s\n", "config", "ms/scan", "Mtuples/s",
              "chunks");

  // Builds a state for `config`, runs `warm` once, then times `attrs`.
  auto run = [&](const std::string& name, const NoDbConfig& config,
                 const std::function<void(RawTableState*)>& warm,
                 const std::vector<uint32_t>& attrs) {
    RawTableState table(info, config);
    CheckOk(table.Open(), "open");
    warm(&table);
    const double ms =
        MedianMs(reps, [&] { DrainScan(&table, attrs, tuples); });
    std::printf("%-30s %10.3f %12.2f %8llu\n", name.c_str(), ms,
                ms > 0 ? static_cast<double>(tuples) / ms / 1e3 : 0.0,
                static_cast<unsigned long long>(table.map().num_chunks()));
  };
  auto warm_with = [&](std::vector<uint32_t> attrs) {
    return [attrs, tuples](RawTableState* table) {
      DrainScan(table, attrs, tuples);
    };
  };
  auto no_warm = [](RawTableState*) {};

  // Cold in-situ access (map disabled): cost grows with attribute
  // position because every tuple is tokenized from byte 0.
  for (uint32_t attr : {0u, 10u, 25u, 39u}) {
    run("no map, attr " + std::to_string(attr), NoDbConfig::Baseline(),
        no_warm, {attr});
  }
  // Warm positional map: cost is flat in attribute position.
  for (uint32_t attr : {0u, 10u, 25u, 39u}) {
    run("warm map, attr " + std::to_string(attr), MapOnly(),
        warm_with({attr}), {attr});
  }
  // Neighbouring attribute with a warm map for attr 25: anchors let the
  // scan jump to 26 and tokenize a single field (26 gets its own chunk
  // on the first timed pass; both paths beat blind tokenizing).
  run("anchor 25 -> attr 26", MapOnly(), warm_with({25}), {26});

  // Budget sweep: 0 disables retention entirely (every chunk is
  // evicted on commit); growing budgets approach the fully warm cost.
  for (size_t budget : {size_t{0}, size_t{64} << 10, size_t{256} << 10,
                        size_t{8} << 20}) {
    NoDbConfig config = MapOnly();
    config.positional_map_budget = budget;
    run("map budget " + std::to_string(budget >> 10) + " KiB", config,
        warm_with({30}), {30});
  }

  // Row-block granularity, the chunk/cache unit shared by map and
  // cache: tiny blocks mean more chunk objects and plan rebuilds, huge
  // blocks waste work on partially used tails.
  for (uint32_t rows : {64u, 1024u, 4096u, 16384u}) {
    NoDbConfig config = MapOnly();
    config.rows_per_block = rows;
    run("rows_per_block " + std::to_string(rows), config, warm_with({20}),
        {20});
  }

  // Distance policy (§3.1 "Adaptive Behavior"): after warming two
  // disjoint combinations, a query spanning both either re-indexes its
  // combination (max_covering_chunks = 1, the paper's default) or
  // tolerates gathering from two chunks. Indexing costs once and pays
  // on every later query; tolerating avoids the build but probes two
  // chunks forever.
  for (uint32_t covering : {1u, 4u}) {
    NoDbConfig config = MapOnly();
    config.max_covering_chunks = covering;
    run("max_covering_chunks " + std::to_string(covering), config,
        [&](RawTableState* table) {
          DrainScan(table, {5, 6}, tuples);
          DrainScan(table, {30, 31}, tuples);
          DrainScan(table, {5, 30}, tuples);  // the first spanning query
        },
        {5, 30});
  }

  // Do the span chunks still pay? The same rows' tokenize pass, per
  // requested field: copied from an exact chunk, re-tokenized from the
  // anchor one attribute before it, or cut from byte 0.
  const std::string text = CheckOk(ReadFileToString(w.path), "read");
  std::vector<Slice> lines;
  for (size_t at = 0, nl; at < text.size(); at = nl + 1) {
    nl = text.find('\n', at);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(Slice(text).SubSlice(at, nl - at));
  }
  std::printf("\n%-30s %14s %14s %14s\n", "tokenize pass, attr",
              "exact ns/field", "anchor ns/field", "byte-0 ns/field");
  for (uint32_t attr : {1u, 10u, 25u, 39u}) {
    std::printf("%-30s %14.1f %14.1f %14.1f\n",
                ("attr " + std::to_string(attr)).c_str(),
                CutNsPerRow(lines, attr, static_cast<int>(attr), reps),
                CutNsPerRow(lines, attr, static_cast<int>(attr) - 1, reps),
                CutNsPerRow(lines, attr, -1, reps));
  }
  return 0;
}
