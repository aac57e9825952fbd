// Tests for the adaptive positional map: tuple index, chunk probing
// (exact spans and anchors), the distance policy and LRU eviction under
// a byte budget.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "raw/positional_map.h"
#include "util/random.h"

namespace nodb {
namespace {

constexpr size_t kBudget = 1 << 20;

PositionalMap MakeMap(size_t budget = kBudget, uint32_t block = 64,
                      uint32_t max_chunks = 1) {
  return PositionalMap(budget, block, max_chunks);
}

/// Commits a chunk covering rows [first, first+rows) for `attrs`,
/// with deterministic spans: attr a of row r starts at a*10+r%7 and
/// ends at a*10+5+r%7.
void CommitChunk(PositionalMap* map, uint64_t first, size_t rows,
                 const std::vector<uint32_t>& attrs) {
  auto builder = map->StartChunk(first, attrs);
  std::vector<uint32_t> starts(attrs.size());
  std::vector<uint32_t> ends(attrs.size());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t j = 0; j < attrs.size(); ++j) {
      starts[j] = attrs[j] * 10 + static_cast<uint32_t>(r % 7);
      ends[j] = starts[j] + 5;
    }
    builder.AddRow(starts.data(), ends.data());
  }
  map->CommitChunk(std::move(builder));
}

TEST(PositionalMapTest, RowIndexDiscovery) {
  PositionalMap map = MakeMap();
  EXPECT_EQ(map.known_rows(), 0u);
  EXPECT_FALSE(map.rows_complete());
  map.AddRowStart(0);
  map.AddRowStart(100);
  map.AddRowStart(200);
  EXPECT_EQ(map.known_rows(), 3u);
  EXPECT_EQ(map.row_start(1), 100u);
  map.MarkRowsComplete(300);
  EXPECT_TRUE(map.rows_complete());
  EXPECT_EQ(map.indexed_file_size(), 300u);
  map.ReopenForAppend();
  EXPECT_FALSE(map.rows_complete());
  EXPECT_EQ(map.known_rows(), 3u);  // boundaries survive appends
}

TEST(PositionalMapTest, ExactProbeFromCommittedChunk) {
  PositionalMap map = MakeMap();
  CommitChunk(&map, 0, 64, {3, 7});
  auto plan = map.PrepareBlock(0, {3, 7});
  EXPECT_TRUE(plan.fully_covered());
  EXPECT_EQ(plan.chunks_used(), 1u);
  auto probe = plan.Lookup(5, 0);  // row 5, attr 3
  EXPECT_TRUE(probe.exact);
  EXPECT_EQ(probe.start, 35u);  // 3*10 + 5
  EXPECT_EQ(probe.end, 40u);
  auto probe7 = plan.Lookup(5, 1);
  EXPECT_TRUE(probe7.exact);
  EXPECT_EQ(probe7.start, 75u);
}

TEST(PositionalMapTest, AnchorProbeForUncoveredAttribute) {
  PositionalMap map = MakeMap();
  CommitChunk(&map, 0, 64, {3});
  // Attr 5 is not indexed; the best anchor is "attr 4 starts at end(3)+1".
  auto plan = map.PrepareBlock(0, {5});
  EXPECT_FALSE(plan.fully_covered());
  auto probe = plan.Lookup(2, 0);
  EXPECT_FALSE(probe.exact);
  EXPECT_EQ(probe.anchor_attr, 4u);
  EXPECT_EQ(probe.anchor_rel, 38u);  // end(3,row2) = 3*10+5+2 = 37, +1
}

TEST(PositionalMapTest, NoInformationMeansAttrZeroAnchor) {
  PositionalMap map = MakeMap();
  auto plan = map.PrepareBlock(0, {4});
  auto probe = plan.Lookup(0, 0);
  EXPECT_FALSE(probe.exact);
  EXPECT_EQ(probe.anchor_attr, 0u);
  EXPECT_EQ(probe.anchor_rel, 0u);
}

TEST(PositionalMapTest, AnchorPicksGreatestAttributeAcrossChunks) {
  PositionalMap map = MakeMap();
  CommitChunk(&map, 0, 64, {1});
  CommitChunk(&map, 0, 64, {4});
  auto plan = map.PrepareBlock(0, {9});
  auto probe = plan.Lookup(0, 0);
  EXPECT_FALSE(probe.exact);
  EXPECT_EQ(probe.anchor_attr, 5u);  // from the {4} chunk
}

TEST(PositionalMapTest, RowBeyondChunkCoverageHasNoInfo) {
  PositionalMap map = MakeMap();
  CommitChunk(&map, 0, 10, {2});  // partial chunk: rows 0..9
  auto plan = map.PrepareBlock(0, {2});
  EXPECT_TRUE(plan.Lookup(5, 0).exact);
  auto beyond = plan.Lookup(20, 0);
  EXPECT_FALSE(beyond.exact);
  EXPECT_EQ(beyond.anchor_attr, 0u);
}

TEST(PositionalMapTest, DistancePolicy) {
  PositionalMap map = MakeMap(kBudget, 64, /*max_covering_chunks=*/1);
  CommitChunk(&map, 0, 64, {1, 2});
  CommitChunk(&map, 0, 64, {7, 8});

  // Fully inside one chunk: no new combination.
  auto plan_a = map.PrepareBlock(0, {1, 2});
  EXPECT_FALSE(map.ShouldIndexCombination(plan_a));
  // Spread over two chunks: index the new combination.
  auto plan_b = map.PrepareBlock(0, {2, 7});
  EXPECT_TRUE(plan_b.fully_covered());
  EXPECT_EQ(plan_b.chunks_used(), 2u);
  EXPECT_TRUE(map.ShouldIndexCombination(plan_b));
  // Not covered at all: index.
  auto plan_c = map.PrepareBlock(0, {5});
  EXPECT_TRUE(map.ShouldIndexCombination(plan_c));

  // With a laxer policy the two-chunk case is acceptable.
  PositionalMap lax = MakeMap(kBudget, 64, 2);
  CommitChunk(&lax, 0, 64, {1, 2});
  CommitChunk(&lax, 0, 64, {7, 8});
  auto plan_d = lax.PrepareBlock(0, {2, 7});
  EXPECT_FALSE(lax.ShouldIndexCombination(plan_d));
}

TEST(PositionalMapTest, BudgetNeverExceededAndLruEvicts) {
  // Each chunk: 64 rows x 1 attr x 8 bytes = 512B data + overhead.
  PositionalMap map = MakeMap(8 * 1024, 64, 1);
  for (uint32_t a = 0; a < 40; ++a) {
    CommitChunk(&map, 0, 64, {a});
    EXPECT_LE(map.bytes_used(), 8u * 1024u) << "after chunk " << a;
  }
  EXPECT_GT(map.evictions(), 0u);
  EXPECT_LT(map.num_chunks(), 40u);

  // The oldest attributes were evicted, the newest survive.
  auto plan_new = map.PrepareBlock(0, {39});
  EXPECT_TRUE(plan_new.fully_covered());
  auto plan_old = map.PrepareBlock(0, {0});
  EXPECT_FALSE(plan_old.fully_covered());
}

TEST(PositionalMapTest, TouchingRefreshesLruOrder) {
  PositionalMap map = MakeMap(8 * 1024, 64, 1);
  CommitChunk(&map, 0, 64, {0});
  // Fill until close to budget, touching attr 0 each time to keep it hot.
  for (uint32_t a = 1; a < 40; ++a) {
    (void)map.PrepareBlock(0, {0});  // touch
    CommitChunk(&map, 0, 64, {a});
  }
  // Attr 0 must still be resident despite being the oldest insert.
  auto plan = map.PrepareBlock(0, {0});
  EXPECT_TRUE(plan.fully_covered());
}

TEST(PositionalMapTest, ChunksArePerBlock) {
  PositionalMap map = MakeMap(kBudget, 64, 1);
  CommitChunk(&map, 0, 64, {2});    // block 0
  CommitChunk(&map, 128, 64, {2});  // block 2
  EXPECT_TRUE(map.PrepareBlock(0, {2}).fully_covered());
  EXPECT_FALSE(map.PrepareBlock(64, {2}).fully_covered());  // block 1
  EXPECT_TRUE(map.PrepareBlock(128, {2}).fully_covered());
}

TEST(PositionalMapTest, CoverageFraction) {
  PositionalMap map = MakeMap(kBudget, 64, 1);
  for (int i = 0; i < 128; ++i) map.AddRowStart(i * 10);
  CommitChunk(&map, 0, 64, {3});
  EXPECT_DOUBLE_EQ(map.CoverageFraction(3), 0.5);
  EXPECT_DOUBLE_EQ(map.CoverageFraction(4), 0.0);
  CommitChunk(&map, 64, 64, {3});
  EXPECT_DOUBLE_EQ(map.CoverageFraction(3), 1.0);
}

TEST(PositionalMapTest, ClearDropsEverything) {
  PositionalMap map = MakeMap();
  map.AddRowStart(0);
  CommitChunk(&map, 0, 64, {1});
  map.MarkRowsComplete(1000);
  map.Clear();
  EXPECT_EQ(map.known_rows(), 0u);
  EXPECT_EQ(map.num_chunks(), 0u);
  EXPECT_EQ(map.bytes_used(), 0u);
  EXPECT_FALSE(map.rows_complete());
  EXPECT_FALSE(map.PrepareBlock(0, {1}).fully_covered());
}

/// Property sweep: under random chunk commits and probes across block
/// sizes, the invariants hold: budget respected; probes never return a
/// position for an attribute *after* the requested one; exact probes
/// return the committed span.
class MapPropertySweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MapPropertySweep, InvariantsUnderRandomWorkload) {
  const uint32_t rows_per_block = GetParam();
  const size_t budget = 16 * 1024;
  PositionalMap map(budget, rows_per_block, 1);
  Random rng(rows_per_block);

  for (int iter = 0; iter < 200; ++iter) {
    uint64_t block = rng.Uniform(8);
    uint64_t first = block * rows_per_block;
    size_t nattrs = 1 + rng.Uniform(4);
    std::vector<uint32_t> attrs;
    uint32_t a = static_cast<uint32_t>(rng.Uniform(6));
    for (size_t i = 0; i < nattrs; ++i) {
      attrs.push_back(a);
      a += 1 + static_cast<uint32_t>(rng.Uniform(5));
    }
    CommitChunk(&map, first, rows_per_block, attrs);
    ASSERT_LE(map.bytes_used(), budget);

    // Random probes.
    for (int p = 0; p < 20; ++p) {
      uint32_t want = static_cast<uint32_t>(rng.Uniform(30));
      auto plan = map.PrepareBlock(first, {want});
      auto probe = plan.Lookup(first + rng.Uniform(rows_per_block), 0);
      if (probe.exact) {
        // Exact spans obey the deterministic generator.
        EXPECT_EQ(probe.end - probe.start, 5u);
      } else {
        EXPECT_LE(probe.anchor_attr, want);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, MapPropertySweep,
                         ::testing::Values(16, 64, 256, 1024));

// --------------------------------------------------------- concurrency

TEST(PositionalMapConcurrencyTest, RacingScannersDiscoverEachRowOnce) {
  // Four threads walk a simulated fixed-width file with the scan's
  // snapshot + discovery-baton protocol (newline search replaced by
  // arithmetic). Every thread must see every row at its true offset,
  // and the published index must contain each row exactly once.
  const uint32_t kBlock = 32;
  const uint64_t kRows = 1500;
  const uint64_t kWidth = 10;  // row i spans [i*10, i*10 + 9)
  const uint64_t kFileSize = kRows * kWidth;
  PositionalMap map = MakeMap(kBudget, kBlock);

  auto locate = [&](uint64_t row, uint64_t* start, uint64_t* end) {
    std::vector<uint64_t> bounds;
    while (true) {
      auto snap = map.SnapshotRows(
          row, kBlock - static_cast<uint32_t>(row % kBlock), &bounds);
      if (snap.rows > 0) {
        *start = bounds[0];
        *end = bounds[1] - 1;
        return true;
      }
      if (snap.complete && row >= snap.known_rows) return false;
      PositionalMap::Discovery discovery(&map);
      uint64_t resume = 0;
      uint64_t frontier = 0;
      while (discovery.NeedsRow(row, &resume, &frontier)) {
        if (resume >= kFileSize) {
          discovery.MarkComplete(kFileSize);
          break;
        }
        uint64_t line_end = resume + kWidth - 1;  // "find the newline"
        discovery.PublishRows({resume}, line_end + 1);
        if (frontier == row) {
          *start = resume;
          *end = line_end;
          return true;
        }
      }
    }
  };

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      uint64_t start = 0;
      uint64_t end = 0;
      for (uint64_t row = 0; row < kRows; ++row) {
        if (!locate(row, &start, &end) || start != row * kWidth ||
            end != row * kWidth + kWidth - 1) {
          ++errors;
          return;
        }
      }
      if (locate(kRows, &start, &end)) ++errors;  // past the end
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_TRUE(map.rows_complete());
  ASSERT_EQ(map.known_rows(), kRows);
  for (uint64_t row = 0; row < kRows; row += 97) {
    EXPECT_EQ(map.row_start(row), row * kWidth);
  }
}

TEST(PositionalMapConcurrencyTest, ProbesStayValidUnderConcurrentEviction) {
  // Writers commit chunks into a deliberately tiny budget (constant
  // eviction) while readers prepare plans and probe them; the spans a
  // plan serves must always match the generator formula because plans
  // pin their chunks.
  PositionalMap map = MakeMap(/*budget=*/12 * 1024, /*block=*/64);
  const uint64_t kBlocks = 24;

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      Random rng(42 + static_cast<uint64_t>(t));
      for (int i = 0; i < 1500; ++i) {
        uint64_t block = rng.Uniform(kBlocks);
        std::vector<uint32_t> attrs =
            rng.Bernoulli(0.5) ? std::vector<uint32_t>{3, 7}
                               : std::vector<uint32_t>{2, 5, 9};
        CommitChunk(&map, block * 64, 64, attrs);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Random rng(1000 + static_cast<uint64_t>(t));
      while (!stop.load()) {
        uint64_t block = rng.Uniform(kBlocks);
        std::vector<uint32_t> attrs{3, 7};
        auto plan = map.PrepareBlock(block * 64, attrs);
        for (uint64_t r = 0; r < 64; r += 13) {
          auto probe = plan.Lookup(block * 64 + r, 0);
          if (probe.exact &&
              probe.start != 3 * 10 + static_cast<uint32_t>(r % 7)) {
            ++errors;
          }
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  stop = true;
  for (auto& th : readers) th.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_LE(map.bytes_used(), 12 * 1024u);
}

}  // namespace
}  // namespace nodb
