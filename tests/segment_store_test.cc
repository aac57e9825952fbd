// Tests for SegmentStore, the container behind both the binary cache
// and the shadow store: hit/miss accounting, LRU eviction under a byte
// budget, segment replacement, all-or-nothing block probes, generation
// fencing, invalidation and invariants under randomized and concurrent
// workloads.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "store/segment_store.h"
#include "util/random.h"

namespace nodb {
namespace {

std::shared_ptr<ColumnVector> MakeSegment(size_t rows, int64_t base = 0) {
  auto col = std::make_shared<ColumnVector>(DataType::kInt64);
  for (size_t i = 0; i < rows; ++i) {
    col->AppendInt64(base + static_cast<int64_t>(i));
  }
  return col;
}

TEST(SegmentStoreTest, MissThenHit) {
  SegmentStore cache(1 << 20);
  EXPECT_EQ(cache.Get(0, 0), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.Put(0, 0, MakeSegment(100), cache.generation());
  auto seg = cache.Get(0, 0);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(seg->GetInt64(5), 5);
  EXPECT_TRUE(cache.Contains(0, 0));
  EXPECT_FALSE(cache.Contains(0, 1));
  EXPECT_FALSE(cache.Contains(1, 0));
}

TEST(SegmentStoreTest, KeysAreAttrBlockPairs) {
  SegmentStore cache(1 << 20);
  cache.Put(1, 2, MakeSegment(10, 100), cache.generation());
  cache.Put(2, 1, MakeSegment(10, 200), cache.generation());
  EXPECT_EQ(cache.Get(1, 2)->GetInt64(0), 100);
  EXPECT_EQ(cache.Get(2, 1)->GetInt64(0), 200);
}

TEST(SegmentStoreTest, ReplaceUpdatesBytes) {
  SegmentStore cache(1 << 20);
  cache.Put(0, 0, MakeSegment(10), cache.generation());
  size_t small = cache.bytes_used();
  cache.Put(0, 0, MakeSegment(1000), cache.generation());
  EXPECT_GT(cache.bytes_used(), small);
  EXPECT_EQ(cache.num_segments(), 1u);
  EXPECT_EQ(cache.Get(0, 0)->size(), 1000u);
}

TEST(SegmentStoreTest, LruEvictionUnderBudget) {
  // Each 100-row int segment is ~900 bytes with overhead; budget for ~4.
  SegmentStore cache(4000);
  for (uint32_t a = 0; a < 10; ++a) {
    cache.Put(a, 0, MakeSegment(100), cache.generation());
    EXPECT_LE(cache.bytes_used(), 4000u);
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_EQ(cache.Get(0, 0), nullptr);   // oldest evicted
  EXPECT_NE(cache.Get(9, 0), nullptr);   // newest resident
}

TEST(SegmentStoreTest, GetRefreshesRecency) {
  SegmentStore cache(4000);
  cache.Put(0, 0, MakeSegment(100), cache.generation());
  for (uint32_t a = 1; a < 10; ++a) {
    ASSERT_NE(cache.Get(0, 0), nullptr) << "a=" << a;  // keep attr 0 hot
    cache.Put(a, 0, MakeSegment(100), cache.generation());
  }
  EXPECT_NE(cache.Get(0, 0), nullptr);
}

TEST(SegmentStoreTest, OversizedSegmentRejected) {
  SegmentStore cache(100);
  cache.Put(0, 0, MakeSegment(1000), cache.generation());
  EXPECT_FALSE(cache.Contains(0, 0));
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(SegmentStoreTest, OversizedReplacementInvalidatesStaleEntry) {
  // Regression: Put() used to return early on an over-budget segment
  // *without* dropping the existing entry under the same key, so a
  // re-parsed block (e.g. the tail after an append) could keep serving
  // its stale predecessor.
  SegmentStore cache(2000);
  cache.Put(3, 7, MakeSegment(10, 100), cache.generation());
  ASSERT_NE(cache.Get(3, 7), nullptr);
  size_t occupied = cache.bytes_used();
  ASSERT_GT(occupied, 0u);

  // Far over the whole budget.
  cache.Put(3, 7, MakeSegment(100000, 999), cache.generation());
  EXPECT_FALSE(cache.Contains(3, 7));
  EXPECT_EQ(cache.Get(3, 7), nullptr);  // stale data must be gone
  EXPECT_EQ(cache.bytes_used(), 0u);
  EXPECT_EQ(cache.num_segments(), 0u);
}

TEST(SegmentStoreTest, ClearResetsContentKeepsCounters) {
  SegmentStore cache(1 << 20);
  cache.Put(0, 0, MakeSegment(10), cache.generation());
  ASSERT_NE(cache.Get(0, 0), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.num_segments(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
  EXPECT_EQ(cache.Get(0, 0), nullptr);
}

TEST(SegmentStoreTest, UtilizationTracksBudget) {
  SegmentStore cache(10000);
  EXPECT_DOUBLE_EQ(cache.utilization(), 0.0);
  cache.Put(0, 0, MakeSegment(100), cache.generation());
  EXPECT_GT(cache.utilization(), 0.0);
  EXPECT_LE(cache.utilization(), 1.0);
}

TEST(SegmentStoreTest, PutGetContainsAndCoverage) {
  SegmentStore store(1 << 20);
  EXPECT_EQ(store.Get(0, 0), nullptr);
  EXPECT_FALSE(store.Contains(0, 0));

  store.Put(0, 0, MakeSegment(64, 0), store.generation());
  store.Put(0, 1, MakeSegment(64, 64), store.generation());
  store.Put(3, 0, MakeSegment(64, 0), store.generation());
  EXPECT_TRUE(store.Contains(0, 0));
  EXPECT_TRUE(store.Contains(3, 0));
  EXPECT_EQ(store.num_segments(), 3u);
  EXPECT_EQ(store.promotions(), 3u);
  EXPECT_EQ(store.rows_materialized(0), 128u);
  EXPECT_EQ(store.rows_materialized(3), 64u);
  EXPECT_EQ(store.rows_materialized(1), 0u);

  auto seg = store.Get(0, 1);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->GetInt64(0), 64);

  // Duplicate promotion is a no-op: the resident segment parsed the
  // same bytes.
  store.Put(0, 0, MakeSegment(64, 1000), store.generation());
  EXPECT_EQ(store.promotions(), 3u);
  EXPECT_EQ(store.Get(0, 0)->GetInt64(0), 0);

  EXPECT_EQ(store.MaterializedAttributes(),
            (std::vector<uint32_t>{0, 3}));
}

TEST(SegmentStoreTest, GetBlockIsAllOrNothing) {
  SegmentStore store(1 << 20);
  store.Put(0, 2, MakeSegment(64, 0), store.generation());
  store.Put(5, 2, MakeSegment(64, 100), store.generation());

  std::vector<std::shared_ptr<const ColumnVector>> segs;
  EXPECT_TRUE(store.GetBlock({0, 5}, 2, &segs));
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[1]->GetInt64(0), 100);
  EXPECT_EQ(store.hits(), 1u);

  // One attribute missing: nothing is returned, one miss counted.
  EXPECT_FALSE(store.GetBlock({0, 3, 5}, 2, &segs));
  EXPECT_TRUE(segs.empty());
  EXPECT_EQ(store.misses(), 1u);
}

TEST(SegmentStoreTest, LruEvictionSparesTouchedBlock) {
  size_t one_segment = MakeSegment(64, 0)->MemoryUsage();
  SegmentStore store(one_segment * 2 + one_segment / 2);
  store.Put(0, 0, MakeSegment(64, 0), store.generation());
  store.Put(0, 1, MakeSegment(64, 64), store.generation());
  EXPECT_EQ(store.evictions(), 0u);

  // Touch block 0 so block 1 is the LRU victim.
  ASSERT_NE(store.Get(0, 0), nullptr);
  store.Put(0, 2, MakeSegment(64, 128), store.generation());
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_TRUE(store.Contains(0, 0));
  EXPECT_FALSE(store.Contains(0, 1));
  EXPECT_TRUE(store.Contains(0, 2));
  EXPECT_LE(store.bytes_used(), store.budget_bytes());
  EXPECT_EQ(store.rows_materialized(0), 128u);

  // A segment larger than the whole budget is rejected silently.
  SegmentStore tiny(8);
  tiny.Put(0, 0, MakeSegment(64, 0), tiny.generation());
  EXPECT_EQ(tiny.num_segments(), 0u);
}

TEST(SegmentStoreTest, DropBlocksFromAndClear) {
  SegmentStore store(1 << 20);
  store.Put(0, 0, MakeSegment(64, 0), store.generation());
  store.Put(0, 1, MakeSegment(64, 64), store.generation());
  store.Put(1, 2, MakeSegment(32, 0), store.generation());

  store.DropBlocksFrom(1);
  EXPECT_TRUE(store.Contains(0, 0));
  EXPECT_FALSE(store.Contains(0, 1));
  EXPECT_FALSE(store.Contains(1, 2));
  EXPECT_EQ(store.rows_materialized(0), 64u);
  EXPECT_EQ(store.rows_materialized(1), 0u);

  store.Clear();
  EXPECT_EQ(store.num_segments(), 0u);
  EXPECT_EQ(store.bytes_used(), 0u);
  EXPECT_EQ(store.rows_materialized(0), 0u);
}

TEST(SegmentStoreTest, StaleGenerationPutsAreRejected) {
  SegmentStore store(1 << 20);
  uint64_t before = store.generation();
  store.Put(0, 0, MakeSegment(64, 0), before);
  ASSERT_TRUE(store.Contains(0, 0));

  // A rewrite clears the store and moves the generation: an in-flight
  // pass that parsed the old file must not repopulate it.
  store.Clear();
  EXPECT_NE(store.generation(), before);
  store.Put(0, 0, MakeSegment(64, 999), before);
  EXPECT_EQ(store.num_segments(), 0u);

  store.Put(0, 0, MakeSegment(64, 7), store.generation());
  ASSERT_TRUE(store.Contains(0, 0));
  EXPECT_EQ(store.Get(0, 0)->GetInt64(0), 7);
}

/// Property sweep across budgets: the cache never exceeds its budget,
/// hits always return the exact segment last Put, and hit+miss counts
/// equal the number of Gets.
class CacheBudgetSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(CacheBudgetSweep, InvariantsUnderRandomAccess) {
  size_t budget = GetParam();
  SegmentStore cache(budget);
  Random rng(budget);
  uint64_t gets = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    uint32_t attr = static_cast<uint32_t>(rng.Uniform(8));
    uint64_t block = rng.Uniform(8);
    if (rng.Bernoulli(0.5)) {
      cache.Put(attr, block,
                MakeSegment(1 + rng.Uniform(200),
                            static_cast<int64_t>(attr * 1000 + block)),
                cache.generation());
    } else {
      ++gets;
      auto seg = cache.Get(attr, block);
      if (seg != nullptr) {
        EXPECT_EQ(seg->GetInt64(0),
                  static_cast<int64_t>(attr * 1000 + block));
      }
    }
    ASSERT_LE(cache.bytes_used(), budget);
  }
  EXPECT_EQ(cache.hits() + cache.misses(), gets);
}

INSTANTIATE_TEST_SUITE_P(Budgets, CacheBudgetSweep,
                         ::testing::Values(2000, 8000, 64000, 1 << 20));

// --------------------------------------------------------- concurrency

TEST(SegmentStoreConcurrencyTest, ConcurrentGetPutStaysConsistent) {
  // Eight threads hammer one small cache with mixed Get/Put/Contains;
  // every segment for key (attr, block) carries a key-derived marker,
  // so any cross-wired entry or torn LRU touch shows up as a wrong
  // value (and TSan sees any unlocked access).
  const size_t budget = 16000;
  SegmentStore cache(budget);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      Random rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        uint32_t attr = static_cast<uint32_t>(rng.Uniform(4));
        uint64_t block = rng.Uniform(16);
        switch (rng.Uniform(3)) {
          case 0:
            cache.Put(attr, block,
                      MakeSegment(1 + rng.Uniform(50),
                                  static_cast<int64_t>(attr * 1000 + block)),
                      cache.generation());
            break;
          case 1: {
            auto seg = cache.Get(attr, block);
            if (seg != nullptr) {
              EXPECT_EQ(seg->GetInt64(0),
                        static_cast<int64_t>(attr * 1000 + block));
            }
            break;
          }
          default:
            cache.Contains(attr, block);
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_LE(cache.bytes_used(), budget);
  // Counters were kept under the lock, so they add up exactly.
  uint64_t lookups = cache.hits() + cache.misses();
  EXPECT_GT(lookups, 0u);
  // The cache still works after the storm.
  cache.Put(9, 9, MakeSegment(5, 9009), cache.generation());
  auto seg = cache.Get(9, 9);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->GetInt64(0), 9009);
}

TEST(SegmentStoreConcurrencyTest, HitsSurviveConcurrentEviction) {
  // A reader holds segments it got from the cache while a writer
  // floods the cache and evicts everything repeatedly: shared
  // ownership must keep every held segment valid and unchanged.
  SegmentStore cache(8000);
  cache.Put(0, 0, MakeSegment(64, 42), cache.generation());

  std::thread writer([&cache] {
    for (int round = 0; round < 2000; ++round) {
      cache.Put(1, static_cast<uint64_t>(round % 8), MakeSegment(128, round),
                cache.generation());
    }
  });

  for (int i = 0; i < 2000; ++i) {
    auto seg = cache.Get(0, 0);
    if (seg == nullptr) {
      cache.Put(0, 0, MakeSegment(64, 42), cache.generation());
      continue;
    }
    ASSERT_EQ(seg->size(), 64u);
    EXPECT_EQ(seg->GetInt64(0), 42);
    EXPECT_EQ(seg->GetInt64(63), 42 + 63);
  }
  writer.join();
}

}  // namespace
}  // namespace nodb
