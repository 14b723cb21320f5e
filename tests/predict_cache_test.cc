#include "zeroshot/predict_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace zerodb::zeroshot {
namespace {

PredictCacheOptions SmallCache(size_t capacity,
                               obs::MetricsRegistry* registry = nullptr) {
  PredictCacheOptions options;
  options.capacity = capacity;
  options.registry = registry;
  return options;
}

TEST(PredictCacheTest, MissThenHit) {
  PredictCache cache(SmallCache(4));
  EXPECT_EQ(cache.Lookup(1), std::nullopt);
  cache.Insert(1, Millis(2.5));
  auto hit = cache.Lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->value(), 2.5);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.evictions(), 0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PredictCacheTest, InsertRefreshesValue) {
  PredictCache cache(SmallCache(4));
  cache.Insert(1, Millis(2.0));
  cache.Insert(1, Millis(3.0));
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.Lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->value(), 3.0);
}

TEST(PredictCacheTest, EvictsLeastRecentlyUsed) {
  PredictCache cache(SmallCache(2));
  cache.Insert(1, Millis(1.0));
  cache.Insert(2, Millis(2.0));
  // Touch 1 so 2 becomes the LRU entry, then push it out with 3.
  ASSERT_TRUE(cache.Lookup(1).has_value());
  cache.Insert(3, Millis(3.0));
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(1).has_value());
  EXPECT_EQ(cache.Lookup(2), std::nullopt);
  EXPECT_TRUE(cache.Lookup(3).has_value());
}

TEST(PredictCacheTest, ZeroCapacityIsRejected) {
  EXPECT_DEATH(PredictCache cache(SmallCache(0)), "capacity");
}

TEST(PredictCacheTest, InvalidateDropsEverything) {
  PredictCache cache(SmallCache(8));
  for (uint64_t key = 0; key < 5; ++key) cache.Insert(key, Millis(1.0));
  EXPECT_EQ(cache.size(), 5u);
  cache.Invalidate();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.invalidations(), 1);
  EXPECT_EQ(cache.Lookup(0), std::nullopt);
}

TEST(PredictCacheTest, MirrorsCountersIntoRegistry) {
  obs::MetricsRegistry registry(/*enabled=*/true);
  PredictCache cache(SmallCache(2, &registry));
  cache.Insert(1, Millis(1.0));
  cache.Lookup(1);   // hit
  cache.Lookup(9);   // miss
  cache.Insert(2, Millis(2.0));
  cache.Insert(3, Millis(3.0));  // evicts
  cache.Invalidate();
  EXPECT_EQ(registry.GetCounter("cache.hit")->value(), 1);
  EXPECT_EQ(registry.GetCounter("cache.miss")->value(), 1);
  EXPECT_EQ(registry.GetCounter("cache.evict")->value(), 1);
  EXPECT_EQ(registry.GetCounter("cache.invalidation")->value(), 1);
  EXPECT_DOUBLE_EQ(registry.GetGauge("cache.hit_rate")->value(), 0.5);
  EXPECT_DOUBLE_EQ(registry.GetGauge("cache.size")->value(), 0.0);
}

// 8 threads hammer a small cache with overlapping key ranges so inserts,
// hits, LRU refreshes and evictions interleave. The assertions are
// accounting invariants; the real check is TSan (nightly flake-hunt runs
// this under --repeat until-fail).
TEST(PredictCacheTest, ConcurrentMixedTraffic) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  PredictCache cache(SmallCache(64));
  std::atomic<int64_t> observed_hits{0};
  // zerodb-lint: allow(raw-thread): stress test needs unmanaged contention
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &observed_hits, t] {
      int64_t local_hits = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        // 128 keys over capacity 64: half the working set misses, so the
        // eviction path stays hot too.
        const uint64_t key =
            static_cast<uint64_t>((i * 7 + t * 13) % 128);
        if (auto hit = cache.Lookup(key)) {
          local_hits += 1;
          EXPECT_GT(hit->value(), 0.0);
        } else {
          cache.Insert(key, Millis(static_cast<double>(key + 1)));
        }
      }
      observed_hits.fetch_add(local_hits, std::memory_order_relaxed);
    });
  }
  // zerodb-lint: allow(raw-thread): stress test needs unmanaged contention
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 64u);
  EXPECT_EQ(cache.hits(), observed_hits.load());
  // Every op was exactly one lookup; hits + misses must balance.
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<int64_t>(kThreads) * kOpsPerThread);
}

}  // namespace
}  // namespace zerodb::zeroshot
