#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "nn/arena.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace zerodb::nn {
namespace {

// ---- BufferPool -----------------------------------------------------------

TEST(BufferPoolTest, MissThenHitReusesCapacity) {
  BufferPool<float> pool;
  std::vector<float> first = pool.Acquire(100);
  EXPECT_EQ(first.size(), 100u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 0u);
  first[0] = 42.0f;
  const float* storage = first.data();
  pool.Release(std::move(first));
  EXPECT_GT(pool.retained_bytes(), 0u);

  // Same size class: served from the bucket, zeroed, same heap block.
  std::vector<float> second = pool.Acquire(80);
  EXPECT_EQ(second.size(), 80u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(second.data(), storage);
  for (float v : second) EXPECT_EQ(v, 0.0f);
}

TEST(BufferPoolTest, ReleasedCapacityAlwaysCoversReacquire) {
  // Release files under the floor-pow2 bucket of *capacity*, Acquire looks
  // up the ceil-pow2 bucket of the request — so a hit never reallocates.
  BufferPool<float> pool;
  std::vector<float> odd;
  odd.reserve(100);  // capacity 100: floor bucket 64, covers requests <= 64
  odd.resize(100);
  pool.Release(std::move(odd));
  std::vector<float> out = pool.Acquire(64);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_GE(out.capacity(), 100u);
}

TEST(BufferPoolTest, BucketCapBoundsRetention) {
  BufferPool<float> pool;
  const size_t n = 128;
  for (size_t i = 0; i < BufferPool<float>::kMaxPerBucket + 16; ++i) {
    pool.Release(std::vector<float>(n));
  }
  // Only kMaxPerBucket buffers retained; the rest were freed.
  EXPECT_LE(pool.retained_bytes(),
            BufferPool<float>::kMaxPerBucket * n * sizeof(float));
  pool.Clear();
  EXPECT_EQ(pool.retained_bytes(), 0u);
}

TEST(BufferPoolTest, TinyAndZeroRequests) {
  BufferPool<float> pool;
  std::vector<float> zero = pool.Acquire(0);
  EXPECT_TRUE(zero.empty());
  std::vector<float> one = pool.Acquire(1);
  EXPECT_EQ(one.size(), 1u);
  pool.Release(std::move(one));
  std::vector<float> again = pool.Acquire(1);
  EXPECT_EQ(again.size(), 1u);
  EXPECT_GE(pool.hits(), 1u);
}

// ---- GraphArena -----------------------------------------------------------

TEST(GraphArenaTest, SlabGrowthBoundaries) {
  GraphArena arena;
  std::vector<std::shared_ptr<Node>> nodes;
  // Cross two slab boundaries exactly.
  const size_t count = GraphArena::kNodesPerSlab * 2 + 1;
  for (size_t i = 0; i < count; ++i) nodes.push_back(arena.NewNode());
  ArenaStats stats = arena.stats();
  EXPECT_EQ(stats.slabs, 3u);
  EXPECT_EQ(stats.nodes_in_use, count);

  nodes.clear();  // all handles dead before Reset
  arena.Reset();
  stats = arena.stats();
  EXPECT_EQ(stats.nodes_in_use, 0u);
  EXPECT_EQ(stats.slabs, 3u);  // slabs are retained for reuse
  EXPECT_EQ(stats.resets, 1u);

  // The rewound slots serve the next epoch without growing.
  std::vector<std::shared_ptr<Node>> again;
  for (size_t i = 0; i < count; ++i) again.push_back(arena.NewNode());
  EXPECT_EQ(arena.stats().slabs, 3u);
}

TEST(GraphArenaTest, ResetReuseReachesSteadyState) {
  GraphArena arena;
  Tensor w = Tensor::Parameter(4, 4, std::vector<float>(16, 0.5f));
  Tensor b = Tensor::Parameter(1, 4, std::vector<float>(4, 0.1f));
  Tensor v = Tensor::Parameter(4, 1, std::vector<float>(4, 0.3f));

  auto run_epoch = [&]() {
    ArenaGuard guard(&arena);
    {
      Tensor x = Tensor::Full(8, 4, 1.0f);
      Tensor y = LinearFused(x, w, b, /*fuse_relu=*/true);
      Tensor pred = MatMul(y, v);
      Tensor loss = MseLoss(pred, Tensor::Zeros(8, 1));
      loss.Backward();
    }
    arena.Reset();
  };

  run_epoch();  // warmup: buffers miss, slabs allocate
  const ArenaStats warm = arena.stats();
  for (int i = 0; i < 10; ++i) run_epoch();
  const ArenaStats steady = arena.stats();
  // After warmup every buffer acquisition is a pool hit and no new slab is
  // ever needed — the whole point of the arena.
  EXPECT_EQ(steady.buffer_misses, warm.buffer_misses);
  EXPECT_EQ(steady.slabs, warm.slabs);
  EXPECT_EQ(steady.resets, warm.resets + 10);
}

TEST(GraphArenaTest, PooledMatchesFreshBitwise) {
  auto run = [](GraphArena* arena, uint64_t seed) {
    ArenaGuard guard(arena);  // null arena = fresh-allocation path
    Rng rng(seed);
    Tensor w = Tensor::Parameter(6, 3, std::vector<float>(18, 0.25f));
    Tensor b = Tensor::Parameter(1, 3, std::vector<float>(3, -0.05f));
    std::vector<float> input(5 * 6);
    for (size_t i = 0; i < input.size(); ++i) {
      input[i] = static_cast<float>(i % 7) * 0.3f - 1.0f;
    }
    Tensor v = Tensor::Parameter(3, 1, std::vector<float>(3, 0.4f));
    Tensor x = Tensor::FromData(5, 6, std::move(input));
    Tensor h = LinearFused(x, w, b, /*fuse_relu=*/true);
    Tensor d = Dropout(h, 0.5f, &rng, /*training=*/true);
    Tensor loss = MseLoss(MatMul(d, v), Tensor::Zeros(5, 1));
    loss.Backward();
    std::vector<float> out = loss.data();
    out.insert(out.end(), w.grad().begin(), w.grad().end());
    out.insert(out.end(), b.grad().begin(), b.grad().end());
    return out;
  };

  GraphArena arena;
  std::vector<float> pooled = run(&arena, 7);
  arena.Reset();
  std::vector<float> fresh = run(nullptr, 7);
  ASSERT_EQ(pooled.size(), fresh.size());
  for (size_t i = 0; i < pooled.size(); ++i) {
    EXPECT_EQ(pooled[i], fresh[i]) << "index " << i;
  }
  // Second pooled epoch on recycled nodes/buffers: still bitwise equal.
  std::vector<float> recycled = run(&arena, 7);
  arena.Reset();
  for (size_t i = 0; i < recycled.size(); ++i) {
    EXPECT_EQ(recycled[i], fresh[i]) << "index " << i;
  }
}

TEST(GraphArenaTest, PooledBuffersRideInsideNodes) {
  // Dropout masks / gather indices move into aux buffers and return to the
  // pool on Reset — the second epoch's acquisitions are all hits.
  GraphArena arena;
  auto epoch = [&]() {
    ArenaGuard guard(&arena);
    {
      Rng rng(3);
      Tensor x = Tensor::Parameter(4, 4, std::vector<float>(16, 1.0f));
      Tensor v = Tensor::Parameter(4, 1, std::vector<float>(4, 0.2f));
      Tensor d = Dropout(x, 0.25f, &rng, /*training=*/true);
      Tensor g = RowGather(d, {2u, 0u, 1u, 3u});
      Tensor loss = MseLoss(MatMul(g, v), Tensor::Zeros(4, 1));
      loss.Backward();
    }
    arena.Reset();
  };
  epoch();
  const uint64_t misses_after_warmup = arena.stats().buffer_misses;
  epoch();
  EXPECT_EQ(arena.stats().buffer_misses, misses_after_warmup);
  EXPECT_GT(arena.stats().buffer_hits, 0u);
}

TEST(GraphArenaTest, GuardNestsAndRestores) {
  GraphArena outer_arena;
  GraphArena inner_arena;
  EXPECT_EQ(ActiveArena(), nullptr);
  {
    ArenaGuard outer(&outer_arena);
    EXPECT_EQ(ActiveArena(), &outer_arena);
    {
      ArenaGuard inner(&inner_arena);
      EXPECT_EQ(ActiveArena(), &inner_arena);
      {
        ArenaGuard none(nullptr);
        // Null guard is a no-op, not a "deactivate".
        EXPECT_EQ(ActiveArena(), &inner_arena);
      }
      EXPECT_EQ(ActiveArena(), &inner_arena);
    }
    EXPECT_EQ(ActiveArena(), &outer_arena);
  }
  EXPECT_EQ(ActiveArena(), nullptr);
}

TEST(GraphArenaTest, StatsHookFiresOnReset) {
  static std::atomic<uint64_t> observed_resets{0};
  InstallArenaStatsHook(
      [](const ArenaStats& stats) { observed_resets = stats.resets; });
  GraphArena arena;
  arena.Reset();
  arena.Reset();
  InstallArenaStatsHook(nullptr);
  EXPECT_EQ(observed_resets.load(), 2u);
}

TEST(GraphArenaTest, EnabledOverride) {
  SetArenaEnabledForTest(false);
  EXPECT_FALSE(ArenaEnabled());
  SetArenaEnabledForTest(true);
  EXPECT_TRUE(ArenaEnabled());
  ClearArenaEnabledOverrideForTest();
  // Without an override the env variable decides; this test process does
  // not set ZERODB_ARENA=off, so the default is on.
  if (const char* env = std::getenv("ZERODB_ARENA");
      env == nullptr || std::string_view(env) != "off") {
    EXPECT_TRUE(ArenaEnabled());
  } else {
    EXPECT_FALSE(ArenaEnabled());
  }
}

// ---- Tensor factories ------------------------------------------------------

TEST(GraphArenaTest, ZerosLikeMatchesShapeAndZeroes) {
  Tensor ref = Tensor::FromData(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor z = Tensor::ZerosLike(ref);
  EXPECT_EQ(z.rows(), 3u);
  EXPECT_EQ(z.cols(), 2u);
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);

  // Under an arena the buffer is pooled — recycled storage must still come
  // back zeroed (gradient init depends on it).
  GraphArena arena;
  {
    ArenaGuard guard(&arena);
    Tensor dirty = Tensor::Full(3, 2, 9.0f);
    (void)dirty;
  }
  arena.Reset();
  {
    ArenaGuard guard(&arena);
    Tensor z2 = Tensor::ZerosLike(ref);
    for (float v : z2.data()) EXPECT_EQ(v, 0.0f);
  }
  arena.Reset();
}

// ---- Multithreaded stress (8 threads; run under TSan in CI) ---------------

TEST(ArenaStressTest, EightThreadReplicaArenas) {
  // Mirrors the trainer's shard-executor pattern: every thread owns one
  // arena and cycles build-backward-reset. Arenas share nothing but the
  // process-wide stats counters; TSan verifies that claim.
  const size_t kThreads = 8;
  const int kCycles = 25;
  std::atomic<int> failures{0};
  // Dedicated threads on purpose: the stress needs 8 threads live at once,
  // each binding its own arena, and the shared pool may have fewer workers.
  // zerodb-lint: allow(raw-thread): per-thread arenas need dedicated threads
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures]() {
      GraphArena arena;
      Tensor w =
          Tensor::Parameter(8, 8, std::vector<float>(64, 0.125f * (t + 1)));
      Tensor b = Tensor::Parameter(1, 8, std::vector<float>(8, 0.01f));
      for (int cycle = 0; cycle < kCycles; ++cycle) {
        ArenaGuard guard(&arena);
        {
          Rng rng(t * 1000 + cycle);
          Tensor v = Tensor::Parameter(8, 1, std::vector<float>(8, 0.1f));
          Tensor x = Tensor::Full(16, 8, 0.5f);
          Tensor h = LinearFused(x, w, b, /*fuse_relu=*/true);
          Tensor d = Dropout(h, 0.1f, &rng, /*training=*/true);
          Tensor loss = MseLoss(MatMul(d, v), Tensor::Zeros(16, 1));
          loss.Backward();
          if (loss.data().empty() || w.grad().empty()) failures.fetch_add(1);
        }
        w.ZeroGrad();
        b.ZeroGrad();
        arena.Reset();
      }
      // Steady state: slab count small and stable, nothing in use.
      if (arena.stats().nodes_in_use != 0) failures.fetch_add(1);
    });
  }
  // zerodb-lint: allow(raw-thread): joins the dedicated threads above
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace zerodb::nn
