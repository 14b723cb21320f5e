#ifndef ZERODB_NN_ARENA_H_
#define ZERODB_NN_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/tensor.h"

namespace zerodb::nn {

/// Point-in-time view of one arena, published to the stats hook and the
/// obs gauges on every Reset.
struct ArenaStats {
  size_t slabs = 0;             ///< node slabs currently owned
  size_t bytes_in_use = 0;      ///< slab bytes + bytes retained by the pool
  size_t nodes_in_use = 0;      ///< nodes handed out since the last Reset
  uint64_t buffer_hits = 0;     ///< lifetime pool acquisitions served from a bucket
  uint64_t buffer_misses = 0;   ///< lifetime pool acquisitions that heap-allocated
  uint64_t resets = 0;          ///< lifetime Reset calls
};

/// Size-bucketed free list of vectors. Acquire(n) returns a zeroed vector of
/// size n, reusing a retained buffer whose capacity covers n when one is
/// available (bucket = ceil-pow2 of the request); Release files a spent
/// buffer under the floor-pow2 bucket of its capacity, so a reacquire of the
/// same class is guaranteed to fit without reallocating. Buckets are capped:
/// once a class holds kMaxPerBucket buffers, further releases free instead
/// of retaining, which bounds memory when producers outpace consumers.
///
/// Not thread-safe — each pool belongs to one GraphArena, and each arena to
/// one shard executor at a time (the trainer's executor free-list is the
/// hand-off point).
template <typename T>
class BufferPool {
 public:
  static constexpr size_t kMinBucketLog2 = 3;   // smallest class: 8 elements
  static constexpr size_t kMaxBucketLog2 = 26;  // largest class: 64M elements
  static constexpr size_t kMaxPerBucket = 64;

  /// A zero-filled vector of size n (values are value-initialized whether
  /// the buffer is recycled or fresh, so callers can accumulate into it).
  std::vector<T> Acquire(size_t n);

  /// Returns a buffer to its capacity class. Empty/overfull classes free.
  void Release(std::vector<T>&& buffer);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  size_t retained_bytes() const { return retained_bytes_; }

  /// Frees every retained buffer (stats persist).
  void Clear();

 private:
  static size_t BucketForRequest(size_t n);
  static size_t BucketForCapacity(size_t capacity);

  std::vector<std::vector<T>> buckets_[kMaxBucketLog2 + 1];
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  size_t retained_bytes_ = 0;
};

/// Epoch-scoped allocator for the training-path autodiff graph: Node objects
/// come from slab-backed bump storage, value/grad/aux buffers from a
/// BufferPool. One arena serves one shard executor; the trainer resets it
/// after every shard's gradients are harvested, which recycles every node
/// and buffer without returning memory to the heap — at steady state a
/// training batch performs no allocations in the nn layer.
///
/// Node handles are aliasing shared_ptrs onto a single per-arena anchor, so
/// creating one costs two atomic increments, not a control-block allocation.
/// Reset() checks (debug builds) that no handle outlives the graph: the
/// anchor's use_count must be back to 1.
class GraphArena {
 public:
  static constexpr size_t kNodesPerSlab = 256;

  GraphArena();
  ~GraphArena();

  GraphArena(const GraphArena&) = delete;
  GraphArena& operator=(const GraphArena&) = delete;

  /// A fresh default-constructed Node owned by this arena (node->arena set).
  std::shared_ptr<Node> NewNode();

  /// Pooled zeroed buffers for values / grads / op aux data.
  std::vector<float> AcquireFloats(size_t n) { return floats_.Acquire(n); }
  std::vector<uint32_t> AcquireIndices(size_t n) { return indices_.Acquire(n); }
  void ReleaseFloats(std::vector<float>&& v) { floats_.Release(std::move(v)); }

  /// Pooled parents vectors (shared_ptr copies are cheap; the vector's heap
  /// block is what this recycles).
  std::vector<std::shared_ptr<Node>> AcquireParents();
  void ReleaseParents(std::vector<std::shared_ptr<Node>>&& parents);

  /// Recycles every node and buffer handed out since the last Reset: buffers
  /// return to the pool, nodes are destroyed and their slab slots rewound
  /// (slabs themselves are kept for reuse). All Tensor handles into this
  /// arena must be dead; debug builds check the anchor refcount. Publishes
  /// stats to the obs gauges and the installed stats hook.
  void Reset();

  ArenaStats stats() const;

 private:
  struct NodeSlab;

  std::shared_ptr<void> anchor_;
  std::vector<std::unique_ptr<NodeSlab>> slabs_;
  size_t nodes_in_use_ = 0;
  uint64_t resets_ = 0;
  uint64_t published_hits_ = 0;    ///< pool hits already pushed to obs
  uint64_t published_misses_ = 0;  ///< pool misses already pushed to obs
  BufferPool<float> floats_;
  BufferPool<uint32_t> indices_;
  std::vector<std::vector<std::shared_ptr<Node>>> parents_pool_;
};

/// Installs `arena` as the active arena for the current thread; MakeOpResult
/// and the Tensor factories allocate from it while the guard is alive.
/// Thread-local and nesting: restores the previous active arena on
/// destruction. A null arena is a no-op guard — callers can pass their
/// "maybe pooled" pointer unconditionally.
class ArenaGuard {
 public:
  explicit ArenaGuard(GraphArena* arena);
  ~ArenaGuard();

  ArenaGuard(const ArenaGuard&) = delete;
  ArenaGuard& operator=(const ArenaGuard&) = delete;

 private:
  GraphArena* previous_;
};

/// The current thread's active arena, or null when none is installed.
GraphArena* ActiveArena();

/// A pooled zeroed buffer from the active arena, or a plain heap vector when
/// no arena is installed. Callers that move buffers into graph nodes (op aux
/// data, FromData inputs) should acquire through these so the buffer returns
/// to the pool on Reset.
std::vector<float> AcquirePooledFloats(size_t n);
std::vector<uint32_t> AcquirePooledIndices(size_t n);

/// False when the ZERODB_ARENA environment variable is "off" (or a test
/// override is in place): the trainer then skips arena construction and
/// every allocation takes the plain heap path. The fallback is exercised by
/// a nightly ASan job; results are bit-identical either way (pinned by
/// TrainTest.PooledMemoryDoesNotChangeLossHistory).
bool ArenaEnabled();

/// Test-only override of ArenaEnabled (pass std::nullopt-like semantics by
/// restoring with the previous value). Not thread-safe; call from test main
/// thread only.
void SetArenaEnabledForTest(bool enabled);
void ClearArenaEnabledOverrideForTest();

/// Hook fired (with the arena's stats) on every GraphArena::Reset — the
/// bench harness installs one to count steady-state pool misses per batch.
/// Pass nullptr to uninstall. The hook must be thread-safe: shard executors
/// reset their arenas from pool threads.
using ArenaStatsHook = void (*)(const ArenaStats&);
void InstallArenaStatsHook(ArenaStatsHook hook);

/// Process-wide allocation counters for the autodiff layer, for benchmarks
/// and tests that assert steady-state allocation behavior. heap_nodes counts
/// make_shared fallbacks in MakeOpResult / the Tensor factories; arena_nodes
/// counts slab allocations; pool hits/misses aggregate over every arena.
struct AutodiffAllocCounters {
  uint64_t heap_nodes = 0;
  uint64_t arena_nodes = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
};
AutodiffAllocCounters GlobalAllocCounters();

namespace arena_internal {
/// Called by the heap fallback in tensor.cc; counts toward
/// GlobalAllocCounters().heap_nodes.
void CountHeapNode();
}  // namespace arena_internal

}  // namespace zerodb::nn

#endif  // ZERODB_NN_ARENA_H_
