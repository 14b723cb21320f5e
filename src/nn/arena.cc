#include "nn/arena.h"

#include <atomic>
#include <cstdlib>
#include <string_view>

#include "common/check.h"
#include "obs/metrics.h"

namespace zerodb::nn {

namespace {

// Process-wide allocation counters (relaxed: they are observational — reads
// only need eventual consistency, and each is independently monotonic).
std::atomic<uint64_t> g_heap_nodes{0};
std::atomic<uint64_t> g_arena_nodes{0};
std::atomic<uint64_t> g_pool_hits{0};
std::atomic<uint64_t> g_pool_misses{0};

std::atomic<ArenaStatsHook> g_stats_hook{nullptr};

size_t CeilLog2(size_t n) {
  size_t log2 = 0;
  size_t value = 1;
  while (value < n) {
    value <<= 1;
    ++log2;
  }
  return log2;
}

size_t FloorLog2(size_t n) {
  size_t log2 = 0;
  while ((n >> 1) != 0) {
    n >>= 1;
    ++log2;
  }
  return log2;
}

}  // namespace

template <typename T>
size_t BufferPool<T>::BucketForRequest(size_t n) {
  size_t bucket = CeilLog2(n);
  return bucket < kMinBucketLog2 ? kMinBucketLog2 : bucket;
}

template <typename T>
size_t BufferPool<T>::BucketForCapacity(size_t capacity) {
  return FloorLog2(capacity);
}

template <typename T>
std::vector<T> BufferPool<T>::Acquire(size_t n) {
  const size_t bucket = BucketForRequest(n);
  if (bucket <= kMaxBucketLog2 && !buckets_[bucket].empty()) {
    std::vector<T> buffer = std::move(buckets_[bucket].back());
    buckets_[bucket].pop_back();
    retained_bytes_ -= buffer.capacity() * sizeof(T);
    ++hits_;
    g_pool_hits.fetch_add(1, std::memory_order_relaxed);
    // clear + resize value-initializes exactly n elements within the
    // retained capacity: a memset, never a reallocation.
    buffer.clear();
    buffer.resize(n);
    return buffer;
  }
  ++misses_;
  g_pool_misses.fetch_add(1, std::memory_order_relaxed);
  std::vector<T> buffer;
  buffer.reserve(size_t{1} << bucket);
  buffer.resize(n);
  return buffer;
}

template <typename T>
void BufferPool<T>::Release(std::vector<T>&& buffer) {
  if (buffer.capacity() == 0) return;
  const size_t bucket = BucketForCapacity(buffer.capacity());
  if (bucket < kMinBucketLog2 || bucket > kMaxBucketLog2 ||
      buckets_[bucket].size() >= kMaxPerBucket) {
    return;  // dropping the buffer frees it
  }
  retained_bytes_ += buffer.capacity() * sizeof(T);
  buckets_[bucket].push_back(std::move(buffer));
}

template <typename T>
void BufferPool<T>::Clear() {
  for (auto& bucket : buckets_) bucket.clear();
  retained_bytes_ = 0;
}

template class BufferPool<float>;
template class BufferPool<uint32_t>;

// Raw node storage: construction/destruction is managed per-slot by the
// arena (placement new in NewNode, explicit destructor call in Reset).
struct GraphArena::NodeSlab {
  alignas(alignof(Node)) unsigned char bytes[kNodesPerSlab * sizeof(Node)];

  Node* slot(size_t i) {
    return reinterpret_cast<Node*>(bytes + i * sizeof(Node));
  }
};

GraphArena::GraphArena() : anchor_(std::make_shared<int>(0)) {}

GraphArena::~GraphArena() {
  Reset();
}

std::shared_ptr<Node> GraphArena::NewNode() {
  const size_t slab_index = nodes_in_use_ / kNodesPerSlab;
  if (slab_index == slabs_.size()) {
    slabs_.push_back(std::make_unique<NodeSlab>());
  }
  // Placement new allocates nothing: the slab owns the memory, and the
  // handle returned below is the aliasing shared_ptr.
  // zerodb-lint: allow(naked-new): placement new into arena-owned slab
  Node* node = new (slabs_[slab_index]->slot(nodes_in_use_ % kNodesPerSlab))
      Node();
  node->arena = this;
  ++nodes_in_use_;
  g_arena_nodes.fetch_add(1, std::memory_order_relaxed);
  // Aliasing constructor: the handle shares the arena anchor's control block
  // instead of allocating its own.
  return std::shared_ptr<Node>(anchor_, node);
}

std::vector<std::shared_ptr<Node>> GraphArena::AcquireParents() {
  if (!parents_pool_.empty()) {
    std::vector<std::shared_ptr<Node>> parents = std::move(parents_pool_.back());
    parents_pool_.pop_back();
    return parents;
  }
  std::vector<std::shared_ptr<Node>> parents;
  parents.reserve(4);
  return parents;
}

void GraphArena::ReleaseParents(std::vector<std::shared_ptr<Node>>&& parents) {
  if (parents.capacity() == 0 ||
      parents_pool_.size() >= BufferPool<float>::kMaxPerBucket * 8) {
    return;
  }
  parents.clear();
  parents_pool_.push_back(std::move(parents));
}

void GraphArena::Reset() {
  for (size_t i = 0; i < nodes_in_use_; ++i) {
    Node* node = slabs_[i / kNodesPerSlab]->slot(i % kNodesPerSlab);
    floats_.Release(std::move(node->values));
    floats_.Release(std::move(node->grad));
    floats_.Release(std::move(node->aux_floats));
    indices_.Release(std::move(node->aux_indices));
    ReleaseParents(std::move(node->parents));
    node->~Node();
  }
  nodes_in_use_ = 0;
  ++resets_;
  // Every handle into the graph must be dead by now: the only remaining
  // owner of the anchor control block is the arena itself. A live handle
  // here would be a dangling pointer into rewound slab slots.
  ZDB_DCHECK_EQ(anchor_.use_count(), 1)
      << "GraphArena::Reset with live Tensor handles into the arena";

  const ArenaStats snapshot = stats();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (registry.enabled()) {
    registry.GetGauge("arena.bytes_in_use")
        ->Set(static_cast<double>(snapshot.bytes_in_use));
    registry.GetGauge("arena.slabs")->Set(static_cast<double>(snapshot.slabs));
    registry.GetCounter("pool.buffer_hit")
        ->Add(static_cast<int64_t>(snapshot.buffer_hits - published_hits_));
    registry.GetCounter("pool.buffer_miss")
        ->Add(static_cast<int64_t>(snapshot.buffer_misses - published_misses_));
    published_hits_ = snapshot.buffer_hits;
    published_misses_ = snapshot.buffer_misses;
  }
  if (ArenaStatsHook hook = g_stats_hook.load(std::memory_order_acquire)) {
    hook(snapshot);
  }
}

ArenaStats GraphArena::stats() const {
  ArenaStats stats;
  stats.slabs = slabs_.size();
  stats.bytes_in_use = slabs_.size() * sizeof(NodeSlab) +
                       floats_.retained_bytes() + indices_.retained_bytes();
  stats.nodes_in_use = nodes_in_use_;
  stats.buffer_hits = floats_.hits() + indices_.hits();
  stats.buffer_misses = floats_.misses() + indices_.misses();
  stats.resets = resets_;
  return stats;
}

namespace {

thread_local GraphArena* tl_active_arena = nullptr;

// Tri-state test override over the env-derived default. Plain (non-atomic)
// because SetArenaEnabledForTest is documented main-thread-only and is read
// before worker threads start using arenas.
enum class ArenaOverride : unsigned char { kNone, kOn, kOff };
ArenaOverride g_arena_override = ArenaOverride::kNone;

bool ArenaEnabledFromEnv() {
  // Read once: the knob selects a CI configuration, not a runtime toggle.
  static const bool enabled = [] {
    const char* env = std::getenv("ZERODB_ARENA");  // zerodb-lint: allow(nondet-call)
    return env == nullptr || std::string_view(env) != "off";
  }();
  return enabled;
}

}  // namespace

ArenaGuard::ArenaGuard(GraphArena* arena) : previous_(tl_active_arena) {
  if (arena != nullptr) tl_active_arena = arena;
}

ArenaGuard::~ArenaGuard() { tl_active_arena = previous_; }

GraphArena* ActiveArena() { return tl_active_arena; }

std::vector<float> AcquirePooledFloats(size_t n) {
  if (GraphArena* arena = tl_active_arena) return arena->AcquireFloats(n);
  return std::vector<float>(n);
}

std::vector<uint32_t> AcquirePooledIndices(size_t n) {
  if (GraphArena* arena = tl_active_arena) return arena->AcquireIndices(n);
  return std::vector<uint32_t>(n);
}

bool ArenaEnabled() {
  switch (g_arena_override) {
    case ArenaOverride::kOn:
      return true;
    case ArenaOverride::kOff:
      return false;
    case ArenaOverride::kNone:
      break;
  }
  return ArenaEnabledFromEnv();
}

void SetArenaEnabledForTest(bool enabled) {
  g_arena_override = enabled ? ArenaOverride::kOn : ArenaOverride::kOff;
}

void ClearArenaEnabledOverrideForTest() {
  g_arena_override = ArenaOverride::kNone;
}

void InstallArenaStatsHook(ArenaStatsHook hook) {
  g_stats_hook.store(hook, std::memory_order_release);
}

AutodiffAllocCounters GlobalAllocCounters() {
  AutodiffAllocCounters counters;
  counters.heap_nodes = g_heap_nodes.load(std::memory_order_relaxed);
  counters.arena_nodes = g_arena_nodes.load(std::memory_order_relaxed);
  counters.pool_hits = g_pool_hits.load(std::memory_order_relaxed);
  counters.pool_misses = g_pool_misses.load(std::memory_order_relaxed);
  return counters;
}

namespace arena_internal {
void CountHeapNode() { g_heap_nodes.fetch_add(1, std::memory_order_relaxed); }
}  // namespace arena_internal

}  // namespace zerodb::nn
