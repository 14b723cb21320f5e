#include "zeroshot/predict_cache.h"

#include "common/check.h"
#include "common/sync.h"

namespace zerodb::zeroshot {

namespace {

obs::MetricsRegistry& RegistryOrGlobal(obs::MetricsRegistry* registry) {
  return registry != nullptr ? *registry : obs::MetricsRegistry::Global();
}

}  // namespace

PredictCache::PredictCache(PredictCacheOptions options)
    : options_(std::move(options)),
      hit_counter_(RegistryOrGlobal(options_.registry)
                       .GetCounter("cache.hit")),
      miss_counter_(RegistryOrGlobal(options_.registry)
                        .GetCounter("cache.miss")),
      evict_counter_(RegistryOrGlobal(options_.registry)
                         .GetCounter("cache.evict")),
      invalidation_counter_(RegistryOrGlobal(options_.registry)
                                .GetCounter("cache.invalidation")),
      hit_rate_gauge_(RegistryOrGlobal(options_.registry)
                          .GetGauge("cache.hit_rate")),
      size_gauge_(RegistryOrGlobal(options_.registry)
                      .GetGauge("cache.size")) {
  ZDB_CHECK_GT(options_.capacity, 0u) << "PredictCache needs capacity > 0";
}

void PredictCache::UpdateGaugesLocked() {
  mu_.AssertHeld();
  const int64_t lookups = hits_ + misses_;
  if (lookups > 0) {
    hit_rate_gauge_->Set(static_cast<double>(hits_) /
                         static_cast<double>(lookups));
  }
  size_gauge_->Set(static_cast<double>(lru_.size()));
}

std::optional<Millis> PredictCache::Lookup(uint64_t key) {
  MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    miss_counter_->Add(1);
    UpdateGaugesLocked();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  hit_counter_->Add(1);
  UpdateGaugesLocked();
  return it->second->predicted;
}

void PredictCache::Insert(uint64_t key, Millis predicted) {
  MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->predicted = predicted;
    lru_.splice(lru_.begin(), lru_, it->second);
    UpdateGaugesLocked();
    return;
  }
  Entry entry;
  entry.key = key;
  entry.predicted = predicted;
  lru_.push_front(std::move(entry));
  index_[key] = lru_.begin();
  while (lru_.size() > options_.capacity) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
    evict_counter_->Add(1);
  }
  UpdateGaugesLocked();
}

void PredictCache::Invalidate() {
  MutexLock lock(&mu_);
  lru_.clear();
  index_.clear();
  ++invalidations_;
  invalidation_counter_->Add(1);
  UpdateGaugesLocked();
}

size_t PredictCache::size() const {
  MutexLock lock(&mu_);
  return lru_.size();
}

int64_t PredictCache::hits() const {
  MutexLock lock(&mu_);
  return hits_;
}

int64_t PredictCache::misses() const {
  MutexLock lock(&mu_);
  return misses_;
}

int64_t PredictCache::evictions() const {
  MutexLock lock(&mu_);
  return evictions_;
}

int64_t PredictCache::invalidations() const {
  MutexLock lock(&mu_);
  return invalidations_;
}

}  // namespace zerodb::zeroshot
