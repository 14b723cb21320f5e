#ifndef ZERODB_ZEROSHOT_PREDICT_CACHE_H_
#define ZERODB_ZEROSHOT_PREDICT_CACHE_H_

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/sync.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace zerodb::zeroshot {

/// Knobs for the plan-fingerprint prediction cache.
struct PredictCacheOptions {
  /// Maximum resident entries; must be positive.
  size_t capacity = 4096;

  /// Metric sink for cache.{hit,miss,evict,invalidation} counters and the
  /// cache.{hit_rate,size} gauges; nullptr = MetricsRegistry::Global().
  obs::MetricsRegistry* registry = nullptr;
};

/// Thread-safe LRU map from 64-bit plan fingerprints
/// (plan::FingerprintPlan mixed with database identity and the model
/// generation — see ZeroShotEstimator) to predicted runtimes. Sits in front of the model's
/// forward pass on the serving path, where a hit turns a ~100us forward pass
/// into a hash probe. The what-if advisor already plans each (query,
/// relevant index subset) only once per Recommend, but many relevant indexes
/// leave the chosen plan unchanged, so about half of those plans still hit
/// here; queries repeated across calls hit as well.
///
/// All state sits behind one annotated Mutex — every operation is a few
/// pointer moves, so a striped design would buy nothing at the call rates
/// the estimator sees. Counters are mirrored into the obs registry and
/// kept locally so tests work against a disabled registry.
class PredictCache {
 public:
  explicit PredictCache(PredictCacheOptions options = {});

  PredictCache(const PredictCache&) = delete;
  PredictCache& operator=(const PredictCache&) = delete;

  /// Returns the cached prediction and refreshes its LRU position, or
  /// nullopt on miss.
  std::optional<Millis> Lookup(uint64_t key) ZDB_EXCLUDES(mu_);

  /// Inserts (or refreshes) a prediction, evicting the least recently used
  /// entry when over capacity.
  void Insert(uint64_t key, Millis predicted) ZDB_EXCLUDES(mu_);

  /// Drops every entry (via ZeroShotEstimator::InvalidatePredictionCache).
  /// Weight commits do not need it — the estimator's keys carry the model
  /// generation — but direct writes to parameter values do.
  void Invalidate() ZDB_EXCLUDES(mu_);

  size_t size() const ZDB_EXCLUDES(mu_);
  int64_t hits() const ZDB_EXCLUDES(mu_);
  int64_t misses() const ZDB_EXCLUDES(mu_);
  int64_t evictions() const ZDB_EXCLUDES(mu_);
  int64_t invalidations() const ZDB_EXCLUDES(mu_);

  const PredictCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    uint64_t key = 0;
    Millis predicted;
  };
  using LruList = std::list<Entry>;

  void UpdateGaugesLocked() ZDB_REQUIRES(mu_);

  const PredictCacheOptions options_;

  // Registry-owned metric objects; cached here so the hot path never
  // touches the registry's name map.
  obs::Counter* hit_counter_;
  obs::Counter* miss_counter_;
  obs::Counter* evict_counter_;
  obs::Counter* invalidation_counter_;
  obs::Gauge* hit_rate_gauge_;
  obs::Gauge* size_gauge_;

  mutable Mutex mu_;
  LruList lru_ ZDB_GUARDED_BY(mu_);  ///< front = most recently used
  std::unordered_map<uint64_t, LruList::iterator> index_ ZDB_GUARDED_BY(mu_);
  int64_t hits_ ZDB_GUARDED_BY(mu_) = 0;
  int64_t misses_ ZDB_GUARDED_BY(mu_) = 0;
  int64_t evictions_ ZDB_GUARDED_BY(mu_) = 0;
  int64_t invalidations_ ZDB_GUARDED_BY(mu_) = 0;
};

}  // namespace zerodb::zeroshot

#endif  // ZERODB_ZEROSHOT_PREDICT_CACHE_H_
