#ifndef ZERODB_OBS_TELEMETRY_H_
#define ZERODB_OBS_TELEMETRY_H_

#include <cstddef>
#include <vector>

#include "obs/json.h"

namespace zerodb::obs {

/// One epoch of a training run as the trainer saw it.
struct EpochStat {
  size_t epoch = 0;  ///< 1-based
  double train_loss = 0.0;
  double val_loss = 0.0;
  double learning_rate = 0.0;
  double grad_norm = 0.0;  ///< mean pre-clipping global L2 norm over batches
};

/// The loss-curve JSON of a training history (TrainResult::history): one
/// object per epoch with every EpochStat field.
JsonValue HistoryToJson(const std::vector<EpochStat>& history);

}  // namespace zerodb::obs

#endif  // ZERODB_OBS_TELEMETRY_H_
