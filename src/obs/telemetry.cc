#include "obs/telemetry.h"

namespace zerodb::obs {

JsonValue HistoryToJson(const std::vector<EpochStat>& history) {
  JsonValue epochs = JsonValue::Array();
  for (const EpochStat& stat : history) {
    JsonValue entry = JsonValue::Object();
    entry.Set("epoch", stat.epoch);
    entry.Set("train_loss", stat.train_loss);
    entry.Set("val_loss", stat.val_loss);
    entry.Set("learning_rate", stat.learning_rate);
    entry.Set("grad_norm", stat.grad_norm);
    epochs.Append(std::move(entry));
  }
  return epochs;
}

}  // namespace zerodb::obs
