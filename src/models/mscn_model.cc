#include "models/mscn_model.h"

#include <algorithm>

#include "common/check.h"
#include "nn/ops.h"

namespace zerodb::models {

namespace {

nn::MlpConfig MakeMlpConfig(size_t in, size_t hidden, size_t out) {
  nn::MlpConfig config;
  config.in_features = in;
  config.hidden_sizes = {hidden};
  config.out_features = out;
  return config;
}

/// The three set types, in encoder order.
struct SetType {
  const std::vector<std::vector<float>> featurize::MscnSets::*member;
  size_t element_dim;
};
constexpr std::array<SetType, 3> kSetTypes = {{
    {&featurize::MscnSets::tables, featurize::MscnFeaturizer::kTableDim},
    {&featurize::MscnSets::joins, featurize::MscnFeaturizer::kJoinDim},
    {&featurize::MscnSets::predicates,
     featurize::MscnFeaturizer::kPredicateDim},
}};

}  // namespace

MscnCostModel::MscnCostModel(const Options& options) : options_(options) {
  Rng rng(options.init_seed);
  nn::ParameterBlock* block = MutableParameters();
  const size_t h = options.hidden_dim;
  for (size_t k = 0; k < kSetTypes.size(); ++k) {
    encoders_[k] =
        nn::Mlp(MakeMlpConfig(kSetTypes[k].element_dim, h, h), &rng, block);
  }
  output_ = nn::Mlp(MakeMlpConfig(kSetTypes.size() * h, h, 1), &rng, block);
}

std::unique_ptr<NeuralCostModel> MscnCostModel::CloneReplica() const {
  auto replica = std::make_unique<MscnCostModel>(options_);
  replica->MutableParameters()->values = Parameters().values;
  replica->target_norm_ = target_norm_;
  replica->table_ = table_;
  return replica;
}

void MscnCostModel::Prepare(
    const std::vector<const QueryRecord*>& records) {
  ZDB_CHECK(!records.empty());
  auto table =
      std::make_shared<TrainingTable<std::vector<featurize::MscnSets>>>();
  table->rows.reserve(records.size());
  table->log_runtimes.reserve(records.size());
  for (const QueryRecord* record : records) {
    table->rows.push_back(featurizer_.Featurize(record->query, *record->env));
    table->log_runtimes.push_back(Millis(record->runtime_ms).ToLog());
  }
  target_norm_.Fit(table->log_runtimes);
  table_ = std::move(table);
}

std::span<const float> MscnCostModel::Forward(
    std::span<const featurize::MscnSets> sets,
    std::span<const uint32_t> queries) {
  ZDB_CHECK(!queries.empty());
  Scratch& s = scratch_;
  const size_t h = options_.hidden_dim;
  const size_t width = kSetTypes.size() * h;
  const size_t count = queries.size();
  s.pooled.assign(count * width, 0.0f);
  float* pooled = s.pooled.data();
  for (size_t k = 0; k < kSetTypes.size(); ++k) {
    SetRows& rows = s.set_rows[k];
    rows.inputs.clear();
    rows.owners.clear();
    rows.factors.assign(count, 0.0f);
    for (size_t q = 0; q < count; ++q) {
      ZDB_CHECK_LT(queries[q], sets.size());
      const std::vector<std::vector<float>>& set =
          sets[queries[q]].*kSetTypes[k].member;
      if (!set.empty()) rows.factors[q] = 1.0f / static_cast<float>(set.size());
      for (const std::vector<float>& element : set) {
        ZDB_CHECK_EQ(element.size(), kSetTypes[k].element_dim);
        rows.inputs.insert(rows.inputs.end(), element.begin(), element.end());
        rows.owners.push_back(static_cast<uint32_t>(q));
      }
    }
    // A set type with no element in the whole batch leaves its block at
    // +0.0f (0 * 0), and Backward skips its encoder.
    if (!rows.owners.empty()) {
      encoders_[k].ForwardRows(Parameters(), rows.inputs, rows.owners.size(),
                               &rows.tape);
      const float* encoded = rows.tape.output();
      for (size_t i = 0; i < rows.owners.size(); ++i) {
        nn::AddRow(encoded + i * h, h, pooled + rows.owners[i] * width + k * h);
      }
    }
    nn::ScaleRowsInPlace(pooled + k * h, width, h, rows.factors);
  }
  output_.ForwardRows(Parameters(), {pooled, count * width}, count,
                      &s.output_tape);
  return {s.output_tape.output(), count};
}

void MscnCostModel::Backward(std::span<const float> d_predictions) {
  Scratch& s = scratch_;
  const size_t queries = d_predictions.size();
  ZDB_CHECK_EQ(queries, s.set_rows[0].factors.size());
  const size_t h = options_.hidden_dim;
  const size_t width = kSetTypes.size() * h;
  s.d_pooled.assign(queries * width, 0.0f);
  float* d_pooled = s.d_pooled.data();
  output_.BackwardRows(MutableParameters(), s.pooled.data(), s.output_tape,
                       d_predictions.data(), d_pooled, &s.mlp);
  for (size_t k = 0; k < kSetTypes.size(); ++k) {
    SetRows& rows = s.set_rows[k];
    if (rows.owners.empty()) continue;
    rows.d_sums.assign(queries * h, 0.0f);
    nn::ScaleRowsAccumulate(d_pooled + k * h, width, h, rows.factors,
                            rows.d_sums.data());
    rows.d_elements.assign(rows.owners.size() * h, 0.0f);
    for (size_t i = 0; i < rows.owners.size(); ++i) {
      nn::AddRow(rows.d_sums.data() + rows.owners[i] * h, h,
                 rows.d_elements.data() + i * h);
    }
    encoders_[k].BackwardRows(MutableParameters(), rows.inputs.data(),
                              rows.tape, rows.d_elements.data(),
                              /*dx=*/nullptr, &s.mlp);
  }
}

std::vector<float> MscnCostModel::ForwardChunked(
    std::span<const QueryRecord* const> records) {
  std::vector<float> predictions;
  predictions.reserve(records.size());
  for (size_t begin = 0; begin < records.size(); begin += kPassChunk) {
    const size_t count = std::min(kPassChunk, records.size() - begin);
    scratch_.sets.clear();
    for (const QueryRecord* record : records.subspan(begin, count)) {
      scratch_.sets.push_back(
          featurizer_.Featurize(record->query, *record->env));
    }
    const std::span<const float> chunk = Forward(
        scratch_.sets, std::span(kPassChunkIds).first(count));
    predictions.insert(predictions.end(), chunk.begin(), chunk.end());
  }
  return predictions;
}

float MscnCostModel::LossOnBatch(
    const std::vector<const QueryRecord*>& batch) {
  ZDB_CHECK(!batch.empty());
  scratch_.targets.clear();
  for (const QueryRecord* record : batch) {
    scratch_.targets.push_back(static_cast<float>(
        target_norm_.Normalize(Millis(record->runtime_ms).ToLog())));
  }
  return nn::HuberLossValue(ForwardChunked(batch), scratch_.targets, 1.0f);
}

float MscnCostModel::AccumulateGradients(std::span<const uint32_t> rows,
                                         float scale) {
  ZDB_CHECK(table_ != nullptr) << "AccumulateGradients before Prepare";
  scratch_.targets.clear();
  for (uint32_t row : rows) {
    ZDB_CHECK_LT(row, table_->log_runtimes.size());
    scratch_.targets.push_back(static_cast<float>(
        target_norm_.Normalize(table_->log_runtimes[row])));
  }
  const std::span<const float> predictions = Forward(table_->rows, rows);
  scratch_.d_predictions.assign(predictions.size(), 0.0f);
  const float loss = nn::ScaledHuberLossBackward(
      predictions, scratch_.targets, 1.0f, scale, scratch_.d_predictions);
  Backward(scratch_.d_predictions);
  return loss;
}

std::vector<Millis> MscnCostModel::PredictMs(
    const std::vector<const QueryRecord*>& records) {
  ZDB_CHECK(target_norm_.fitted());
  std::vector<Millis> out;
  out.reserve(records.size());
  for (float normalized : ForwardChunked(records)) {
    out.push_back(Millis::FromLog(target_norm_.Denormalize(normalized)));
  }
  return out;
}

}  // namespace zerodb::models
