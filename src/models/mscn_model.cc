#include "models/mscn_model.h"

#include <cmath>

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

}  // namespace

MscnCostModel::MscnCostModel(const Options& options) : options_(options) {
  Rng rng(options.init_seed);
  const size_t h = options.hidden_dim;
  table_encoder_ =
      nn::Mlp(MakeMlpConfig(featurize::MscnFeaturizer::kTableDim, h, h), &rng);
  join_encoder_ =
      nn::Mlp(MakeMlpConfig(featurize::MscnFeaturizer::kJoinDim, h, h), &rng);
  predicate_encoder_ = nn::Mlp(
      MakeMlpConfig(featurize::MscnFeaturizer::kPredicateDim, h, h), &rng);
  output_ = nn::Mlp(MakeMlpConfig(3 * h, h, 1), &rng);
}

std::vector<nn::Tensor> MscnCostModel::Parameters() const {
  std::vector<nn::Tensor> params;
  for (const nn::Mlp* mlp :
       {&table_encoder_, &join_encoder_, &predicate_encoder_, &output_}) {
    for (const nn::Tensor& p : mlp->Parameters()) params.push_back(p);
  }
  return params;
}

std::unique_ptr<NeuralCostModel> MscnCostModel::CloneReplica() const {
  auto replica = std::make_unique<MscnCostModel>(options_);
  std::vector<nn::Tensor> dst = replica->Parameters();
  std::vector<nn::Tensor> src = Parameters();
  ZDB_CHECK_EQ(dst.size(), src.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    ZDB_CHECK_EQ(dst[i].size(), src[i].size());
    dst[i].mutable_data() = src[i].data();
  }
  replica->target_norm_ = target_norm_;
  return replica;
}

void MscnCostModel::Prepare(
    const std::vector<const QueryRecord*>& records) {
  ZDB_CHECK(!records.empty());
  std::vector<LogMillis> log_runtimes;
  log_runtimes.reserve(records.size());
  for (const QueryRecord* record : records) {
    log_runtimes.push_back(Millis(record->runtime_ms).ToLog());
  }
  target_norm_.Fit(log_runtimes);
}

nn::Tensor MscnCostModel::PoolSet(
    const std::vector<featurize::MscnSets>& batch,
    const std::vector<std::vector<float>> featurize::MscnSets::*member,
    size_t element_dim, const nn::Mlp& encoder) {
  const size_t batch_size = batch.size();
  std::vector<float> elements;
  std::vector<uint32_t> owners;
  std::vector<float> inverse_counts(batch_size, 0.0f);
  for (size_t b = 0; b < batch_size; ++b) {
    const auto& set = batch[b].*member;
    if (!set.empty()) {
      inverse_counts[b] = 1.0f / static_cast<float>(set.size());
    }
    for (const std::vector<float>& element : set) {
      ZDB_CHECK_EQ(element.size(), element_dim);
      elements.insert(elements.end(), element.begin(), element.end());
      owners.push_back(static_cast<uint32_t>(b));
    }
  }
  if (owners.empty()) {
    // Entire batch has empty sets: contribute zeros.
    return nn::Tensor::Zeros(batch_size, options_.hidden_dim);
  }
  nn::Tensor input =
      nn::Tensor::FromData(owners.size(), element_dim, std::move(elements));
  nn::Tensor encoded = encoder.Forward(input);
  nn::Tensor summed = nn::RowScatterAdd(encoded, owners, batch_size);
  return nn::ScaleRows(summed, inverse_counts);
}

nn::Tensor MscnCostModel::Forward(
    const std::vector<featurize::MscnSets>& batch) {
  nn::Tensor tables = PoolSet(batch, &featurize::MscnSets::tables,
                              featurize::MscnFeaturizer::kTableDim,
                              table_encoder_);
  nn::Tensor joins = PoolSet(batch, &featurize::MscnSets::joins,
                             featurize::MscnFeaturizer::kJoinDim, join_encoder_);
  nn::Tensor predicates = PoolSet(batch, &featurize::MscnSets::predicates,
                                  featurize::MscnFeaturizer::kPredicateDim,
                                  predicate_encoder_);
  return output_.Forward(nn::ConcatCols({tables, joins, predicates}));
}

nn::Tensor MscnCostModel::LossGraph(
    const std::vector<const QueryRecord*>& batch) {
  ZDB_CHECK(!batch.empty());
  std::vector<featurize::MscnSets> featurized;
  std::vector<float> targets;
  featurized.reserve(batch.size());
  targets.reserve(batch.size());
  for (const QueryRecord* record : batch) {
    featurized.push_back(featurizer_.Featurize(record->query, *record->env));
    targets.push_back(static_cast<float>(target_norm_.Normalize(
        Millis(record->runtime_ms).ToLog())));
  }
  nn::Tensor predictions = Forward(featurized);
  const size_t batch_size = targets.size();
  nn::Tensor target_tensor =
      nn::Tensor::FromData(batch_size, 1, std::move(targets));
  return nn::HuberLoss(predictions, target_tensor, 1.0f);
}

float MscnCostModel::LossOnBatch(
    const std::vector<const QueryRecord*>& batch) {
  return LossGraph(batch).item();
}

float MscnCostModel::AccumulateGradients(
    const std::vector<const QueryRecord*>& batch, float scale) {
  return nn::BackwardScaled(LossGraph(batch), scale);
}

std::vector<Millis> MscnCostModel::PredictMs(
    const std::vector<const QueryRecord*>& records) {
  ZDB_CHECK(target_norm_.fitted());
  if (records.empty()) return {};
  std::vector<featurize::MscnSets> featurized;
  featurized.reserve(records.size());
  for (const QueryRecord* record : records) {
    featurized.push_back(featurizer_.Featurize(record->query, *record->env));
  }
  nn::Tensor predictions = Forward(featurized);
  std::vector<Millis> out;
  out.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    out.push_back(Millis::FromLog(target_norm_.Denormalize(predictions.data()[i])));
  }
  return out;
}

}  // namespace zerodb::models
