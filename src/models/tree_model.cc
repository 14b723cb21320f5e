#include "models/tree_model.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/check.h"
#include "common/math_util.h"
#include "nn/ops.h"
#include "nn/validate.h"
#include "nn/serialize.h"

namespace zerodb::models {

namespace {

nn::MlpConfig MakeMlpConfig(size_t in, size_t hidden, size_t out,
                            size_t hidden_layers) {
  nn::MlpConfig config;
  config.in_features = in;
  config.hidden_sizes.assign(hidden_layers, hidden);
  config.out_features = out;
  return config;
}

/// Grows `v` to at least `n` floats and returns its data.
float* Sized(std::vector<float>* v, size_t n) {
  if (v->size() < n) v->resize(n);
  return v->data();
}

/// A zero-filled buffer of `n` floats in `v`.
float* Zeroed(std::vector<float>* v, size_t n) {
  float* data = Sized(v, n);
  std::fill(data, data + n, 0.0f);
  return data;
}

/// dst row = 0.0f + src row: the value a scatter-add into a zeroed row
/// yields (it turns -0.0 into +0.0). Forward writes every encoding and
/// hidden row exactly once this way.
void ScatterRow(const float* src, size_t n, float* dst) {
  for (size_t j = 0; j < n; ++j) dst[j] = 0.0f + src[j];
}

}  // namespace

TreeMessagePassingModel::TreeMessagePassingModel(const TreeModelConfig& config)
    : config_(config) {
  ZDB_CHECK_GT(config.feature_dim, 0u);
  ZDB_CHECK_GT(config.num_encoders, 0u);
  Rng rng(config.init_seed);
  nn::ParameterBlock* block = MutableParameters();
  encoders_.reserve(config.num_encoders);
  for (size_t e = 0; e < config.num_encoders; ++e) {
    encoders_.emplace_back(
        MakeMlpConfig(config.feature_dim, config.hidden_dim, config.hidden_dim,
                      config.encoder_layers),
        &rng, block);
  }
  combine_ = nn::Mlp(MakeMlpConfig(2 * config.hidden_dim, config.hidden_dim,
                                   config.hidden_dim, config.combine_layers),
                     &rng, block);
  readout_ = nn::Mlp(MakeMlpConfig(config.hidden_dim, config.hidden_dim, 1,
                                   config.readout_layers),
                     &rng, block);
}

Status TreeMessagePassingModel::SaveWeights(const std::string& path) const {
  if (!feature_norm_.fitted() || !target_norm_.fitted()) {
    return Status::InvalidArgument("saving an untrained model");
  }
  const float target[2] = {static_cast<float>(target_norm_.mean()),
                           static_cast<float>(target_norm_.std())};
  const std::span<const float> sections[] = {
      Parameters().values, feature_norm_.mean(), feature_norm_.std(), target};
  return nn::SaveParameters(sections, path);
}

Status TreeMessagePassingModel::LoadWeights(const std::string& path) {
  // Load into staging buffers and validate them before anything live
  // changes: a rejected file leaves weights and norms untouched.
  std::vector<float> values(Parameters().size());
  std::vector<float> feature_mean(config_.feature_dim);
  std::vector<float> feature_std(config_.feature_dim);
  float target[2] = {};
  const std::span<float> sections[] = {values, feature_mean, feature_std,
                                       target};
  ZDB_RETURN_NOT_OK(nn::LoadParameters(sections, path));
  // FeatureNorm::Fit clamps every std to >= 1e-6; a zero (or negative) std
  // would turn Apply's division into inf/NaN features.
  for (float s : feature_std) {
    if (!(s > 0.0f)) {
      return Status::InvalidArgument("non-positive feature std in " + path);
    }
  }
  if (!(target[1] > 0.0f)) {
    return Status::InvalidArgument("non-positive target std in " + path);
  }
  MutableParameters()->values = std::move(values);
  feature_norm_.Set(std::move(feature_mean), std::move(feature_std));
  target_norm_.Set(target[0], target[1]);
  BumpGeneration();
  return Status::OK();
}

void TreeMessagePassingModel::CopyTreeStateFrom(
    const TreeMessagePassingModel& other) {
  ZDB_CHECK_EQ(Parameters().size(), other.Parameters().size())
      << "replica architecture mismatch";
  MutableParameters()->values = other.Parameters().values;
  feature_norm_ = other.feature_norm_;
  target_norm_ = other.target_norm_;
  table_ = other.table_;
  BumpGeneration();
}

void TreeMessagePassingModel::Prepare(
    const std::vector<const QueryRecord*>& records) {
  ZDB_CHECK(!records.empty());
  // Featurize every training plan once; feature normalization is fitted
  // over every node of every plan, target normalization over log runtimes.
  auto table = std::make_shared<TrainingTable<featurize::PlanGraph>>();
  table->log_runtimes.reserve(records.size());
  for (const QueryRecord* record : records) {
    AppendRecord(*record, &table->rows);
    table->log_runtimes.push_back(Millis(record->runtime_ms).ToLog());
  }
  feature_norm_.Fit(table->rows.features, config_.feature_dim);
  target_norm_.Fit(table->log_runtimes);
  table_ = std::move(table);
}

void TreeMessagePassingModel::AppendRecord(const QueryRecord& record,
                                           featurize::PlanGraph* graph) const {
  ZDB_CHECK(record.env != nullptr);
  featurizer().Append(*record.plan.root, *record.env, graph);
}

std::span<const float> TreeMessagePassingModel::Forward(
    const featurize::PlanGraph& graph, std::span<const uint32_t> plans) {
  ZDB_CHECK(!plans.empty());
  const size_t hidden = config_.hidden_dim;
  const size_t feature_dim = config_.feature_dim;
  ZDB_CHECK_EQ(graph.dim, feature_dim);
  Scratch& s = scratch_;

  // Lay the nodes out in one global order, plan by plan: each encoder's
  // ids and normalized features, each level's ids, and a CSR children list.
  // Every buffer keeps its capacity, so a warm pass allocates nothing.
  s.encoder_ids.resize(config_.num_encoders);
  s.encoder_inputs.resize(config_.num_encoders);
  s.encoder_tapes.resize(config_.num_encoders);
  for (std::vector<uint32_t>& ids : s.encoder_ids) ids.clear();
  for (std::vector<float>& input : s.encoder_inputs) input.clear();
  for (std::vector<uint32_t>& ids : s.level_ids) ids.clear();
  s.children_flat.clear();
  s.child_offsets.assign(1, 0);
  s.root_ids.clear();
  uint32_t total_nodes = 0;
  for (uint32_t p : plans) {
    ZDB_CHECK_LT(p, graph.num_plans());
    // A plan's nodes are contiguous from its root: graph node n is global
    // id base + (n - root).
    const uint32_t root = graph.roots[p];
    const uint32_t end = graph.plan_end(p);
    const uint32_t base = total_nodes;
    s.root_ids.push_back(base);
    for (uint32_t n = root; n < end; ++n) {
      const featurize::PlanGraphNode& node = graph.nodes[n];
      const size_t encoder = EncoderIdFor(node.op_type);
      ZDB_CHECK_LT(encoder, config_.num_encoders);
      s.encoder_ids[encoder].push_back(total_nodes);
      std::vector<float>& input = s.encoder_inputs[encoder];
      input.resize(input.size() + feature_dim);
      feature_norm_.Apply(graph.row(n),
                          input.data() + input.size() - feature_dim);
      if (node.level >= s.level_ids.size()) s.level_ids.resize(node.level + 1);
      s.level_ids[node.level].push_back(total_nodes);
      for (uint32_t child : graph.children_of(n)) {
        ZDB_CHECK(child > n && child < end);
        // Levels run bottom-up, so a child must sit on a lower level.
        ZDB_CHECK_LT(graph.nodes[child].level, node.level);
        s.children_flat.push_back(base + (child - root));
      }
      s.child_offsets.push_back(static_cast<uint32_t>(s.children_flat.size()));
      ++total_nodes;
    }
  }
  s.combine_inputs.resize(s.level_ids.size());
  s.combine_tapes.resize(s.level_ids.size());

  // Encode every node: one MLP call per encoder over its nodes' packed
  // features, scattered back into the (total_nodes, hidden) encodings.
  float* encodings = Sized(&s.encodings, total_nodes * hidden);
  for (size_t e = 0; e < config_.num_encoders; ++e) {
    const std::vector<uint32_t>& ids = s.encoder_ids[e];
    if (ids.empty()) continue;
    encoders_[e].ForwardRows(Parameters(), s.encoder_inputs[e], ids.size(),
                             &s.encoder_tapes[e]);
    const float* encoded = s.encoder_tapes[e].output();
    for (size_t i = 0; i < ids.size(); ++i) {
      ScatterRow(encoded + i * hidden, hidden, encodings + ids[i] * hidden);
    }
  }

  // Bottom-up message passing, one level at a time: a level's children all
  // sit on lower levels, so their hidden rows are final when it reads them.
  float* hidden_rows = Sized(&s.hidden, total_nodes * hidden);
  for (size_t level = 0; level < s.level_ids.size(); ++level) {
    const std::vector<uint32_t>& ids = s.level_ids[level];
    if (ids.empty()) continue;
    if (level == 0) {
      // Leaves: the hidden state is the node encoding.
      for (uint32_t n : ids) {
        ScatterRow(encodings + n * hidden, hidden, hidden_rows + n * hidden);
      }
      continue;
    }
    // DeepSets: each row is [encoding, sum of the children's hidden rows in
    // `children` order], combined through the combine MLP.
    float* input = Sized(&s.combine_inputs[level], ids.size() * 2 * hidden);
    for (size_t i = 0; i < ids.size(); ++i) {
      const uint32_t n = ids[i];
      float* row = input + i * 2 * hidden;
      std::copy(encodings + n * hidden, encodings + (n + 1) * hidden, row);
      float* child_sum = row + hidden;
      std::fill(child_sum, child_sum + hidden, 0.0f);
      for (uint32_t c = s.child_offsets[n]; c < s.child_offsets[n + 1]; ++c) {
        nn::AddRow(hidden_rows + s.children_flat[c] * hidden, hidden,
                   child_sum);
      }
    }
    combine_.ForwardRows(Parameters(), {input, ids.size() * 2 * hidden},
                         ids.size(), &s.combine_tapes[level]);
    const float* combined = s.combine_tapes[level].output();
    for (size_t i = 0; i < ids.size(); ++i) {
      ScatterRow(combined + i * hidden, hidden, hidden_rows + ids[i] * hidden);
    }
  }

  // Root readout.
  float* roots = Sized(&s.roots, plans.size() * hidden);
  for (size_t g = 0; g < plans.size(); ++g) {
    std::copy(hidden_rows + s.root_ids[g] * hidden,
              hidden_rows + (s.root_ids[g] + 1) * hidden, roots + g * hidden);
  }
  readout_.ForwardRows(Parameters(), {roots, plans.size() * hidden},
                       plans.size(), &s.readout_tape);
  const std::span<const float> predictions(s.readout_tape.output(),
                                           plans.size());
  ZDB_DCHECK_OK(nn::ValidateFinite(predictions, "tree model readout"));
  return predictions;
}

void TreeMessagePassingModel::Backward(
    std::span<const float> d_predictions) {
  Scratch& s = scratch_;
  const size_t hidden = config_.hidden_dim;
  const size_t total_nodes = s.child_offsets.size() - 1;
  const size_t plans = s.root_ids.size();
  ZDB_CHECK_EQ(d_predictions.size(), plans);

  // Readout, then the roots' hidden gradients.
  float* d_roots = Zeroed(&s.d_roots, plans * hidden);
  nn::ParameterBlock* params = MutableParameters();
  readout_.BackwardRows(params, s.roots.data(), s.readout_tape,
                        d_predictions.data(), d_roots, &s.mlp);
  // A root's hidden gradient comes from the readout, every other node's
  // from its parent's child sum — one contribution per row, added onto a
  // zeroed buffer, so such a row holds 0.0f + x like Forward's rows.
  float* d_hidden = Zeroed(&s.d_hidden, total_nodes * hidden);
  float* d_encodings = Zeroed(&s.d_encodings, total_nodes * hidden);
  for (size_t g = 0; g < plans; ++g) {
    nn::AddRow(d_roots + g * hidden, hidden,
               d_hidden + s.root_ids[g] * hidden);
  }

  // Levels top-down: a level's hidden gradients are complete once every
  // higher level (where all its parents sit) has run.
  for (size_t level = s.level_ids.size(); level-- > 0;) {
    const std::vector<uint32_t>& ids = s.level_ids[level];
    if (ids.empty()) continue;
    if (level == 0) {
      for (uint32_t n : ids) {
        nn::AddRow(d_hidden + n * hidden, hidden, d_encodings + n * hidden);
      }
      continue;
    }
    float* d_rows = Sized(&s.d_rows, ids.size() * hidden);
    for (size_t i = 0; i < ids.size(); ++i) {
      std::copy(d_hidden + ids[i] * hidden, d_hidden + (ids[i] + 1) * hidden,
                d_rows + i * hidden);
    }
    float* d_input = Zeroed(&s.d_combine_input, ids.size() * 2 * hidden);
    combine_.BackwardRows(params, s.combine_inputs[level].data(),
                          s.combine_tapes[level], d_rows, d_input, &s.mlp);
    for (size_t i = 0; i < ids.size(); ++i) {
      const uint32_t n = ids[i];
      const float* d_row = d_input + i * 2 * hidden;
      nn::AddRow(d_row, hidden, d_encodings + n * hidden);
      for (uint32_t c = s.child_offsets[n]; c < s.child_offsets[n + 1]; ++c) {
        nn::AddRow(d_row + hidden, hidden,
                   d_hidden + s.children_flat[c] * hidden);
      }
    }
  }

  // Encoders, over the same rows their forward call saw.
  for (size_t e = 0; e < config_.num_encoders; ++e) {
    const std::vector<uint32_t>& ids = s.encoder_ids[e];
    if (ids.empty()) continue;
    float* d_rows = Sized(&s.d_rows, ids.size() * hidden);
    for (size_t i = 0; i < ids.size(); ++i) {
      std::copy(d_encodings + ids[i] * hidden,
                d_encodings + (ids[i] + 1) * hidden, d_rows + i * hidden);
    }
    encoders_[e].BackwardRows(params, s.encoder_inputs[e].data(),
                              s.encoder_tapes[e], d_rows, /*dx=*/nullptr,
                              &s.mlp);
  }
}

std::vector<float> TreeMessagePassingModel::ForwardChunked(
    std::span<const QueryRecord* const> records) {
  ZDB_CHECK(!records.empty());
  std::vector<float> predictions;
  predictions.reserve(records.size());
  for (size_t begin = 0; begin < records.size(); begin += kPassChunk) {
    const size_t count = std::min(kPassChunk, records.size() - begin);
    scratch_.graph.Clear();
    for (const QueryRecord* record : records.subspan(begin, count)) {
      AppendRecord(*record, &scratch_.graph);
    }
    const std::span<const float> chunk = Forward(
        scratch_.graph, std::span(kPassChunkIds).first(count));
    predictions.insert(predictions.end(), chunk.begin(), chunk.end());
  }
  return predictions;
}

float TreeMessagePassingModel::LossOnBatch(
    const std::vector<const QueryRecord*>& batch) {
  const std::vector<float> predictions = ForwardChunked(batch);
  scratch_.targets.clear();
  for (const QueryRecord* record : batch) {
    scratch_.targets.push_back(static_cast<float>(
        target_norm_.Normalize(Millis(record->runtime_ms).ToLog())));
  }
  return nn::HuberLossValue(predictions, scratch_.targets, 1.0f);
}

float TreeMessagePassingModel::AccumulateGradients(
    std::span<const uint32_t> rows, float scale) {
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

std::vector<Millis> TreeMessagePassingModel::PredictMs(
    const std::vector<const QueryRecord*>& records) {
  return ForwardBatch(records);
}

std::vector<Millis> TreeMessagePassingModel::ForwardBatch(
    const std::vector<const QueryRecord*>& records) {
  ZDB_CHECK(target_norm_.fitted()) << "ForwardBatch before Prepare/training";
  std::vector<Millis> out;
  out.reserve(records.size());
  if (records.empty()) return out;
  for (float normalized : ForwardChunked(records)) {
    out.push_back(Millis::FromLog(target_norm_.Denormalize(normalized)));
  }
  return out;
}

}  // namespace zerodb::models
