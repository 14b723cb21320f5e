#include "models/tree_model.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/check.h"
#include "common/math_util.h"
#include "nn/arena.h"
#include "nn/ops.h"
#include "nn/validate.h"
#include "nn/serialize.h"
#include "plan/fingerprint.h"

namespace zerodb::models {

namespace {

/// Entries in the per-model training graph cache (FeaturizeNormalizedCached).
/// Plans beyond this many distinct ones are featurized afresh every batch.
constexpr size_t kGraphCacheCapacity = 8192;

nn::MlpConfig MakeMlpConfig(size_t in, size_t hidden, size_t out,
                            size_t hidden_layers) {
  nn::MlpConfig config;
  config.in_features = in;
  config.hidden_sizes.assign(hidden_layers, hidden);
  config.out_features = out;
  return config;
}

// Copies scratch indices into a pooled buffer the op can consume by value.
// Under a trainer arena the buffer recycles on Reset; otherwise it is a
// plain heap vector, as before.
std::vector<uint32_t> PooledIndexCopy(const std::vector<uint32_t>& src) {
  std::vector<uint32_t> out = nn::AcquirePooledIndices(src.size());
  std::copy(src.begin(), src.end(), out.begin());
  return out;
}

}  // namespace

TreeMessagePassingModel::TreeMessagePassingModel(const TreeModelConfig& config)
    : config_(config) {
  ZDB_CHECK_GT(config.feature_dim, 0u);
  ZDB_CHECK_GT(config.num_encoders, 0u);
  Rng rng(config.init_seed);
  encoders_.reserve(config.num_encoders);
  for (size_t e = 0; e < config.num_encoders; ++e) {
    encoders_.emplace_back(
        MakeMlpConfig(config.feature_dim, config.hidden_dim, config.hidden_dim,
                      config.encoder_layers),
        &rng);
  }
  combine_ = nn::Mlp(MakeMlpConfig(2 * config.hidden_dim, config.hidden_dim,
                                   config.hidden_dim, config.combine_layers),
                     &rng);
  readout_ = nn::Mlp(MakeMlpConfig(config.hidden_dim, config.hidden_dim, 1,
                                   config.readout_layers),
                     &rng);
}

std::vector<nn::Tensor> TreeMessagePassingModel::Parameters() const {
  std::vector<nn::Tensor> params;
  for (const nn::Mlp& encoder : encoders_) {
    for (const nn::Tensor& p : encoder.Parameters()) params.push_back(p);
  }
  for (const nn::Tensor& p : combine_.Parameters()) params.push_back(p);
  for (const nn::Tensor& p : readout_.Parameters()) params.push_back(p);
  return params;
}

Status TreeMessagePassingModel::SaveWeights(const std::string& path) const {
  if (!feature_norm_.fitted() || !target_norm_.fitted()) {
    return Status::InvalidArgument("saving an untrained model");
  }
  std::vector<nn::Tensor> tensors = Parameters();
  tensors.push_back(nn::Tensor::FromData(1, feature_norm_.dim(),
                                         feature_norm_.mean()));
  tensors.push_back(
      nn::Tensor::FromData(1, feature_norm_.dim(), feature_norm_.std()));
  tensors.push_back(nn::Tensor::FromData(
      1, 2,
      {static_cast<float>(target_norm_.mean()),
       static_cast<float>(target_norm_.std())}));
  return nn::SaveParameters(tensors, path);
}

Status TreeMessagePassingModel::LoadWeights(const std::string& path) {
  // Load into zero-initialized copies and validate them before anything
  // live changes: a rejected file leaves weights and norms untouched.
  std::vector<nn::Tensor> live = Parameters();
  std::vector<nn::Tensor> tensors;
  tensors.reserve(live.size() + 3);
  for (const nn::Tensor& p : live) tensors.push_back(nn::Tensor::ZerosLike(p));
  nn::Tensor feature_mean = nn::Tensor::Zeros(1, config_.feature_dim);
  nn::Tensor feature_std = nn::Tensor::Zeros(1, config_.feature_dim);
  nn::Tensor target = nn::Tensor::Zeros(1, 2);
  tensors.push_back(feature_mean);
  tensors.push_back(feature_std);
  tensors.push_back(target);
  ZDB_RETURN_NOT_OK(nn::LoadParameters(tensors, path));
  // FeatureNorm::Fit clamps every std to >= 1e-6; a zero (or negative) std
  // would turn Apply's division into inf/NaN features.
  for (float s : feature_std.data()) {
    if (!(s > 0.0f)) {
      return Status::InvalidArgument("non-positive feature std in " + path);
    }
  }
  if (!(target.data()[1] > 0.0f)) {
    return Status::InvalidArgument("non-positive target std in " + path);
  }
  for (size_t i = 0; i < live.size(); ++i) {
    live[i].mutable_data() = tensors[i].data();
  }
  feature_norm_.Set(feature_mean.data(), feature_std.data());
  target_norm_.Set(target.data()[0], target.data()[1]);
  InvalidateGraphCache();
  BumpGeneration();
  return Status::OK();
}

void TreeMessagePassingModel::CopyTreeStateFrom(
    const TreeMessagePassingModel& other) {
  std::vector<nn::Tensor> dst = Parameters();
  std::vector<nn::Tensor> src = other.Parameters();
  ZDB_CHECK_EQ(dst.size(), src.size()) << "replica architecture mismatch";
  for (size_t i = 0; i < dst.size(); ++i) {
    ZDB_CHECK_EQ(dst[i].size(), src[i].size());
    dst[i].mutable_data() = src[i].data();
  }
  feature_norm_ = other.feature_norm_;
  target_norm_ = other.target_norm_;
  InvalidateGraphCache();
  BumpGeneration();
}

void TreeMessagePassingModel::Prepare(
    const std::vector<const QueryRecord*>& records) {
  ZDB_CHECK(!records.empty());
  // Fit feature normalization over every node of every training plan, and
  // target normalization over log runtimes.
  std::vector<featurize::PlanGraph> graphs;
  graphs.reserve(records.size());
  for (const QueryRecord* record : records) {
    graphs.push_back(FeaturizeRecord(*record));
  }
  std::vector<const std::vector<float>*> rows;
  for (const featurize::PlanGraph& graph : graphs) {
    for (const featurize::PlanGraphNode& node : graph.nodes) {
      rows.push_back(&node.features);
    }
  }
  feature_norm_.Fit(rows);

  std::vector<LogMillis> log_runtimes;
  log_runtimes.reserve(records.size());
  for (const QueryRecord* record : records) {
    log_runtimes.push_back(Millis(record->runtime_ms).ToLog());
  }
  target_norm_.Fit(log_runtimes);
  InvalidateGraphCache();
}

featurize::PlanGraph TreeMessagePassingModel::FeaturizeNormalized(
    const QueryRecord& record) const {
  featurize::PlanGraph graph = FeaturizeRecord(record);
  for (featurize::PlanGraphNode& node : graph.nodes) {
    feature_norm_.Apply(&node.features);
  }
  return graph;
}

void TreeMessagePassingModel::InvalidateGraphCache() {
  graph_cache_.clear();
  overflow_graphs_.clear();
}

const featurize::PlanGraph* TreeMessagePassingModel::FeaturizeNormalizedCached(
    const QueryRecord& record) {
  const uint64_t key = plan::FingerprintCombine(
      plan::FingerprintPlan(record.plan),
      plan::FingerprintString(record.db_name));
  auto it = graph_cache_.find(key);
  if (it != graph_cache_.end()) return &it->second;
  if (graph_cache_.size() < kGraphCacheCapacity) {
    auto inserted = graph_cache_.emplace(key, FeaturizeNormalized(record));
    return &inserted.first->second;
  }
  // Cache full: featurize into per-batch overflow storage.
  overflow_graphs_.push_back(FeaturizeNormalized(record));
  return &overflow_graphs_.back();
}

nn::Tensor TreeMessagePassingModel::Forward(
    const std::vector<const featurize::PlanGraph*>& graphs) {
  ZDB_CHECK(!graphs.empty());
  const size_t hidden = config_.hidden_dim;

  // Flatten all nodes into one global table — parallel arrays plus a CSR
  // children list instead of per-node vectors, so the flattening costs zero
  // allocations once the scratch capacities warm up.
  ForwardScratch& s = scratch_;
  s.encoder_of.clear();
  s.level_of.clear();
  s.features_of.clear();
  s.children_flat.clear();
  s.child_offsets.clear();
  std::vector<uint32_t> root_ids = nn::AcquirePooledIndices(graphs.size());
  size_t max_level = 0;
  s.child_offsets.push_back(0);
  for (size_t g = 0; g < graphs.size(); ++g) {
    const featurize::PlanGraph& graph = *graphs[g];
    const uint32_t base = static_cast<uint32_t>(s.encoder_of.size());
    root_ids[g] = base + static_cast<uint32_t>(graph.root());
    for (const featurize::PlanGraphNode& node : graph.nodes) {
      s.encoder_of.push_back(static_cast<uint32_t>(EncoderIdFor(node.op_type)));
      s.level_of.push_back(static_cast<uint32_t>(node.level));
      s.features_of.push_back(&node.features);
      for (size_t child : node.children) {
        s.children_flat.push_back(base + static_cast<uint32_t>(child));
      }
      s.child_offsets.push_back(static_cast<uint32_t>(s.children_flat.size()));
      max_level = std::max(max_level, node.level);
    }
  }
  const size_t total_nodes = s.encoder_of.size();

  // Encode all nodes, grouped by encoder type, scattered back into a
  // (total_nodes, hidden) matrix.
  nn::Tensor encodings = nn::Tensor::Zeros(total_nodes, hidden);
  for (size_t e = 0; e < config_.num_encoders; ++e) {
    s.positions.clear();
    s.features.clear();
    for (size_t n = 0; n < total_nodes; ++n) {
      if (s.encoder_of[n] != e) continue;
      s.positions.push_back(static_cast<uint32_t>(n));
      s.features.insert(s.features.end(), s.features_of[n]->begin(),
                        s.features_of[n]->end());
    }
    if (s.positions.empty()) continue;
    std::vector<float> packed = nn::AcquirePooledFloats(s.features.size());
    std::copy(s.features.begin(), s.features.end(), packed.begin());
    nn::Tensor input = nn::Tensor::FromData(
        s.positions.size(), config_.feature_dim, std::move(packed));
    nn::Tensor encoded = encoders_[e].Forward(input);
    encodings = nn::RowScatterAddTo(encodings, encoded,
                                    PooledIndexCopy(s.positions));
  }

  // Bottom-up message passing by level. `hidden_states` accumulates each
  // level's rows at their global positions.
  nn::Tensor hidden_states = nn::Tensor::Zeros(total_nodes, hidden);
  for (size_t level = 0; level <= max_level; ++level) {
    s.level_ids.clear();
    s.child_ids.clear();
    s.child_parents.clear();  // local index within level
    for (size_t n = 0; n < total_nodes; ++n) {
      if (s.level_of[n] != level) continue;
      const uint32_t local = static_cast<uint32_t>(s.level_ids.size());
      s.level_ids.push_back(static_cast<uint32_t>(n));
      for (uint32_t c = s.child_offsets[n]; c < s.child_offsets[n + 1]; ++c) {
        s.child_ids.push_back(s.children_flat[c]);
        s.child_parents.push_back(local);
      }
    }
    if (s.level_ids.empty()) continue;

    nn::Tensor level_encodings =
        nn::RowGather(encodings, PooledIndexCopy(s.level_ids));
    nn::Tensor level_hidden;
    if (level == 0) {
      // Leaves: the initial hidden state is the node encoding.
      level_hidden = level_encodings;
    } else {
      // DeepSets: sum the children's hidden states, then combine with the
      // parent encoding through the combine MLP.
      nn::Tensor child_sum;
      if (s.child_ids.empty()) {
        child_sum = nn::Tensor::Zeros(s.level_ids.size(), hidden);
      } else {
        child_sum = nn::RowScatterAdd(
            nn::RowGather(hidden_states, PooledIndexCopy(s.child_ids)),
            PooledIndexCopy(s.child_parents), s.level_ids.size());
      }
      level_hidden =
          combine_.Forward(nn::ConcatCols({level_encodings, child_sum}));
    }
    hidden_states = nn::RowScatterAddTo(hidden_states, level_hidden,
                                        PooledIndexCopy(s.level_ids));
  }

  // Root readout.
  nn::Tensor roots = nn::RowGather(hidden_states, std::move(root_ids));
  nn::Tensor predictions = readout_.Forward(roots);
  ZDB_DCHECK_OK(
      nn::ValidateShape(predictions, graphs.size(), 1, "tree model readout"));
  ZDB_DCHECK_OK(nn::ValidateFinite(predictions, "tree model readout"));
  return predictions;
}

nn::Tensor TreeMessagePassingModel::LossOnBatch(
    const std::vector<const QueryRecord*>& batch) {
  ZDB_CHECK(!batch.empty());
  overflow_graphs_.clear();
  scratch_.batch_graphs.clear();
  std::vector<float> targets = nn::AcquirePooledFloats(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    scratch_.batch_graphs.push_back(FeaturizeNormalizedCached(*batch[i]));
    targets[i] = static_cast<float>(target_norm_.Normalize(
        Millis(batch[i]->runtime_ms).ToLog()));
  }
  nn::Tensor predictions = Forward(scratch_.batch_graphs);
  nn::Tensor target_tensor =
      nn::Tensor::FromData(batch.size(), 1, std::move(targets));
  return nn::HuberLoss(predictions, target_tensor, 1.0f);
}

std::vector<Millis> TreeMessagePassingModel::PredictMs(
    const std::vector<const QueryRecord*>& records) {
  return ForwardBatch(records);
}

float TreeMessagePassingModel::PredictNormalized(
    const featurize::PlanGraph& graph) {
  ZDB_CHECK(!graph.nodes.empty());
  const size_t hidden = config_.hidden_dim;
  const size_t count = graph.nodes.size();
  InferenceScratch& s = inference_;
  s.hidden.resize(count * hidden);
  s.combine_input.resize(2 * hidden);
  const std::span<float> encoding(s.combine_input.data(), hidden);
  const std::span<float> child_sum(s.combine_input.data() + hidden, hidden);
  // Children come after their parent in PlanGraph::nodes, so reverse index
  // order settles every child's hidden row before its parent reads it.
  for (size_t n = count; n-- > 0;) {
    const featurize::PlanGraphNode& node = graph.nodes[n];
    const std::span<float> state(s.hidden.data() + n * hidden, hidden);
    encoders_[EncoderIdFor(node.op_type)].ForwardRow(node.features, encoding,
                                                     &s.mlp);
    // Forward scatter-adds every row into a zeroed matrix; 0.0f + x is that
    // arithmetic (it would turn -0.0 into +0.0). The row kernel cannot yield
    // -0.0 today, since its accumulators start at +0.0, so this keeps the
    // pass equal to Forward by construction rather than by that property.
    for (float& v : encoding) v = 0.0f + v;
    if (node.level == 0) {
      // Leaves: the hidden state is the node encoding.
      std::copy(encoding.begin(), encoding.end(), state.begin());
      continue;
    }
    // DeepSets: sum the children's hidden states in `children` order, then
    // combine with the encoding.
    std::fill(child_sum.begin(), child_sum.end(), 0.0f);
    for (size_t child : node.children) {
      ZDB_CHECK(child > n && child < count)
          << "plan graph child " << child << " does not follow parent " << n;
      const float* child_state = s.hidden.data() + child * hidden;
      for (size_t j = 0; j < hidden; ++j) child_sum[j] += child_state[j];
    }
    combine_.ForwardRow(s.combine_input, state, &s.mlp);
    for (float& v : state) v = 0.0f + v;
  }
  float prediction = 0.0f;
  readout_.ForwardRow(
      std::span<const float>(s.hidden.data() + graph.root() * hidden, hidden),
      std::span<float>(&prediction, 1), &s.mlp);
  ZDB_DCHECK_OK(nn::ValidateFinite(std::span<const float>(&prediction, 1),
                                   "tree model readout"));
  return prediction;
}

std::vector<Millis> TreeMessagePassingModel::ForwardBatch(
    const std::vector<const QueryRecord*>& records) {
  ZDB_CHECK(target_norm_.fitted()) << "ForwardBatch before Prepare/training";
  std::vector<Millis> out;
  out.reserve(records.size());
  for (const QueryRecord* record : records) {
    const float normalized = PredictNormalized(FeaturizeNormalized(*record));
    out.push_back(Millis::FromLog(target_norm_.Denormalize(normalized)));
  }
  return out;
}

}  // namespace zerodb::models
