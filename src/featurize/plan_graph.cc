#include "featurize/plan_graph.h"

#include <algorithm>

#include "common/check.h"

namespace zerodb::featurize {

const char* CardinalityModeName(CardinalityMode mode) {
  switch (mode) {
    case CardinalityMode::kEstimated:
      return "estimated";
    case CardinalityMode::kExact:
      return "exact";
  }
  ZDB_CHECK(false);
  return "?";
}

void PlanGraph::Clear() {
  nodes.clear();
  features.clear();
  children.clear();
  roots.clear();
}

PlanGraph TreeFeaturizer::Featurize(const plan::PhysicalNode& root,
                                    const datagen::DatabaseEnv& env) const {
  // One allocation per buffer: the plan's size is known up front.
  const size_t nodes = root.SubtreeSize();
  PlanGraph graph;
  graph.nodes.reserve(nodes);
  graph.features.reserve(nodes * dim_);
  graph.children.reserve(nodes - 1);
  Append(root, env, &graph);
  return graph;
}

void TreeFeaturizer::Append(const plan::PhysicalNode& root,
                            const datagen::DatabaseEnv& env,
                            PlanGraph* graph) const {
  ZDB_CHECK(graph->nodes.empty() || graph->dim == dim_);
  graph->dim = dim_;
  graph->roots.push_back(static_cast<uint32_t>(graph->nodes.size()));
  AppendNode(root, env, plan::DeriveOutputSlots(root, *env.db).value(), graph);
}

// The node's child slots are reserved before the walk descends, so its CSR
// range stays contiguous however deep its children go.
uint32_t TreeFeaturizer::AppendNode(const plan::PhysicalNode& node,
                                    const datagen::DatabaseEnv& env,
                                    const plan::PlanSlots& slots,
                                    PlanGraph* graph) const {
  const size_t index = graph->nodes.size();
  const uint32_t child_begin = static_cast<uint32_t>(graph->children.size());
  const uint32_t child_end =
      child_begin + static_cast<uint32_t>(node.children.size());
  graph->nodes.push_back(
      {static_cast<uint32_t>(node.type), 0, child_begin, child_end});
  graph->children.resize(child_end);
  graph->features.resize(graph->features.size() + dim_, 0.0f);
  FillRow(node, env, slots, graph->features.data() + index * dim_);
  uint32_t level = 0;
  for (size_t c = 0; c < node.children.size(); ++c) {
    graph->children[child_begin + c] =
        static_cast<uint32_t>(graph->nodes.size());
    const uint32_t child_level =
        AppendNode(*node.children[c], env, slots, graph);
    level = std::max(level, child_level + 1);
  }
  graph->nodes[index].level = level;
  return level;
}

}  // namespace zerodb::featurize
