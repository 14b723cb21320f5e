// Fixture: hot-alloc node-factory allow-list — the nn layer's autodiff node
// factories allocate one node per op by design; they are exempt by name so
// the nn sources carry no inline suppressions. (bad_hot_alloc.cc pins that
// other callees on the same kind of hot path are still flagged.)
// analyzer-fixture: module(train)
namespace zerodb {

struct Node {
  std::vector<float> values;
};

std::shared_ptr<Node> MakeNode(size_t n) {
  auto node = std::make_shared<Node>();  // exempt by allow-list
  node->values.resize(n);                // exempt by allow-list
  return node;
}

std::shared_ptr<Node> MakeOpResult(std::vector<std::shared_ptr<Node>>* graph) {
  graph->push_back(MakeNode(4));  // exempt by allow-list
  return graph->back();
}

void RunShard(const std::vector<double>& batch,
              std::vector<std::shared_ptr<Node>>* graph,
              std::vector<double>* out) {
  out->reserve(batch.size());
  for (double v : batch) {
    MakeOpResult(graph);
    out->push_back(v);
  }
}

}  // namespace zerodb
