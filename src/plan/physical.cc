#include "plan/physical.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"

namespace zerodb::plan {

const char* PhysicalOpName(PhysicalOpType type) {
  switch (type) {
    case PhysicalOpType::kSeqScan:
      return "SeqScan";
    case PhysicalOpType::kIndexScan:
      return "IndexScan";
    case PhysicalOpType::kFilter:
      return "Filter";
    case PhysicalOpType::kHashJoin:
      return "HashJoin";
    case PhysicalOpType::kNestedLoopJoin:
      return "NestedLoopJoin";
    case PhysicalOpType::kIndexNLJoin:
      return "IndexNLJoin";
    case PhysicalOpType::kSort:
      return "Sort";
    case PhysicalOpType::kHashAggregate:
      return "HashAggregate";
    case PhysicalOpType::kSimpleAggregate:
      return "SimpleAggregate";
  }
  ZDB_CHECK(false);
  return "?";
}

const PlanSlots::Range& PlanSlots::RangeOf(const PhysicalNode& node) const {
  auto it = std::lower_bound(
      ranges_.begin(), ranges_.end(), &node,
      [](const std::pair<const PhysicalNode*, Range>& entry,
         const PhysicalNode* key) {
        return std::less<const PhysicalNode*>()(entry.first, key);
      });
  ZDB_CHECK(it != ranges_.end() && it->first == &node)
      << "node is not part of the derived plan";
  return it->second;
}

std::span<const catalog::DataType> PlanSlots::Types(
    const PhysicalNode& node) const {
  const Range& range = RangeOf(node);
  return std::span<const catalog::DataType>(types_).subspan(
      range.begin, range.end - range.begin);
}

std::span<const int64_t> PlanSlots::SlotWidths(const PhysicalNode& node) const {
  const Range& range = RangeOf(node);
  return std::span<const int64_t>(widths_).subspan(range.begin,
                                                   range.end - range.begin);
}

int64_t PlanSlots::WidthBytes(const PhysicalNode& node) const {
  return std::max<int64_t>(RangeOf(node).sum_bytes, 1);
}

void PlanSlots::Append(catalog::DataType type, int64_t width, Range* range) {
  types_.push_back(type);
  widths_.push_back(width);
  range->sum_bytes += width;
  range->end = types_.size();
}

void PlanSlots::AppendTable(const storage::Table& table, Range* range) {
  for (size_t c = 0; c < table.num_columns(); ++c) {
    Append(table.schema().column(c).type, table.column(c).AvgWidthBytes(),
           range);
  }
}

void PlanSlots::AppendSlots(const Range& from, Range* range) {
  for (size_t slot = from.begin; slot < from.end; ++slot) {
    Append(types_[slot], widths_[slot], range);
  }
}

StatusOr<PlanSlots::Range> PlanSlots::Add(const PhysicalNode& node,
                                           const storage::Database& db) {
  const char* op_name = PhysicalOpName(node.type);
  Range inputs[2];  // no operator has more children; a wrong count fails below
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (node.children[i] == nullptr) {
      return Status::InvalidArgument(
          StrFormat("%s has a null child", op_name));
    }
    ZDB_ASSIGN_OR_RETURN(const Range input, Add(*node.children[i], db));
    if (i < 2) inputs[i] = input;
  }
  const bool scan = node.type == PhysicalOpType::kSeqScan ||
                    node.type == PhysicalOpType::kIndexScan;
  const bool binary_join = node.type == PhysicalOpType::kHashJoin ||
                           node.type == PhysicalOpType::kNestedLoopJoin;
  const size_t expected = scan ? 0 : (binary_join ? 2 : 1);
  if (node.children.size() != expected) {
    return Status::InvalidArgument(StrFormat(
        "%s must have %zu child(ren), has %zu", op_name, expected,
        node.children.size()));
  }
  const storage::Table* table = nullptr;
  if (scan || node.type == PhysicalOpType::kIndexNLJoin) {
    table = db.FindTable(node.table_name);
    if (table == nullptr) {
      return Status::InvalidArgument(
          StrFormat("%s references unknown table '%s'", op_name,
                    node.table_name.c_str()));
    }
  }

  Range range{types_.size(), types_.size(), 0};
  switch (node.type) {
    case PhysicalOpType::kSeqScan:
    case PhysicalOpType::kIndexScan:
      AppendTable(*table, &range);
      break;
    case PhysicalOpType::kFilter:
    case PhysicalOpType::kSort:
      range = inputs[0];
      break;
    case PhysicalOpType::kHashJoin:
    case PhysicalOpType::kNestedLoopJoin:
      AppendSlots(inputs[0], &range);
      AppendSlots(inputs[1], &range);
      break;
    case PhysicalOpType::kIndexNLJoin:
      AppendSlots(inputs[0], &range);
      AppendTable(*table, &range);
      break;
    case PhysicalOpType::kHashAggregate:
    case PhysicalOpType::kSimpleAggregate: {
      const Range& input = inputs[0];
      for (size_t slot : node.group_by_slots) {
        if (slot >= input.end - input.begin) {
          return Status::InvalidArgument(StrFormat(
              "%s group-by slot %zu out of range (input schema has %zu "
              "slots)",
              op_name, slot, input.end - input.begin));
        }
        Append(types_[input.begin + slot], widths_[input.begin + slot],
               &range);
      }
      // Aggregate results are synthetic 8-byte numeric columns.
      for (size_t i = 0; i < node.aggregates.size(); ++i) {
        Append(catalog::DataType::kDouble, 8, &range);
      }
      break;
    }
  }
  ranges_.emplace_back(&node, range);
  return range;
}

StatusOr<PlanSlots> DeriveOutputSlots(const PhysicalNode& root,
                                      const storage::Database& db) {
  PlanSlots slots;
  // Room for most plans of the training and IMDB workloads (at most 10
  // nodes; 9 in 10 carry at most 80 slots in total, since every join copies
  // its inputs' slots), so the walk rarely regrows its arrays.
  slots.ranges_.reserve(16);
  slots.types_.reserve(128);
  slots.widths_.reserve(128);
  ZDB_RETURN_NOT_OK(slots.Add(root, db).status());
  std::sort(slots.ranges_.begin(), slots.ranges_.end(),
            [](const auto& a, const auto& b) {
              return std::less<const PhysicalNode*>()(a.first, b.first);
            });
  return slots;
}

size_t PhysicalNode::SubtreeSize() const {
  size_t count = 1;
  for (const auto& child : children) count += child->SubtreeSize();
  return count;
}

size_t PhysicalNode::Height() const {
  size_t max_child = 0;
  for (const auto& child : children) {
    max_child = std::max(max_child, child->Height());
  }
  return max_child + 1;
}

void PhysicalNode::Visit(
    const std::function<void(const PhysicalNode&)>& fn) const {
  fn(*this);
  for (const auto& child : children) child->Visit(fn);
}

void PhysicalNode::VisitMutable(const std::function<void(PhysicalNode&)>& fn) {
  fn(*this);
  for (auto& child : children) child->VisitMutable(fn);
}

std::unique_ptr<PhysicalNode> PhysicalNode::Clone() const {
  auto copy = std::make_unique<PhysicalNode>();
  copy->type = type;
  copy->table_name = table_name;
  copy->predicate = predicate;
  copy->index_column = index_column;
  copy->range_lo = range_lo;
  copy->range_hi = range_hi;
  copy->left_key_slot = left_key_slot;
  copy->right_key_slot = right_key_slot;
  copy->group_by_slots = group_by_slots;
  copy->aggregates = aggregates;
  copy->sort_slots = sort_slots;
  copy->est_cardinality = est_cardinality;
  copy->est_cost = est_cost;
  copy->true_cardinality = true_cardinality;
  copy->children.reserve(children.size());
  for (const auto& child : children) copy->children.push_back(child->Clone());
  return copy;
}

std::string PhysicalNode::ToString(const storage::Database& db,
                                   int indent) const {
  std::string line(static_cast<size_t>(indent) * 2, ' ');
  line += PhysicalOpName(type);
  switch (type) {
    case PhysicalOpType::kSeqScan:
      line += "(" + table_name + ")";
      break;
    case PhysicalOpType::kIndexScan: {
      const storage::Table* table = db.FindTable(table_name);
      std::string column = table != nullptr
                               ? table->schema().column(index_column).name
                               : StrFormat("#%zu", index_column);
      line += StrFormat("(%s.%s in [%s, %s])", table_name.c_str(),
                        column.c_str(),
                        range_lo ? FormatDouble(*range_lo, 2).c_str() : "-inf",
                        range_hi ? FormatDouble(*range_hi, 2).c_str() : "+inf");
      break;
    }
    case PhysicalOpType::kIndexNLJoin:
      line += StrFormat("(outer.$%zu = %s.#%zu)", left_key_slot,
                        table_name.c_str(), index_column);
      break;
    case PhysicalOpType::kHashJoin:
    case PhysicalOpType::kNestedLoopJoin:
      line += StrFormat("($%zu = $%zu)", left_key_slot, right_key_slot);
      break;
    default:
      break;
  }
  if (predicate.has_value()) {
    std::vector<std::string> slot_names;
    if (type == PhysicalOpType::kSeqScan ||
        type == PhysicalOpType::kIndexScan ||
        type == PhysicalOpType::kIndexNLJoin) {
      const storage::Table* table = db.FindTable(table_name);
      if (table != nullptr) {
        for (const auto& column : table->schema().columns()) {
          slot_names.push_back(column.name);
        }
      }
    }
    line += " filter=" + predicate->ToString(slot_names);
  }
  if (!aggregates.empty()) {
    line += StrFormat(" aggs=%zu", aggregates.size());
  }
  line += StrFormat("  [est=%.1f", est_cardinality);
  if (true_cardinality >= 0) line += StrFormat(" true=%.0f", true_cardinality);
  line += "]";
  for (const auto& child : children) {
    line += "\n" + child->ToString(db, indent + 1);
  }
  return line;
}

std::unique_ptr<PhysicalNode> MakeSeqScan(std::string table,
                                          std::optional<Predicate> predicate) {
  auto node = std::make_unique<PhysicalNode>();
  node->type = PhysicalOpType::kSeqScan;
  node->table_name = std::move(table);
  node->predicate = std::move(predicate);
  return node;
}

std::unique_ptr<PhysicalNode> MakeIndexScan(
    std::string table, size_t index_column, std::optional<double> lo,
    std::optional<double> hi, std::optional<Predicate> residual) {
  auto node = std::make_unique<PhysicalNode>();
  node->type = PhysicalOpType::kIndexScan;
  node->table_name = std::move(table);
  node->index_column = index_column;
  node->range_lo = lo;
  node->range_hi = hi;
  node->predicate = std::move(residual);
  return node;
}

std::unique_ptr<PhysicalNode> MakeFilter(std::unique_ptr<PhysicalNode> child,
                                         Predicate predicate) {
  auto node = std::make_unique<PhysicalNode>();
  node->type = PhysicalOpType::kFilter;
  node->predicate = std::move(predicate);
  node->children.push_back(std::move(child));
  return node;
}

std::unique_ptr<PhysicalNode> MakeHashJoin(std::unique_ptr<PhysicalNode> build,
                                           std::unique_ptr<PhysicalNode> probe,
                                           size_t left_key_slot,
                                           size_t right_key_slot) {
  auto node = std::make_unique<PhysicalNode>();
  node->type = PhysicalOpType::kHashJoin;
  node->left_key_slot = left_key_slot;
  node->right_key_slot = right_key_slot;
  node->children.push_back(std::move(build));
  node->children.push_back(std::move(probe));
  return node;
}

std::unique_ptr<PhysicalNode> MakeNestedLoopJoin(
    std::unique_ptr<PhysicalNode> left, std::unique_ptr<PhysicalNode> right,
    size_t left_key_slot, size_t right_key_slot) {
  auto node = std::make_unique<PhysicalNode>();
  node->type = PhysicalOpType::kNestedLoopJoin;
  node->left_key_slot = left_key_slot;
  node->right_key_slot = right_key_slot;
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return node;
}

std::unique_ptr<PhysicalNode> MakeIndexNLJoin(
    std::unique_ptr<PhysicalNode> outer, std::string inner_table,
    size_t outer_key_slot, size_t inner_key_column,
    std::optional<Predicate> inner_residual) {
  auto node = std::make_unique<PhysicalNode>();
  node->type = PhysicalOpType::kIndexNLJoin;
  node->table_name = std::move(inner_table);
  node->left_key_slot = outer_key_slot;
  node->index_column = inner_key_column;
  node->predicate = std::move(inner_residual);
  node->children.push_back(std::move(outer));
  return node;
}

std::unique_ptr<PhysicalNode> MakeSort(std::unique_ptr<PhysicalNode> child,
                                       std::vector<size_t> sort_slots) {
  auto node = std::make_unique<PhysicalNode>();
  node->type = PhysicalOpType::kSort;
  node->sort_slots = std::move(sort_slots);
  node->children.push_back(std::move(child));
  return node;
}

std::unique_ptr<PhysicalNode> MakeSimpleAggregate(
    std::unique_ptr<PhysicalNode> child,
    std::vector<AggregateExpr> aggregates) {
  auto node = std::make_unique<PhysicalNode>();
  node->type = PhysicalOpType::kSimpleAggregate;
  node->aggregates = std::move(aggregates);
  node->children.push_back(std::move(child));
  return node;
}

std::unique_ptr<PhysicalNode> MakeHashAggregate(
    std::unique_ptr<PhysicalNode> child, std::vector<size_t> group_by_slots,
    std::vector<AggregateExpr> aggregates) {
  auto node = std::make_unique<PhysicalNode>();
  node->type = PhysicalOpType::kHashAggregate;
  node->group_by_slots = std::move(group_by_slots);
  node->aggregates = std::move(aggregates);
  node->children.push_back(std::move(child));
  return node;
}

}  // namespace zerodb::plan
