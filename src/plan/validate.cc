#include "plan/validate.h"

#include <cmath>
#include <span>

#include "common/string_util.h"

namespace zerodb::plan {

namespace {

using catalog::DataType;

Status ValidateSlot(size_t slot, size_t schema_size, const char* op_name,
                    const char* role) {
  if (slot >= schema_size) {
    return Status::InvalidArgument(
        StrFormat("%s %s slot %zu out of range (input schema has %zu slots)",
                  op_name, role, slot, schema_size));
  }
  return Status::OK();
}

Status ValidateAnnotations(const PhysicalNode& node) {
  const char* op_name = PhysicalOpName(node.type);
  if (!std::isfinite(node.est_cardinality) || node.est_cardinality < 0.0) {
    return Status::InvalidArgument(
        StrFormat("%s has invalid est_cardinality %f", op_name,
                  node.est_cardinality));
  }
  if (!std::isfinite(node.est_cost) || node.est_cost < 0.0) {
    return Status::InvalidArgument(
        StrFormat("%s has invalid est_cost %f", op_name, node.est_cost));
  }
  const double t = node.true_cardinality;
  if (!(t == -1.0 || (std::isfinite(t) && t >= 0.0))) {
    return Status::InvalidArgument(
        StrFormat("%s has invalid true_cardinality %f (-1 or >= 0)", op_name,
                  t));
  }
  return Status::OK();
}

// Relational bounds on executor-recorded cardinalities. Unknown (-1) values
// on either side of a bound disable that bound.
Status ValidateTrueCardinality(const PhysicalNode& node,
                               const storage::Database& db) {
  const double t = node.true_cardinality;
  if (t < 0.0) return Status::OK();
  const char* op_name = PhysicalOpName(node.type);
  auto child_card = [&](size_t i) {
    return node.children[i]->true_cardinality;
  };
  switch (node.type) {
    case PhysicalOpType::kSeqScan:
    case PhysicalOpType::kIndexScan: {
      const storage::Table* table = db.FindTable(node.table_name);
      if (table != nullptr &&
          t > static_cast<double>(table->num_rows())) {
        return Status::InvalidArgument(StrFormat(
            "%s output %f exceeds table '%s' cardinality %zu", op_name, t,
            node.table_name.c_str(), table->num_rows()));
      }
      break;
    }
    case PhysicalOpType::kFilter:
      if (child_card(0) >= 0.0 && t > child_card(0)) {
        return Status::InvalidArgument(
            StrFormat("%s output %f exceeds input %f", op_name, t,
                      child_card(0)));
      }
      break;
    case PhysicalOpType::kSort:
      if (child_card(0) >= 0.0 && t != child_card(0)) {
        return Status::InvalidArgument(
            StrFormat("%s must preserve cardinality: output %f, input %f",
                      op_name, t, child_card(0)));
      }
      break;
    case PhysicalOpType::kHashJoin:
    case PhysicalOpType::kNestedLoopJoin:
      if (child_card(0) >= 0.0 && child_card(1) >= 0.0 &&
          t > child_card(0) * child_card(1)) {
        return Status::InvalidArgument(StrFormat(
            "%s output %f exceeds cross product %f x %f", op_name, t,
            child_card(0), child_card(1)));
      }
      break;
    case PhysicalOpType::kIndexNLJoin: {
      const storage::Table* inner = db.FindTable(node.table_name);
      if (child_card(0) >= 0.0 && inner != nullptr &&
          t > child_card(0) * static_cast<double>(inner->num_rows())) {
        return Status::InvalidArgument(StrFormat(
            "%s output %f exceeds outer %f x inner table %zu", op_name, t,
            child_card(0), inner->num_rows()));
      }
      break;
    }
    case PhysicalOpType::kHashAggregate:
      if (child_card(0) >= 0.0 && t > child_card(0)) {
        return Status::InvalidArgument(StrFormat(
            "%s emits %f groups from %f input rows", op_name, t,
            child_card(0)));
      }
      break;
    case PhysicalOpType::kSimpleAggregate:
      if (t != 1.0) {
        return Status::InvalidArgument(StrFormat(
            "%s must emit exactly one row, recorded %f", op_name, t));
      }
      break;
  }
  return Status::OK();
}

Status ValidateAggregates(const PhysicalNode& node,
                          std::span<const DataType> child_types) {
  const char* op_name = PhysicalOpName(node.type);
  if (node.aggregates.empty()) {
    return Status::InvalidArgument(
        StrFormat("%s has no aggregate expressions", op_name));
  }
  for (const AggregateExpr& agg : node.aggregates) {
    if (!agg.input_slot.has_value()) {
      if (agg.func != AggFunc::kCount) {
        return Status::InvalidArgument(
            StrFormat("%s: %s requires an input slot (only COUNT(*) may "
                      "omit it)",
                      op_name, AggFuncName(agg.func)));
      }
      continue;
    }
    ZDB_RETURN_NOT_OK(
        ValidateSlot(*agg.input_slot, child_types.size(), op_name,
                     "aggregate input"));
    if (agg.func != AggFunc::kCount &&
        child_types[*agg.input_slot] == DataType::kString) {
      return Status::InvalidArgument(StrFormat(
          "%s: %s over dictionary-encoded string slot %zu is not "
          "meaningful",
          op_name, AggFuncName(agg.func), *agg.input_slot));
    }
  }
  return Status::OK();
}

// Validates `node` after its children, bottom-up. `slots` holds every
// node's output slot types; DeriveOutputSlots has already checked child
// counts, table names and group-by slots.
Status ValidateNode(const PhysicalNode& node, const storage::Database& db,
                    const PlanSlots& slots) {
  for (const auto& child : node.children) {
    ZDB_RETURN_NOT_OK(ValidateNode(*child, db, slots));
  }
  ZDB_RETURN_NOT_OK(ValidateAnnotations(node));

  const char* op_name = PhysicalOpName(node.type);
  // The children's output slot types.
  std::span<const DataType> inputs[2];
  for (size_t i = 0; i < node.children.size(); ++i) {
    inputs[i] = slots.Types(*node.children[i]);
  }
  switch (node.type) {
    case PhysicalOpType::kSeqScan:
    case PhysicalOpType::kIndexScan: {
      const std::span<const DataType> types = slots.Types(node);
      if (node.type == PhysicalOpType::kIndexScan) {
        ZDB_RETURN_NOT_OK(ValidateSlot(node.index_column, types.size(),
                                       op_name, "index column"));
        // lo > hi is allowed: contradictory predicates legitimately compile
        // to an empty key range. NaN bounds never are.
        if ((node.range_lo.has_value() && std::isnan(*node.range_lo)) ||
            (node.range_hi.has_value() && std::isnan(*node.range_hi))) {
          return Status::InvalidArgument(
              StrFormat("%s has NaN key range bound", op_name));
        }
      }
      if (node.predicate.has_value()) {
        ZDB_RETURN_NOT_OK(ValidatePredicate(*node.predicate, types));
      }
      break;
    }
    case PhysicalOpType::kFilter:
      if (!node.predicate.has_value()) {
        return Status::InvalidArgument("Filter has no predicate");
      }
      ZDB_RETURN_NOT_OK(ValidatePredicate(*node.predicate, inputs[0]));
      break;
    case PhysicalOpType::kHashJoin:
    case PhysicalOpType::kNestedLoopJoin: {
      ZDB_RETURN_NOT_OK(ValidateSlot(node.left_key_slot, inputs[0].size(),
                                     op_name, "left key"));
      ZDB_RETURN_NOT_OK(ValidateSlot(node.right_key_slot, inputs[1].size(),
                                     op_name, "right key"));
      const bool left_string =
          inputs[0][node.left_key_slot] == DataType::kString;
      const bool right_string =
          inputs[1][node.right_key_slot] == DataType::kString;
      if (left_string != right_string) {
        return Status::InvalidArgument(StrFormat(
            "%s equi-join compares a string column against a numeric one "
            "(slots %zu, %zu)",
            op_name, node.left_key_slot, node.right_key_slot));
      }
      break;
    }
    case PhysicalOpType::kIndexNLJoin: {
      // The inner table's slots follow the outer input's.
      const std::span<const DataType> inner_types =
          slots.Types(node).subspan(inputs[0].size());
      ZDB_RETURN_NOT_OK(ValidateSlot(node.left_key_slot, inputs[0].size(),
                                     op_name, "outer key"));
      ZDB_RETURN_NOT_OK(ValidateSlot(node.index_column, inner_types.size(),
                                     op_name, "inner key column"));
      const bool outer_string =
          inputs[0][node.left_key_slot] == DataType::kString;
      const bool inner_string =
          inner_types[node.index_column] == DataType::kString;
      if (outer_string != inner_string) {
        return Status::InvalidArgument(StrFormat(
            "%s equi-join compares a string column against a numeric one",
            op_name));
      }
      if (node.predicate.has_value()) {
        // Residual predicate slots index the *inner* table's columns.
        ZDB_RETURN_NOT_OK(ValidatePredicate(*node.predicate, inner_types));
      }
      break;
    }
    case PhysicalOpType::kSort:
      if (node.sort_slots.empty()) {
        return Status::InvalidArgument("Sort has no sort keys");
      }
      for (size_t slot : node.sort_slots) {
        ZDB_RETURN_NOT_OK(
            ValidateSlot(slot, inputs[0].size(), op_name, "sort key"));
      }
      break;
    case PhysicalOpType::kHashAggregate:
    case PhysicalOpType::kSimpleAggregate:
      if (node.type == PhysicalOpType::kHashAggregate &&
          node.group_by_slots.empty()) {
        return Status::InvalidArgument(
            "HashAggregate has no group-by slots (use SimpleAggregate)");
      }
      if (node.type == PhysicalOpType::kSimpleAggregate &&
          !node.group_by_slots.empty()) {
        return Status::InvalidArgument(
            "SimpleAggregate must not have group-by slots");
      }
      ZDB_RETURN_NOT_OK(ValidateAggregates(node, inputs[0]));
      break;
  }
  return ValidateTrueCardinality(node, db);
}

}  // namespace

Status ValidatePredicate(const Predicate& predicate,
                         std::span<const DataType> slot_types) {
  switch (predicate.kind()) {
    case Predicate::Kind::kCompare: {
      if (predicate.slot() >= slot_types.size()) {
        return Status::InvalidArgument(StrFormat(
            "predicate slot %zu out of range (schema has %zu slots)",
            predicate.slot(), slot_types.size()));
      }
      if (std::isnan(predicate.literal())) {
        return Status::InvalidArgument(
            StrFormat("predicate on slot %zu compares against NaN",
                      predicate.slot()));
      }
      if (slot_types[predicate.slot()] == DataType::kString &&
          predicate.op() != CompareOp::kEq &&
          predicate.op() != CompareOp::kNe) {
        return Status::InvalidArgument(StrFormat(
            "predicate applies range operator %s to dictionary-encoded "
            "string slot %zu",
            CompareOpName(predicate.op()), predicate.slot()));
      }
      return Status::OK();
    }
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      if (predicate.children().empty()) {
        return Status::InvalidArgument(
            "AND/OR predicate must have at least one child");
      }
      for (const Predicate& child : predicate.children()) {
        ZDB_RETURN_NOT_OK(ValidatePredicate(child, slot_types));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown predicate kind");
}

Status ValidatePlan(const PhysicalNode& root, const storage::Database& db) {
  ZDB_ASSIGN_OR_RETURN(const PlanSlots slots, DeriveOutputSlots(root, db));
  return ValidatePlan(root, db, slots);
}

Status ValidatePlan(const PhysicalNode& root, const storage::Database& db,
                    const PlanSlots& slots) {
  return ValidateNode(root, db, slots);
}

Status ValidatePlan(const PhysicalPlan& plan, const storage::Database& db) {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("physical plan has no root node");
  }
  return ValidatePlan(*plan.root, db);
}

}  // namespace zerodb::plan
