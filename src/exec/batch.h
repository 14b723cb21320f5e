#ifndef ZERODB_EXEC_BATCH_H_
#define ZERODB_EXEC_BATCH_H_

#include <cstdint>
#include <vector>

#include "plan/physical.h"

namespace zerodb::exec {

/// A materialized intermediate result: column-major numeric data (int64 and
/// dictionary codes widened to double; exact up to 2^53, far beyond any key
/// domain used here). A batch carries no schema: what each slot holds is
/// the producing node's plan::DeriveOutputSlots entry.
///
/// `columns` has one entry per output slot of the node, so slot positions
/// never shift, but only the slots some parent operator reads are
/// materialized (each with `rows` values); the rest stay empty. The row
/// count is therefore explicit rather than taken from a column.
struct RowBatch {
  std::vector<std::vector<double>> columns;  // one vector per output slot
  size_t rows = 0;

  size_t num_rows() const { return rows; }
  size_t num_columns() const { return columns.size(); }
};

/// Per-operator work counters collected during execution. These are the
/// ground-truth "what the machine did" signals the runtime simulator turns
/// into a runtime; the learned models never see them directly.
struct OperatorStats {
  int64_t input_rows_left = 0;   ///< rows from child 0 (or table rows scanned)
  int64_t input_rows_right = 0;  ///< rows from child 1 / index matches
  int64_t output_rows = 0;
  int64_t rows_scanned = 0;      ///< base-table rows touched by a scan
  int64_t pages_read = 0;        ///< pages touched (seq: all; index: few)
  int64_t index_probes = 0;      ///< index lookups issued
  int64_t index_entries = 0;     ///< index entries returned
  int64_t predicate_evals = 0;   ///< leaf comparisons executed
  int64_t hash_build_rows = 0;
  int64_t hash_probe_rows = 0;
  int64_t sort_rows = 0;
  int64_t group_count = 0;       ///< distinct groups (hash aggregate)
  int64_t output_bytes = 0;      ///< output_rows * tuple width

  bool operator==(const OperatorStats&) const = default;
};

}  // namespace zerodb::exec

#endif  // ZERODB_EXEC_BATCH_H_
