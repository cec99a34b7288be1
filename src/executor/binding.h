// Plan binding shared by the scalar and batch executors.
//
// BindPlan resolves a physical plan against the data once: output schemas,
// filters and join keys bound to row positions, the storage each operator
// reads, and the charge units each operator prices its tuples with. Both
// engines construct their operators from the same bound tree, so "same
// binding, same units" is a structural property: the batch engine replays
// the scalar engine's per-tuple charge sequence (see batch.h), and the two
// can only diverge inside the operators' run loops, which the differential
// harness (src/testing/exec_differential.h) pins.

#ifndef BOUQUET_EXECUTOR_BINDING_H_
#define BOUQUET_EXECUTOR_BINDING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "executor/exec_context.h"
#include "optimizer/plan.h"
#include "query/query_spec.h"

namespace bouquet {

namespace exec_internal {

/// A selection predicate bound to a row position.
struct BoundFilter {
  int pos;
  CompareOp op;
  int64_t constant;
};

inline bool EvalFilterValue(int64_t v, const BoundFilter& f) {
  switch (f.op) {
    case CompareOp::kLess:
      return v < f.constant;
    case CompareOp::kLessEqual:
      return v <= f.constant;
    case CompareOp::kGreater:
      return v > f.constant;
    case CompareOp::kGreaterEqual:
      return v >= f.constant;
    case CompareOp::kEqual:
      return v == f.constant;
  }
  return false;
}

inline bool EvalAll(const std::vector<int64_t>& row,
                    const std::vector<BoundFilter>& filters) {
  for (const auto& f : filters) {
    if (!EvalFilterValue(row[f.pos], f)) return false;
  }
  return true;
}

/// An equi-join condition bound to positions in the combined row.
struct BoundEquality {
  int left_pos;   // position in combined (left ++ right) row
  int right_pos;  // position in combined row
};

}  // namespace exec_internal

/// Column slot in an operator's output row.
struct SchemaCol {
  int table_idx;  ///< index into QuerySpec::tables
  int col_idx;    ///< column index within that table
};

/// One plan node bound against the data. Which fields are set depends on
/// `op`; the rest keep their defaults.
struct BoundNode {
  const PlanNode* node = nullptr;
  /// The operator to construct: the plan node's op, except that an index
  /// scan without an index qual runs as a sequential scan.
  OpType op = OpType::kSeqScan;
  /// Output row layout.
  std::vector<SchemaCol> schema;
  /// Aggregate input / join outer; join inner for hash, merge and
  /// material NL joins. An index NL join's inner table is bound in place.
  std::unique_ptr<BoundNode> left;
  std::unique_ptr<BoundNode> right;

  /// Scans and index NL joins: the base table read (the scanned table, or
  /// the join's inner), its paged form (null when in memory), its row
  /// count, and the filters on it, bound to positions in its rows.
  const DataTable* table = nullptr;
  const storage::PagedTable* paged = nullptr;
  int64_t nrows = 0;
  std::vector<exec_internal::BoundFilter> filters;
  /// Index scan: rows of the index-qual range, in index order.
  std::vector<uint32_t> matches;
  /// Index NL join: the inner's hash index on its join key, and the outer
  /// key's position in the outer row.
  const HashIndex* index = nullptr;
  int outer_key_pos = -1;

  /// Hash and merge joins: the first join predicate's key position within
  /// each child's own row.
  int left_key_pos = -1;
  int right_key_pos = -1;
  /// Equalities checked on the combined (outer ++ inner) row: the join
  /// predicates other than the key (hash, merge, index NL), or all of them
  /// (material NL, key last).
  std::vector<exec_internal::BoundEquality> residual;

  /// Aggregate: group-by and aggregated-value positions in the input row
  /// (agg_position -1 for COUNT).
  std::vector<int> group_positions;
  int agg_position = -1;
  AggregateSpec::Func func = AggregateSpec::Func::kCount;

  /// Charge units, each computed once with the FP expression grouping both
  /// engines charge.
  double per_row_charge = 0.0;  ///< seq scan: per scanned row
  double descent = 0.0;         ///< index scan: once; index NL: per probe
  double per_match = 0.0;       ///< per index match, in-memory storage
  double per_match_cpu = 0.0;   ///< per index match, paged (page priced apart)
};

/// Binds a plan (or a spill subtree) for execution. Fails with
/// kFailedPrecondition on a predicate without a constant (abstract
/// cost-model-only queries cannot be executed), kNotFound on a column the
/// data lacks, and kInternal when a join or aggregate cannot be bound.
/// Builds the data's sorted and hash indexes on first use.
Result<std::unique_ptr<BoundNode>> BindPlan(const PlanNode& root,
                                            const ExecContext& ctx);

}  // namespace bouquet

#endif  // BOUQUET_EXECUTOR_BINDING_H_
