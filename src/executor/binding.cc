#include "executor/binding.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

namespace bouquet {

namespace {

using exec_internal::BoundEquality;
using exec_internal::BoundFilter;

// Translates a filter predicate into an inclusive index-qual range.
Status FilterToRange(const SelectionPredicate& f, int64_t* lo, int64_t* hi) {
  if (!f.has_constant()) {
    return Status::FailedPrecondition(
        "cannot execute abstract predicate without constant: " + f.table +
        "." + f.column);
  }
  *lo = INT64_MIN;
  *hi = INT64_MAX;
  switch (f.op) {
    case CompareOp::kLess:
      // `x < INT64_MIN` is unsatisfiable; guard the decrement overflow.
      if (f.constant == INT64_MIN) {
        *lo = 1;
        *hi = 0;  // empty range
      } else {
        *hi = f.constant - 1;
      }
      break;
    case CompareOp::kLessEqual:
      *hi = f.constant;
      break;
    case CompareOp::kGreater:
      // `x > INT64_MAX` is unsatisfiable; guard the increment overflow.
      if (f.constant == INT64_MAX) {
        *lo = 1;
        *hi = 0;  // empty range
      } else {
        *lo = f.constant + 1;
      }
      break;
    case CompareOp::kGreaterEqual:
      *lo = f.constant;
      break;
    case CompareOp::kEqual:
      *lo = *hi = f.constant;
      break;
  }
  return Status::Ok();
}

/// Position of (table, col) in `schema`, or -1.
int FindColumn(const std::vector<SchemaCol>& schema, int table_idx,
               int col_idx) {
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i].table_idx == table_idx && schema[i].col_idx == col_idx) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

class Binder {
 public:
  explicit Binder(const ExecContext& ctx)
      : q_(*ctx.query),
        db_(*ctx.db),
        catalog_(*ctx.catalog),
        p_(ctx.cost_model->params()) {}

  Result<std::unique_ptr<BoundNode>> Bind(const PlanNode& node) {
    auto b = std::make_unique<BoundNode>();
    b->node = &node;
    b->op = node.op;
    Status s;
    if (node.is_aggregate()) {
      s = BindAggregate(node, b.get());
    } else if (node.is_scan()) {
      s = BindScan(node, b.get());
    } else if (node.op == OpType::kIndexNLJoin) {
      s = BindIndexNLJoin(node, b.get());
    } else {
      s = BindJoin(node, b.get());
    }
    if (!s.ok()) return s;
    return b;
  }

 private:
  /// (query-table index, column index) of a named column.
  SchemaCol Column(const std::string& table, const std::string& column) const {
    const int t = q_.TableIndex(table);
    return {t, db_.table(q_.tables[t]).ColumnIndex(column)};
  }

  /// Binds `filter_idxs` to positions in `dt`'s rows. The missing-column
  /// message names the column only when `name_missing` (index NL inner).
  Status BindFilters(const std::vector<int>& filter_idxs, const DataTable& dt,
                     bool name_missing, std::vector<BoundFilter>* out) const {
    for (int f : filter_idxs) {
      const auto& pred = q_.filters[f];
      if (!pred.has_constant()) {
        return Status::FailedPrecondition(
            "cannot execute abstract predicate without constant: " +
            pred.table + "." + pred.column);
      }
      const int col = dt.ColumnIndex(pred.column);
      if (col < 0) {
        return Status::NotFound(
            name_missing ? "column missing in data table: " + pred.table +
                               "." + pred.column
                         : std::string("column missing in data table"));
      }
      out->push_back({col, pred.op, pred.constant});
    }
    return Status::Ok();
  }

  /// Points `b` at query table `table_idx`'s storage and row count, and
  /// appends the table's columns to `b`'s schema.
  void BindTable(int table_idx, BoundNode* b) const {
    const std::string& tname = q_.tables[table_idx];
    b->table = &db_.table(tname);
    b->paged = db_.paged(tname);
    b->nrows = b->paged != nullptr ? b->paged->num_rows()
                                   : b->table->num_rows();
    for (int c = 0; c < b->table->num_columns(); ++c) {
      b->schema.push_back({table_idx, c});
    }
  }

  Status BindAggregate(const PlanNode& node, BoundNode* b) {
    auto child = Bind(*node.left);
    if (!child.ok()) return child.status();
    b->left = std::move(child.value());
    const std::vector<SchemaCol>& in = b->left->schema;
    const AggregateSpec& spec = q_.aggregate;
    for (const auto& [table, column] : spec.group_by) {
      const SchemaCol c = Column(table, column);
      const int pos = FindColumn(in, c.table_idx, c.col_idx);
      if (pos < 0) return Status::Internal("group-by column not in input");
      b->group_positions.push_back(pos);
    }
    if (spec.func != AggregateSpec::Func::kCount) {
      const SchemaCol c = Column(spec.agg_table, spec.agg_column);
      b->agg_position = FindColumn(in, c.table_idx, c.col_idx);
      if (b->agg_position < 0) {
        return Status::Internal("aggregate column not in input");
      }
    }
    b->func = spec.func;
    // Output: group columns (original identities) + one synthetic result
    // slot.
    for (int pos : b->group_positions) b->schema.push_back(in[pos]);
    b->schema.push_back({-1, -1});
    return Status::Ok();
  }

  Status BindScan(const PlanNode& node, BoundNode* b) {
    const DataTable& dt = db_.table(q_.tables[node.table_idx]);
    Status s = BindFilters(node.filter_idxs, dt, false, &b->filters);
    if (!s.ok()) return s;
    BindTable(node.table_idx, b);
    if (node.op == OpType::kIndexScan && node.index_filter >= 0) {
      const auto& pred = q_.filters[node.index_filter];
      int64_t lo, hi;
      s = FilterToRange(pred, &lo, &hi);
      if (!s.ok()) return s;
      b->matches =
          db_.sorted_index(q_.tables[node.table_idx],
                           dt.ColumnIndex(pred.column))
              .Range(lo, hi);
      b->descent = p_.random_page_cost +
                   4.0 * p_.cpu_operator_cost * std::log2(b->nrows + 2.0);
      // Uncorrelated heap order: one random page access per match. On
      // paged storage the page part is priced by the buffer pool (hit vs
      // miss) as its own meter add; in memory it stays folded into the flat
      // per-match charge.
      const size_t extra = b->filters.size() > 0 ? b->filters.size() - 1 : 0;
      b->per_match_cpu = p_.cpu_index_tuple_cost + p_.cpu_tuple_cost +
                         extra * p_.cpu_operator_cost;
      b->per_match = p_.random_page_cost + p_.cpu_index_tuple_cost +
                     p_.cpu_tuple_cost + extra * p_.cpu_operator_cost;
      return Status::Ok();
    }
    b->op = OpType::kSeqScan;
    if (b->paged != nullptr) {
      // Paged storage: I/O is charged per *actual* page access (hit vs miss
      // against the buffer pool), not amortized per row, so the per-row
      // charge is the pure CPU part.
      b->per_row_charge =
          p_.cpu_tuple_cost + b->filters.size() * p_.cpu_operator_cost;
    } else {
      const TableInfo& info = catalog_.GetTable(q_.tables[node.table_idx]);
      b->per_row_charge =
          p_.seq_page_cost * info.stats.row_width_bytes / p_.page_size_bytes +
          p_.cpu_tuple_cost + b->filters.size() * p_.cpu_operator_cost;
    }
    return Status::Ok();
  }

  // Index NL join: the inner is accessed through a hash index on its join
  // key; there is no inner child operator.
  Status BindIndexNLJoin(const PlanNode& node, BoundNode* b) {
    auto outer = Bind(*node.left);
    if (!outer.ok()) return outer.status();
    b->left = std::move(outer.value());
    const std::vector<SchemaCol>& left = b->left->schema;
    assert(node.index_join >= 0);
    const auto& jp = q_.joins[node.index_join];
    const int inner_table = node.right->table_idx;
    const DataTable& inner_dt = db_.table(q_.tables[inner_table]);
    const bool inner_is_left = q_.TableIndex(jp.left_table) == inner_table;
    const SchemaCol outer_key =
        inner_is_left ? Column(jp.right_table, jp.right_column)
                      : Column(jp.left_table, jp.left_column);
    const int inner_key_col = inner_dt.ColumnIndex(
        inner_is_left ? jp.left_column : jp.right_column);
    b->outer_key_pos =
        FindColumn(left, outer_key.table_idx, outer_key.col_idx);
    if (inner_key_col < 0 || b->outer_key_pos < 0) {
      return Status::Internal("index NL join key binding failed");
    }
    Status s =
        BindFilters(node.right->filter_idxs, inner_dt, true, &b->filters);
    if (!s.ok()) return s;
    // Residual join predicates: all join_idxs except the lookup key. One
    // endpoint is in the outer schema, the other is the inner table.
    const int left_width = static_cast<int>(left.size());
    for (int j : node.join_idxs) {
      if (j == node.index_join) continue;
      const auto& rp = q_.joins[j];
      const SchemaCol l = Column(rp.left_table, rp.left_column);
      const SchemaCol r = Column(rp.right_table, rp.right_column);
      int pos_a = FindColumn(left, l.table_idx, l.col_idx);
      int pos_b = FindColumn(left, r.table_idx, r.col_idx);
      if (pos_a < 0) pos_a = left_width + l.col_idx;  // inner side
      if (pos_b < 0) pos_b = left_width + r.col_idx;
      b->residual.push_back({pos_a, pos_b});
    }
    b->schema = left;
    BindTable(inner_table, b);
    b->index = &db_.hash_index(q_.tables[inner_table], inner_key_col);
    // Same split as the index scan: on paged storage the random page access
    // is its own buffer-pool-priced meter add.
    b->descent = p_.random_page_cost +
                 4.0 * p_.cpu_operator_cost * std::log2(b->nrows + 2.0);
    b->per_match =
        p_.random_page_cost + p_.cpu_index_tuple_cost +
        (b->filters.size() + b->residual.size()) * p_.cpu_operator_cost;
    b->per_match_cpu =
        p_.cpu_index_tuple_cost +
        (b->filters.size() + b->residual.size()) * p_.cpu_operator_cost;
    return Status::Ok();
  }

  // Hash, merge and material NL joins: both children are operators, and
  // every join predicate binds to positions in the combined row.
  Status BindJoin(const PlanNode& node, BoundNode* b) {
    auto outer = Bind(*node.left);
    if (!outer.ok()) return outer.status();
    b->left = std::move(outer.value());
    auto inner = Bind(*node.right);
    if (!inner.ok()) return inner.status();
    b->right = std::move(inner.value());
    const std::vector<SchemaCol>& left = b->left->schema;
    const std::vector<SchemaCol>& right = b->right->schema;
    const int left_width = static_cast<int>(left.size());
    auto bind_side = [&](const std::string& table, const std::string& column) {
      const SchemaCol c = Column(table, column);
      const int p = FindColumn(left, c.table_idx, c.col_idx);
      if (p >= 0) return p;
      const int r = FindColumn(right, c.table_idx, c.col_idx);
      return r >= 0 ? left_width + r : -1;
    };
    for (size_t i = 0; i < node.join_idxs.size(); ++i) {
      const auto& jp = q_.joins[node.join_idxs[i]];
      const int pos_l = bind_side(jp.left_table, jp.left_column);
      const int pos_r = bind_side(jp.right_table, jp.right_column);
      if (pos_l < 0 || pos_r < 0) {
        return Status::Internal("join predicate binding failed");
      }
      if (i == 0) {
        // Orient: one side must be < left_width (outer), the other >=.
        const int lo = std::min(pos_l, pos_r);
        const int hi = std::max(pos_l, pos_r);
        if (lo >= left_width || hi < left_width) {
          return Status::Internal("join key not crossing children");
        }
        b->left_key_pos = lo;
        b->right_key_pos = hi - left_width;
      } else {
        b->residual.push_back({pos_l, pos_r});
      }
    }
    switch (node.op) {
      case OpType::kHashJoin:
      case OpType::kMergeJoin:
        break;
      case OpType::kMaterialNLJoin:
        // Re-add the first predicate as a plain condition.
        b->residual.push_back(
            {b->left_key_pos, b->right_key_pos + left_width});
        break;
      default:
        return Status::Internal("unsupported join operator in builder");
    }
    b->schema = left;
    b->schema.insert(b->schema.end(), right.begin(), right.end());
    return Status::Ok();
  }

  const QuerySpec& q_;
  Database& db_;
  const Catalog& catalog_;
  const CostParams& p_;
};

}  // namespace

Result<std::unique_ptr<BoundNode>> BindPlan(const PlanNode& root,
                                            const ExecContext& ctx) {
  assert(ctx.query && ctx.db && ctx.catalog && ctx.cost_model);
  return Binder(ctx).Bind(root);
}

}  // namespace bouquet
