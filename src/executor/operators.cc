#include "executor/operators.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace bouquet {

namespace {

using exec_internal::EvalAll;

// ---------------------------------------------------------------------------
// Sequential scan
// ---------------------------------------------------------------------------

class SeqScanOp : public Operator {
 public:
  SeqScanOp(const BoundNode& b, ExecContext* ctx)
      : b_(b),
        ctx_(ctx),
        table_(b.table),
        paged_(b.paged),
        row_buf_(b.table->num_columns()) {}

  ExecResult Next(Row* out) override {
    // Re-pulling after a budget abort is a checked no-op (see operators.h):
    // the meter stays tripped, so report kAborted again without charging or
    // moving any counter.
    if (ctx_->meter.exhausted()) return ExecResult::kAborted;
    NodeCounters& nc = ctx_->instr.ForNode(b_.node);
    const auto& p = ctx_->cost_model->params();
    const double per_row_charge = b_.per_row_charge;
    while (next_row_ < b_.nrows) {
      const int64_t r = next_row_;
      if (paged_ != nullptr) {
        const uint32_t pg = paged_->PageOfRow(r);
        if (pg != cur_page_) {
          // Accounting before pinning: Access() is the deterministic
          // replacement-state transition the batch engine replays in this
          // exact position, so it must happen whether or not the charge
          // fits the budget (the meter records the overshoot either way).
          guard_ = storage::PageGuard();
          const storage::PageId pid{paged_->file_id(), pg};
          const bool hit = ctx_->AccessPage(paged_->buffer(), pid);
          if (hit) {
            ctx_->page_hits_charged++;
          } else {
            ctx_->page_reads_charged++;
          }
          if (!ctx_->meter.Charge(hit ? p.buffer_hit_page_cost
                                      : p.seq_page_cost)) {
            return ExecResult::kAborted;
          }
          cur_page_ = pg;
          guard_ = paged_->buffer()->Pin(pid);
        }
      }
      if (!ctx_->meter.Charge(per_row_charge)) return ExecResult::kAborted;
      next_row_ = r + 1;
      nc.tuples_scanned++;
      if (paged_ != nullptr) {
        const int slot = paged_->SlotOfRow(r);
        for (int c = 0; c < static_cast<int>(row_buf_.size()); ++c) {
          row_buf_[c] = paged_->ValueIn(guard_, slot, c);
        }
      } else {
        for (int c = 0; c < table_->num_columns(); ++c) {
          row_buf_[c] = table_->value(c, r);
        }
      }
      if (!EvalAll(row_buf_, b_.filters)) continue;
      if (!ctx_->meter.Charge(p.cpu_tuple_cost)) return ExecResult::kAborted;
      nc.tuples_out++;
      *out = row_buf_;
      return ExecResult::kRow;
    }
    guard_ = storage::PageGuard();
    ctx_->instr.FinishNode(b_.node);  // counters + wall time + span hook
    return ExecResult::kDone;
  }

 private:
  const BoundNode& b_;
  ExecContext* ctx_;
  const DataTable* table_;
  const storage::PagedTable* paged_;
  int64_t next_row_ = 0;
  uint32_t cur_page_ = 0;  // page 0 is meta — never a data page
  storage::PageGuard guard_;
  Row row_buf_;
};

// ---------------------------------------------------------------------------
// Index scan (selection qual via sorted index)
// ---------------------------------------------------------------------------

class IndexScanOp : public Operator {
 public:
  IndexScanOp(const BoundNode& b, ExecContext* ctx)
      : b_(b),
        ctx_(ctx),
        table_(b.table),
        paged_(b.paged),
        row_buf_(b.table->num_columns()) {}

  ExecResult Next(Row* out) override {
    // Re-pulling after a budget abort is a checked no-op (see operators.h):
    // the meter stays tripped, so report kAborted again without charging or
    // moving any counter.
    if (ctx_->meter.exhausted()) return ExecResult::kAborted;
    NodeCounters& nc = ctx_->instr.ForNode(b_.node);
    const auto& p = ctx_->cost_model->params();
    if (!descent_charged_) {
      descent_charged_ = true;
      if (!ctx_->meter.Charge(b_.descent)) return ExecResult::kAborted;
    }
    // Uncorrelated heap order: one random page access per match, priced by
    // the buffer pool on paged storage and folded into per_match in memory.
    const double per_match_cpu = b_.per_match_cpu;
    const double per_match = b_.per_match;
    const std::vector<uint32_t>& matches = b_.matches;
    while (next_ < matches.size()) {
      // Peek — advance only after the charges landed, so the abort point
      // (and everything after it) is independent of batch lookahead.
      const uint32_t r = matches[next_];
      if (paged_ != nullptr) {
        const storage::PageId pid = paged_->PageIdOfRow(r);
        const bool hit = ctx_->AccessPage(paged_->buffer(), pid);
        if (hit) {
          ctx_->page_hits_charged++;
        } else {
          ctx_->page_reads_charged++;
        }
        if (!ctx_->meter.Charge(hit ? p.buffer_hit_page_cost
                                    : p.random_page_cost)) {
          return ExecResult::kAborted;
        }
        if (!ctx_->meter.Charge(per_match_cpu)) return ExecResult::kAborted;
        if (!guard_.valid() || cur_page_ != pid.page) {
          guard_ = paged_->buffer()->Pin(pid);
          cur_page_ = pid.page;
        }
      } else {
        if (!ctx_->meter.Charge(per_match)) return ExecResult::kAborted;
      }
      ++next_;
      nc.tuples_scanned++;
      if (paged_ != nullptr) {
        const int slot = paged_->SlotOfRow(r);
        for (int c = 0; c < static_cast<int>(row_buf_.size()); ++c) {
          row_buf_[c] = paged_->ValueIn(guard_, slot, c);
        }
      } else {
        for (int c = 0; c < table_->num_columns(); ++c) {
          row_buf_[c] = table_->value(c, r);
        }
      }
      if (!EvalAll(row_buf_, b_.filters)) continue;
      if (!ctx_->meter.Charge(p.cpu_tuple_cost)) return ExecResult::kAborted;
      nc.tuples_out++;
      *out = row_buf_;
      return ExecResult::kRow;
    }
    guard_ = storage::PageGuard();
    ctx_->instr.FinishNode(b_.node);  // counters + wall time + span hook
    return ExecResult::kDone;
  }

 private:
  const BoundNode& b_;
  ExecContext* ctx_;
  const DataTable* table_;
  const storage::PagedTable* paged_;
  size_t next_ = 0;
  bool descent_charged_ = false;
  uint32_t cur_page_ = 0;  // page 0 is meta — never a data page
  storage::PageGuard guard_;
  Row row_buf_;
};

// ---------------------------------------------------------------------------
// Hash join (right child builds)
// ---------------------------------------------------------------------------

class HashJoinOp : public Operator {
 public:
  HashJoinOp(const BoundNode& b, ExecContext* ctx,
             std::unique_ptr<Operator> left, std::unique_ptr<Operator> right)
      : b_(b), ctx_(ctx), left_(std::move(left)), right_(std::move(right)) {}

  ExecResult Next(Row* out) override {
    // Re-pulling after a budget abort is a checked no-op (see operators.h):
    // the meter stays tripped, so report kAborted again without charging or
    // moving any counter.
    if (ctx_->meter.exhausted()) return ExecResult::kAborted;
    NodeCounters& nc = ctx_->instr.ForNode(b_.node);
    const auto& p = ctx_->cost_model->params();
    const double hash_op = p.hash_op_factor * p.cpu_operator_cost;

    if (!built_) {
      Row r;
      int64_t build_rows = 0;
      size_t row_slots = 1;
      for (;;) {
        const ExecResult st = right_->Next(&r);
        if (st == ExecResult::kAborted) return ExecResult::kAborted;
        if (st == ExecResult::kDone) break;
        if (!ctx_->meter.Charge(hash_op + p.cpu_tuple_cost)) {
          return ExecResult::kAborted;
        }
        ++build_rows;
        row_slots = r.size();
        table_[r[b_.right_key_pos]].push_back(r);
      }
      // Multi-batch spill: when the build side exceeds work_mem the cost
      // model prices one extra write+read pass over both sides; charge the
      // build side now and amortize the probe side per row below (widths
      // approximated by 8B per slot, as in the merge-join sort charge).
      const double build_width = 8.0 * double(row_slots);
      if (double(build_rows) * build_width > p.work_mem_bytes) {
        const double build_pages =
            double(build_rows) * build_width / p.page_size_bytes;
        if (!ctx_->meter.Charge(2.0 * p.seq_page_cost *
                                std::max(1.0, build_pages))) {
          return ExecResult::kAborted;
        }
        probe_spill_charge_ =
            2.0 * p.seq_page_cost * build_width / p.page_size_bytes;
      }
      built_ = true;
    }

    for (;;) {
      // Emit remaining matches for the current probe row.
      while (bucket_ != nullptr && bucket_pos_ < bucket_->size()) {
        const Row& rrow = (*bucket_)[bucket_pos_++];
        Row combined = probe_row_;
        combined.insert(combined.end(), rrow.begin(), rrow.end());
        bool ok = true;
        for (const auto& eq : b_.residual) {
          if (combined[eq.left_pos] != combined[eq.right_pos]) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        if (!ctx_->meter.Charge(p.cpu_tuple_cost)) return ExecResult::kAborted;
        nc.tuples_out++;
        *out = std::move(combined);
        return ExecResult::kRow;
      }
      // Advance to the next probe row.
      const ExecResult st = left_->Next(&probe_row_);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      if (st == ExecResult::kDone) {
        ctx_->instr.FinishNode(b_.node);  // counters + wall time + span hook
        return ExecResult::kDone;
      }
      if (!ctx_->meter.Charge(hash_op + probe_spill_charge_)) {
        return ExecResult::kAborted;
      }
      auto it = table_.find(probe_row_[b_.left_key_pos]);
      bucket_ = it == table_.end() ? nullptr : &it->second;
      bucket_pos_ = 0;
    }
  }

 private:
  const BoundNode& b_;
  ExecContext* ctx_;
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;

  std::unordered_map<int64_t, std::vector<Row>> table_;
  bool built_ = false;
  double probe_spill_charge_ = 0.0;  // per probe row when multi-batch
  Row probe_row_;
  const std::vector<Row>* bucket_ = nullptr;
  size_t bucket_pos_ = 0;
};

// ---------------------------------------------------------------------------
// Sort-merge join
// ---------------------------------------------------------------------------

class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(const BoundNode& b, ExecContext* ctx,
              std::unique_ptr<Operator> left, std::unique_ptr<Operator> right)
      : b_(b), ctx_(ctx), left_(std::move(left)), right_(std::move(right)) {}

  ExecResult Next(Row* out) override {
    // Re-pulling after a budget abort is a checked no-op (see operators.h):
    // the meter stays tripped, so report kAborted again without charging or
    // moving any counter.
    if (ctx_->meter.exhausted()) return ExecResult::kAborted;
    NodeCounters& nc = ctx_->instr.ForNode(b_.node);
    const auto& p = ctx_->cost_model->params();

    if (!sorted_) {
      const ExecResult st = DrainAndSort();
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      sorted_ = true;
    }

    for (;;) {
      // Emit the cross product of the current equal-key groups.
      if (gi_ < gl_end_) {
        while (gj_ < gr_end_) {
          const Row& lrow = lrows_[gi_];
          const Row& rrow = rrows_[gj_++];
          Row combined = lrow;
          combined.insert(combined.end(), rrow.begin(), rrow.end());
          bool ok = true;
          for (const auto& eq : b_.residual) {
            if (combined[eq.left_pos] != combined[eq.right_pos]) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
          if (!ctx_->meter.Charge(p.cpu_tuple_cost)) {
            return ExecResult::kAborted;
          }
          nc.tuples_out++;
          *out = std::move(combined);
          return ExecResult::kRow;
        }
        ++gi_;
        gj_ = gr_start_;
        continue;
      }
      // Find the next pair of equal-key groups.
      li_ = gl_end_;
      ri_ = gr_end_;
      if (li_ >= lrows_.size() || ri_ >= rrows_.size()) {
        ctx_->instr.FinishNode(b_.node);  // counters + wall time + span hook
        return ExecResult::kDone;
      }
      if (!ctx_->meter.Charge(p.cpu_operator_cost)) {
        return ExecResult::kAborted;
      }
      const int64_t lk = lrows_[li_][b_.left_key_pos];
      const int64_t rk = rrows_[ri_][b_.right_key_pos];
      if (lk < rk) {
        gl_end_ = li_ + 1;
        gi_ = gl_end_;  // empty group; just advance left
        gr_end_ = ri_;
        gj_ = gr_start_ = ri_;
        continue;
      }
      if (lk > rk) {
        gr_end_ = ri_ + 1;
        gl_end_ = li_;
        gi_ = li_;
        gj_ = gr_start_ = gr_end_;  // empty
        continue;
      }
      // Equal keys: delimit both groups.
      size_t le = li_;
      while (le < lrows_.size() && lrows_[le][b_.left_key_pos] == lk) ++le;
      size_t re = ri_;
      while (re < rrows_.size() && rrows_[re][b_.right_key_pos] == rk) ++re;
      gi_ = li_;
      gl_end_ = le;
      gr_start_ = ri_;
      gj_ = ri_;
      gr_end_ = re;
    }
  }

 private:
  ExecResult DrainAndSort() {
    const auto& p = ctx_->cost_model->params();
    Row r;
    for (;;) {
      const ExecResult st = left_->Next(&r);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      if (st == ExecResult::kDone) break;
      lrows_.push_back(r);
    }
    for (;;) {
      const ExecResult st = right_->Next(&r);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      if (st == ExecResult::kDone) break;
      rrows_.push_back(r);
    }
    // Charge sort costs in bulk (matches CostModel::SortCost's CPU term;
    // widths approximated by row slot count * 8B). Pre-sorted inputs — an
    // interesting order produced upstream — skip both the work and the
    // charge.
    const double lw = 8.0 * (lrows_.empty() ? 1 : lrows_[0].size());
    const double rw = 8.0 * (rrows_.empty() ? 1 : rrows_[0].size());
    double charge = 0.0;
    if (!b_.node->left_presorted) {
      charge += ctx_->cost_model->SortCost(double(lrows_.size()), lw);
      std::stable_sort(lrows_.begin(), lrows_.end(),
                       [this](const Row& a, const Row& b) {
                         return a[b_.left_key_pos] < b[b_.left_key_pos];
                       });
    }
    if (!b_.node->right_presorted) {
      charge += ctx_->cost_model->SortCost(double(rrows_.size()), rw);
      std::stable_sort(rrows_.begin(), rrows_.end(),
                       [this](const Row& a, const Row& b) {
                         return a[b_.right_key_pos] < b[b_.right_key_pos];
                       });
    }
    const bool ok = ctx_->meter.Charge(charge);
    assert(std::is_sorted(lrows_.begin(), lrows_.end(),
                          [this](const Row& a, const Row& b) {
                            return a[b_.left_key_pos] < b[b_.left_key_pos];
                          }) &&
           "left merge input not sorted (presorted flag wrong)");
    assert(std::is_sorted(rrows_.begin(), rrows_.end(),
                          [this](const Row& a, const Row& b) {
                            return a[b_.right_key_pos] < b[b_.right_key_pos];
                          }) &&
           "right merge input not sorted (presorted flag wrong)");
    (void)p;
    return ok ? ExecResult::kDone : ExecResult::kAborted;
  }

  const BoundNode& b_;
  ExecContext* ctx_;
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;

  bool sorted_ = false;
  std::vector<Row> lrows_, rrows_;
  size_t li_ = 0, ri_ = 0;
  size_t gi_ = 0, gl_end_ = 0;
  size_t gj_ = 0, gr_start_ = 0, gr_end_ = 0;
};

// ---------------------------------------------------------------------------
// Index nested-loop join (inner = base table via hash index on join key)
// ---------------------------------------------------------------------------

class IndexNLJoinOp : public Operator {
 public:
  IndexNLJoinOp(const BoundNode& b, ExecContext* ctx,
                std::unique_ptr<Operator> left)
      : b_(b),
        ctx_(ctx),
        left_(std::move(left)),
        inner_(b.table),
        paged_(b.paged),
        inner_buf_(b.table->num_columns()) {}

  ExecResult Next(Row* out) override {
    // Re-pulling after a budget abort is a checked no-op (see operators.h):
    // the meter stays tripped, so report kAborted again without charging or
    // moving any counter.
    if (ctx_->meter.exhausted()) return ExecResult::kAborted;
    NodeCounters& nc = ctx_->instr.ForNode(b_.node);
    const auto& p = ctx_->cost_model->params();
    // Same split as IndexScanOp: on paged storage the random page access is
    // its own buffer-pool-priced meter add.
    const double descent = b_.descent;
    const double per_match = b_.per_match;
    const double per_match_cpu = b_.per_match_cpu;

    for (;;) {
      while (matches_ != nullptr && match_pos_ < matches_->size()) {
        // Peek — advance only after the charges landed (see IndexScanOp).
        const uint32_t r = (*matches_)[match_pos_];
        if (paged_ != nullptr) {
          const storage::PageId pid = paged_->PageIdOfRow(r);
          const bool hit = ctx_->AccessPage(paged_->buffer(), pid);
          if (hit) {
            ctx_->page_hits_charged++;
          } else {
            ctx_->page_reads_charged++;
          }
          if (!ctx_->meter.Charge(hit ? p.buffer_hit_page_cost
                                      : p.random_page_cost)) {
            return ExecResult::kAborted;
          }
          if (!ctx_->meter.Charge(per_match_cpu)) return ExecResult::kAborted;
          if (!guard_.valid() || cur_page_ != pid.page) {
            guard_ = paged_->buffer()->Pin(pid);
            cur_page_ = pid.page;
          }
        } else {
          if (!ctx_->meter.Charge(per_match)) return ExecResult::kAborted;
        }
        ++match_pos_;
        if (paged_ != nullptr) {
          const int slot = paged_->SlotOfRow(r);
          for (int c = 0; c < static_cast<int>(inner_buf_.size()); ++c) {
            inner_buf_[c] = paged_->ValueIn(guard_, slot, c);
          }
        } else {
          for (int c = 0; c < inner_->num_columns(); ++c) {
            inner_buf_[c] = inner_->value(c, r);
          }
        }
        if (!EvalAll(inner_buf_, b_.filters)) continue;
        Row combined = outer_row_;
        combined.insert(combined.end(), inner_buf_.begin(), inner_buf_.end());
        bool ok = true;
        for (const auto& eq : b_.residual) {
          if (combined[eq.left_pos] != combined[eq.right_pos]) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        if (!ctx_->meter.Charge(p.cpu_tuple_cost)) return ExecResult::kAborted;
        nc.tuples_out++;
        *out = std::move(combined);
        return ExecResult::kRow;
      }
      const ExecResult st = left_->Next(&outer_row_);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      if (st == ExecResult::kDone) {
        guard_ = storage::PageGuard();
        ctx_->instr.FinishNode(b_.node);  // counters + wall time + span hook
        return ExecResult::kDone;
      }
      if (!ctx_->meter.Charge(descent)) return ExecResult::kAborted;
      matches_ = &b_.index->Lookup(outer_row_[b_.outer_key_pos]);
      match_pos_ = 0;
    }
  }

 private:
  const BoundNode& b_;
  ExecContext* ctx_;
  std::unique_ptr<Operator> left_;
  const DataTable* inner_;
  const storage::PagedTable* paged_;
  Row outer_row_;
  Row inner_buf_;
  uint32_t cur_page_ = 0;  // page 0 is meta — never a data page
  storage::PageGuard guard_;
  const std::vector<uint32_t>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

// ---------------------------------------------------------------------------
// Materialized nested-loop join
// ---------------------------------------------------------------------------

class MaterialNLJoinOp : public Operator {
 public:
  MaterialNLJoinOp(const BoundNode& b, ExecContext* ctx,
                   std::unique_ptr<Operator> left,
                   std::unique_ptr<Operator> right)
      : b_(b), ctx_(ctx), left_(std::move(left)), right_(std::move(right)) {}

  ExecResult Next(Row* out) override {
    // Re-pulling after a budget abort is a checked no-op (see operators.h):
    // the meter stays tripped, so report kAborted again without charging or
    // moving any counter.
    if (ctx_->meter.exhausted()) return ExecResult::kAborted;
    NodeCounters& nc = ctx_->instr.ForNode(b_.node);
    const auto& p = ctx_->cost_model->params();

    if (!materialized_) {
      Row r;
      for (;;) {
        const ExecResult st = right_->Next(&r);
        if (st == ExecResult::kAborted) return ExecResult::kAborted;
        if (st == ExecResult::kDone) break;
        if (!ctx_->meter.Charge(p.cpu_tuple_cost)) {
          return ExecResult::kAborted;
        }
        inner_rows_.push_back(r);
      }
      materialized_ = true;
      have_outer_ = false;
    }

    for (;;) {
      if (!have_outer_) {
        const ExecResult st = left_->Next(&outer_row_);
        if (st == ExecResult::kAborted) return ExecResult::kAborted;
        if (st == ExecResult::kDone) {
          ctx_->instr.FinishNode(b_.node);  // counters + wall time + span hook
          return ExecResult::kDone;
        }
        have_outer_ = true;
        inner_pos_ = 0;
      }
      while (inner_pos_ < inner_rows_.size()) {
        if (!ctx_->meter.Charge(p.cpu_operator_cost)) {
          return ExecResult::kAborted;
        }
        const Row& rrow = inner_rows_[inner_pos_++];
        Row combined = outer_row_;
        combined.insert(combined.end(), rrow.begin(), rrow.end());
        bool ok = true;
        for (const auto& eq : b_.residual) {
          if (combined[eq.left_pos] != combined[eq.right_pos]) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        if (!ctx_->meter.Charge(p.cpu_tuple_cost)) return ExecResult::kAborted;
        nc.tuples_out++;
        *out = std::move(combined);
        return ExecResult::kRow;
      }
      have_outer_ = false;
    }
  }

 private:
  const BoundNode& b_;
  ExecContext* ctx_;
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;

  bool materialized_ = false;
  std::vector<Row> inner_rows_;
  Row outer_row_;
  bool have_outer_ = false;
  size_t inner_pos_ = 0;
};

// ---------------------------------------------------------------------------
// Hash aggregate
// ---------------------------------------------------------------------------

class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(const BoundNode& b, ExecContext* ctx,
                  std::unique_ptr<Operator> child)
      : b_(b), ctx_(ctx), child_(std::move(child)) {}

  ExecResult Next(Row* out) override {
    // Re-pulling after a budget abort is a checked no-op (see operators.h):
    // the meter stays tripped, so report kAborted again without charging or
    // moving any counter.
    if (ctx_->meter.exhausted()) return ExecResult::kAborted;
    NodeCounters& nc = ctx_->instr.ForNode(b_.node);
    const auto& p = ctx_->cost_model->params();
    const double hash_op = p.hash_op_factor * p.cpu_operator_cost;

    if (!built_) {
      Row r;
      for (;;) {
        const ExecResult st = child_->Next(&r);
        if (st == ExecResult::kAborted) return ExecResult::kAborted;
        if (st == ExecResult::kDone) break;
        if (!ctx_->meter.Charge(hash_op + p.cpu_operator_cost)) {
          return ExecResult::kAborted;
        }
        Row key(b_.group_positions.size());
        for (size_t i = 0; i < b_.group_positions.size(); ++i) {
          key[i] = r[b_.group_positions[i]];
        }
        const int64_t value = b_.agg_position >= 0 ? r[b_.agg_position] : 1;
        auto [it, inserted] = groups_.try_emplace(std::move(key), 0);
        switch (b_.func) {
          case AggregateSpec::Func::kCount:
            it->second += 1;
            break;
          case AggregateSpec::Func::kSum:
            it->second = inserted ? value : it->second + value;
            break;
          case AggregateSpec::Func::kMin:
            it->second = inserted ? value : std::min(it->second, value);
            break;
          case AggregateSpec::Func::kMax:
            it->second = inserted ? value : std::max(it->second, value);
            break;
        }
      }
      // Scalar COUNT over empty input emits one zero row (SQL semantics);
      // scalar SUM/MIN/MAX over empty input emit nothing (the engine has no
      // NULL representation).
      if (groups_.empty() && b_.group_positions.empty() &&
          b_.func == AggregateSpec::Func::kCount) {
        groups_.try_emplace(Row{}, 0);
      }
      // Emit in ascending group-key order. Hash-map iteration order is
      // unspecified (bouquet-determinism), and under a budget abort the set
      // of rows emitted before the trip would depend on it; sorting makes
      // the output — and therefore the abort-truncated prefix — identical
      // across engines and standard libraries. The batch engine sorts the
      // same way.
      // NOLINTNEXTLINE(bouquet-determinism): drained into the sort below
      emit_rows_.assign(std::make_move_iterator(groups_.begin()),
                        std::make_move_iterator(groups_.end()));
      std::sort(emit_rows_.begin(), emit_rows_.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      groups_.clear();
      emit_ = 0;
      built_ = true;
    }

    if (emit_ == emit_rows_.size()) {
      ctx_->instr.FinishNode(b_.node);  // counters + wall time + span hook
      return ExecResult::kDone;
    }
    if (!ctx_->meter.Charge(p.cpu_tuple_cost)) return ExecResult::kAborted;
    const auto& row = emit_rows_[emit_];
    out->assign(row.first.begin(), row.first.end());
    out->push_back(row.second);
    ++emit_;
    nc.tuples_out++;
    return ExecResult::kRow;
  }

 private:
  struct RowHash {
    size_t operator()(const Row& r) const {
      size_t h = 1469598103934665603ULL;
      for (int64_t v : r) {
        h ^= static_cast<size_t>(v);
        h *= 1099511628211ULL;
      }
      return h;
    }
  };

  const BoundNode& b_;
  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;

  bool built_ = false;
  std::unordered_map<Row, int64_t, RowHash> groups_;
  /// Sorted (group key, aggregate) pairs; emission order must be
  /// deterministic, see the comment at the sort.
  std::vector<std::pair<Row, int64_t>> emit_rows_;
  size_t emit_ = 0;
};

}  // namespace

std::unique_ptr<Operator> BuildExecutor(const BoundNode& b, ExecContext* ctx) {
  switch (b.op) {
    case OpType::kSeqScan:
      return std::make_unique<SeqScanOp>(b, ctx);
    case OpType::kIndexScan:
      return std::make_unique<IndexScanOp>(b, ctx);
    case OpType::kIndexNLJoin:
      return std::make_unique<IndexNLJoinOp>(b, ctx,
                                             BuildExecutor(*b.left, ctx));
    case OpType::kMaterialNLJoin: {
      auto left = BuildExecutor(*b.left, ctx);
      return std::make_unique<MaterialNLJoinOp>(b, ctx, std::move(left),
                                                BuildExecutor(*b.right, ctx));
    }
    case OpType::kHashJoin: {
      auto left = BuildExecutor(*b.left, ctx);
      return std::make_unique<HashJoinOp>(b, ctx, std::move(left),
                                          BuildExecutor(*b.right, ctx));
    }
    case OpType::kMergeJoin: {
      auto left = BuildExecutor(*b.left, ctx);
      return std::make_unique<MergeJoinOp>(b, ctx, std::move(left),
                                           BuildExecutor(*b.right, ctx));
    }
    case OpType::kHashAggregate:
      return std::make_unique<HashAggregateOp>(b, ctx,
                                               BuildExecutor(*b.left, ctx));
  }
  return nullptr;  // unreachable: every OpType is handled above
}

}  // namespace bouquet
