#include "executor/batch.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "executor/binding.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/plan_signature.h"
#include "storage/buffer_manager.h"
#include "storage/paged_table.h"

namespace bouquet {

using batch_internal::EvKind;
using batch_internal::MeterEvent;
using batch_internal::Tape;

void BatchExecState::SetBuffer(storage::BufferManager* bm) {
  buffer_ = bm;
  const auto& p = ctx_->cost_model->params();
  page_hit_cost_ = p.buffer_hit_page_cost;
  page_seq_cost_ = p.seq_page_cost;
  page_rand_cost_ = p.random_page_cost;
}

bool BatchExecState::Replay(const std::vector<MeterEvent>& events,
                            uint16_t root_slot, int64_t* root_emits) {
  if (aborted_) return false;
  CostMeter& meter = ctx_->meter;
  // The dependent chain of one-unit adds is the replay hot path. Keep the
  // accumulator and budget in locals so they live in registers across the
  // whole tape: the counter stores below would otherwise force the compiler
  // to reload the meter through ctx_ on every single add. One add per
  // logical tuple, never a pre-summed bulk charge — double addition is
  // order-sensitive and the scalar engine adds one unit at a time.
  double charged = meter.charged();
  const double budget = meter.budget();
  if (budget == std::numeric_limits<double>::infinity()) {
    return ReplayNoAbort(events, root_slot, root_emits, charged);
  }
  // Single fused loop body: every charge kind shares the per-unit add loop
  // and differs only in which counter absorbs the completed units. The
  // kFinish test is almost never taken; the counter branches follow the
  // tape's short repeating kind pattern, so they predict well.
  NodeCounters* const* ncs = nc_.data();
  const PlanNode* const* nds = nodes_.data();
  const MeterEvent* e = events.data();
  const MeterEvent* const end = e + events.size();
  for (; e != end; ++e) {
    if (e->kind == EvKind::kFinish) {
      ctx_->instr.FinishNode(nds[e->node]);
      continue;
    }
    if (e->kind == EvKind::kPageSeq || e->kind == EvKind::kPageRand) {
      // Replay-time accounting: the Access() here is the same deterministic
      // replacement-state transition the scalar engine performs at access
      // time, executed in the identical (scalar charge) order — so hit/miss
      // outcomes, and therefore every subsequent add, match bit for bit.
      const bool hit =
          ctx_->AccessPage(buffer_, storage::PageId{e->file, e->page});
      if (hit) {
        ctx_->page_hits_charged++;
      } else {
        ctx_->page_reads_charged++;
      }
      charged += hit ? page_hit_cost_
                     : (e->kind == EvKind::kPageSeq ? page_seq_cost_
                                                    : page_rand_cost_);
      if (!(charged <= budget)) {
        meter.RestoreCharged(charged);
        aborted_ = true;
        return false;
      }
      continue;
    }
    const double unit = e->unit;
    const uint32_t count = e->count;
    uint32_t done = 0;
    while (done < count) {
      charged += unit;
      if (!(charged <= budget)) break;
      ++done;
    }
    if (e->kind == EvKind::kChargeScan) {
      assert(ncs[e->node] != nullptr && "charge before touch");
      ncs[e->node]->AddScanned(done);
    } else if (e->kind == EvKind::kChargeEmit) {
      assert(ncs[e->node] != nullptr && "charge before touch");
      ncs[e->node]->AddOut(done);
      if (root_emits != nullptr && e->node == root_slot) *root_emits += done;
    }
    if (done < count) {
      meter.RestoreCharged(charged);
      aborted_ = true;
      return false;
    }
  }
  meter.RestoreCharged(charged);
  return true;
}

// With an infinite budget no add can trip the meter (units are finite, and
// even an accumulator that saturates to +inf still satisfies charged <=
// budget), so the per-unit abort checks — whose variable trip counts cost a
// branch mispredict per event — are dead. Counters absorb whole events, and
// the unit values expand into a flat scratch array (branch-light broadcast
// stores, overwrite slack below) consumed by one long dependent-add loop:
// the exact same add sequence the event-by-event path performs, bit for bit.
bool BatchExecState::ReplayNoAbort(const std::vector<MeterEvent>& events,
                                   uint16_t root_slot, int64_t* root_emits,
                                   double charged) {
  NodeCounters* const* ncs = nc_.data();
  const PlanNode* const* nds = nodes_.data();
  size_t total = 0;
  for (const MeterEvent& e : events) {
    if (e.kind != EvKind::kFinish) total += e.count;
  }
  // Grow-only scratch (+8: broadcast stores may overshoot the tail). A
  // plain resize would shrink and re-grow across calls, value-initializing
  // the delta every time.
  if (units_.size() < total + 8) units_.resize(total + 8);
  double* u = units_.data();
  size_t idx = 0;
  for (const MeterEvent& e : events) {
    if (e.kind == EvKind::kFinish) {
      ctx_->instr.FinishNode(nds[e.node]);
      continue;
    }
    if (e.kind == EvKind::kPageSeq || e.kind == EvKind::kPageRand) {
      // Access() runs in event order here too; only the meter adds are
      // deferred to the flat loop below, which walks u[] in the same order.
      const bool hit =
          ctx_->AccessPage(buffer_, storage::PageId{e.file, e.page});
      if (hit) {
        ctx_->page_hits_charged++;
      } else {
        ctx_->page_reads_charged++;
      }
      u[idx++] = hit ? page_hit_cost_
                     : (e.kind == EvKind::kPageSeq ? page_seq_cost_
                                                   : page_rand_cost_);
      continue;
    }
    const double unit = e.unit;
    const uint32_t count = e.count;
    // Unconditional 8-wide stores; idx advances by the true count, so any
    // overshoot lands in slack or is overwritten by the next event. Typical
    // RLE runs are short, so the wide block keeps the loop trip count near
    // one and the branch predictable.
    for (uint32_t i = 0; i < count; i += 8) {
      double* w = u + idx + i;
      w[0] = w[1] = w[2] = w[3] = w[4] = w[5] = w[6] = w[7] = unit;
    }
    idx += count;
    if (e.kind == EvKind::kChargeScan) {
      assert(ncs[e.node] != nullptr && "charge before touch");
      ncs[e.node]->AddScanned(count);
    } else if (e.kind == EvKind::kChargeEmit) {
      assert(ncs[e.node] != nullptr && "charge before touch");
      ncs[e.node]->AddOut(count);
      if (root_emits != nullptr && e.node == root_slot) *root_emits += count;
    }
  }
  // One add per logical tuple, in tape order — never reassociated (no
  // fast-math in this build) and never bulk-summed.
  for (size_t k = 0; k < idx; ++k) charged += u[k];
  ctx_->meter.RestoreCharged(charged);
  return true;
}

int BatchOp::FindColumn(int table_idx, int col_idx) const {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i].table_idx == table_idx && schema_[i].col_idx == col_idx) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

namespace {

using exec_internal::BoundEquality;
using exec_internal::BoundFilter;
using exec_internal::EvalFilterValue;
using exec_internal::FilterToRange;

// ---------------------------------------------------------------------------
// Selection-vector kernels. Sequential scans normalize every comparison to
// an unsigned range test at build time (RangePred below), fuse up to four
// predicates into one compare-and-store pass over the whole chunk — no
// loop-carried dependence, so it vectorizes — then extract survivors from
// packed 64-bit words, which costs time proportional to the survivor count
// rather than the chunk. (A compact-as-you-filter cascade is serial through
// the selection-vector write index on every pass; separate per-predicate
// byte-mask passes pay the mask store/reload three times over.)
// ---------------------------------------------------------------------------

/// A comparison normalized to `(uint64_t)(v - lo) < span`: membership in the
/// half-open unsigned window starting at lo. Always-true and always-false
/// predicates are resolved at build time and never reach the kernels.
struct RangePred {
  int pos = 0;        ///< column index in the table
  int64_t lo = 0;     ///< inclusive lower bound
  uint64_t span = 0;  ///< hi - lo + 1 (never wraps: full range is resolved)
};

inline uint8_t InRange(int64_t v, const RangePred& r) {
  return static_cast<uint8_t>(static_cast<uint64_t>(v) -
                                  static_cast<uint64_t>(r.lo) <
                              r.span);
}

/// One fused pass for 1..4 predicates: byte mask of the conjunction.
/// Additional predicates (rare) AND in with PredAndRange passes. Column
/// pointers are hoisted into __restrict locals — the byte store would
/// otherwise be presumed to alias both the pointer array and the column
/// data, forcing reloads and blocking vectorization.
void PredFused(const int64_t* const* cols, const RangePred* r, size_t nr,
               int chunk, uint8_t* __restrict pr) {
  const int64_t* __restrict c0 = cols[0];
  const RangePred r0 = r[0];
  if (nr == 1) {
    for (int i = 0; i < chunk; ++i) pr[i] = InRange(c0[i], r0);
    return;
  }
  const int64_t* __restrict c1 = cols[1];
  const RangePred r1 = r[1];
  if (nr == 2) {
    for (int i = 0; i < chunk; ++i) {
      pr[i] = InRange(c0[i], r0) & InRange(c1[i], r1);
    }
    return;
  }
  const int64_t* __restrict c2 = cols[2];
  const RangePred r2 = r[2];
  if (nr == 3) {
    for (int i = 0; i < chunk; ++i) {
      pr[i] = InRange(c0[i], r0) & InRange(c1[i], r1) & InRange(c2[i], r2);
    }
    return;
  }
  const int64_t* __restrict c3 = cols[3];
  const RangePred r3 = r[3];
  for (int i = 0; i < chunk; ++i) {
    pr[i] = InRange(c0[i], r0) & InRange(c1[i], r1) & InRange(c2[i], r2) &
            InRange(c3[i], r3);
  }
}

void PredAndRange(const int64_t* __restrict col, const RangePred& r, int chunk,
                  uint8_t* __restrict pr) {
  for (int i = 0; i < chunk; ++i) pr[i] &= InRange(col[i], r);
}

/// Extracts survivor positions from a 0/1 byte mask. Each 64-byte group is
/// packed into one word (the multiply gathers byte j into bit 56+j with no
/// cross-term carries, since all bytes are 0 or 1), then set bits are walked
/// with countr_zero. `pr` must be zero-padded to a multiple of 64 bytes.
int SelFromPred(const uint8_t* pr, int chunk, int32_t* sel) {
  int m = 0;
  for (int g = 0; g < chunk; g += 64) {
    uint64_t w = 0;
    for (int j = 0; j < 64; j += 8) {
      uint64_t b;
      std::memcpy(&b, pr + g + j, 8);
      w |= ((b * 0x0102040810204080ull) >> 56) << j;
    }
    while (w != 0) {
      sel[m++] = g + std::countr_zero(w);
      w &= w - 1;
    }
  }
  return m;
}

// Indirect variants for index scans, where the chunk is a slice of the index
// match list rather than a contiguous row range.
template <typename Pred>
inline int SelInitIdxT(const int64_t* col, const uint32_t* idx, int chunk,
                       int32_t* sel, Pred pred) {
  int m = 0;
  for (int i = 0; i < chunk; ++i) {
    sel[m] = i;
    m += pred(col[idx[i]]) ? 1 : 0;
  }
  return m;
}

template <typename Pred>
inline int SelRefineIdxT(const int64_t* col, const uint32_t* idx, int32_t* sel,
                         int m, Pred pred) {
  int m2 = 0;
  for (int k = 0; k < m; ++k) {
    const int32_t i = sel[k];
    sel[m2] = i;
    m2 += pred(col[idx[i]]) ? 1 : 0;
  }
  return m2;
}

int SelInitIdx(const int64_t* col, const uint32_t* idx, int chunk,
               const BoundFilter& f, int32_t* sel) {
  const int64_t c = f.constant;
  switch (f.op) {
    case CompareOp::kLess:
      return SelInitIdxT(col, idx, chunk, sel, [c](int64_t v) { return v < c; });
    case CompareOp::kLessEqual:
      return SelInitIdxT(col, idx, chunk, sel,
                         [c](int64_t v) { return v <= c; });
    case CompareOp::kGreater:
      return SelInitIdxT(col, idx, chunk, sel, [c](int64_t v) { return v > c; });
    case CompareOp::kGreaterEqual:
      return SelInitIdxT(col, idx, chunk, sel,
                         [c](int64_t v) { return v >= c; });
    case CompareOp::kEqual:
      return SelInitIdxT(col, idx, chunk, sel,
                         [c](int64_t v) { return v == c; });
  }
  return 0;
}

int SelRefineIdx(const int64_t* col, const uint32_t* idx, const BoundFilter& f,
                 int32_t* sel, int m) {
  const int64_t c = f.constant;
  switch (f.op) {
    case CompareOp::kLess:
      return SelRefineIdxT(col, idx, sel, m, [c](int64_t v) { return v < c; });
    case CompareOp::kLessEqual:
      return SelRefineIdxT(col, idx, sel, m, [c](int64_t v) { return v <= c; });
    case CompareOp::kGreater:
      return SelRefineIdxT(col, idx, sel, m, [c](int64_t v) { return v > c; });
    case CompareOp::kGreaterEqual:
      return SelRefineIdxT(col, idx, sel, m, [c](int64_t v) { return v >= c; });
    case CompareOp::kEqual:
      return SelRefineIdxT(col, idx, sel, m, [c](int64_t v) { return v == c; });
  }
  return 0;
}

inline uint64_t HashKey(int64_t k) {
  uint64_t x = static_cast<uint64_t>(k) * 0x9E3779B97F4A7C15ull;
  x ^= x >> 32;
  return x;
}

// ---------------------------------------------------------------------------
// Sequential scan
// ---------------------------------------------------------------------------

class BatchSeqScanOp : public BatchOp {
 public:
  BatchSeqScanOp(const PlanNode* node, BatchExecState* st,
                 std::vector<BoundFilter> filters)
      : BatchOp(node, st) {
    ExecContext* ctx = st->ctx();
    const std::string& tname = ctx->query->tables[node->table_idx];
    table_ = &ctx->db->table(tname);
    paged_ = ctx->db->paged(tname);
    const TableInfo& info = ctx->catalog->GetTable(tname);
    const auto& p = ctx->cost_model->params();
    // The charge prices every bound filter, whether or not the normalized
    // form below still needs to evaluate it — same formula as the scalar
    // scan, which likewise charges independently of short-circuiting.
    if (paged_ != nullptr) {
      // Paged storage: I/O rides the tape as kPageSeq events priced at
      // replay; the per-row charge is the pure CPU part (same expression
      // grouping as the scalar SeqScanOp).
      nrows_ = paged_->num_rows();
      per_row_charge_ =
          p.cpu_tuple_cost + filters.size() * p.cpu_operator_cost;
      st->SetBuffer(paged_->buffer());
      scratch_.resize(static_cast<size_t>(table_->num_columns()) *
                      static_cast<size_t>(paged_->rows_per_page()));
    } else {
      nrows_ = table_->num_rows();
      per_row_charge_ =
          p.seq_page_cost * info.stats.row_width_bytes / p.page_size_bytes +
          p.cpu_tuple_cost + filters.size() * p.cpu_operator_cost;
    }
    // Conjunctive predicates on the same column intersect into one range
    // (a BETWEEN pair costs the kernels a single window test). The scalar
    // engine evaluates the original conjunction term by term; the surviving
    // set is identical either way.
    struct ColRange {
      int pos;
      int64_t lo;
      int64_t hi;
    };
    std::vector<ColRange> merged;
    for (const BoundFilter& f : filters) {
      int64_t lo = INT64_MIN;
      int64_t hi = INT64_MAX;
      switch (f.op) {
        case CompareOp::kLess:
          // `x < INT64_MIN` is unsatisfiable; guard the decrement overflow.
          if (f.constant == INT64_MIN) never_match_ = true;
          else hi = f.constant - 1;
          break;
        case CompareOp::kLessEqual:
          hi = f.constant;
          break;
        case CompareOp::kGreater:
          // `x > INT64_MAX` is unsatisfiable; guard the increment overflow.
          if (f.constant == INT64_MAX) never_match_ = true;
          else lo = f.constant + 1;
          break;
        case CompareOp::kGreaterEqual:
          lo = f.constant;
          break;
        case CompareOp::kEqual:
          lo = hi = f.constant;
          break;
      }
      if (never_match_) break;
      ColRange* cr = nullptr;
      for (ColRange& c : merged) {
        if (c.pos == f.pos) {
          cr = &c;
          break;
        }
      }
      if (cr != nullptr) {
        cr->lo = std::max(cr->lo, lo);
        cr->hi = std::min(cr->hi, hi);
      } else if (lo != INT64_MIN || hi != INT64_MAX) {  // skip always-true
        merged.push_back({f.pos, lo, hi});
      }
    }
    for (const ColRange& c : merged) {
      if (c.lo > c.hi) {  // empty intersection
        never_match_ = true;
        break;
      }
      ranges_.push_back(
          {c.pos, c.lo,
           static_cast<uint64_t>(c.hi) - static_cast<uint64_t>(c.lo) + 1});
    }
    for (int c = 0; c < table_->num_columns(); ++c) {
      schema_.push_back({node->table_idx, c});
    }
  }

  ExecResult NextBatch(ColumnBatch* out) override {
    if (st_->aborted() || st_->ctx()->meter.exhausted()) {
      return ExecResult::kAborted;
    }
    if (!touched_) {
      st_->TouchSlot(slot_);
      touched_ = true;
    }
    const auto& p = st_->ctx()->cost_model->params();
    const int bsz = std::max(1, st_->ctx()->batch_size);
    const int ncols = table_->num_columns();
    const int64_t nrows = nrows_;
    while (out->n < bsz) {
      if (next_row_ >= nrows) {
        guard_ = storage::PageGuard();
        out->tape.Finish(slot_);
        return ExecResult::kDone;
      }
      const int64_t base = next_row_;
      int chunk = static_cast<int>(
          std::min<int64_t>(bsz - out->n, nrows - base));
      int64_t col_base = base;
      if (paged_ != nullptr) {
        // Clip the chunk to the page holding `base` so each chunk maps to
        // exactly one kPageSeq event, positioned before the chunk's
        // per-row charges — the scalar page-crossing order.
        const int rpp = paged_->rows_per_page();
        const int64_t in_page = base % rpp;
        chunk = static_cast<int>(
            std::min<int64_t>(chunk, rpp - in_page));
        const uint32_t pg = paged_->PageOfRow(base);
        if (pg != emitted_page_) {
          out->tape.PageSeq(slot_, paged_->file_id(), pg);
          emitted_page_ = pg;
        }
        if (pg != decoded_page_) {
          guard_ = paged_->PinRowPage(base);
          paged_->DecodePage(guard_, scratch_.data());
          decoded_page_ = pg;
        }
        col_base = in_page;
      }
      // In paged mode the decoded page's columns are contiguous in scratch
      // (column-major, rows_per_page apart), so the same kernels run over
      // either source through one pointer per column.
      const auto col_ptr = [&](int c) -> const int64_t* {
        return paged_ != nullptr
                   ? scratch_.data() +
                         static_cast<size_t>(c) *
                             static_cast<size_t>(paged_->rows_per_page()) +
                         col_base
                   : table_->column(c).data() + base;
      };
      next_row_ += chunk;
      sel_.resize(static_cast<size_t>(chunk));
      int m;
      if (never_match_) {
        m = 0;
      } else if (ranges_.empty()) {
        m = chunk;
        for (int i = 0; i < chunk; ++i) sel_[i] = i;
      } else {
        // Accounting never observes predicate evaluation order: the tape
        // depends only on the surviving set, which equals the scalar
        // engine's short-circuit conjunction.
        const int padded = (chunk + 63) & ~63;
        pred_.resize(static_cast<size_t>(padded));
        std::fill(pred_.begin() + chunk, pred_.end(), uint8_t{0});
        const int64_t* cols[4] = {nullptr, nullptr, nullptr, nullptr};
        const size_t head = std::min<size_t>(ranges_.size(), 4);
        for (size_t fi = 0; fi < head; ++fi) {
          cols[fi] = col_ptr(ranges_[fi].pos);
        }
        PredFused(cols, ranges_.data(), head, chunk, pred_.data());
        for (size_t fi = 4; fi < ranges_.size(); ++fi) {
          PredAndRange(col_ptr(ranges_[fi].pos), ranges_[fi], chunk,
                       pred_.data());
        }
        m = SelFromPred(pred_.data(), chunk, sel_.data());
      }
      // Events: one RLE run of per-row scan charges up to (and including)
      // each surviving row, an emit charge per survivor, and a trailing run
      // for rows scanned after the last survivor.
      int32_t prev = -1;
      for (int k = 0; k < m; ++k) {
        const int32_t i = sel_[k];
        out->tape.ChargeScan(slot_, per_row_charge_,
                             static_cast<uint32_t>(i - prev));
        out->tape.ChargeEmit(slot_, p.cpu_tuple_cost);
        out->MarkRow();
        prev = i;
      }
      if (chunk - 1 > prev) {
        out->tape.ChargeScan(slot_, per_row_charge_,
                             static_cast<uint32_t>(chunk - 1 - prev));
      }
      for (int c = 0; c < ncols; ++c) {
        const int64_t* src = col_ptr(c);
        auto& dst = out->cols[c];
        const size_t old = dst.size();
        dst.resize(old + static_cast<size_t>(m));
        int64_t* d = dst.data() + old;
        for (int k = 0; k < m; ++k) d[k] = src[sel_[k]];
      }
    }
    return ExecResult::kRow;
  }

 private:
  const DataTable* table_;
  const storage::PagedTable* paged_;
  std::vector<RangePred> ranges_;
  bool never_match_ = false;
  double per_row_charge_;
  int64_t nrows_;
  int64_t next_row_ = 0;
  uint32_t emitted_page_ = 0;  // page 0 is meta — never a data page
  uint32_t decoded_page_ = 0;
  storage::PageGuard guard_;
  std::vector<int64_t> scratch_;  // decoded page, column-major
  std::vector<int32_t> sel_;
  std::vector<uint8_t> pred_;
};

// ---------------------------------------------------------------------------
// Index scan
// ---------------------------------------------------------------------------

class BatchIndexScanOp : public BatchOp {
 public:
  BatchIndexScanOp(const PlanNode* node, BatchExecState* st,
                   std::vector<BoundFilter> filters, int64_t qual_lo,
                   int64_t qual_hi, int qual_col)
      : BatchOp(node, st), filters_(std::move(filters)) {
    ExecContext* ctx = st->ctx();
    const std::string& tname = ctx->query->tables[node->table_idx];
    table_ = &ctx->db->table(tname);
    paged_ = ctx->db->paged(tname);
    nrows_ = paged_ != nullptr ? paged_->num_rows() : table_->num_rows();
    matches_ = ctx->db->sorted_index(tname, qual_col).Range(qual_lo, qual_hi);
    const auto& p = ctx->cost_model->params();
    per_match_ = p.random_page_cost + p.cpu_index_tuple_cost +
                 p.cpu_tuple_cost +
                 (filters_.size() > 0 ? filters_.size() - 1 : 0) *
                     p.cpu_operator_cost;
    // Paged split (same expression grouping as the scalar IndexScanOp): the
    // random page part becomes a kPageRand event per match, priced at
    // replay; the CPU part stays a per-match tape charge.
    per_match_cpu_ =
        p.cpu_index_tuple_cost + p.cpu_tuple_cost +
        (filters_.size() > 0 ? filters_.size() - 1 : 0) * p.cpu_operator_cost;
    if (paged_ != nullptr) {
      st->SetBuffer(paged_->buffer());
      row_buf_.resize(table_->num_columns());
    }
    for (int c = 0; c < table_->num_columns(); ++c) {
      schema_.push_back({node->table_idx, c});
    }
  }

  ExecResult NextBatch(ColumnBatch* out) override {
    if (st_->aborted() || st_->ctx()->meter.exhausted()) {
      return ExecResult::kAborted;
    }
    if (!touched_) {
      st_->TouchSlot(slot_);
      touched_ = true;
    }
    const auto& p = st_->ctx()->cost_model->params();
    if (!descent_charged_) {
      descent_charged_ = true;
      out->tape.Charge(slot_,
                       p.random_page_cost +
                           4.0 * p.cpu_operator_cost *
                               std::log2(nrows_ + 2.0));
    }
    const int bsz = std::max(1, st_->ctx()->batch_size);
    const int ncols = table_->num_columns();
    if (paged_ != nullptr) return NextBatchPaged(out, bsz, ncols);
    while (out->n < bsz) {
      if (next_ >= matches_.size()) {
        out->tape.Finish(slot_);
        return ExecResult::kDone;
      }
      const size_t base = next_;
      const int chunk = static_cast<int>(std::min<size_t>(
          static_cast<size_t>(bsz - out->n), matches_.size() - base));
      next_ += static_cast<size_t>(chunk);
      const uint32_t* idx = matches_.data() + base;
      sel_.resize(static_cast<size_t>(chunk));
      int m;
      if (filters_.empty()) {
        m = chunk;
        for (int i = 0; i < chunk; ++i) sel_[i] = i;
      } else {
        m = SelInitIdx(table_->column(filters_[0].pos).data(), idx, chunk,
                       filters_[0], sel_.data());
        for (size_t fi = 1; fi < filters_.size(); ++fi) {
          m = SelRefineIdx(table_->column(filters_[fi].pos).data(), idx,
                           filters_[fi], sel_.data(), m);
        }
      }
      int32_t prev = -1;
      for (int k = 0; k < m; ++k) {
        const int32_t i = sel_[k];
        out->tape.ChargeScan(slot_, per_match_,
                             static_cast<uint32_t>(i - prev));
        out->tape.ChargeEmit(slot_, p.cpu_tuple_cost);
        out->MarkRow();
        prev = i;
      }
      if (chunk - 1 > prev) {
        out->tape.ChargeScan(slot_, per_match_,
                             static_cast<uint32_t>(chunk - 1 - prev));
      }
      for (int c = 0; c < ncols; ++c) {
        const int64_t* src = table_->column(c).data();
        auto& dst = out->cols[c];
        const size_t old = dst.size();
        dst.resize(old + static_cast<size_t>(m));
        int64_t* d = dst.data() + old;
        for (int k = 0; k < m; ++k) d[k] = src[idx[sel_[k]]];
      }
    }
    return ExecResult::kRow;
  }

 private:
  // Paged storage walks matches one at a time: every match interleaves a
  // kPageRand event with its CPU charge, so the RLE runs of the in-memory
  // path degenerate to length 1 anyway and the row's values have to come
  // out of a pinned page. Tape order per match — page event, ChargeScan,
  // then ChargeEmit for survivors — mirrors the scalar charge order.
  ExecResult NextBatchPaged(ColumnBatch* out, int bsz, int ncols) {
    const auto& p = st_->ctx()->cost_model->params();
    while (out->n < bsz) {
      if (next_ >= matches_.size()) {
        guard_ = storage::PageGuard();
        out->tape.Finish(slot_);
        return ExecResult::kDone;
      }
      const uint32_t r = matches_[next_++];
      const storage::PageId pid = paged_->PageIdOfRow(r);
      out->tape.PageRand(slot_, pid.file, pid.page);
      out->tape.ChargeScan(slot_, per_match_cpu_, 1);
      if (!guard_.valid() || cur_page_ != pid.page) {
        guard_ = paged_->buffer()->Pin(pid);
        cur_page_ = pid.page;
      }
      const int slot_in_page = paged_->SlotOfRow(r);
      for (int c = 0; c < ncols; ++c) {
        row_buf_[c] = paged_->ValueIn(guard_, slot_in_page, c);
      }
      bool pass = true;
      for (const auto& f : filters_) {
        if (!EvalFilterValue(row_buf_[f.pos], f)) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      out->tape.ChargeEmit(slot_, p.cpu_tuple_cost);
      for (int c = 0; c < ncols; ++c) out->cols[c].push_back(row_buf_[c]);
      out->MarkRow();
    }
    return ExecResult::kRow;
  }

  const DataTable* table_;
  const storage::PagedTable* paged_;
  int64_t nrows_;
  std::vector<BoundFilter> filters_;
  std::vector<uint32_t> matches_;
  double per_match_;
  double per_match_cpu_;
  size_t next_ = 0;
  bool descent_charged_ = false;
  uint32_t cur_page_ = 0;  // page 0 is meta — never a data page
  storage::PageGuard guard_;
  Row row_buf_;
  std::vector<int32_t> sel_;
};

// ---------------------------------------------------------------------------
// Hash join (right child builds)
// ---------------------------------------------------------------------------

class BatchHashJoinOp : public BatchOp {
 public:
  BatchHashJoinOp(const PlanNode* node, BatchExecState* st,
                  std::unique_ptr<BatchOp> left, std::unique_ptr<BatchOp> right,
                  int left_key_pos, int right_key_pos,
                  std::vector<BoundEquality> residual)
      : BatchOp(node, st),
        left_(std::move(left)),
        right_(std::move(right)),
        left_key_pos_(left_key_pos),
        right_key_pos_(right_key_pos),
        residual_(std::move(residual)) {
    schema_ = left_->schema();
    schema_.insert(schema_.end(), right_->schema().begin(),
                   right_->schema().end());
    lbatch_.Configure(left_->schema().size());
    rbatch_.Configure(right_->schema().size());
  }

  ExecResult NextBatch(ColumnBatch* out) override {
    if (st_->aborted() || st_->ctx()->meter.exhausted()) {
      return ExecResult::kAborted;
    }
    if (!touched_) {
      st_->TouchSlot(slot_);
      touched_ = true;
    }
    if (!built_) {
      if (Build() == ExecResult::kAborted) return ExecResult::kAborted;
      built_ = true;
    }
    // Probe exactly one left batch per call: the consumer must replay our
    // tape before we pull again (replay-granularity invariant, batch.h).
    lbatch_.Reset();
    const ExecResult st = left_->NextBatch(&lbatch_);
    if (st == ExecResult::kAborted) return ExecResult::kAborted;
    ProbeBatch(out);
    if (st == ExecResult::kDone) {
      out->tape.Finish(slot_);
      return ExecResult::kDone;
    }
    return ExecResult::kRow;
  }

 private:
  // Drains the build side, replaying [right row events + build charge] per
  // consumed batch so a budget abort surfaces at the same tuple a scalar
  // build would stop at.
  ExecResult Build() {
    const auto& p = st_->ctx()->cost_model->params();
    const double hash_op = p.hash_op_factor * p.cpu_operator_cost;
    const size_t rcols = right_->schema().size();
    bcols_.assign(rcols, {});
    Tape phase;
    int64_t build_rows = 0;
    for (;;) {
      rbatch_.Reset();
      const ExecResult st = right_->NextBatch(&rbatch_);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      phase.Clear();
      for (int64_t j = 0; j < rbatch_.n; ++j) {
        phase.Append(rbatch_.tape, rbatch_.SegBegin(j), rbatch_.SegEnd(j));
        phase.Charge(slot_, hash_op + p.cpu_tuple_cost);
      }
      phase.Append(rbatch_.tape, rbatch_.TailBegin(), rbatch_.tape.size());
      if (!st_->Replay(phase.events())) return ExecResult::kAborted;
      for (size_t c = 0; c < rcols; ++c) {
        bcols_[c].insert(bcols_[c].end(), rbatch_.cols[c].begin(),
                         rbatch_.cols[c].end());
      }
      build_rows += rbatch_.n;
      if (st == ExecResult::kDone) break;
    }
    // Multi-batch spill charge — expressions identical to the scalar engine.
    const size_t row_slots = build_rows > 0 ? rcols : size_t{1};
    const double build_width = 8.0 * static_cast<double>(row_slots);
    if (static_cast<double>(build_rows) * build_width > p.work_mem_bytes) {
      const double build_pages =
          static_cast<double>(build_rows) * build_width / p.page_size_bytes;
      Tape t;
      t.Charge(slot_,
               2.0 * p.seq_page_cost * std::max(1.0, build_pages));
      if (!st_->Replay(t.events())) return ExecResult::kAborted;
      probe_spill_charge_ =
          2.0 * p.seq_page_cost * build_width / p.page_size_bytes;
    }
    // Chain table. Prepending in reverse row order makes each chain yield
    // ascending row indices, i.e. insertion order — the same per-key match
    // order the scalar engine's bucket vectors produce.
    size_t nb = 16;
    while (nb < static_cast<size_t>(build_rows) * 2) nb <<= 1;
    mask_ = nb - 1;
    head_.assign(nb, -1);
    next_.resize(static_cast<size_t>(build_rows));
    const int64_t* keys = bcols_[right_key_pos_].data();
    for (int64_t i = build_rows - 1; i >= 0; --i) {
      const size_t b = HashKey(keys[i]) & mask_;
      next_[i] = head_[b];
      head_[b] = static_cast<int32_t>(i);
    }
    return ExecResult::kDone;
  }

  // Two-pass probe: pass 1 walks the hash chains emitting tape events and
  // collecting matched (probe row, build row) pairs; pass 2 materializes the
  // output as one tight gather loop per column. The tape sees the identical
  // event sequence either way — only the data plane is restructured.
  void ProbeBatch(ColumnBatch* out) {
    const auto& p = st_->ctx()->cost_model->params();
    const double hash_op = p.hash_op_factor * p.cpu_operator_cost;
    const double probe_charge = hash_op + probe_spill_charge_;
    const int lw = static_cast<int>(left_->schema().size());
    const size_t rw = right_->schema().size();
    const int64_t* lkeys =
        lbatch_.n > 0 ? lbatch_.cols[left_key_pos_].data() : nullptr;
    const int64_t* bkeys = next_.empty() ? nullptr : bcols_[right_key_pos_].data();
    match_l_.clear();
    match_b_.clear();
    for (int64_t j = 0; j < lbatch_.n; ++j) {
      out->tape.Append(lbatch_.tape, lbatch_.SegBegin(j), lbatch_.SegEnd(j));
      out->tape.Charge(slot_, probe_charge);
      const int64_t key = lkeys[j];
      for (int32_t i = head_[HashKey(key) & mask_]; i >= 0; i = next_[i]) {
        if (bkeys[i] != key) continue;
        bool ok = true;
        for (const auto& eq : residual_) {
          if (Combined(j, i, eq.left_pos, lw) !=
              Combined(j, i, eq.right_pos, lw)) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        out->tape.ChargeEmit(slot_, p.cpu_tuple_cost);
        match_l_.push_back(static_cast<int32_t>(j));
        match_b_.push_back(i);
        out->MarkRow();
      }
    }
    out->tape.Append(lbatch_.tape, lbatch_.TailBegin(), lbatch_.tape.size());
    const size_t nm = match_l_.size();
    for (int c = 0; c < lw; ++c) {
      const int64_t* src = lbatch_.cols[c].data();
      auto& dst = out->cols[c];
      const size_t old = dst.size();
      dst.resize(old + nm);
      int64_t* d = dst.data() + old;
      for (size_t k = 0; k < nm; ++k) d[k] = src[match_l_[k]];
    }
    for (size_t c = 0; c < rw; ++c) {
      const int64_t* src = bcols_[c].data();
      auto& dst = out->cols[lw + static_cast<int>(c)];
      const size_t old = dst.size();
      dst.resize(old + nm);
      int64_t* d = dst.data() + old;
      for (size_t k = 0; k < nm; ++k) d[k] = src[match_b_[k]];
    }
  }

  int64_t Combined(int64_t j, int32_t i, int pos, int lw) const {
    return pos < lw ? lbatch_.cols[pos][j] : bcols_[pos - lw][i];
  }

  std::unique_ptr<BatchOp> left_;
  std::unique_ptr<BatchOp> right_;
  int left_key_pos_;
  int right_key_pos_;  // within the right child's own row
  std::vector<BoundEquality> residual_;

  bool built_ = false;
  double probe_spill_charge_ = 0.0;
  std::vector<std::vector<int64_t>> bcols_;  // columnar build store
  std::vector<int32_t> head_;
  std::vector<int32_t> next_;
  size_t mask_ = 0;
  ColumnBatch lbatch_, rbatch_;
  std::vector<int32_t> match_l_, match_b_;  // probe-pass match pairs
};

// ---------------------------------------------------------------------------
// Sort-merge join
// ---------------------------------------------------------------------------

class BatchMergeJoinOp : public BatchOp {
 public:
  BatchMergeJoinOp(const PlanNode* node, BatchExecState* st,
                   std::unique_ptr<BatchOp> left,
                   std::unique_ptr<BatchOp> right, int left_key_pos,
                   int right_key_pos, std::vector<BoundEquality> residual)
      : BatchOp(node, st),
        left_(std::move(left)),
        right_(std::move(right)),
        left_key_pos_(left_key_pos),
        right_key_pos_(right_key_pos),
        residual_(std::move(residual)) {
    schema_ = left_->schema();
    schema_.insert(schema_.end(), right_->schema().begin(),
                   right_->schema().end());
  }

  ExecResult NextBatch(ColumnBatch* out) override {
    if (st_->aborted() || st_->ctx()->meter.exhausted()) {
      return ExecResult::kAborted;
    }
    if (!touched_) {
      st_->TouchSlot(slot_);
      touched_ = true;
    }
    if (!sorted_) {
      if (DrainAndSort() == ExecResult::kAborted) return ExecResult::kAborted;
      sorted_ = true;
    }
    return EmitMerge(out);
  }

 private:
  ExecResult DrainSide(BatchOp* side, std::vector<std::vector<int64_t>>* cols,
                       int64_t* nrows) {
    cols->assign(side->schema().size(), {});
    ColumnBatch in;
    in.Configure(side->schema().size());
    for (;;) {
      in.Reset();
      const ExecResult st = side->NextBatch(&in);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      // The merge join adds no charge of its own during the drain; the
      // child's events replay verbatim.
      if (!st_->Replay(in.tape.events())) return ExecResult::kAborted;
      for (size_t c = 0; c < cols->size(); ++c) {
        (*cols)[c].insert((*cols)[c].end(), in.cols[c].begin(),
                          in.cols[c].end());
      }
      *nrows += in.n;
      if (st == ExecResult::kDone) return ExecResult::kDone;
    }
  }

  void SortSide(std::vector<std::vector<int64_t>>* cols, int key_pos,
                int64_t n) {
    perm_.resize(static_cast<size_t>(n));
    for (int64_t k = 0; k < n; ++k) perm_[k] = k;
    const int64_t* key = (*cols)[key_pos].data();
    // stable_sort with the scalar comparator => identical permutation to
    // stable-sorting the rows themselves.
    std::stable_sort(perm_.begin(), perm_.end(),
                     [key](int64_t a, int64_t b) { return key[a] < key[b]; });
    std::vector<int64_t> tmp(static_cast<size_t>(n));
    for (auto& col : *cols) {
      for (int64_t k = 0; k < n; ++k) tmp[k] = col[perm_[k]];
      col.swap(tmp);
    }
  }

  ExecResult DrainAndSort() {
    if (DrainSide(left_.get(), &lcols_, &nl_) == ExecResult::kAborted) {
      return ExecResult::kAborted;
    }
    if (DrainSide(right_.get(), &rcols_, &nr_) == ExecResult::kAborted) {
      return ExecResult::kAborted;
    }
    const double lw =
        8.0 * static_cast<double>(nl_ == 0 ? size_t{1} : left_->schema().size());
    const double rw = 8.0 * static_cast<double>(
                                nr_ == 0 ? size_t{1} : right_->schema().size());
    double charge = 0.0;
    const CostModel* cm = st_->ctx()->cost_model;
    if (!node_->left_presorted) {
      charge += cm->SortCost(static_cast<double>(nl_), lw);
      SortSide(&lcols_, left_key_pos_, nl_);
    }
    if (!node_->right_presorted) {
      charge += cm->SortCost(static_cast<double>(nr_), rw);
      SortSide(&rcols_, right_key_pos_, nr_);
    }
    // The scalar engine charges the (possibly zero) sort total in one call.
    Tape t;
    t.Charge(slot_, charge);
    return st_->Replay(t.events()) ? ExecResult::kDone : ExecResult::kAborted;
  }

  int64_t Combined(int64_t li, int64_t rj, int pos) const {
    const int lw = static_cast<int>(left_->schema().size());
    return pos < lw ? lcols_[pos][li] : rcols_[pos - lw][rj];
  }

  ExecResult EmitMerge(ColumnBatch* out) {
    const auto& p = st_->ctx()->cost_model->params();
    const int bsz = std::max(1, st_->ctx()->batch_size);
    const int lw = static_cast<int>(left_->schema().size());
    const int rw = static_cast<int>(right_->schema().size());
    const int64_t* lkey = nl_ > 0 ? lcols_[left_key_pos_].data() : nullptr;
    const int64_t* rkey = nr_ > 0 ? rcols_[right_key_pos_].data() : nullptr;
    // Two-pass (see BatchHashJoinOp::ProbeBatch): the emit loop records
    // matched row pairs; columns materialize in one gather per column right
    // before handing the batch back.
    pairs_l_.clear();
    pairs_r_.clear();
    const auto flush = [&] {
      const size_t nm = pairs_l_.size();
      for (int c = 0; c < lw; ++c) {
        const int64_t* src = lcols_[c].data();
        auto& dst = out->cols[c];
        const size_t old = dst.size();
        dst.resize(old + nm);
        int64_t* d = dst.data() + old;
        for (size_t k = 0; k < nm; ++k) d[k] = src[pairs_l_[k]];
      }
      for (int c = 0; c < rw; ++c) {
        const int64_t* src = rcols_[c].data();
        auto& dst = out->cols[lw + c];
        const size_t old = dst.size();
        dst.resize(old + nm);
        int64_t* d = dst.data() + old;
        for (size_t k = 0; k < nm; ++k) d[k] = src[pairs_r_[k]];
      }
    };
    for (;;) {
      // Emit the cross product of the current equal-key groups.
      if (gi_ < gl_end_) {
        while (gj_ < gr_end_) {
          if (out->n >= bsz) {
            flush();
            return ExecResult::kRow;
          }
          const int64_t rj = gj_++;
          bool ok = true;
          for (const auto& eq : residual_) {
            if (Combined(gi_, rj, eq.left_pos) !=
                Combined(gi_, rj, eq.right_pos)) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
          out->tape.ChargeEmit(slot_, p.cpu_tuple_cost);
          pairs_l_.push_back(gi_);
          pairs_r_.push_back(rj);
          out->MarkRow();
        }
        ++gi_;
        gj_ = gr_start_;
        continue;
      }
      // Find the next pair of equal-key groups (scalar state machine).
      li_ = gl_end_;
      ri_ = gr_end_;
      if (li_ >= nl_ || ri_ >= nr_) {
        out->tape.Finish(slot_);
        flush();
        return ExecResult::kDone;
      }
      out->tape.Charge(slot_, p.cpu_operator_cost);
      const int64_t lk = lkey[li_];
      const int64_t rk = rkey[ri_];
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
      int64_t le = li_;
      while (le < nl_ && lkey[le] == lk) ++le;
      int64_t re = ri_;
      while (re < nr_ && rkey[re] == rk) ++re;
      gi_ = li_;
      gl_end_ = le;
      gr_start_ = ri_;
      gj_ = ri_;
      gr_end_ = re;
    }
  }

  std::unique_ptr<BatchOp> left_;
  std::unique_ptr<BatchOp> right_;
  int left_key_pos_;
  int right_key_pos_;
  std::vector<BoundEquality> residual_;

  bool sorted_ = false;
  std::vector<std::vector<int64_t>> lcols_, rcols_;
  int64_t nl_ = 0, nr_ = 0;
  std::vector<int64_t> perm_;
  std::vector<int64_t> pairs_l_, pairs_r_;  // emit-pass match pairs
  int64_t li_ = 0, ri_ = 0;
  int64_t gi_ = 0, gl_end_ = 0;
  int64_t gj_ = 0, gr_start_ = 0, gr_end_ = 0;
};

// ---------------------------------------------------------------------------
// Index nested-loop join
// ---------------------------------------------------------------------------

class BatchIndexNLJoinOp : public BatchOp {
 public:
  BatchIndexNLJoinOp(const PlanNode* node, BatchExecState* st,
                     std::unique_ptr<BatchOp> left, int inner_table_idx,
                     int inner_key_col, int outer_key_pos,
                     std::vector<BoundFilter> inner_filters,
                     std::vector<BoundEquality> residual)
      : BatchOp(node, st),
        left_(std::move(left)),
        inner_key_col_(inner_key_col),
        outer_key_pos_(outer_key_pos),
        inner_filters_(std::move(inner_filters)),
        residual_(std::move(residual)) {
    ExecContext* ctx = st->ctx();
    const std::string& tname = ctx->query->tables[inner_table_idx];
    inner_ = &ctx->db->table(tname);
    paged_ = ctx->db->paged(tname);
    inner_rows_ =
        paged_ != nullptr ? paged_->num_rows() : inner_->num_rows();
    index_ = &ctx->db->hash_index(tname, inner_key_col_);
    schema_ = left_->schema();
    for (int c = 0; c < inner_->num_columns(); ++c) {
      schema_.push_back({inner_table_idx, c});
      inner_cols_.push_back(inner_->column(c).data());
    }
    if (paged_ != nullptr) {
      st->SetBuffer(paged_->buffer());
      inner_buf_.resize(inner_->num_columns());
    }
    lbatch_.Configure(left_->schema().size());
  }

  ExecResult NextBatch(ColumnBatch* out) override {
    if (st_->aborted() || st_->ctx()->meter.exhausted()) {
      return ExecResult::kAborted;
    }
    if (!touched_) {
      st_->TouchSlot(slot_);
      touched_ = true;
    }
    const auto& p = st_->ctx()->cost_model->params();
    const double descent =
        p.random_page_cost +
        4.0 * p.cpu_operator_cost * std::log2(inner_rows_ + 2.0);
    // Same split as the scalar IndexNLJoinOp (expression grouping mirrored):
    // paged storage turns the random page part into a kPageRand event.
    const double per_match =
        p.random_page_cost + p.cpu_index_tuple_cost +
        (inner_filters_.size() + residual_.size()) * p.cpu_operator_cost;
    const double per_match_cpu =
        p.cpu_index_tuple_cost +
        (inner_filters_.size() + residual_.size()) * p.cpu_operator_cost;
    const int lw = static_cast<int>(left_->schema().size());
    const int iw = static_cast<int>(inner_cols_.size());
    // One left batch per call (replay-granularity invariant, batch.h).
    lbatch_.Reset();
    const ExecResult st = left_->NextBatch(&lbatch_);
    if (st == ExecResult::kAborted) return ExecResult::kAborted;
    // Two-pass (see BatchHashJoinOp::ProbeBatch): events + match pairs
    // first, then per-column bulk gathers. Paged inner rows can't be
    // gathered by pointer later, so pass 1 stashes their values.
    match_l_.clear();
    match_r_.clear();
    inner_gather_.clear();
    for (int64_t j = 0; j < lbatch_.n; ++j) {
      out->tape.Append(lbatch_.tape, lbatch_.SegBegin(j), lbatch_.SegEnd(j));
      out->tape.Charge(slot_, descent);
      const auto& matches = index_->Lookup(lbatch_.cols[outer_key_pos_][j]);
      for (const uint32_t r : matches) {
        if (paged_ != nullptr) {
          const storage::PageId pid = paged_->PageIdOfRow(r);
          out->tape.PageRand(slot_, pid.file, pid.page);
          out->tape.Charge(slot_, per_match_cpu);
          if (!guard_.valid() || cur_page_ != pid.page) {
            guard_ = paged_->buffer()->Pin(pid);
            cur_page_ = pid.page;
          }
          const int slot_in_page = paged_->SlotOfRow(r);
          for (int c = 0; c < iw; ++c) {
            inner_buf_[c] = paged_->ValueIn(guard_, slot_in_page, c);
          }
        } else {
          out->tape.Charge(slot_, per_match);
        }
        bool pass = true;
        for (const auto& f : inner_filters_) {
          const int64_t v =
              paged_ != nullptr ? inner_buf_[f.pos] : inner_cols_[f.pos][r];
          if (!EvalFilterValue(v, f)) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
        for (const auto& eq : residual_) {
          if (Combined(j, r, eq.left_pos, lw) !=
              Combined(j, r, eq.right_pos, lw)) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
        out->tape.ChargeEmit(slot_, p.cpu_tuple_cost);
        match_l_.push_back(static_cast<int32_t>(j));
        match_r_.push_back(r);
        if (paged_ != nullptr) {
          inner_gather_.insert(inner_gather_.end(), inner_buf_.begin(),
                               inner_buf_.end());
        }
        out->MarkRow();
      }
    }
    out->tape.Append(lbatch_.tape, lbatch_.TailBegin(), lbatch_.tape.size());
    const size_t nm = match_l_.size();
    for (int c = 0; c < lw; ++c) {
      const int64_t* src = lbatch_.cols[c].data();
      auto& dst = out->cols[c];
      const size_t old = dst.size();
      dst.resize(old + nm);
      int64_t* d = dst.data() + old;
      for (size_t k = 0; k < nm; ++k) d[k] = src[match_l_[k]];
    }
    for (int c = 0; c < iw; ++c) {
      auto& dst = out->cols[lw + c];
      const size_t old = dst.size();
      dst.resize(old + nm);
      int64_t* d = dst.data() + old;
      if (paged_ != nullptr) {
        const int64_t* vals = inner_gather_.data();
        for (size_t k = 0; k < nm; ++k) {
          d[k] = vals[k * static_cast<size_t>(iw) + c];
        }
      } else {
        const int64_t* src = inner_cols_[c];
        for (size_t k = 0; k < nm; ++k) d[k] = src[match_r_[k]];
      }
    }
    if (st == ExecResult::kDone) {
      guard_ = storage::PageGuard();
      out->tape.Finish(slot_);
      return ExecResult::kDone;
    }
    return ExecResult::kRow;
  }

 private:
  int64_t Combined(int64_t j, uint32_t r, int pos, int lw) const {
    if (pos < lw) return lbatch_.cols[pos][j];
    // Paged inner rows are staged in inner_buf_ (filled for the match being
    // tested); in-memory inners read the column directly.
    return paged_ != nullptr ? inner_buf_[pos - lw] : inner_cols_[pos - lw][r];
  }

  std::unique_ptr<BatchOp> left_;
  int inner_key_col_;
  int outer_key_pos_;
  std::vector<BoundFilter> inner_filters_;
  std::vector<BoundEquality> residual_;

  const DataTable* inner_;
  const storage::PagedTable* paged_;
  int64_t inner_rows_;
  const HashIndex* index_;
  std::vector<const int64_t*> inner_cols_;
  uint32_t cur_page_ = 0;  // page 0 is meta — never a data page
  storage::PageGuard guard_;
  Row inner_buf_;
  std::vector<int64_t> inner_gather_;  // survivor inner values, row-major
  ColumnBatch lbatch_;
  std::vector<int32_t> match_l_;
  std::vector<uint32_t> match_r_;
};

// ---------------------------------------------------------------------------
// Materialized nested-loop join
// ---------------------------------------------------------------------------

class BatchMaterialNLJoinOp : public BatchOp {
 public:
  BatchMaterialNLJoinOp(const PlanNode* node, BatchExecState* st,
                        std::unique_ptr<BatchOp> left,
                        std::unique_ptr<BatchOp> right,
                        std::vector<BoundEquality> conditions)
      : BatchOp(node, st),
        left_(std::move(left)),
        right_(std::move(right)),
        conditions_(std::move(conditions)) {
    schema_ = left_->schema();
    schema_.insert(schema_.end(), right_->schema().begin(),
                   right_->schema().end());
    lbatch_.Configure(left_->schema().size());
  }

  ExecResult NextBatch(ColumnBatch* out) override {
    if (st_->aborted() || st_->ctx()->meter.exhausted()) {
      return ExecResult::kAborted;
    }
    if (!touched_) {
      st_->TouchSlot(slot_);
      touched_ = true;
    }
    const auto& p = st_->ctx()->cost_model->params();
    if (!materialized_) {
      if (Materialize() == ExecResult::kAborted) return ExecResult::kAborted;
      materialized_ = true;
    }
    const int lw = static_cast<int>(left_->schema().size());
    const int rw = static_cast<int>(right_->schema().size());
    // One left batch per call (replay-granularity invariant, batch.h).
    lbatch_.Reset();
    const ExecResult st = left_->NextBatch(&lbatch_);
    if (st == ExecResult::kAborted) return ExecResult::kAborted;
    const int64_t ninner = ninner_;
    sel_.resize(static_cast<size_t>(ninner));
    for (int64_t j = 0; j < lbatch_.n; ++j) {
      out->tape.Append(lbatch_.tape, lbatch_.SegBegin(j), lbatch_.SegEnd(j));
      // Selection vector over the materialized inner: each condition either
      // compares an inner column against a value fixed by the outer row or
      // two inner columns against each other.
      int m = static_cast<int>(ninner);
      for (int64_t i = 0; i < ninner; ++i) sel_[i] = static_cast<int32_t>(i);
      for (const auto& eq : conditions_) {
        const int64_t* a_col =
            eq.left_pos < lw ? nullptr : icols_[eq.left_pos - lw].data();
        const int64_t a_const =
            eq.left_pos < lw ? lbatch_.cols[eq.left_pos][j] : 0;
        const int64_t* b_col =
            eq.right_pos < lw ? nullptr : icols_[eq.right_pos - lw].data();
        const int64_t b_const =
            eq.right_pos < lw ? lbatch_.cols[eq.right_pos][j] : 0;
        int m2 = 0;
        for (int k = 0; k < m; ++k) {
          const int32_t i = sel_[k];
          const int64_t va = a_col != nullptr ? a_col[i] : a_const;
          const int64_t vb = b_col != nullptr ? b_col[i] : b_const;
          sel_[m2] = i;
          m2 += va == vb ? 1 : 0;
        }
        m = m2;
      }
      // Per inner row the scalar engine charges cpu_operator_cost before
      // testing the conditions, then cpu_tuple_cost per emit.
      int32_t prev = -1;
      for (int k = 0; k < m; ++k) {
        const int32_t i = sel_[k];
        out->tape.Charge(slot_, p.cpu_operator_cost,
                         static_cast<uint32_t>(i - prev));
        out->tape.ChargeEmit(slot_, p.cpu_tuple_cost);
        out->MarkRow();
        prev = i;
      }
      if (ninner - 1 > prev) {
        out->tape.Charge(slot_, p.cpu_operator_cost,
                         static_cast<uint32_t>(ninner - 1 - prev));
      }
      // Bulk output: the outer row's values repeat m times, inner columns
      // gather through the surviving selection vector.
      for (int c = 0; c < lw; ++c) {
        out->cols[c].resize(out->cols[c].size() + static_cast<size_t>(m),
                            lbatch_.cols[c][j]);
      }
      for (int c = 0; c < rw; ++c) {
        const int64_t* src = icols_[c].data();
        auto& dst = out->cols[lw + c];
        const size_t old = dst.size();
        dst.resize(old + static_cast<size_t>(m));
        int64_t* d = dst.data() + old;
        for (int k = 0; k < m; ++k) d[k] = src[sel_[k]];
      }
    }
    out->tape.Append(lbatch_.tape, lbatch_.TailBegin(), lbatch_.tape.size());
    if (st == ExecResult::kDone) {
      out->tape.Finish(slot_);
      return ExecResult::kDone;
    }
    return ExecResult::kRow;
  }

 private:
  ExecResult Materialize() {
    const auto& p = st_->ctx()->cost_model->params();
    const size_t rcols = right_->schema().size();
    icols_.assign(rcols, {});
    ColumnBatch in;
    in.Configure(rcols);
    Tape phase;
    for (;;) {
      in.Reset();
      const ExecResult st = right_->NextBatch(&in);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      phase.Clear();
      for (int64_t j = 0; j < in.n; ++j) {
        phase.Append(in.tape, in.SegBegin(j), in.SegEnd(j));
        phase.Charge(slot_, p.cpu_tuple_cost);
      }
      phase.Append(in.tape, in.TailBegin(), in.tape.size());
      if (!st_->Replay(phase.events())) return ExecResult::kAborted;
      for (size_t c = 0; c < rcols; ++c) {
        icols_[c].insert(icols_[c].end(), in.cols[c].begin(),
                         in.cols[c].end());
      }
      ninner_ += in.n;
      if (st == ExecResult::kDone) return ExecResult::kDone;
    }
  }

  std::unique_ptr<BatchOp> left_;
  std::unique_ptr<BatchOp> right_;
  std::vector<BoundEquality> conditions_;

  bool materialized_ = false;
  std::vector<std::vector<int64_t>> icols_;
  int64_t ninner_ = 0;
  ColumnBatch lbatch_;
  std::vector<int32_t> sel_;
};

// ---------------------------------------------------------------------------
// Hash aggregate
// ---------------------------------------------------------------------------

// Must stay bit-identical to the scalar HashAggregateOp's private RowHash:
// with the same hasher, same key insertion sequence, and the same
// std::unordered_map implementation, the two engines iterate groups in the
// same order and therefore emit identical row sequences.
struct AggRowHash {
  size_t operator()(const Row& r) const {
    size_t h = 1469598103934665603ULL;
    for (int64_t v : r) {
      h ^= static_cast<size_t>(v);
      h *= 1099511628211ULL;
    }
    return h;
  }
};

class BatchHashAggregateOp : public BatchOp {
 public:
  BatchHashAggregateOp(const PlanNode* node, BatchExecState* st,
                       std::unique_ptr<BatchOp> child,
                       std::vector<int> group_positions, int agg_position,
                       AggregateSpec::Func func)
      : BatchOp(node, st),
        child_(std::move(child)),
        group_positions_(std::move(group_positions)),
        agg_position_(agg_position),
        func_(func) {
    for (int pos : group_positions_) {
      schema_.push_back(child_->schema()[pos]);
    }
    schema_.push_back({-1, -1});  // aggregate value
    key_buf_.resize(group_positions_.size());
  }

  ExecResult NextBatch(ColumnBatch* out) override {
    if (st_->aborted() || st_->ctx()->meter.exhausted()) {
      return ExecResult::kAborted;
    }
    if (!touched_) {
      st_->TouchSlot(slot_);
      touched_ = true;
    }
    const auto& p = st_->ctx()->cost_model->params();
    if (!built_) {
      if (Build() == ExecResult::kAborted) return ExecResult::kAborted;
      built_ = true;
    }
    const int bsz = std::max(1, st_->ctx()->batch_size);
    const int gcols = static_cast<int>(group_positions_.size());
    while (emit_ != emit_rows_.size() && out->n < bsz) {
      const auto& row = emit_rows_[emit_];
      out->tape.ChargeEmit(slot_, p.cpu_tuple_cost);
      for (int c = 0; c < gcols; ++c) {
        out->cols[c].push_back(row.first[c]);
      }
      out->cols[gcols].push_back(row.second);
      out->MarkRow();
      ++emit_;
    }
    if (emit_ == emit_rows_.size()) {
      out->tape.Finish(slot_);
      return ExecResult::kDone;
    }
    return ExecResult::kRow;
  }

 private:
  ExecResult Build() {
    const auto& p = st_->ctx()->cost_model->params();
    const double hash_op = p.hash_op_factor * p.cpu_operator_cost;
    ColumnBatch in;
    in.Configure(child_->schema().size());
    Tape phase;
    for (;;) {
      in.Reset();
      const ExecResult st = child_->NextBatch(&in);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      phase.Clear();
      for (int64_t j = 0; j < in.n; ++j) {
        phase.Append(in.tape, in.SegBegin(j), in.SegEnd(j));
        phase.Charge(slot_, hash_op + p.cpu_operator_cost);
      }
      phase.Append(in.tape, in.TailBegin(), in.tape.size());
      if (!st_->Replay(phase.events())) return ExecResult::kAborted;
      for (int64_t j = 0; j < in.n; ++j) {
        for (size_t g = 0; g < group_positions_.size(); ++g) {
          key_buf_[g] = in.cols[group_positions_[g]][j];
        }
        const int64_t value =
            agg_position_ >= 0 ? in.cols[agg_position_][j] : 1;
        auto [it, inserted] = groups_.try_emplace(key_buf_, 0);
        switch (func_) {
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
      if (st == ExecResult::kDone) break;
    }
    // COUNT over empty ungrouped input emits one zero row (SQL semantics),
    // matching the scalar engine.
    if (groups_.empty() && group_positions_.empty() &&
        func_ == AggregateSpec::Func::kCount) {
      groups_.try_emplace(Row{}, 0);
    }
    // Deterministic emission order, identical to the scalar engine's sort:
    // hash-map iteration order is unspecified (bouquet-determinism), and
    // the abort-truncated result prefix must not depend on it.
    // NOLINTNEXTLINE(bouquet-determinism): drained into the sort below
    emit_rows_.assign(std::make_move_iterator(groups_.begin()),
                      std::make_move_iterator(groups_.end()));
    std::sort(emit_rows_.begin(), emit_rows_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    groups_.clear();
    emit_ = 0;
    return ExecResult::kDone;
  }

  std::unique_ptr<BatchOp> child_;
  std::vector<int> group_positions_;
  int agg_position_;
  AggregateSpec::Func func_;

  bool built_ = false;
  Row key_buf_;
  std::unordered_map<Row, int64_t, AggRowHash> groups_;
  /// Sorted (group key, aggregate) pairs; see the sort comment in Build().
  std::vector<std::pair<Row, int64_t>> emit_rows_;
  size_t emit_ = 0;
};

// ---------------------------------------------------------------------------
// Builder — mirrors the scalar Build() in operators.cc line for line; any
// divergence here would bind predicates to different positions and break
// charge-sequence equivalence.
// ---------------------------------------------------------------------------

Result<std::unique_ptr<BatchOp>> BuildBatch(const PlanNode& node,
                                            BatchExecState* state) {
  ExecContext* ctx = state->ctx();
  const QuerySpec& q = *ctx->query;

  if (node.is_aggregate()) {
    auto child_res = BuildBatch(*node.left, state);
    if (!child_res.ok()) return child_res.status();
    std::unique_ptr<BatchOp> child = std::move(child_res.value());
    const AggregateSpec& spec = q.aggregate;
    std::vector<int> group_positions;
    for (const auto& [table, column] : spec.group_by) {
      const int t = q.TableIndex(table);
      const int c = ctx->db->table(q.tables[t]).ColumnIndex(column);
      const int pos = child->FindColumn(t, c);
      if (pos < 0) return Status::Internal("group-by column not in input");
      group_positions.push_back(pos);
    }
    int agg_position = -1;
    if (spec.func != AggregateSpec::Func::kCount) {
      const int t = q.TableIndex(spec.agg_table);
      const int c = ctx->db->table(q.tables[t]).ColumnIndex(spec.agg_column);
      agg_position = child->FindColumn(t, c);
      if (agg_position < 0) {
        return Status::Internal("aggregate column not in input");
      }
    }
    return std::unique_ptr<BatchOp>(std::make_unique<BatchHashAggregateOp>(
        &node, state, std::move(child), std::move(group_positions),
        agg_position, spec.func));
  }

  if (node.is_scan()) {
    const std::string& tname = q.tables[node.table_idx];
    const DataTable& dt = ctx->db->table(tname);
    std::vector<BoundFilter> filters;
    for (int f : node.filter_idxs) {
      const auto& pred = q.filters[f];
      if (!pred.has_constant()) {
        return Status::FailedPrecondition(
            "cannot execute abstract predicate without constant: " +
            pred.table + "." + pred.column);
      }
      const int col = dt.ColumnIndex(pred.column);
      if (col < 0) return Status::NotFound("column missing in data table");
      filters.push_back({col, pred.op, pred.constant});
    }
    if (node.op == OpType::kIndexScan && node.index_filter >= 0) {
      const auto& pred = q.filters[node.index_filter];
      int64_t lo, hi;
      Status s = FilterToRange(pred, &lo, &hi);
      if (!s.ok()) return s;
      const int col = dt.ColumnIndex(pred.column);
      return std::unique_ptr<BatchOp>(std::make_unique<BatchIndexScanOp>(
          &node, state, std::move(filters), lo, hi, col));
    }
    return std::unique_ptr<BatchOp>(
        std::make_unique<BatchSeqScanOp>(&node, state, std::move(filters)));
  }

  // Joins: build the outer child first.
  auto left_res = BuildBatch(*node.left, state);
  if (!left_res.ok()) return left_res.status();
  std::unique_ptr<BatchOp> left = std::move(left_res.value());

  if (node.op == OpType::kIndexNLJoin) {
    assert(node.index_join >= 0);
    const auto& jp = q.joins[node.index_join];
    const int inner_table = node.right->table_idx;
    const DataTable& inner_dt = ctx->db->table(q.tables[inner_table]);
    const bool inner_is_left = q.TableIndex(jp.left_table) == inner_table;
    const std::string& inner_col_name =
        inner_is_left ? jp.left_column : jp.right_column;
    const std::string& outer_col_name =
        inner_is_left ? jp.right_column : jp.left_column;
    const int outer_table = inner_is_left ? q.TableIndex(jp.right_table)
                                          : q.TableIndex(jp.left_table);
    const int inner_key_col = inner_dt.ColumnIndex(inner_col_name);
    const int outer_key_pos = left->FindColumn(
        outer_table,
        ctx->db->table(q.tables[outer_table]).ColumnIndex(outer_col_name));
    if (inner_key_col < 0 || outer_key_pos < 0) {
      return Status::Internal("index NL join key binding failed");
    }
    std::vector<BoundFilter> inner_filters;
    for (int f : node.right->filter_idxs) {
      const auto& pred = q.filters[f];
      if (!pred.has_constant()) {
        return Status::FailedPrecondition(
            "cannot execute abstract predicate without constant: " +
            pred.table + "." + pred.column);
      }
      const int col = inner_dt.ColumnIndex(pred.column);
      if (col < 0) {
        return Status::NotFound("column missing in data table: " + pred.table +
                                "." + pred.column);
      }
      inner_filters.push_back({col, pred.op, pred.constant});
    }
    std::vector<BoundEquality> residual;
    const size_t left_width = left->schema().size();
    for (int j : node.join_idxs) {
      if (j == node.index_join) continue;
      const auto& rp = q.joins[j];
      const int lt = q.TableIndex(rp.left_table);
      const int rt = q.TableIndex(rp.right_table);
      const int lcol = ctx->db->table(q.tables[lt]).ColumnIndex(rp.left_column);
      const int rcol =
          ctx->db->table(q.tables[rt]).ColumnIndex(rp.right_column);
      int pos_a = left->FindColumn(lt, lcol);
      int pos_b = left->FindColumn(rt, rcol);
      if (pos_a < 0) pos_a = static_cast<int>(left_width) + lcol;  // inner side
      if (pos_b < 0) pos_b = static_cast<int>(left_width) + rcol;
      residual.push_back({pos_a, pos_b});
    }
    return std::unique_ptr<BatchOp>(std::make_unique<BatchIndexNLJoinOp>(
        &node, state, std::move(left), inner_table, inner_key_col,
        outer_key_pos, std::move(inner_filters), std::move(residual)));
  }

  auto right_res = BuildBatch(*node.right, state);
  if (!right_res.ok()) return right_res.status();
  std::unique_ptr<BatchOp> right = std::move(right_res.value());

  const size_t left_width = left->schema().size();
  auto bind_side = [&](const std::string& table, const std::string& column,
                       int* pos) -> bool {
    const int t = q.TableIndex(table);
    const int c = ctx->db->table(q.tables[t]).ColumnIndex(column);
    int p = left->FindColumn(t, c);
    if (p >= 0) {
      *pos = p;
      return true;
    }
    p = right->FindColumn(t, c);
    if (p >= 0) {
      *pos = static_cast<int>(left_width) + p;
      return false;
    }
    *pos = -1;
    return false;
  };

  std::vector<BoundEquality> all_conditions;
  int left_key_pos = -1;
  int right_key_pos = -1;
  for (size_t i = 0; i < node.join_idxs.size(); ++i) {
    const auto& jp = q.joins[node.join_idxs[i]];
    int pos_l, pos_r;
    bind_side(jp.left_table, jp.left_column, &pos_l);
    bind_side(jp.right_table, jp.right_column, &pos_r);
    if (pos_l < 0 || pos_r < 0) {
      return Status::Internal("join predicate binding failed");
    }
    if (i == 0) {
      const int a = std::min(pos_l, pos_r);
      const int b = std::max(pos_l, pos_r);
      if (a >= static_cast<int>(left_width) ||
          b < static_cast<int>(left_width)) {
        return Status::Internal("join key not crossing children");
      }
      left_key_pos = a;
      right_key_pos = b - static_cast<int>(left_width);
    } else {
      all_conditions.push_back({pos_l, pos_r});
    }
  }

  switch (node.op) {
    case OpType::kHashJoin:
      return std::unique_ptr<BatchOp>(std::make_unique<BatchHashJoinOp>(
          &node, state, std::move(left), std::move(right), left_key_pos,
          right_key_pos, std::move(all_conditions)));
    case OpType::kMergeJoin:
      return std::unique_ptr<BatchOp>(std::make_unique<BatchMergeJoinOp>(
          &node, state, std::move(left), std::move(right), left_key_pos,
          right_key_pos, std::move(all_conditions)));
    case OpType::kMaterialNLJoin: {
      std::vector<BoundEquality> conds = std::move(all_conditions);
      conds.push_back(
          {left_key_pos, right_key_pos + static_cast<int>(left_width)});
      return std::unique_ptr<BatchOp>(std::make_unique<BatchMaterialNLJoinOp>(
          &node, state, std::move(left), std::move(right), std::move(conds)));
    }
    default:
      return Status::Internal("unsupported join operator in builder");
  }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

ExecutionOutcome RunTreeBatch(const PlanNode& root, ExecContext* ctx,
                              double budget, std::vector<Row>* results,
                              bool spilled) {
  ctx->meter.Reset();
  ctx->meter.set_budget(budget);
  ctx->instr.Reset();
  ctx->page_reads_charged = 0;
  ctx->page_hits_charged = 0;

  // Observability mirrors the scalar RunTree: one "exec.plan" span per
  // (partial) execution, one "exec.node" child per finished operator.
  obs::Span exec_span;
  if (ctx->tracer != nullptr) {
    exec_span = obs::Tracer::BeginUnder(ctx->tracer, "exec.plan",
                                        ctx->trace_parent, ctx->trace_id);
    ctx->instr.EnableTiming(true);
    obs::Tracer* tracer = ctx->tracer;
    const uint64_t parent = exec_span.id();
    const uint64_t trace = exec_span.trace_id();
    ctx->instr.SetFinishHook(
        [tracer, parent, trace](const PlanNode* node,
                                const NodeCounters& nc) {
          obs::Span s =
              obs::Tracer::BeginUnder(tracer, "exec.node", parent, trace);
          s.Num("op", static_cast<double>(static_cast<int>(node->op)))
              .Num("tuples_out", static_cast<double>(nc.tuples_out))
              .Num("tuples_scanned", static_cast<double>(nc.tuples_scanned))
              .Num("node_wall_seconds", nc.wall_seconds);
          s.End();
        });
  } else {
    ctx->instr.EnableTiming(false);
    ctx->instr.SetFinishHook(nullptr);
  }

  ExecutionOutcome out;
  BatchExecState state(ctx);
  auto built = BuildBatch(root, &state);
  if (!built.ok()) {
    out.status = ExecResult::kAborted;
    out.build_failed = true;
    out.build_status = built.status();
    if (exec_span.enabled()) {
      exec_span.Flag("build_failed", true)
          .Str("signature", PlanSignature(root));
      exec_span.End();
    }
    return out;
  }
  BatchOp* op = built.value().get();
  const uint16_t root_slot = op->slot();
  const size_t ncols = op->schema().size();
  obs::Histogram* fill_hist =
      ctx->metrics != nullptr
          ? ctx->metrics->GetHistogram(
                "bouquet_exec_batch_rows",
                "Rows per batch produced at the executor root",
                obs::BatchSizeBuckets())
          : nullptr;

  storage::StorageManager* sm =
      ctx->db != nullptr ? ctx->db->storage() : nullptr;
  std::unique_ptr<storage::SpillWriter> spill;
  if (spilled && sm != nullptr) {
    // Mirror the scalar engine: spilled output is jettisoned from the
    // accounting but physically lands in temp pages through the pool.
    spill = std::make_unique<storage::SpillWriter>(sm, ncols);
  }

  ColumnBatch batch;
  batch.Configure(ncols);
  int64_t emitted = 0;
  ExecResult status = ExecResult::kDone;
  for (;;) {
    batch.Reset();
    const ExecResult st = op->NextBatch(&batch);
    if (st == ExecResult::kAborted) {
      status = ExecResult::kAborted;
      break;
    }
    int64_t ok_rows = 0;
    const bool ok = state.Replay(batch.tape.events(), root_slot, &ok_rows);
    if (batch.n > 0) {
      state.batches_produced++;
      state.rows_produced += batch.n;
      if (fill_hist != nullptr) {
        fill_hist->Observe(static_cast<double>(batch.n));
      }
    }
    // Rows whose emit charge did not complete before the abort are data the
    // scalar engine would never have produced; truncate them.
    emitted += ok_rows;
    if (results != nullptr || (spill != nullptr && spill->ok())) {
      Row r(ncols);
      for (int64_t i = 0; i < ok_rows; ++i) {
        for (size_t c = 0; c < ncols; ++c) r[c] = batch.cols[c][i];
        if (spill != nullptr) {
          if (spill->ok()) spill->Append(r);
        } else {
          results->push_back(r);
        }
      }
    }
    if (!ok) {
      status = ExecResult::kAborted;
      break;
    }
    if (st == ExecResult::kDone) break;
  }

  out.status = status;
  out.rows_emitted = emitted;
  out.cost_charged = ctx->meter.charged();
  out.page_reads = ctx->page_reads_charged;
  out.page_hits = ctx->page_hits_charged;
  if (exec_span.enabled()) {
    obs::Span bspan = obs::Tracer::BeginUnder(ctx->tracer, "exec.batch",
                                              exec_span.id(),
                                              exec_span.trace_id());
    bspan.Num("batch_size", static_cast<double>(ctx->batch_size))
        .Num("batches", static_cast<double>(state.batches_produced))
        .Num("batch_rows", static_cast<double>(state.rows_produced));
    bspan.End();
    exec_span.Num("budget", budget)
        .Num("charged", out.cost_charged)
        .Num("rows", static_cast<double>(out.rows_emitted))
        .Num("page_reads", static_cast<double>(out.page_reads))
        .Num("page_hits", static_cast<double>(out.page_hits))
        .Flag("completed", out.status == ExecResult::kDone)
        .Flag("spilled", spilled);
    exec_span.End();
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<BatchOp>> BuildBatchExecutor(const PlanNode& root,
                                                    BatchExecState* state) {
  ExecContext* ctx = state->ctx();
  assert(ctx->query && ctx->db && ctx->catalog && ctx->cost_model);
  (void)ctx;
  return BuildBatch(root, state);
}

ExecutionOutcome ExecutePlanBatch(const PlanNode& root, ExecContext* ctx,
                                  double budget, std::vector<Row>* results) {
  return RunTreeBatch(root, ctx, budget, results, /*spilled=*/false);
}

ExecutionOutcome ExecuteSpilledBatch(const PlanNode& subtree_root,
                                     ExecContext* ctx, double budget) {
  return RunTreeBatch(subtree_root, ctx, budget, /*results=*/nullptr,
                      /*spilled=*/true);
}

}  // namespace bouquet
