#include "executor/batch.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>

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

bool BatchExecState::Replay(const Tape& tape, int64_t* emitted) {
  if (aborted_) return false;
  cursors_.clear();
  for (const Tape* t = &tape; t != nullptr; t = t->input()) {
    const MeterEvent* ev = t->events().data();
    cursors_.push_back({ev, ev + t->size()});
    tape_events += static_cast<int64_t>(t->size());
  }
  CostMeter& meter = ctx_->meter;
  acc_ = meter.charged();
  budget_ = meter.budget();
  emit_unit_ = ctx_->cost_model->params().cpu_tuple_cost;
  top_emits_ = 0;
  const bool ok = budget_ == std::numeric_limits<double>::infinity()
                      ? ReplayLevel<false>(0, -1)
                      : ReplayLevel<true>(0, -1);
  meter.RestoreCharged(acc_);
  if (emitted != nullptr) *emitted += top_emits_;
  if (!ok) aborted_ = true;
  return ok;
}

// One add per logical tuple, never a pre-summed bulk charge — double
// addition is order-sensitive and the scalar engine adds one unit at a time.
// A splice descends one level and resumes that level's cursor where the
// previous splice left it, so the adds happen in the scalar engine's
// pipeline order. Without kCheck (infinite budget) no add can trip the
// meter — units are finite, and even an accumulator that saturates to +inf
// still satisfies acc <= budget — so the abort tests compile out and
// counters absorb whole runs; the add sequence is unchanged.
template <bool kCheck>
bool BatchExecState::ReplayLevel(size_t level, int64_t rows) {
  // Applies one add; false at a budget trip.
  const auto add = [this](double unit) {
    acc_ += unit;
    return !kCheck || acc_ <= budget_;
  };
  Cursor& cur = cursors_[level];
  NodeCounters* const* ncs = nc_.data();
  while (cur.pos != cur.end) {
    const MeterEvent& e = *cur.pos++;
    switch (e.kind) {
      case EvKind::kCharge:
      case EvKind::kScan: {
        const double unit = e.unit();
        const uint32_t count = e.count;
        double acc = acc_;
        uint32_t done = 0;
        if constexpr (kCheck) {
          while (done < count) {
            acc += unit;
            if (!(acc <= budget_)) break;
            ++done;
          }
        } else {
          for (; done < count; ++done) acc += unit;
        }
        acc_ = acc;
        if (e.kind == EvKind::kScan) {
          assert(ncs[e.node] != nullptr && "charge before touch");
          ncs[e.node]->AddScanned(done);
        }
        if (kCheck && done < count) return false;
        break;
      }
      case EvKind::kSpliceCharge:
        assert(level + 1 < cursors_.size() && "splice without an input");
        for (uint32_t i = 0; i < e.count; ++i) {
          if (!ReplayLevel<kCheck>(level + 1, 1)) return false;
          if (!add(e.unit())) return false;
        }
        break;
      case EvKind::kSplice:
        assert(level + 1 < cursors_.size() && "splice without an input");
        if (!ReplayLevel<kCheck>(level + 1, e.count)) return false;
        break;
      case EvKind::kSpliceTail:
        assert(level + 1 < cursors_.size() && "splice without an input");
        if (!ReplayLevel<kCheck>(level + 1, -1)) return false;
        break;
      case EvKind::kPageSeq:
      case EvKind::kPageRand: {
        // Replay-time accounting: the Access() here is the same
        // deterministic replacement-state transition the scalar engine
        // performs at access time, executed in the identical (scalar
        // charge) order — so hit/miss outcomes, and therefore every
        // subsequent add, match bit for bit.
        const storage::PageId pid{static_cast<uint16_t>(e.count),
                                  static_cast<uint32_t>(e.arg)};
        const bool hit = ctx_->AccessPage(buffer_, pid);
        if (hit) {
          ctx_->page_hits_charged++;
        } else {
          ctx_->page_reads_charged++;
        }
        if (!add(hit ? page_hit_cost_
                     : (e.kind == EvKind::kPageSeq ? page_seq_cost_
                                                   : page_rand_cost_))) {
          return false;
        }
        break;
      }
      case EvKind::kFinish:
        ctx_->instr.FinishNode(nodes_[e.node]);
        break;
    }
    if (e.emit != 0) {
      if (!add(emit_unit_)) return false;
      assert(ncs[e.node] != nullptr && "emit before touch");
      ncs[e.node]->AddOut(1);
      if (level == 0) ++top_emits_;
      if (--rows == 0) return true;
    }
  }
  assert(rows < 0 && "input tape ran out of row segments");
  return true;
}

bool BatchOp::ReplayPhase(const ColumnBatch& in, double unit) {
  phase_.Clear();
  phase_.set_input(&in.tape);
  phase_.SpliceRowCharge(slot_, unit, static_cast<uint32_t>(in.n));
  phase_.SpliceTail(slot_);
  return st_->Replay(phase_);
}

bool BatchOp::ReplayCharge(double unit) {
  phase_.Clear();
  phase_.Charge(slot_, unit);
  return st_->Replay(phase_);
}

namespace {

using exec_internal::BoundFilter;
using exec_internal::EvalFilterValue;

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
  BatchSeqScanOp(const BoundNode& b, BatchExecState* st)
      : BatchOp(b, st), table_(b.table), paged_(b.paged) {
    // Paged storage: I/O rides the tape as kPageSeq events priced at
    // replay; the bound per-row charge is the pure CPU part.
    if (paged_ != nullptr) {
      st->SetBuffer(paged_->buffer());
      scratch_.resize(static_cast<size_t>(table_->num_columns()) *
                      static_cast<size_t>(paged_->rows_per_page()));
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
    // The charge prices every bound filter, whether or not the normalized
    // form still needs to evaluate it — as the scalar scan charges
    // independently of short-circuiting.
    std::vector<ColRange> merged;
    for (const BoundFilter& f : b.filters) {
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
  }

  ExecResult NextBatch(ColumnBatch* out) override {
    if (st_->aborted() || st_->ctx()->meter.exhausted()) {
      return ExecResult::kAborted;
    }
    if (!touched_) {
      st_->TouchSlot(slot_);
      touched_ = true;
    }
    const int bsz = std::max(1, st_->ctx()->batch_size);
    const int ncols = table_->num_columns();
    const int64_t nrows = b_.nrows;
    const double per_row_charge = b_.per_row_charge;
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
      // Events: one fused event per survivor (the RLE run of per-row scan
      // charges up to and including it, then its emit), and a trailing run
      // for rows scanned after the last survivor.
      int32_t prev = -1;
      for (int k = 0; k < m; ++k) {
        const int32_t i = sel_[k];
        out->tape.Scan(slot_, per_row_charge,
                       static_cast<uint32_t>(i - prev));
        out->EmitRow(slot_);
        prev = i;
      }
      if (chunk - 1 > prev) {
        out->tape.Scan(slot_, per_row_charge,
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
  BatchIndexScanOp(const BoundNode& b, BatchExecState* st)
      : BatchOp(b, st), table_(b.table), paged_(b.paged) {
    // Paged storage: the random page part of each match becomes a kPageRand
    // event priced at replay; the CPU part stays a per-match tape charge.
    if (paged_ != nullptr) {
      st->SetBuffer(paged_->buffer());
      row_buf_.resize(table_->num_columns());
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
    if (!descent_charged_) {
      descent_charged_ = true;
      out->tape.Charge(slot_, b_.descent);
    }
    const int bsz = std::max(1, st_->ctx()->batch_size);
    const int ncols = table_->num_columns();
    if (paged_ != nullptr) return NextBatchPaged(out, bsz, ncols);
    const double per_match = b_.per_match;
    while (out->n < bsz) {
      if (next_ >= b_.matches.size()) {
        out->tape.Finish(slot_);
        return ExecResult::kDone;
      }
      const size_t base = next_;
      const int chunk = static_cast<int>(std::min<size_t>(
          static_cast<size_t>(bsz - out->n), b_.matches.size() - base));
      next_ += static_cast<size_t>(chunk);
      const uint32_t* idx = b_.matches.data() + base;
      sel_.resize(static_cast<size_t>(chunk));
      int m;
      if (b_.filters.empty()) {
        m = chunk;
        for (int i = 0; i < chunk; ++i) sel_[i] = i;
      } else {
        m = SelInitIdx(table_->column(b_.filters[0].pos).data(), idx, chunk,
                       b_.filters[0], sel_.data());
        for (size_t fi = 1; fi < b_.filters.size(); ++fi) {
          m = SelRefineIdx(table_->column(b_.filters[fi].pos).data(), idx,
                           b_.filters[fi], sel_.data(), m);
        }
      }
      int32_t prev = -1;
      for (int k = 0; k < m; ++k) {
        const int32_t i = sel_[k];
        out->tape.Scan(slot_, per_match, static_cast<uint32_t>(i - prev));
        out->EmitRow(slot_);
        prev = i;
      }
      if (chunk - 1 > prev) {
        out->tape.Scan(slot_, per_match,
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
  // out of a pinned page. Tape order per match — page event, scan charge,
  // then the emit for survivors — mirrors the scalar charge order.
  ExecResult NextBatchPaged(ColumnBatch* out, int bsz, int ncols) {
    const double per_match_cpu = b_.per_match_cpu;
    while (out->n < bsz) {
      if (next_ >= b_.matches.size()) {
        guard_ = storage::PageGuard();
        out->tape.Finish(slot_);
        return ExecResult::kDone;
      }
      const uint32_t r = b_.matches[next_++];
      const storage::PageId pid = paged_->PageIdOfRow(r);
      out->tape.PageRand(slot_, pid.file, pid.page);
      out->tape.Scan(slot_, per_match_cpu, 1);
      if (!guard_.valid() || cur_page_ != pid.page) {
        guard_ = paged_->buffer()->Pin(pid);
        cur_page_ = pid.page;
      }
      const int slot_in_page = paged_->SlotOfRow(r);
      for (int c = 0; c < ncols; ++c) {
        row_buf_[c] = paged_->ValueIn(guard_, slot_in_page, c);
      }
      bool pass = true;
      for (const auto& f : b_.filters) {
        if (!EvalFilterValue(row_buf_[f.pos], f)) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      for (int c = 0; c < ncols; ++c) out->cols[c].push_back(row_buf_[c]);
      out->EmitRow(slot_);
    }
    return ExecResult::kRow;
  }

  const DataTable* table_;
  const storage::PagedTable* paged_;
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
  BatchHashJoinOp(const BoundNode& b, BatchExecState* st,
                  std::unique_ptr<BatchOp> left, std::unique_ptr<BatchOp> right)
      : BatchOp(b, st), left_(std::move(left)), right_(std::move(right)) {
    lbatch_.Configure(b.left->schema.size());
    rbatch_.Configure(b.right->schema.size());
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
  // Drains the build side, replaying [right row segment + build charge] per
  // consumed batch so a budget abort surfaces at the same tuple a scalar
  // build would stop at.
  ExecResult Build() {
    const auto& p = st_->ctx()->cost_model->params();
    const double hash_op = p.hash_op_factor * p.cpu_operator_cost;
    const size_t rcols = b_.right->schema.size();
    bcols_.assign(rcols, {});
    int64_t build_rows = 0;
    for (;;) {
      rbatch_.Reset();
      const ExecResult st = right_->NextBatch(&rbatch_);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      if (!ReplayPhase(rbatch_, hash_op + p.cpu_tuple_cost)) {
        return ExecResult::kAborted;
      }
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
      if (!ReplayCharge(2.0 * p.seq_page_cost * std::max(1.0, build_pages))) {
        return ExecResult::kAborted;
      }
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
    const int64_t* keys = bcols_[b_.right_key_pos].data();
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
    const int lw = static_cast<int>(b_.left->schema.size());
    const size_t rw = b_.right->schema.size();
    const int64_t* lkeys =
        lbatch_.n > 0 ? lbatch_.cols[b_.left_key_pos].data() : nullptr;
    const int64_t* bkeys =
        next_.empty() ? nullptr : bcols_[b_.right_key_pos].data();
    match_l_.clear();
    match_b_.clear();
    out->tape.set_input(&lbatch_.tape);
    for (int64_t j = 0; j < lbatch_.n; ++j) {
      out->tape.SpliceRowCharge(slot_, probe_charge);
      const int64_t key = lkeys[j];
      for (int32_t i = head_[HashKey(key) & mask_]; i >= 0; i = next_[i]) {
        if (bkeys[i] != key) continue;
        bool ok = true;
        for (const auto& eq : b_.residual) {
          if (Combined(j, i, eq.left_pos, lw) !=
              Combined(j, i, eq.right_pos, lw)) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        match_l_.push_back(static_cast<int32_t>(j));
        match_b_.push_back(i);
        out->EmitRow(slot_);
      }
    }
    out->tape.SpliceTail(slot_);
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
  BatchMergeJoinOp(const BoundNode& b, BatchExecState* st,
                   std::unique_ptr<BatchOp> left,
                   std::unique_ptr<BatchOp> right)
      : BatchOp(b, st), left_(std::move(left)), right_(std::move(right)) {}

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
  ExecResult DrainSide(BatchOp* side, size_t width,
                       std::vector<std::vector<int64_t>>* cols,
                       int64_t* nrows) {
    cols->assign(width, {});
    ColumnBatch in;
    in.Configure(width);
    for (;;) {
      in.Reset();
      const ExecResult st = side->NextBatch(&in);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      // The merge join adds no charge of its own during the drain; the
      // child's events replay verbatim.
      if (!st_->Replay(in.tape)) return ExecResult::kAborted;
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
    const size_t lcols = b_.left->schema.size();
    const size_t rcols = b_.right->schema.size();
    if (DrainSide(left_.get(), lcols, &lcols_, &nl_) == ExecResult::kAborted) {
      return ExecResult::kAborted;
    }
    if (DrainSide(right_.get(), rcols, &rcols_, &nr_) ==
        ExecResult::kAborted) {
      return ExecResult::kAborted;
    }
    const double lw = 8.0 * static_cast<double>(nl_ == 0 ? size_t{1} : lcols);
    const double rw = 8.0 * static_cast<double>(nr_ == 0 ? size_t{1} : rcols);
    double charge = 0.0;
    const CostModel* cm = st_->ctx()->cost_model;
    if (!b_.node->left_presorted) {
      charge += cm->SortCost(static_cast<double>(nl_), lw);
      SortSide(&lcols_, b_.left_key_pos, nl_);
    }
    if (!b_.node->right_presorted) {
      charge += cm->SortCost(static_cast<double>(nr_), rw);
      SortSide(&rcols_, b_.right_key_pos, nr_);
    }
    // The scalar engine charges the (possibly zero) sort total in one call.
    return ReplayCharge(charge) ? ExecResult::kDone : ExecResult::kAborted;
  }

  int64_t Combined(int64_t li, int64_t rj, int pos) const {
    const int lw = static_cast<int>(b_.left->schema.size());
    return pos < lw ? lcols_[pos][li] : rcols_[pos - lw][rj];
  }

  ExecResult EmitMerge(ColumnBatch* out) {
    const auto& p = st_->ctx()->cost_model->params();
    const int bsz = std::max(1, st_->ctx()->batch_size);
    const int lw = static_cast<int>(b_.left->schema.size());
    const int rw = static_cast<int>(b_.right->schema.size());
    const int64_t* lkey = nl_ > 0 ? lcols_[b_.left_key_pos].data() : nullptr;
    const int64_t* rkey = nr_ > 0 ? rcols_[b_.right_key_pos].data() : nullptr;
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
          for (const auto& eq : b_.residual) {
            if (Combined(gi_, rj, eq.left_pos) !=
                Combined(gi_, rj, eq.right_pos)) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
          pairs_l_.push_back(gi_);
          pairs_r_.push_back(rj);
          out->EmitRow(slot_);
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
  BatchIndexNLJoinOp(const BoundNode& b, BatchExecState* st,
                     std::unique_ptr<BatchOp> left)
      : BatchOp(b, st), left_(std::move(left)), paged_(b.paged) {
    for (int c = 0; c < b.table->num_columns(); ++c) {
      inner_cols_.push_back(b.table->column(c).data());
    }
    if (paged_ != nullptr) {
      st->SetBuffer(paged_->buffer());
      inner_buf_.resize(b.table->num_columns());
    }
    lbatch_.Configure(b.left->schema.size());
  }

  ExecResult NextBatch(ColumnBatch* out) override {
    if (st_->aborted() || st_->ctx()->meter.exhausted()) {
      return ExecResult::kAborted;
    }
    if (!touched_) {
      st_->TouchSlot(slot_);
      touched_ = true;
    }
    // Paged storage turns the random page part of each match into a
    // kPageRand event.
    const double descent = b_.descent;
    const double per_match = b_.per_match;
    const double per_match_cpu = b_.per_match_cpu;
    const int lw = static_cast<int>(b_.left->schema.size());
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
    out->tape.set_input(&lbatch_.tape);
    for (int64_t j = 0; j < lbatch_.n; ++j) {
      out->tape.SpliceRowCharge(slot_, descent);
      const auto& matches = b_.index->Lookup(lbatch_.cols[b_.outer_key_pos][j]);
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
        for (const auto& f : b_.filters) {
          const int64_t v =
              paged_ != nullptr ? inner_buf_[f.pos] : inner_cols_[f.pos][r];
          if (!EvalFilterValue(v, f)) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
        for (const auto& eq : b_.residual) {
          if (Combined(j, r, eq.left_pos, lw) !=
              Combined(j, r, eq.right_pos, lw)) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
        match_l_.push_back(static_cast<int32_t>(j));
        match_r_.push_back(r);
        if (paged_ != nullptr) {
          inner_gather_.insert(inner_gather_.end(), inner_buf_.begin(),
                               inner_buf_.end());
        }
        out->EmitRow(slot_);
      }
    }
    out->tape.SpliceTail(slot_);
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
  const storage::PagedTable* paged_;
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
  BatchMaterialNLJoinOp(const BoundNode& b, BatchExecState* st,
                        std::unique_ptr<BatchOp> left,
                        std::unique_ptr<BatchOp> right)
      : BatchOp(b, st), left_(std::move(left)), right_(std::move(right)) {
    lbatch_.Configure(b.left->schema.size());
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
    const int lw = static_cast<int>(b_.left->schema.size());
    const int rw = static_cast<int>(b_.right->schema.size());
    // One left batch per call (replay-granularity invariant, batch.h).
    lbatch_.Reset();
    const ExecResult st = left_->NextBatch(&lbatch_);
    if (st == ExecResult::kAborted) return ExecResult::kAborted;
    const int64_t ninner = ninner_;
    sel_.resize(static_cast<size_t>(ninner));
    out->tape.set_input(&lbatch_.tape);
    for (int64_t j = 0; j < lbatch_.n; ++j) {
      out->tape.Splice(slot_);
      // Selection vector over the materialized inner: each condition either
      // compares an inner column against a value fixed by the outer row or
      // two inner columns against each other.
      int m = static_cast<int>(ninner);
      for (int64_t i = 0; i < ninner; ++i) sel_[i] = static_cast<int32_t>(i);
      for (const auto& eq : b_.residual) {
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
        out->EmitRow(slot_);
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
    out->tape.SpliceTail(slot_);
    if (st == ExecResult::kDone) {
      out->tape.Finish(slot_);
      return ExecResult::kDone;
    }
    return ExecResult::kRow;
  }

 private:
  ExecResult Materialize() {
    const auto& p = st_->ctx()->cost_model->params();
    const size_t rcols = b_.right->schema.size();
    icols_.assign(rcols, {});
    ColumnBatch in;
    in.Configure(rcols);
    for (;;) {
      in.Reset();
      const ExecResult st = right_->NextBatch(&in);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      if (!ReplayPhase(in, p.cpu_tuple_cost)) return ExecResult::kAborted;
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
  BatchHashAggregateOp(const BoundNode& b, BatchExecState* st,
                       std::unique_ptr<BatchOp> child)
      : BatchOp(b, st),
        child_(std::move(child)),
        key_buf_(b.group_positions.size()) {}

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
    const int bsz = std::max(1, st_->ctx()->batch_size);
    const int gcols = static_cast<int>(b_.group_positions.size());
    while (emit_ != emit_rows_.size() && out->n < bsz) {
      const auto& row = emit_rows_[emit_];
      for (int c = 0; c < gcols; ++c) {
        out->cols[c].push_back(row.first[c]);
      }
      out->cols[gcols].push_back(row.second);
      out->EmitRow(slot_);
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
    in.Configure(b_.left->schema.size());
    for (;;) {
      in.Reset();
      const ExecResult st = child_->NextBatch(&in);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      if (!ReplayPhase(in, hash_op + p.cpu_operator_cost)) {
        return ExecResult::kAborted;
      }
      for (int64_t j = 0; j < in.n; ++j) {
        for (size_t g = 0; g < b_.group_positions.size(); ++g) {
          key_buf_[g] = in.cols[b_.group_positions[g]][j];
        }
        const int64_t value =
            b_.agg_position >= 0 ? in.cols[b_.agg_position][j] : 1;
        auto [it, inserted] = groups_.try_emplace(key_buf_, 0);
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
      if (st == ExecResult::kDone) break;
    }
    // COUNT over empty ungrouped input emits one zero row (SQL semantics),
    // matching the scalar engine.
    if (groups_.empty() && b_.group_positions.empty() &&
        b_.func == AggregateSpec::Func::kCount) {
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

  bool built_ = false;
  Row key_buf_;
  std::unordered_map<Row, int64_t, AggRowHash> groups_;
  /// Sorted (group key, aggregate) pairs; see the sort comment in Build().
  std::vector<std::pair<Row, int64_t>> emit_rows_;
  size_t emit_ = 0;
};

}  // namespace

std::unique_ptr<BatchOp> BuildBatchExecutor(const BoundNode& b,
                                            BatchExecState* st) {
  switch (b.op) {
    case OpType::kSeqScan:
      return std::make_unique<BatchSeqScanOp>(b, st);
    case OpType::kIndexScan:
      return std::make_unique<BatchIndexScanOp>(b, st);
    case OpType::kIndexNLJoin:
      return std::make_unique<BatchIndexNLJoinOp>(
          b, st, BuildBatchExecutor(*b.left, st));
    case OpType::kMaterialNLJoin: {
      auto left = BuildBatchExecutor(*b.left, st);
      return std::make_unique<BatchMaterialNLJoinOp>(
          b, st, std::move(left), BuildBatchExecutor(*b.right, st));
    }
    case OpType::kHashJoin: {
      auto left = BuildBatchExecutor(*b.left, st);
      return std::make_unique<BatchHashJoinOp>(
          b, st, std::move(left), BuildBatchExecutor(*b.right, st));
    }
    case OpType::kMergeJoin: {
      auto left = BuildBatchExecutor(*b.left, st);
      return std::make_unique<BatchMergeJoinOp>(
          b, st, std::move(left), BuildBatchExecutor(*b.right, st));
    }
    case OpType::kHashAggregate:
      return std::make_unique<BatchHashAggregateOp>(
          b, st, BuildBatchExecutor(*b.left, st));
  }
  return nullptr;  // unreachable: every OpType is handled above
}

}  // namespace bouquet
