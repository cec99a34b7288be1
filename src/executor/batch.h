// Vectorized batch-at-a-time executor, bit-compatible with the scalar
// engine's cost accounting.
//
// The data plane works on fixed-size column batches: scans evaluate filters
// column-wise into selection vectors (branch-light compaction loops), joins
// build/probe open-addressed chained hash tables over columnar build sides,
// and rows move as per-column gathers instead of per-row std::vector
// copies. None of that touches the CostMeter directly.
//
// Cost accounting instead rides a *metering tape*: every operator emits
// MeterEvents describing the exact per-tuple charge sequence the scalar
// engine would have produced — same floating-point charge expressions, same
// order. A batch's tape holds only its own operator's events plus *splice
// markers*; a splice marker stands for "the next k row segments (or the
// tail) of my pipelined input batch's tape", so a consumer never copies its
// child's events and a tape's length does not grow with plan depth. Replay
// walks the chain of live input tapes with one cursor per level, expanding
// splices in place, which reconstructs the scalar engine's global pipeline
// interleaving. It applies charges one tuple at a time (double addition is
// order-sensitive, so runs are never bulk-summed), which makes `charged`,
// the abort point, and the per-node tuple counters byte-identical to a
// scalar run of the same plan — the property Theorem 3 (MSO) needs from
// budget-limited partial executions.
//
// Replay granularity: pipeline breakers (hash build, merge drain+sort,
// materialize, aggregate build) replay their phase's events eagerly per
// consumed input batch — every event of the phase is globally ordered
// before any later event, so this is order-safe and bounds post-abort
// wasted work to about one batch per operator. Pipelined events are
// replayed by the consumer: inner operators at most one child batch ahead,
// the root loop once per output batch. Every pipelined operator pulls one
// child batch per NextBatch call, so each input batch a splice refers to
// stays intact until its consumer's tape has been replayed. Data ahead of
// an abort is discarded, never accounted.

#ifndef BOUQUET_EXECUTOR_BATCH_H_
#define BOUQUET_EXECUTOR_BATCH_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "executor/builder.h"
#include "executor/exec_context.h"
#include "optimizer/plan.h"

namespace bouquet {

namespace storage {
class BufferManager;
}  // namespace storage

namespace batch_internal {

/// Kinds of replayable accounting events. Any event may also carry an emit
/// (MeterEvent::emit), which ends one of the tape's output rows.
enum class EvKind : uint8_t {
  kCharge,        ///< `count` meter charges of `unit`
  kScan,          ///< `count` charges of `unit`, each then tuples_scanned++
  kSpliceCharge,  ///< `count` times: the input's next row segment, then one
                  ///< charge of `unit`
  kSplice,        ///< the input's next `count` row segments
  kSpliceTail,    ///< the rest of the input's tape
  kPageSeq,       ///< paged storage: sequential access to a page
  kPageRand,      ///< paged storage: random access to a page
  kFinish,        ///< Instrumentation::FinishNode (no charge)
};

/// One run-length-encoded accounting event, 16 bytes. `count` identical
/// charges are replayed one meter add at a time (never pre-summed), so RLE
/// compresses the tape without perturbing floating-point accumulation
/// order. A page event has no unit and no count of its own (its price is
/// resolved at replay), so its page id lives in those fields.
struct MeterEvent {
  /// Charge kinds: the bit pattern of the per-unit charge. Page kinds: the
  /// page number.
  uint64_t arg = 0;
  /// Charge and splice kinds: repetitions. Page kinds: the page file id.
  uint32_t count = 0;
  uint16_t node = 0;  ///< node slot (BatchExecState registration order)
  EvKind kind = EvKind::kCharge;
  /// After the event's own work, one charge of the execution's emit unit
  /// (cpu_tuple_cost) then tuples_out++; ends one output row of the tape.
  uint8_t emit = 0;

  double unit() const { return std::bit_cast<double>(arg); }
};
static_assert(sizeof(MeterEvent) == 16, "MeterEvent must stay 16 bytes");

/// Append-only event sequence of one operator, plus the input tape its
/// splice events stand for.
///
/// Fused row events: every per-row pattern an operator writes collapses
/// into one event. Emit() folds into the event just written (a scan
/// survivor's gap run plus its emit is one kScan), and SpliceRowCharge()
/// writes a build or probe row's child segment plus its one charge as one
/// kSpliceCharge, RLE-merging runs of rows that emitted nothing.
class Tape {
 public:
  void Clear() {
    ev_.clear();
    input_ = nullptr;
  }
  bool empty() const { return ev_.empty(); }
  size_t size() const { return ev_.size(); }
  const std::vector<MeterEvent>& events() const { return ev_; }

  /// The tape whose row segments this tape's splice events consume, in
  /// order. It must stay unchanged until this tape has been replayed.
  const Tape* input() const { return input_; }
  void set_input(const Tape* input) { input_ = input; }

  void Charge(uint16_t node, double unit, uint32_t count = 1) {
    if (count > 0) Push(node, std::bit_cast<uint64_t>(unit), count,
                        EvKind::kCharge);
  }
  void Scan(uint16_t node, double unit, uint32_t count = 1) {
    if (count > 0) Push(node, std::bit_cast<uint64_t>(unit), count,
                        EvKind::kScan);
  }
  /// Per row, for the input's next `rows` rows: its segment, then one
  /// charge of `unit`.
  void SpliceRowCharge(uint16_t node, double unit, uint32_t rows = 1) {
    if (rows > 0) Push(node, std::bit_cast<uint64_t>(unit), rows,
                       EvKind::kSpliceCharge);
  }
  /// The input's next `rows` row segments.
  void Splice(uint16_t node, uint32_t rows = 1) {
    if (rows > 0) Push(node, 0, rows, EvKind::kSplice);
  }
  /// Whatever of the input follows its last row: trailing failed scans,
  /// child finishes.
  void SpliceTail(uint16_t node) {
    ev_.push_back({0, 0, node, EvKind::kSpliceTail, 0});
  }
  /// Ends an output row: emit charge and tuples_out++, folded into the
  /// event just written when it is this node's and carries no emit yet.
  void Emit(uint16_t node) {
    if (!ev_.empty() && ev_.back().node == node && ev_.back().emit == 0) {
      ev_.back().emit = 1;
    } else {
      ev_.push_back({0, 0, node, EvKind::kCharge, 1});
    }
  }
  /// Records a page access whose price (hit vs miss) is resolved at replay
  /// time against the buffer pool's deterministic accounting state, in the
  /// exact position the scalar engine would have charged it.
  void PageSeq(uint16_t node, uint16_t file, uint32_t page) {
    ev_.push_back({page, file, node, EvKind::kPageSeq, 0});
  }
  void PageRand(uint16_t node, uint16_t file, uint32_t page) {
    ev_.push_back({page, file, node, EvKind::kPageRand, 0});
  }
  void Finish(uint16_t node) {
    ev_.push_back({0, 0, node, EvKind::kFinish, 0});
  }

 private:
  /// RLE-merges into the last event when it is an identical run with no
  /// emit (an emit ends a row: nothing after it may join its run).
  void Push(uint16_t node, uint64_t arg, uint32_t count, EvKind k) {
    if (!ev_.empty()) {
      MeterEvent& b = ev_.back();
      if (b.kind == k && b.node == node && b.arg == arg && b.emit == 0 &&
          b.count <= UINT32_MAX - count) {
        b.count += count;
        return;
      }
    }
    ev_.push_back({arg, count, node, k, 0});
  }

  std::vector<MeterEvent> ev_;
  const Tape* input_ = nullptr;
};

}  // namespace batch_internal

/// A batch of rows in columnar layout plus its metering tape. Row j's event
/// segment ends with the tape's (j+1)-th emit; events after the last emit
/// (the tail) happened after the last row.
struct ColumnBatch {
  std::vector<std::vector<int64_t>> cols;
  int64_t n = 0;
  batch_internal::Tape tape;

  void Configure(size_t num_cols) {
    cols.assign(num_cols, {});
    Reset();
  }
  void Reset() {
    for (auto& c : cols) c.clear();
    n = 0;
    tape.Clear();
  }
  /// Ends the next output row's event segment with `slot`'s emit. Call once
  /// per appended row, after its events.
  void EmitRow(uint16_t slot) {
    tape.Emit(slot);
    ++n;
  }
};

/// Per-execution state shared by a batch operator tree: node-slot registry,
/// cached counter pointers, the abort latch, and the tape replayer. Create
/// one per execution, after resetting the context's meter/instrumentation
/// (the entry points below do this; the registry caches NodeCounters
/// pointers, so it must not outlive an Instrumentation::Reset).
class BatchExecState {
 public:
  explicit BatchExecState(ExecContext* ctx) : ctx_(ctx) {}

  ExecContext* ctx() { return ctx_; }
  bool aborted() const { return aborted_; }

  uint16_t Register(const PlanNode* node) {
    nodes_.push_back(node);
    nc_.push_back(nullptr);
    return static_cast<uint16_t>(nodes_.size() - 1);
  }

  /// First-touch for a slot, in scalar ForNode order: called by every
  /// operator on its first NextBatch, before pulling children or emitting
  /// events, so counters exist for exactly the nodes a scalar run would
  /// have touched by the same point.
  void TouchSlot(uint16_t slot) {
    nc_[slot] = &ctx_->instr.Touch(nodes_[slot]);
  }

  /// Attaches the buffer pool for replay-time resolution of kPageSeq /
  /// kPageRand events and caches the three page prices from the context's
  /// cost params. Paged scan operators call this at construction; calling
  /// it repeatedly is harmless (idempotent for a fixed execution).
  void SetBuffer(storage::BufferManager* bm);

  /// Replays `tape`, and through its splice events the chain of input
  /// tapes below it, onto the meter and counters in order. Returns false at
  /// (and latches) a budget abort. When `emitted` is non-null, adds the
  /// number of `tape`'s own emits that completed — the rows of its batch
  /// that logically exist before the abort point.
  bool Replay(const batch_internal::Tape& tape, int64_t* emitted = nullptr);

  /// Batch telemetry (data-plane only; never feeds accounting).
  int64_t batches_produced = 0;
  int64_t rows_produced = 0;
  /// Events on the tapes handed to Replay (each tape counted once).
  int64_t tape_events = 0;

 private:
  /// One cursor per tape level of the replay in progress.
  struct Cursor {
    const batch_internal::MeterEvent* pos;
    const batch_internal::MeterEvent* end;
  };
  /// Replays level `level` until `rows` of its emits have completed, or to
  /// its end when `rows` is negative. kCheck is false for an infinite
  /// budget, which no add can trip.
  template <bool kCheck>
  bool ReplayLevel(size_t level, int64_t rows);

  ExecContext* ctx_;
  std::vector<const PlanNode*> nodes_;
  std::vector<NodeCounters*> nc_;
  bool aborted_ = false;
  /// Replay in progress: cursors, the meter value and budget held outside
  /// the CostMeter (written back once per Replay), the emit unit, and the
  /// count of level-0 emits.
  std::vector<Cursor> cursors_;
  double acc_ = 0.0;
  double budget_ = 0.0;
  double emit_unit_ = 0.0;
  int64_t top_emits_ = 0;
  /// Paged storage (null for in-memory databases). Page events resolve
  /// through ExecContext::AccessPage here, in replay order — the same
  /// deterministic accounting sequence the scalar engine produces at access
  /// time.
  storage::BufferManager* buffer_ = nullptr;
  double page_hit_cost_ = 0.0;
  double page_seq_cost_ = 0.0;
  double page_rand_cost_ = 0.0;
};

/// A batch-at-a-time operator. NextBatch appends rows/events to a batch the
/// caller has Configure()d for this operator's schema and Reset() before
/// the call. Contract mirrors the scalar engine:
///   kRow     — more input may follow (n may legitimately be 0: pipelined
///              operators hand back after each consumed child batch so the
///              consumer can replay before the next pull);
///   kDone    — final batch; tape ends with this operator's Finish;
///   kAborted — the meter tripped during an eagerly replayed phase, or the
///              tree is being re-pulled after an abort (a checked no-op,
///              same as the scalar engine).
class BatchOp {
 public:
  virtual ~BatchOp() = default;
  BatchOp(const BatchOp&) = delete;
  BatchOp& operator=(const BatchOp&) = delete;

  virtual ExecResult NextBatch(ColumnBatch* out) = 0;

  const std::vector<SchemaCol>& schema() const { return schema_; }
  int FindColumn(int table_idx, int col_idx) const;

 protected:
  BatchOp(const PlanNode* node, BatchExecState* st)
      : node_(node), st_(st), slot_(st->Register(node)) {}

  /// Eager replay of one batch of a pipeline breaker's phase: each of `in`'s
  /// row segments followed by one charge of `unit`, then `in`'s tail.
  bool ReplayPhase(const ColumnBatch& in, double unit);
  /// Eager replay of one charge of `unit` by this node.
  bool ReplayCharge(double unit);

  const PlanNode* node_;
  BatchExecState* st_;
  uint16_t slot_;
  std::vector<SchemaCol> schema_;
  bool touched_ = false;

 private:
  batch_internal::Tape phase_;  ///< scratch for ReplayPhase/ReplayCharge
};

/// Builds a batch operator tree over `state` (which must outlive the tree).
/// Binding rules are shared with the scalar builder (executor/binding.h);
/// failure conditions are identical.
Result<std::unique_ptr<BatchOp>> BuildBatchExecutor(const PlanNode& root,
                                                    BatchExecState* state);

/// Batch-engine equivalents of ExecutePlan/ExecuteSpilled: same outcome
/// semantics, same meter/instrumentation side effects (bit-identical
/// `cost_charged`, abort points, and per-node counters), same "exec.plan" /
/// "exec.node" spans plus one "exec.batch" child span summarizing batch
/// shape, and a `bouquet_exec_batch_rows` histogram when ctx->metrics is
/// set.
ExecutionOutcome ExecutePlanBatch(const PlanNode& root, ExecContext* ctx,
                                  double budget,
                                  std::vector<Row>* results = nullptr);
ExecutionOutcome ExecuteSpilledBatch(const PlanNode& subtree_root,
                                     ExecContext* ctx, double budget);

}  // namespace bouquet

#endif  // BOUQUET_EXECUTOR_BATCH_H_
