#include "executor/builder.h"

#include <memory>
#include <optional>

#include "executor/batch.h"
#include "optimizer/plan_signature.h"
#include "storage/paged_table.h"

namespace bouquet {

namespace {

// Where a drain delivers the root's rows: a spill writer when `spill_to` is
// set (spill mode on paged storage), else the caller's result vector, else
// nowhere. Spill-mode subtree output is jettisoned from the accounting's
// point of view, but it physically materializes into temp pages through the
// same buffer pool; the writer drops the segment when the sink dies. Drains
// declare their sink after their operator tree, so the segment is dropped
// before the operators release their pins.
class RowSink {
 public:
  RowSink(std::vector<Row>* results, storage::StorageManager* spill_to,
          size_t ncols)
      : results_(results) {
    if (spill_to != nullptr) spill_.emplace(spill_to, ncols);
  }

  /// False when rows would be dropped, so a drain need not materialize
  /// them.
  bool wants_rows() const {
    return spill_ ? spill_->ok() : results_ != nullptr;
  }

  void Push(const Row& row) {
    if (spill_) {
      if (spill_->ok()) spill_->Append(row);
    } else if (results_ != nullptr) {
      results_->push_back(row);
    }
  }

 private:
  std::vector<Row>* results_;
  std::optional<storage::SpillWriter> spill_;
};

ExecResult DrainScalar(const BoundNode& root, ExecContext* ctx,
                       std::vector<Row>* results,
                       storage::StorageManager* spill_to, int64_t* emitted) {
  const std::unique_ptr<Operator> op = BuildExecutor(root, ctx);
  RowSink sink(results, spill_to, root.schema.size());
  Row r;
  ExecResult st;
  while ((st = op->Next(&r)) == ExecResult::kRow) {
    ++*emitted;
    sink.Push(r);
  }
  return st;
}

ExecResult DrainBatch(const BoundNode& root, ExecContext* ctx,
                      std::vector<Row>* results,
                      storage::StorageManager* spill_to, int64_t* emitted,
                      const obs::Span& exec_span) {
  BatchExecState state(ctx);
  const std::unique_ptr<BatchOp> op = BuildBatchExecutor(root, &state);
  const size_t ncols = root.schema.size();
  RowSink sink(results, spill_to, ncols);

  ColumnBatch batch;
  batch.Configure(ncols);
  ExecResult status = ExecResult::kDone;
  for (;;) {
    batch.Reset();
    const ExecResult st = op->NextBatch(&batch);
    if (st == ExecResult::kAborted) {
      status = ExecResult::kAborted;
      break;
    }
    int64_t ok_rows = 0;
    const bool ok = state.Replay(batch.tape, &ok_rows);
    if (batch.n > 0) {
      state.batches_produced++;
      state.rows_produced += batch.n;
      if (ctx->batch_rows != nullptr) {
        ctx->batch_rows->Observe(static_cast<double>(batch.n));
      }
    }
    // Rows whose emit charge did not complete before the abort are data the
    // scalar engine would never have produced; truncate them.
    *emitted += ok_rows;
    if (sink.wants_rows()) {
      Row r(ncols);
      for (int64_t i = 0; i < ok_rows; ++i) {
        for (size_t c = 0; c < ncols; ++c) r[c] = batch.cols[c][i];
        sink.Push(r);
      }
    }
    if (!ok) {
      status = ExecResult::kAborted;
      break;
    }
    if (st == ExecResult::kDone) break;
  }

  if (exec_span.enabled()) {
    obs::Span bspan = obs::Tracer::BeginUnder(ctx->tracer, "exec.batch",
                                              exec_span.id(),
                                              exec_span.trace_id());
    bspan.Num("batch_size", static_cast<double>(ctx->batch_size))
        .Num("batches", static_cast<double>(state.batches_produced))
        .Num("batch_rows", static_cast<double>(state.rows_produced))
        .Num("tape_events", static_cast<double>(state.tape_events))
        .Num("tape_bytes", static_cast<double>(state.tape_events) *
                               sizeof(batch_internal::MeterEvent));
    bspan.End();
  }
  return status;
}

ExecutionOutcome RunTree(ExecEngine engine, const PlanNode& root,
                         ExecContext* ctx, double budget,
                         std::vector<Row>* results, bool spilled) {
  ctx->meter.Reset();
  ctx->meter.set_budget(budget);
  ctx->instr.Reset();
  ctx->page_reads_charged = 0;
  ctx->page_hits_charged = 0;

  // Observability: one span for this (partial) execution; every finished
  // operator node becomes a child span carrying its counters. The hook and
  // timing are (re)configured per execution so a context reused with the
  // tracer later detached stops paying for them.
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
  auto bound = BindPlan(root, *ctx);
  if (!bound.ok()) {
    out.status = ExecResult::kAborted;
    out.build_failed = true;
    out.build_status = bound.status();
    if (exec_span.enabled()) {
      exec_span.Flag("build_failed", true)
          .Str("signature", PlanSignature(root));
      exec_span.End();
    }
    return out;
  }
  storage::StorageManager* spill_to =
      spilled && ctx->db != nullptr ? ctx->db->storage() : nullptr;
  out.status = engine == ExecEngine::kBatch
                   ? DrainBatch(**bound, ctx, results, spill_to,
                                &out.rows_emitted, exec_span)
                   : DrainScalar(**bound, ctx, results, spill_to,
                                 &out.rows_emitted);
  out.cost_charged = ctx->meter.charged();
  out.page_reads = ctx->page_reads_charged;
  out.page_hits = ctx->page_hits_charged;
  if (exec_span.enabled()) {
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

ExecutionOutcome ExecutePlan(ExecEngine engine, const PlanNode& root,
                             ExecContext* ctx, double budget,
                             std::vector<Row>* results) {
  return RunTree(engine, root, ctx, budget, results, /*spilled=*/false);
}

ExecutionOutcome ExecuteSpilled(ExecEngine engine,
                                const PlanNode& subtree_root,
                                ExecContext* ctx, double budget) {
  return RunTree(engine, subtree_root, ctx, budget, /*results=*/nullptr,
                 /*spilled=*/true);
}

}  // namespace bouquet
