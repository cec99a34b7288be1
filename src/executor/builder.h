// Execution entry points: budget-limited full-plan execution and spilled
// subtree execution, on either engine.
//
// One run loop serves both engines. It binds the plan (binding.h), resets
// the meter, the instrumentation and the page counters, and owns the
// exec.plan span, the single exec.node finish hook, the build-failed path,
// the spill row sink, and the outcome. An engine supplies only its drain:
// build its operator tree from the bound plan and pull the root to the end
// or to a budget abort.
//
// "Spilled" execution (Section 5.3 of the paper) runs only the subtree up to
// and including the first error-prone node and discards its output, so the
// entire cost budget is spent on learning that node's selectivity instead of
// on downstream processing.

#ifndef BOUQUET_EXECUTOR_BUILDER_H_
#define BOUQUET_EXECUTOR_BUILDER_H_

#include <vector>

#include "executor/operators.h"

namespace bouquet {

/// Result of one (possibly partial) plan execution.
struct ExecutionOutcome {
  ExecResult status = ExecResult::kDone;
  int64_t rows_emitted = 0;
  double cost_charged = 0.0;
  /// Paged storage only (zero on in-memory databases): page accesses the
  /// meter charged, split by buffer-pool outcome. reads = misses priced at
  /// seq/random_page_cost; hits priced at buffer_hit_page_cost.
  int64_t page_reads = 0;
  int64_t page_hits = 0;
  /// True when the plan could not even be bound (e.g. an abstract
  /// predicate without a constant); distinct from a budget abort — retrying
  /// with a larger budget cannot help.
  bool build_failed = false;
  Status build_status;
};

/// Which execution engine runs a plan. Both engines are bit-compatible in
/// cost accounting (identical `cost_charged`, abort points, and per-node
/// counters for the same plan/budget — see batch.h and the differential
/// harness in src/testing), so the choice is purely a throughput knob.
enum class ExecEngine {
  kScalar,  ///< tuple-at-a-time Volcano iterators (operators.h)
  kBatch,   ///< vectorized column batches with charge replay (batch.h)
};

/// Executes the full plan with the given cost budget. Result rows are
/// appended to *results when non-null. Resets the context's meter and
/// instrumentation first (a fresh partial execution; prior intermediate
/// results are "jettisoned" per the basic bouquet contract). The batch
/// engine adds one "exec.batch" span summarizing batch shape and observes
/// every root batch's size into ctx->batch_rows when it is set.
ExecutionOutcome ExecutePlan(ExecEngine engine, const PlanNode& root,
                             ExecContext* ctx, double budget,
                             std::vector<Row>* results = nullptr);

/// Executes only the given subtree (spill mode), discarding its output.
/// The budget covers the subtree alone.
ExecutionOutcome ExecuteSpilled(ExecEngine engine,
                                const PlanNode& subtree_root,
                                ExecContext* ctx, double budget);

}  // namespace bouquet

#endif  // BOUQUET_EXECUTOR_BUILDER_H_
