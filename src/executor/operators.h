// Volcano-style physical operators with budget-limited execution.
//
// Every Next() call may return kAborted when the context's CostMeter trips;
// the partial state (instrumentation counters) remains readable afterwards,
// which is exactly what the bouquet's cost-limited partial executions need.
// Rows are flat int64 vectors laid out as the bound node's schema (see
// binding.h); operators take their positions, storage and charge units from
// the bound tree and compute none of them.
//
// Abort resumption contract: once a Next() call has returned kAborted the
// meter stays tripped, and every further Next() on any operator of the tree
// is a checked no-op — it returns kAborted again without charging the meter
// or moving any instrumentation counter. Partial executions are resumed by
// re-running the plan under a larger budget (the bouquet contract jettisons
// intermediate results), never by re-pulling an aborted iterator. The batch
// engine (batch.h) honors the same contract at NextBatch() granularity.

#ifndef BOUQUET_EXECUTOR_OPERATORS_H_
#define BOUQUET_EXECUTOR_OPERATORS_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "executor/binding.h"
#include "executor/exec_context.h"

namespace bouquet {

using Row = std::vector<int64_t>;

/// Outcome of pulling one row.
enum class ExecResult {
  kRow,      ///< *out holds a row
  kDone,     ///< input exhausted
  kAborted,  ///< cost budget exhausted mid-stream
};

/// Abstract iterator.
class Operator {
 public:
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Pulls the next row into *out.
  virtual ExecResult Next(Row* out) = 0;

 protected:
  Operator() = default;
};

/// Builds the operator tree of a bound plan (BindPlan). `bound` and `ctx`
/// must outlive the tree.
std::unique_ptr<Operator> BuildExecutor(const BoundNode& bound,
                                        ExecContext* ctx);

}  // namespace bouquet

#endif  // BOUQUET_EXECUTOR_OPERATORS_H_
