// Real-data bouquet execution driver (Section 6.7 / Table 3).
//
// Unlike the cost-based simulator, this driver actually runs the Volcano
// executor on generated data: plans are executed with cost-metered budgets,
// aborted executions jettison their intermediate results, per-node tuple
// counters feed the running selectivity location q_run, spill-mode
// executions run only the subtree up to the first error node, and the final
// completing execution returns the true query result rows. The contour
// ladders themselves live in ladder.h; this driver is their executor
// backend.

#ifndef BOUQUET_BOUQUET_DRIVER_H_
#define BOUQUET_BOUQUET_DRIVER_H_

#include <optional>

#include "bouquet/bouquet.h"
#include "bouquet/ladder.h"
#include "executor/builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"

namespace bouquet {

/// Executes a query via its plan bouquet against real data.
///
/// Thread-safety: a driver instance is NOT thread-safe (it funnels every
/// execution through its single QueryOptimizer). The supported concurrency
/// pattern — used by BouquetService — is one driver + one optimizer per
/// request, all sharing the same const bouquet/diagram and a Database whose
/// lazy index caches are internally locked. On a paged Database each
/// RunBasic/RunOptimized/RunSinglePlan forks a private buffer-pool ledger
/// (storage::AccessLedger) from the pool's base ledger and charges every
/// step against it, so a run's page hits and misses — and with them its
/// charges and abort points — never depend on concurrent requests.
class BouquetDriver {
 public:
  /// All referenced objects must outlive the driver.
  BouquetDriver(const PlanBouquet& bouquet, const PlanDiagram& diagram,
                QueryOptimizer* opt, Database* db);

  /// Basic algorithm (RunBasicLadder): every plan on every contour,
  /// generic executions.
  DriverResult RunBasic();

  /// Optimized algorithm (RunOptimizedLadder): q_run tracking from
  /// instrumentation counters, spill-mode learning executions, early
  /// contour jumps, and a final full execution of the plan that is optimal
  /// at the discovered location.
  ///
  /// Known limitation (Section 5.2's "independent appearances" caveat): two
  /// error dimensions whose predicates are evaluated at the *same* plan node
  /// in every bouquet plan cannot be separated by node-level tuple counters,
  /// so neither is learned; execution then degrades gracefully to
  /// contour-climbing with full budgets (completion and the guarantee are
  /// unaffected, only the learning optimizations are lost).
  DriverResult RunOptimized();

  /// Executes a single plan to completion without budget (the NAT baseline
  /// and the oracle "optimal at q_a" comparison of Table 3). Emits exactly
  /// one DriverStep (contour -1 = "no contour, native run") so aggregations
  /// over `steps` count native runs like every other execution path.
  DriverResult RunSinglePlan(const PlanNode& root);

  /// Feedback warm start: the next RunOptimized() begins its ladder at
  /// `start_contour` (clamped into [0, contours)) instead of 0. q_run still
  /// starts at the dimension lows, so discovery and plan pruning behave as
  /// in a cold run — only the cheap contour prefix is skipped. Completion
  /// is unconditional (contour-region domination, see contours.h); the
  /// Theorem-3 MSO bound is preserved when the feedback seed that chose
  /// the contour is dominated by q_a (feedback/warm_start.h).
  void SetWarmStart(int start_contour) {
    warm_start_ = start_contour > 0 ? start_contour : 0;
  }

  /// Attaches observability sinks (either may be null). Spans nest under
  /// `parent` when given (e.g. the service's request span); pass nullptr
  /// for a self-rooted trace. With a registry (the service passes its own)
  /// the ladder counts into its bouquet_* run-phase instruments and the
  /// batch engine into bouquet_exec_batch_rows; they are resolved once here
  /// so the run loops only touch pre-bound instruments.
  void SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics,
                        const obs::Span* parent = nullptr);

  /// Selects the execution engine for every subsequent (partial) execution.
  /// Defaults to the vectorized batch engine; both engines produce
  /// bit-identical cost accounting, step sequences, and result multisets
  /// (enforced by the differential harness), so this is a throughput knob
  /// and the scalar engine doubles as the differential-testing oracle.
  void SetEngine(ExecEngine engine) { engine_ = engine; }
  ExecEngine engine() const { return engine_; }

 private:
  LadderObs Obs() const {
    LadderObs o = obs_;
    if (ins_.has_value()) o.ins = &*ins_;
    return o;
  }

  const PlanBouquet* bouquet_;
  const PlanDiagram* diagram_;
  QueryOptimizer* opt_;
  Database* db_;
  ExecEngine engine_ = ExecEngine::kBatch;
  int warm_start_ = 0;
  LadderObs obs_;  ///< tracer and the parent of the run root span
  /// Resolved when a registry is attached; null/empty otherwise.
  std::optional<LadderInstruments> ins_;
  obs::Histogram* batch_rows_ = nullptr;
};

}  // namespace bouquet

#endif  // BOUQUET_BOUQUET_DRIVER_H_
