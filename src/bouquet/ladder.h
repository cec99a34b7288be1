// The run-time phase of plan bouquets, written once (Sections 3 and 5).
//
// RunBasicLadder is Figure 7: every plan of every contour, in order, each
// under its contour's budget. RunOptimizedLadder is Figure 13: the running
// location q_run, the first-quadrant candidate filter, AxisPlans selection,
// spill-mode learning and early contour jumps. Both drive a StepBackend that
// prices and runs plans; the ladder never touches a cost surface or an
// operator tree itself. BouquetSimulator runs the ladder over precomputed
// cost surfaces, BouquetDriver over the executor and real data, so every
// simulated MSO/ASO figure describes the algorithm that executes.

#ifndef BOUQUET_BOUQUET_LADDER_H_
#define BOUQUET_BOUQUET_LADDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bouquet/bouquet.h"
#include "executor/operators.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bouquet {

/// Log entry for one partial/full execution.
struct DriverStep {
  /// Sentinel `contour` value for unbudgeted native runs (RunSinglePlan):
  /// the step belongs to no ladder contour. Contour-indexed consumers must
  /// bucket it explicitly — use HistogramSteps() instead of indexing
  /// `by_contour[step.contour]` directly.
  static constexpr int kNoContour = -1;

  int contour = 0;
  int plan_id = -1;
  std::string plan_signature;
  double budget = 0.0;
  double charged = 0.0;     ///< cost units actually consumed
  double wall_seconds = 0.0;
  /// Buffer-pool page accesses charged during this execution (zero on
  /// in-memory databases); reads are misses, hits are cached pages.
  int64_t page_reads = 0;
  int64_t page_hits = 0;
  bool completed = false;
  bool spilled = false;
  int learned_dim = -1;
};

/// Outcome of a full bouquet-driven query execution.
struct DriverResult {
  bool completed = false;
  /// The safety net ran: every contour budget was exhausted and the query
  /// was finished by one unbudgeted execution (outside the guarantee).
  bool fallback_used = false;
  double total_cost_units = 0.0;
  double wall_seconds = 0.0;
  int num_executions = 0;
  int contours_crossed = 0;
  /// Contours skipped up-front by a feedback warm start (SetWarmStart);
  /// 0 for cold runs.
  int warm_contours_skipped = 0;
  /// Page-access totals summed over all steps (zero on in-memory data).
  int64_t page_reads = 0;
  int64_t page_hits = 0;
  /// Diagram plan id of the completing plan, or -1 (the sentinel) when that
  /// plan is not interned in the diagram — which legitimately happens when
  /// the optimized run's final execution optimizes at the discovered q_run
  /// and finds a plan outside the POSP. `final_plan_signature` is the
  /// canonical identity in either case and is always set on completion.
  int final_plan = -1;
  std::string final_plan_signature;
  std::vector<Row> rows;  ///< the query result
  std::vector<DriverStep> steps;
  /// Optimized runs only: the final q_run lower bounds per error dimension
  /// — the selectivities the discovery process learned. Feed these into a
  /// SelectivityErrorLog to improve future dimension identification.
  DimVector discovered_selectivities;
};

/// Steps bucketed by contour with the DriverStep::kNoContour sentinel kept
/// out of the indexed counts: `by_contour[k]` counts steps on contour k
/// (sized to the deepest contour seen), `native` counts sentinel steps.
/// Every contour-indexed reducer (bench tables, service aggregations) must
/// go through this instead of using `step.contour` as a raw index, which
/// would either crash or silently fold native runs into contour counts.
struct ContourHistogram {
  std::vector<int64_t> by_contour;
  int64_t native = 0;
};

ContourHistogram HistogramSteps(const std::vector<DriverStep>& steps);

/// The optimized ladder's running knowledge (Section 5.2): q_run, the
/// per-dimension selectivity lower bounds, and which dimensions are known
/// exactly. Backends advance both; q_run never decreases.
struct LadderState {
  DimVector qrun;
  std::vector<bool> learned;
};

/// The substrate a ladder runs on: it prices plans at q_run and runs them.
/// One backend instance serves one run, so it may keep per-run state.
class StepBackend {
 public:
  virtual ~StepBackend() = default;

  /// Checks the seed q_run against what the backend knows and marks the
  /// dimensions it already pins down as learned. Default: nothing known.
  virtual void Seed(LadderState* /*state*/) {}
  /// Cost of the plan optimal at q_run.
  virtual double OptimalCost(const DimVector& qrun) = 0;
  /// Cost of diagram plan `plan_id` at q_run.
  virtual double PlanCost(int plan_id, const DimVector& qrun) = 0;
  /// Depth of the deepest node of `plan_id` evaluating error dimension
  /// `dim` (ErrorNodeMaxDepth), -1 when the plan does not evaluate it.
  virtual int ErrorDepth(int plan_id, int dim) = 0;
  /// Runs `plan_id` under `budget`, in spill mode for dimension `spill_dim`
  /// when >= 0. Fills the step's charged/completed/spilled/wall/page
  /// fields and, for a completing run, `rows`. With a non-null `state`
  /// (optimized ladder) it also advances q_run and the learned set.
  /// Operator spans nest under `span`. Returns true when the run did not
  /// finish within its budget (a spill run may finish without completing
  /// the query).
  virtual bool Run(int plan_id, double budget, int spill_dim,
                   LadderState* state, const obs::Span& span,
                   DriverStep* step, std::vector<Row>* rows) = 0;
  /// Runs the plan optimal at `at` without a budget; fills the step's plan
  /// identity as well as Run's fields, and advances a non-null `state`.
  virtual void RunOptimal(const DimVector& at, LadderState* state,
                          const obs::Span& span, DriverStep* step,
                          std::vector<Row>* rows) = 0;
};

/// The run-phase instruments every ladder run counts into, for both
/// backends: one count per execution, contour crossed, spill and fallback.
/// Resolved once from the owner's registry; all pointers are non-null.
struct LadderInstruments {
  obs::Counter* executions = nullptr;
  obs::Counter* contour_crossings = nullptr;
  obs::Counter* spills = nullptr;
  obs::Counter* fallbacks = nullptr;
  obs::Counter* dims_learned = nullptr;
  obs::Histogram* budget_utilization = nullptr;

  static LadderInstruments Resolve(obs::MetricsRegistry& metrics);
};

/// Where a ladder reports: its driver.* spans go under `parent_span` of
/// trace `trace_id` (0/0 = a self-rooted trace), its counts to `ins` (null =
/// not counted).
struct LadderObs {
  obs::Tracer* tracer = nullptr;
  uint64_t parent_span = 0;
  uint64_t trace_id = 0;
  const LadderInstruments* ins = nullptr;

  /// Nests under `parent` when it is an enabled span.
  static LadderObs Under(obs::Tracer* tracer, const obs::Span* parent,
                         const LadderInstruments* ins = nullptr);
};

/// Fills `span` with the step's record, ends it, and counts the execution
/// (and its spill) into a non-null `ins`.
void ObserveStep(const DriverStep& step, obs::Span* span,
                 const LadderInstruments* ins);

/// Figure 7. When every budget is exhausted the safety net runs the plan
/// optimal at the ESS max corner without a budget (fallback_used).
DriverResult RunBasicLadder(const PlanBouquet& bouquet,
                            const PlanDiagram& diagram, StepBackend* backend,
                            const LadderObs& obs);

/// Figure 13, with q_run seeded at `seed` and the ladder entered at
/// `start_contour`, clamped into [0, contours) — a warm start past the
/// ladder still executes the Cmax contour. Once every dimension is learned
/// the plan optimal at q_run runs without a budget; when every budget is
/// exhausted the same execution is the safety net (fallback_used).
DriverResult RunOptimizedLadder(const PlanBouquet& bouquet,
                                const PlanDiagram& diagram,
                                StepBackend* backend, DimVector seed,
                                int start_contour, const LadderObs& obs);

}  // namespace bouquet

#endif  // BOUQUET_BOUQUET_LADDER_H_
