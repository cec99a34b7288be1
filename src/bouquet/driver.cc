#include "bouquet/driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "common/lint.h"
#include "executor/exec_context.h"
#include "optimizer/plan_signature.h"

namespace bouquet {

namespace {

constexpr double kRelEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Wall-clock telemetry only: feeds DriverStep::wall_seconds, never charged
// cost, contour decisions, q_run, or replay state (those ride the CostMeter
// and the instrumentation counters).
BOUQUET_NONDETERMINISM_OK std::chrono::steady_clock::time_point WallNow() {
  return std::chrono::steady_clock::now();
}

// Does the subtree evaluate any error dimension that is not yet learned?
bool SubtreeHasUnlearnedDim(const PlanNode& node, const QuerySpec& q,
                            const std::vector<bool>& learned) {
  for (size_t d = 0; d < q.error_dims.size(); ++d) {
    if (learned[d]) continue;
    const ErrorDimension& ed = q.error_dims[d];
    if (FindPredicateNode(node, ed.kind == DimKind::kJoin,
                          ed.predicate_index) != nullptr) {
      return true;
    }
  }
  return false;
}

// The ladder's executor backend: plans are priced by the optimizer at q_run
// and run by the Volcano/batch executor on real data under cost-metered
// budgets; q_run advances from the per-node instrumentation counters.
class ExecutorBackend : public StepBackend {
 public:
  ExecutorBackend(const PlanDiagram& diagram, QueryOptimizer* opt,
                  Database* db, storage::AccessLedger* ledger,
                  ExecEngine engine, obs::Tracer* tracer,
                  obs::Histogram* batch_rows)
      : diagram_(diagram),
        opt_(opt),
        db_(db),
        ledger_(ledger),
        engine_(engine),
        tracer_(tracer),
        batch_rows_(batch_rows) {}

  double OptimalCost(const DimVector& qrun) override {
    // The early jump after a step and the early skips that follow ask
    // about the same q_run; one DP call answers them all.
    if (qrun != optimal_at_) {
      optimal_at_ = qrun;
      optimal_cost_ = opt_->OptimizeAt(qrun).cost;
    }
    return optimal_cost_;
  }
  double PlanCost(int plan_id, const DimVector& qrun) override {
    return opt_->CostPlanAt(*diagram_.plan(plan_id).root, qrun);
  }
  int ErrorDepth(int plan_id, int dim) override {
    const ErrorDimension& ed = opt_->query().error_dims[dim];
    return ErrorNodeMaxDepth(*diagram_.plan(plan_id).root,
                             ed.kind == DimKind::kJoin, ed.predicate_index);
  }

  bool Run(int plan_id, double budget, int spill_dim, LadderState* state,
           const obs::Span& span, DriverStep* step,
           std::vector<Row>* rows) override {
    const PlanNode& root = *diagram_.plan(plan_id).root;
    // Spill mode runs only the subtree up to the learning dimension's node;
    // when that node is the root the execution is a generic one.
    const PlanNode* spill_root = nullptr;
    if (spill_dim >= 0) {
      const ErrorDimension& ed = opt_->query().error_dims[spill_dim];
      spill_root = FindPredicateNode(root, ed.kind == DimKind::kJoin,
                                     ed.predicate_index);
      if (spill_root == &root) spill_root = nullptr;
    }
    return !Exec(spill_root != nullptr ? *spill_root : root,
                 spill_root != nullptr, budget, state, span, step, rows);
  }

  void RunOptimal(const DimVector& at, LadderState* state,
                  const obs::Span& span, DriverStep* step,
                  std::vector<Row>* rows) override {
    const Plan plan = opt_->OptimizeAt(at);
    // The plan optimal at q_run need not belong to the POSP, so FindPlan
    // may legitimately return the -1 sentinel; the signature is the
    // canonical identity either way.
    step->plan_id = diagram_.FindPlan(plan.signature);
    step->plan_signature = plan.signature;
    Exec(*plan.root, false, kInf, state, span, step, rows);
  }

  // Runs `root` (the plan, or a spill subtree) under `budget` with operator
  // spans nested under `span`, records the outcome in `step`, and harvests
  // q_run into a non-null `state`. Returns true when the run got to the
  // end; a spilled run never completes the query.
  bool Exec(const PlanNode& root, bool spilled, double budget,
            LadderState* state, const obs::Span& span, DriverStep* step,
            std::vector<Row>* rows) {
    ExecContext ctx;
    ctx.query = &opt_->query();
    ctx.catalog = &opt_->catalog();
    ctx.db = db_;
    ctx.ledger = ledger_;
    ctx.cost_model = &opt_->cost_model();
    ctx.batch_rows = batch_rows_;
    ctx.tracer = tracer_;
    ctx.trace_parent = span.id();
    ctx.trace_id = span.trace_id();
    const auto t1 = WallNow();
    const ExecutionOutcome out =
        spilled ? ExecuteSpilled(engine_, root, &ctx, budget)
                : ExecutePlan(engine_, root, &ctx, budget, rows);
    step->wall_seconds =
        std::chrono::duration<double>(WallNow() - t1).count();
    step->charged = out.cost_charged;
    step->page_reads = out.page_reads;
    step->page_hits = out.page_hits;
    step->spilled = spilled;
    step->completed = out.status == ExecResult::kDone && !spilled;
    if (state != nullptr) Harvest(root, ctx, state);
    return out.status == ExecResult::kDone;
  }

 private:
  // Raises q_run lower bounds from the instrumentation of a finished or
  // aborted execution of `plan_root`; a finished error node pins its
  // dimension exactly (learned).
  void Harvest(const PlanNode& plan_root, const ExecContext& ctx,
               LadderState* st);

  const PlanDiagram& diagram_;
  QueryOptimizer* opt_;
  Database* db_;
  storage::AccessLedger* ledger_;
  ExecEngine engine_;
  obs::Tracer* tracer_;
  obs::Histogram* batch_rows_;
  DimVector optimal_at_;  // q_run of the last OptimalCost answer
  double optimal_cost_ = 0.0;
};

void ExecutorBackend::Harvest(const PlanNode& plan_root,
                              const ExecContext& ctx, LadderState* st) {
  const QuerySpec& q = opt_->query();
  DimVector& qrun = st->qrun;
  std::vector<bool>& learned = st->learned;
  const std::vector<const PlanNode*> nodes = CollectNodes(plan_root);

  // Resolver with the current q_run injected: learned dims resolve to their
  // discovered (exact) selectivities, error-free predicates to their
  // accurate catalog estimates. Unlearned dims resolve to lower bounds, but
  // those block learning below anyway.
  SelectivityResolver accurate(q, opt_->catalog());

  // Another unlearned error dimension of the same kind on the node blocks
  // learning: its selectivity is still only a lower bound.
  auto unlearned_dim = [&](DimKind kind, int pred) {
    for (size_t e = 0; e < q.error_dims.size(); ++e) {
      if (q.error_dims[e].kind == kind &&
          q.error_dims[e].predicate_index == pred && !learned[e]) {
        return true;
      }
    }
    return false;
  };

  for (size_t d = 0; d < q.error_dims.size(); ++d) {
    if (learned[d]) continue;
    // Refresh with the current q_run so updates made earlier in this pass
    // are visible (Inject only rewrites the error-dim slots; cheap).
    accurate.Inject(qrun);
    const ErrorDimension& ed = q.error_dims[d];
    const bool is_join = ed.kind == DimKind::kJoin;
    const PlanNode* node =
        FindPredicateNode(plan_root, is_join, ed.predicate_index);
    if (node == nullptr) continue;
    const NodeCounters* counters = ctx.instr.Find(node);
    if (counters == nullptr) continue;

    double denom = 0.0;
    if (!is_join) {
      // Selection: output = raw_rows * s_d * (other known filter sels).
      const TableInfo& t =
          opt_->catalog().GetTable(q.tables[node->table_idx]);
      denom = t.stats.row_count;
      for (int f : node->filter_idxs) {
        if (f == ed.predicate_index) continue;
        if (unlearned_dim(DimKind::kSelection, f)) {
          denom = 0.0;
          break;
        }
        denom *= accurate.FilterSelectivity(f);
      }
    } else {
      // Join: output = |L| * |R| * s_d * (other sels at the node). Inputs
      // must be free of unlearned error dims.
      if (node->left == nullptr || node->right == nullptr) continue;
      if (SubtreeHasUnlearnedDim(*node->left, q, learned) ||
          SubtreeHasUnlearnedDim(*node->right, q, learned)) {
        continue;
      }
      // Recost at the *current* q_run — including any updates made earlier
      // in this very pass — so the input cardinalities reflect every
      // already-learned dimension (a stale snapshot would underestimate the
      // denominator and overshoot s_hat, breaching the first-quadrant
      // invariant). Inputs are error-free or fully learned here, so the
      // recosted child cardinalities are exact.
      const PlanCostDetail detail = opt_->RecostPlanAt(plan_root, qrun);
      double lrows = -1.0, rrows = -1.0;
      for (size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i] == node->left.get()) lrows = detail.nodes[i].rows;
        if (nodes[i] == node->right.get()) rrows = detail.nodes[i].rows;
      }
      if (lrows < 0.0 || rrows < 0.0) continue;
      denom = lrows * rrows;
      for (int j : node->join_idxs) {
        if (j == ed.predicate_index) continue;
        if (unlearned_dim(DimKind::kJoin, j)) {
          denom = 0.0;
          break;
        }
        denom *= accurate.JoinSelectivity(j);
      }
    }
    if (denom <= 0.0) continue;

    const double s_hat = static_cast<double>(counters->tuples_out) / denom;
    const double clamped = std::clamp(s_hat, ed.lo, ed.hi);
    if (clamped > qrun[d] * (1.0 + kRelEps)) qrun[d] = clamped;
    if (counters->finished) learned[d] = true;
  }
}

// One run's private accounting view of a paged database's buffer pool:
// forked from the pool's base ledger when the run starts, its counts folded
// into the pool's stats when the run ends. Every step of the run charges
// against it, so the run's hit/miss sequence depends on nothing a
// concurrent request does.
class RunLedger {
 public:
  explicit RunLedger(const Database* db)
      : pool_(db != nullptr && db->storage() != nullptr
                  ? db->storage()->buffer()
                  : nullptr) {
    if (pool_ != nullptr) ledger_.emplace(pool_->ForkLedger());
  }
  ~RunLedger() {
    if (pool_ != nullptr) pool_->FoldLedger(*ledger_);
  }
  RunLedger(const RunLedger&) = delete;
  RunLedger& operator=(const RunLedger&) = delete;

  storage::AccessLedger* get() {
    return ledger_.has_value() ? &*ledger_ : nullptr;
  }

 private:
  storage::BufferManager* pool_;
  std::optional<storage::AccessLedger> ledger_;
};

}  // namespace

BouquetDriver::BouquetDriver(const PlanBouquet& bouquet,
                             const PlanDiagram& diagram, QueryOptimizer* opt,
                             Database* db)
    : bouquet_(&bouquet), diagram_(&diagram), opt_(opt), db_(db) {}

void BouquetDriver::SetObservability(obs::Tracer* tracer,
                                     obs::MetricsRegistry* metrics,
                                     const obs::Span* parent) {
  obs_ = LadderObs::Under(tracer, parent);
  ins_.reset();
  batch_rows_ = nullptr;
  if (metrics != nullptr) {
    ins_ = LadderInstruments::Resolve(*metrics);
    batch_rows_ = metrics->GetHistogram(
        "bouquet_exec_batch_rows",
        "Rows per batch produced at the executor root",
        obs::BatchSizeBuckets());
  }
}

DriverResult BouquetDriver::RunBasic() {
  RunLedger ledger(db_);
  ExecutorBackend backend(*diagram_, opt_, db_, ledger.get(), engine_,
                          obs_.tracer, batch_rows_);
  return RunBasicLadder(*bouquet_, *diagram_, &backend, Obs());
}

DriverResult BouquetDriver::RunOptimized() {
  // q_run starts at the dimension lows: nothing is known yet.
  DimVector lows;
  for (const ErrorDimension& ed : opt_->query().error_dims) {
    lows.push_back(ed.lo);
  }
  RunLedger ledger(db_);
  ExecutorBackend backend(*diagram_, opt_, db_, ledger.get(), engine_,
                          obs_.tracer, batch_rows_);
  return RunOptimizedLadder(*bouquet_, *diagram_, &backend, std::move(lows),
                            warm_start_, Obs());
}

DriverResult BouquetDriver::RunSinglePlan(const PlanNode& root) {
  DriverResult res;
  obs::Span run = obs::Tracer::BeginUnder(obs_.tracer, "driver.run_single",
                                          obs_.parent_span, obs_.trace_id);
  obs::Span span = obs::Tracer::Begin(obs_.tracer, "driver.step", &run);
  DriverStep step;
  step.contour = DriverStep::kNoContour;  // unbudgeted native run
  step.budget = kInf;
  // Plan identity: native runs execute arbitrary roots, so the plan may or
  // may not be interned in the diagram — FindPlan's -1 sentinel is valid.
  step.plan_signature = PlanSignature(root);
  step.plan_id = diagram_->FindPlan(step.plan_signature);
  RunLedger ledger(db_);
  ExecutorBackend backend(*diagram_, opt_, db_, ledger.get(), engine_,
                          obs_.tracer, batch_rows_);
  backend.Exec(root, false, kInf, nullptr, span, &step, &res.rows);
  ObserveStep(step, &span, Obs().ins);

  res.completed = step.completed;
  res.total_cost_units = step.charged;
  res.wall_seconds = step.wall_seconds;
  res.num_executions = 1;
  res.page_reads = step.page_reads;
  res.page_hits = step.page_hits;
  res.final_plan = step.plan_id;
  if (res.completed) res.final_plan_signature = step.plan_signature;
  res.steps.push_back(std::move(step));
  run.Num("executions", 1.0)
      .Num("total_cost_units", res.total_cost_units)
      .Flag("completed", res.completed);
  return res;
}

}  // namespace bouquet
