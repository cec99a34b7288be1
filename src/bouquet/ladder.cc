#include "bouquet/ladder.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/lint.h"
#include "common/str_util.h"

namespace bouquet {

namespace {

// Relative slack of every budget and location comparison.
constexpr double kRelEps = 1e-9;
// AxisPlans cost-equivalence group: candidates within 20% of the cheapest
// at q_run count as equally cheap; the deepest error node breaks the tie.
constexpr double kCostGroupWidth = 0.2;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Wall-clock telemetry only: feeds DriverResult::wall_seconds and span
// attributes, never charged cost, contour decisions or q_run.
BOUQUET_NONDETERMINISM_OK std::chrono::steady_clock::time_point WallNow() {
  return std::chrono::steady_clock::now();
}

// "0.001,0.04,1" — the q_run snapshot attribute attached to trace events.
std::string FormatQrun(const DimVector& qrun) {
  std::string out;
  for (size_t d = 0; d < qrun.size(); ++d) {
    if (d > 0) out += ",";
    out += FormatSci(qrun[d], 4);
  }
  return out;
}

// What one execution achieved: it completed the query, it finished within
// its budget and learned a dimension (a spill run), or neither.
enum class Outcome { kCompleted, kLearned, kExhausted };

void PushUnique(std::vector<int>* v, int x) {
  if (std::find(v->begin(), v->end(), x) == v->end()) v->push_back(x);
}

// One run of either ladder: owns the result being built and the run span.
class Ladder {
 public:
  Ladder(const PlanBouquet& bouquet, const PlanDiagram& diagram,
         StepBackend* backend, const LadderObs& o)
      : bouquet_(bouquet),
        diagram_(diagram),
        backend_(backend),
        obs_(o),
        t0_(WallNow()) {}

  DriverResult Basic();
  DriverResult Optimized(DimVector seed, int start_contour);

 private:
  // One execution on contour k: `plan_id` under `budget`, or (plan_id < 0)
  // the plan optimal at `at` without one. Logs the step and any q_run
  // movement.
  Outcome Execute(size_t k, int plan_id, double budget, int learn_dim,
                  const DimVector& at, LadderState* st,
                  const obs::Span* parent);
  DriverResult Finish(bool fallback, const LadderState* st);
  void Crossing(size_t from_k, const char* why);
  // First-quadrant candidates of q_run not yet executed on this contour,
  // and the subset lying on an axis through q_run (AxisPlans).
  void Candidates(const BouquetContour& contour, const DimVector& qrun,
                  const std::vector<int>& executed, std::vector<int>* all,
                  std::vector<int>* axis) const;
  // Cheapest cost group at q_run, then the deepest unlearned error node.
  int Pick(const std::vector<int>& pool, const LadderState& st);
  // Depth of the plan's deepest error node among unlearned dimensions (-1
  // if none); that dimension, the one to learn, goes to `dim`.
  int DeepestUnlearned(int plan_id, const std::vector<bool>& learned,
                       int* dim = nullptr);

  const PlanBouquet& bouquet_;
  const PlanDiagram& diagram_;
  StepBackend* backend_;
  LadderObs obs_;
  std::chrono::steady_clock::time_point t0_;
  obs::Span run_;  // driver.run_basic / driver.run_optimized
  DriverResult res_;
};

Outcome Ladder::Execute(size_t k, int plan_id, double budget, int learn_dim,
                        const DimVector& at, LadderState* st,
                        const obs::Span* parent) {
  obs::Span span = obs::Tracer::Begin(obs_.tracer, "driver.step", parent);
  const LadderState before = st != nullptr ? *st : LadderState{};
  DriverStep step;
  step.contour = static_cast<int>(k);
  step.budget = budget;
  step.learned_dim = learn_dim;
  std::vector<Row> rows;
  bool exhausted = true;
  if (plan_id >= 0) {
    step.plan_id = plan_id;
    step.plan_signature = diagram_.plan(plan_id).signature;
    exhausted =
        backend_->Run(plan_id, budget, learn_dim, st, span, &step, &rows);
  } else {
    backend_->RunOptimal(at, st, span, &step, &rows);
  }
  res_.total_cost_units += step.charged;
  res_.page_reads += step.page_reads;
  res_.page_hits += step.page_hits;
  ++res_.num_executions;
  ObserveStep(step, &span, obs_.ins);

  int newly = 0;
  if (st != nullptr) {
    for (size_t d = 0; d < st->learned.size(); ++d) {
      if (st->learned[d] && !before.learned[d]) ++newly;
    }
    if (newly > 0 && obs_.ins != nullptr) {
      obs_.ins->dims_learned->Inc(static_cast<uint64_t>(newly));
    }
    if (obs_.tracer != nullptr && (newly > 0 || st->qrun != before.qrun)) {
      obs::Span ev = obs::Tracer::Begin(obs_.tracer, "driver.qrun", &run_);
      ev.Str("q_run", FormatQrun(st->qrun))
          .Num("dims_learned", static_cast<double>(std::count(
                                   st->learned.begin(), st->learned.end(),
                                   true)));
      for (size_t d = 0; d < st->learned.size(); ++d) {
        if (st->learned[d] && !before.learned[d]) {
          ev.Num("learned_dim", static_cast<double>(d));
        }
      }
      ev.End();
    }
  }

  const bool done = step.completed;
  // An unbudgeted execution ends the run even if it failed to build: such
  // a failure must not masquerade as a successful empty result.
  if (done || !std::isfinite(budget)) {
    res_.completed = done;
    res_.final_plan = step.plan_id;
    if (done) res_.final_plan_signature = step.plan_signature;
    res_.rows = std::move(rows);
  }
  res_.steps.push_back(std::move(step));
  if (done) return Outcome::kCompleted;
  return !exhausted && newly > 0 ? Outcome::kLearned : Outcome::kExhausted;
}

DriverResult Ladder::Finish(bool fallback, const LadderState* st) {
  res_.fallback_used = fallback;
  if (fallback && obs_.ins != nullptr) obs_.ins->fallbacks->Inc();
  if (st != nullptr) res_.discovered_selectivities = st->qrun;
  res_.wall_seconds =
      std::chrono::duration<double>(WallNow() - t0_).count();
  if (run_.enabled()) {
    run_.Num("contours_crossed", res_.contours_crossed)
        .Num("executions", res_.num_executions)
        .Num("total_cost_units", res_.total_cost_units)
        .Flag("completed", res_.completed)
        .Flag("fallback", fallback);
    if (st != nullptr) run_.Str("q_run", FormatQrun(st->qrun));
    run_.End();
  }
  return std::move(res_);
}

// One contour advanced past: every path that leaves contour k for k+1
// comes through here once, so a jump over several contours counts each.
// Contours a warm start skips are never entered and never counted here.
void Ladder::Crossing(size_t from_k, const char* why) {
  if (obs_.ins != nullptr) obs_.ins->contour_crossings->Inc();
  if (obs_.tracer != nullptr && why != nullptr) {
    obs::Span ev =
        obs::Tracer::Begin(obs_.tracer, "driver.contour_jump", &run_);
    ev.Num("from_contour", static_cast<double>(from_k)).Str("reason", why);
    ev.End();
  }
}

DriverResult Ladder::Basic() {
  run_ = obs::Tracer::BeginUnder(obs_.tracer, "driver.run_basic",
                                 obs_.parent_span, obs_.trace_id);
  const size_t n = bouquet_.contours.size();
  int last_plan = -1;
  for (size_t k = 0; k < n; ++k) {
    const BouquetContour& contour = bouquet_.contours[k];
    res_.contours_crossed = static_cast<int>(k);
    obs::Span contour_span =
        obs::Tracer::Begin(obs_.tracer, "driver.contour", &run_);
    contour_span.Num("contour", static_cast<double>(k))
        .Num("budget", contour.budget)
        .Num("num_plans", static_cast<double>(contour.plan_ids.size()));
    // The plan that ran last goes first, so a backend that resumes
    // consecutive executions of one plan can do so (Figure 4's P1).
    std::vector<int> order = contour.plan_ids;
    auto it = std::find(order.begin(), order.end(), last_plan);
    if (it != order.end()) std::rotate(order.begin(), it, it + 1);
    for (int plan : order) {
      if (Execute(k, plan, contour.budget, -1, {}, nullptr, &contour_span) ==
          Outcome::kCompleted) {
        return Finish(false, nullptr);
      }
      last_plan = plan;
    }
    Crossing(k, nullptr);
  }
  // Safety net: the basic ladder learns nothing, so the only location it
  // can still vouch for is the ESS max corner.
  res_.contours_crossed = static_cast<int>(n);
  const EssGrid& grid = diagram_.grid();
  Execute(n, -1, kInf, -1, grid.SelectivityAt(grid.MaxCorner()), nullptr,
          &run_);
  return Finish(true, nullptr);
}

void Ladder::Candidates(const BouquetContour& contour, const DimVector& qrun,
                        const std::vector<int>& executed,
                        std::vector<int>* all,
                        std::vector<int>* axis) const {
  DimVector p;
  for (size_t i = 0; i < contour.points.size(); ++i) {
    const int plan = contour.plan_at[i];
    if (std::find(executed.begin(), executed.end(), plan) != executed.end()) {
      continue;
    }
    diagram_.grid().SelectivityAt(contour.points[i], &p);
    bool quadrant = true;
    int diffs = 0;
    for (size_t d = 0; d < p.size(); ++d) {
      if (p[d] < qrun[d] * (1.0 - kRelEps)) {
        quadrant = false;
        break;
      }
      if (p[d] > qrun[d] * (1.0 + kRelEps)) ++diffs;
    }
    if (!quadrant) continue;
    PushUnique(all, plan);
    if (diffs <= 1) PushUnique(axis, plan);
  }
}

int Ladder::Pick(const std::vector<int>& pool, const LadderState& st) {
  std::vector<double> costs(pool.size());
  double min_cost = kInf;
  for (size_t i = 0; i < pool.size(); ++i) {
    costs[i] = backend_->PlanCost(pool[i], st.qrun);
    min_cost = std::min(min_cost, costs[i]);
  }
  int best = pool.front();
  int best_depth = -2;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (costs[i] > min_cost * (1.0 + kCostGroupWidth)) continue;
    const int depth = DeepestUnlearned(pool[i], st.learned);
    if (depth > best_depth) {
      best_depth = depth;
      best = pool[i];
    }
  }
  return best;
}

int Ladder::DeepestUnlearned(int plan_id, const std::vector<bool>& learned,
                             int* dim) {
  int best_depth = -1;
  for (size_t d = 0; d < learned.size(); ++d) {
    if (learned[d]) continue;
    const int depth = backend_->ErrorDepth(plan_id, static_cast<int>(d));
    if (depth > best_depth) {
      best_depth = depth;
      if (dim != nullptr) *dim = static_cast<int>(d);
    }
  }
  return best_depth;
}

DriverResult Ladder::Optimized(DimVector seed, int start_contour) {
  run_ = obs::Tracer::BeginUnder(obs_.tracer, "driver.run_optimized",
                                 obs_.parent_span, obs_.trace_id);
  LadderState st;
  st.learned.assign(seed.size(), false);
  st.qrun = std::move(seed);
  backend_->Seed(&st);
  const size_t n = bouquet_.contours.size();
  // Clamp a warm start to the LAST contour, not one past it: the Cmax
  // contour must still execute.
  size_t k = n == 0 ? 0
                    : std::min(static_cast<size_t>(std::max(0, start_contour)),
                               n - 1);
  res_.warm_contours_skipped = static_cast<int>(k);
  if (k > 0) run_.Num("warm_start_contour", static_cast<double>(k));
  auto all_learned = [&st]() {
    return std::all_of(st.learned.begin(), st.learned.end(),
                       [](bool b) { return b; });
  };

  for (; k < n; ++k) {
    const BouquetContour& contour = bouquet_.contours[k];
    const double budget = contour.budget * (1.0 + kRelEps);
    res_.contours_crossed = static_cast<int>(k);
    // Early skip: even the plan optimal at q_run overruns this budget.
    if (backend_->OptimalCost(st.qrun) > budget) {
      Crossing(k, "early_skip");
      continue;
    }
    std::vector<int> executed;
    for (;;) {
      // q_run == q_a: run the plan optimal there, no discovery left to do.
      if (all_learned()) {
        Execute(k, -1, kInf, -1, st.qrun, &st, &run_);
        return Finish(false, &st);
      }
      std::vector<int> remaining, axis;
      Candidates(contour, st.qrun, executed, &remaining, &axis);
      if (remaining.empty()) {
        Crossing(k, "contour_exhausted");
        break;
      }
      const int plan = Pick(axis.empty() ? remaining : axis, st);
      int learn_dim = -1;
      DeepestUnlearned(plan, st.learned, &learn_dim);
      const Outcome out =
          Execute(k, plan, contour.budget, learn_dim, {}, &st, &run_);
      if (out == Outcome::kCompleted) return Finish(false, &st);
      // A plan stays a candidate while its runs finish within budget and
      // each learns a new dimension: it has not failed this contour yet.
      if (out == Outcome::kExhausted) executed.push_back(plan);
      // Early jump: q_run has moved past this contour.
      if (backend_->OptimalCost(st.qrun) > budget) {
        Crossing(k, "qrun_advanced");
        break;
      }
    }
  }
  // Safety net: every budget was exhausted (q_a above the last contour,
  // possible when the grid under-resolves the ESS).
  res_.contours_crossed = static_cast<int>(n);
  Execute(n, -1, kInf, -1, st.qrun, &st, &run_);
  return Finish(true, &st);
}

}  // namespace

LadderInstruments LadderInstruments::Resolve(obs::MetricsRegistry& metrics) {
  LadderInstruments ins;
  ins.executions = metrics.GetCounter(
      "bouquet_executions_total",
      "Plan executions issued (partial, spill, final and safe-plan)");
  ins.contour_crossings = metrics.GetCounter(
      "bouquet_contour_crossings_total",
      "Isocost contours the ladder advanced past without completing");
  ins.spills = metrics.GetCounter(
      "bouquet_spills_total",
      "Spill-mode (subtree-only) learning executions");
  ins.fallbacks = metrics.GetCounter(
      "bouquet_fallbacks_total",
      "Safety-net unbounded executions after every contour budget was "
      "exhausted");
  ins.dims_learned = metrics.GetCounter(
      "bouquet_driver_dims_learned_total",
      "Error dimensions learned exactly from instrumentation counters");
  ins.budget_utilization = metrics.GetHistogram(
      "bouquet_driver_budget_utilization",
      "charged/budget ratio per budget-limited execution",
      obs::BudgetUtilizationBuckets());
  return ins;
}

LadderObs LadderObs::Under(obs::Tracer* tracer, const obs::Span* parent,
                           const LadderInstruments* ins) {
  LadderObs o;
  o.tracer = tracer;
  o.ins = ins;
  if (parent != nullptr && parent->enabled()) {
    o.parent_span = parent->id();
    o.trace_id = parent->trace_id();
  }
  return o;
}

void ObserveStep(const DriverStep& step, obs::Span* span,
                 const LadderInstruments* ins) {
  if (span != nullptr && span->enabled()) {
    span->Num("contour", step.contour)
        .Num("plan_id", step.plan_id)
        .Num("budget", step.budget)
        .Num("charged", step.charged)
        .Num("wall_seconds", step.wall_seconds)
        .Num("page_reads", static_cast<double>(step.page_reads))
        .Num("page_hits", static_cast<double>(step.page_hits))
        .Flag("completed", step.completed)
        .Flag("spilled", step.spilled)
        .Num("learned_dim", step.learned_dim)
        .Str("signature", step.plan_signature);
    span->End();
  }
  if (ins == nullptr) return;
  ins->executions->Inc();
  if (step.spilled) ins->spills->Inc();
  if (std::isfinite(step.budget) && step.budget > 0.0) {
    ins->budget_utilization->Observe(step.charged / step.budget);
  }
}

DriverResult RunBasicLadder(const PlanBouquet& bouquet,
                            const PlanDiagram& diagram, StepBackend* backend,
                            const LadderObs& obs) {
  return Ladder(bouquet, diagram, backend, obs).Basic();
}

DriverResult RunOptimizedLadder(const PlanBouquet& bouquet,
                                const PlanDiagram& diagram,
                                StepBackend* backend, DimVector seed,
                                int start_contour, const LadderObs& obs) {
  return Ladder(bouquet, diagram, backend, obs)
      .Optimized(std::move(seed), start_contour);
}

ContourHistogram HistogramSteps(const std::vector<DriverStep>& steps) {
  ContourHistogram h;
  for (const DriverStep& step : steps) {
    if (step.contour < 0) {
      // kNoContour (and any other negative sentinel) buckets separately:
      // a native run is not a ladder execution.
      ++h.native;
      continue;
    }
    if (static_cast<size_t>(step.contour) >= h.by_contour.size()) {
      h.by_contour.resize(static_cast<size_t>(step.contour) + 1, 0);
    }
    ++h.by_contour[static_cast<size_t>(step.contour)];
  }
  return h;
}

}  // namespace bouquet
