#include "bouquet/simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "bouquet/ladder.h"

namespace bouquet {

namespace {

constexpr double kEps = 1e-9;

// SplitMix-style mix for the deterministic modeling-error factor.
uint64_t MixHash(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x7f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

BouquetSimulator::BouquetSimulator(const PlanBouquet& bouquet,
                                   const PlanDiagram& diagram,
                                   QueryOptimizer* opt, Options options)
    : bouquet_(&bouquet), diagram_(&diagram), options_(options) {
  dense_of_plan_.assign(diagram.num_plans(), -1);
  for (int pid : bouquet.plan_ids) {
    dense_of_plan_[pid] = static_cast<int>(plan_of_dense_.size());
    plan_of_dense_.push_back(pid);
  }
  const EssGrid& grid = diagram.grid();
  const uint64_t n = grid.num_points();
  est_cost_.resize(plan_of_dense_.size());
  for (size_t d = 0; d < plan_of_dense_.size(); ++d) {
    est_cost_[d].resize(n);
    const PlanNode& root = *diagram.plan(plan_of_dense_[d]).root;
    for (uint64_t i = 0; i < n; ++i) {
      est_cost_[d][i] = opt->CostPlanAt(root, grid.SelectivityAt(i));
    }
  }
  // Error-node depths per plan and dimension (Section 5.1 heuristic).
  const QuerySpec& q = opt->query();
  dim_depth_.resize(plan_of_dense_.size());
  for (size_t d = 0; d < plan_of_dense_.size(); ++d) {
    dim_depth_[d].resize(q.error_dims.size());
    const PlanNode& root = *diagram.plan(plan_of_dense_[d]).root;
    for (size_t dim = 0; dim < q.error_dims.size(); ++dim) {
      const ErrorDimension& ed = q.error_dims[dim];
      dim_depth_[d][dim] = ErrorNodeMaxDepth(
          root, ed.kind == DimKind::kJoin, ed.predicate_index);
    }
  }

  // Safe plan for degraded-mode serving: the bouquet plan whose worst-case
  // actual cost over the ESS is smallest. est_cost_ is already materialized,
  // so this is one scan; RunSafe then serves in O(1).
  safe_budget_ = std::numeric_limits<double>::infinity();
  for (size_t d = 0; d < plan_of_dense_.size(); ++d) {
    double worst = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      worst = std::max(worst, ActualCost(plan_of_dense_[d], i));
    }
    if (worst < safe_budget_) {
      safe_budget_ = worst;
      safe_plan_ = plan_of_dense_[d];
    }
  }
}

int BouquetSimulator::DenseIndex(int plan_id) const {
  const int d = dense_of_plan_[plan_id];
  assert(d >= 0 && "plan not in bouquet");
  return d;
}

double BouquetSimulator::EstimatedCost(int plan_id, uint64_t point) const {
  return est_cost_[DenseIndex(plan_id)][point];
}

double BouquetSimulator::ModelErrorFactor(int plan_id, uint64_t point) const {
  if (options_.model_error_delta <= 0.0) return 1.0;
  // Deterministic uniform draw in [-1, 1], mapped to (1+delta)^u.
  const uint64_t h = MixHash(static_cast<uint64_t>(plan_id) + 1, point);
  const double u = 2.0 * (static_cast<double>(h >> 11) * 0x1.0p-53) - 1.0;
  return std::pow(1.0 + options_.model_error_delta, u);
}

double BouquetSimulator::ActualCost(int plan_id, uint64_t point) const {
  return EstimatedCost(plan_id, point) * ModelErrorFactor(plan_id, point);
}

double BouquetSimulator::ActualOptimal(uint64_t point) const {
  const double pic = diagram_->cost_at(point);
  if (options_.model_error_delta <= 0.0) return pic;
  return pic * ModelErrorFactor(diagram_->plan_at(point), point);
}

// The ladder's surface backend for one run at q_a: plans are priced on the
// precomputed cost matrix, a run completes iff the plan's actual cost at
// q_a fits its budget, and spill learning steps q_run along the learning
// dimension to the furthest grid index the plan's estimated cost still
// fits, capped at the truth. Knowing q_a, it pins down every dimension
// q_run has reached, and its unbudgeted run is the optimal plan at q_a:
// exact once every dimension is learned (q_run == q_a), the oracle charge
// in the safety net.
class BouquetSimulator::Surface : public StepBackend {
 public:
  Surface(const BouquetSimulator& sim, uint64_t qa,
          std::vector<GridPoint>* trace)
      : sim_(sim),
        grid_(sim.diagram_->grid()),
        qa_(qa),
        qa_pt_(grid_.PointAt(qa)),
        trace_(trace) {}

  // Clamps the seed into the first quadrant of q_a, so a (contract-
  // violating) over-estimate degrades to partial seeding instead of losing
  // the completion guarantee.
  void Seed(LadderState* st) override {
    for (int d = 0; d < grid_.dims(); ++d) {
      const int idx = std::min(grid_.AxisFloor(d, st->qrun[d]), qa_pt_[d]);
      st->qrun[d] = grid_.axis(d)[idx];
      st->learned[d] = idx == qa_pt_[d];
    }
  }
  double OptimalCost(const DimVector& qrun) override {
    return sim_.diagram_->cost_at(grid_.LinearIndex(Point(qrun)));
  }
  double PlanCost(int plan_id, const DimVector& qrun) override {
    return sim_.EstimatedCost(plan_id, grid_.LinearIndex(Point(qrun)));
  }
  int ErrorDepth(int plan_id, int dim) override {
    return sim_.dim_depth_[sim_.DenseIndex(plan_id)][dim];
  }

  bool Run(int plan_id, double budget, int spill_dim, LadderState* st,
           const obs::Span& /*span*/, DriverStep* step,
           std::vector<Row>* /*rows*/) override {
    const double cost = sim_.ActualCost(plan_id, qa_);
    const double prior = Prior(plan_id);
    step->completed = cost <= budget * (1.0 + kEps);
    step->charged = (step->completed ? cost : budget) - prior;
    if (!step->completed) {
      last_plan_ = plan_id;
      last_progress_ = budget;
      step->spilled = spill_dim >= 0;
    }
    if (st == nullptr) return !step->completed;
    if (step->spilled) {
      GridPoint p = Point(st->qrun);
      const uint64_t base = grid_.LinearIndex(p);
      const std::vector<double>& cost_at =
          sim_.est_cost_[sim_.DenseIndex(plan_id)];
      int idx = p[spill_dim];
      for (int trial = idx + 1; trial <= qa_pt_[spill_dim]; ++trial) {
        if (cost_at[grid_.LinearWithDim(base, spill_dim, trial)] >
            budget * (1.0 + kEps)) {
          break;
        }
        idx = trial;
      }
      st->qrun[spill_dim] = grid_.axis(spill_dim)[idx];
      if (idx == qa_pt_[spill_dim]) st->learned[spill_dim] = true;
    }
    trace_->push_back(Point(st->qrun));
    return !step->completed;
  }

  void RunOptimal(const DimVector& /*at*/, LadderState* st,
                  const obs::Span& /*span*/, DriverStep* step,
                  std::vector<Row>* /*rows*/) override {
    step->plan_id = sim_.diagram_->plan_at(qa_);
    step->plan_signature = sim_.diagram_->plan(step->plan_id).signature;
    step->charged = sim_.ActualOptimal(qa_) - Prior(step->plan_id);
    step->completed = true;
    if (st != nullptr) trace_->push_back(Point(st->qrun));
  }

 private:
  GridPoint Point(const DimVector& sels) const {
    GridPoint p(sels.size());
    for (size_t d = 0; d < sels.size(); ++d) {
      p[d] = grid_.AxisFloor(static_cast<int>(d), sels[d]);
    }
    return p;
  }
  // Progress a resumed plan already paid for.
  double Prior(int plan_id) const {
    return sim_.options_.continue_same_plan && plan_id == last_plan_
               ? last_progress_
               : 0.0;
  }

  const BouquetSimulator& sim_;
  const EssGrid& grid_;
  uint64_t qa_;
  GridPoint qa_pt_;
  std::vector<GridPoint>* trace_;  // q_run after each optimized step
  int last_plan_ = -1;
  double last_progress_ = 0.0;
};

namespace {

SimResult ToSimResult(const DriverResult& r, int num_contours) {
  SimResult s;
  s.completed = r.completed;
  s.fallback_used = r.fallback_used;
  s.total_cost = r.total_cost_units;
  s.num_executions = r.num_executions;
  s.final_plan = r.final_plan;
  s.final_contour = std::min(r.contours_crossed, num_contours - 1);
  s.start_contour = r.warm_contours_skipped;
  s.steps.reserve(r.steps.size());
  for (const DriverStep& d : r.steps) {
    s.steps.push_back(
        {d.contour, d.plan_id, d.budget, d.charged, d.completed,
         d.learned_dim});
  }
  return s;
}

}  // namespace

SimResult BouquetSimulator::RunBasic(uint64_t qa) const {
  Surface surface(*this, qa, nullptr);  // q_run is not tracked
  return ToSimResult(RunBasicLadder(*bouquet_, *diagram_, &surface, {}),
                     static_cast<int>(bouquet_->contours.size()));
}

SimResult BouquetSimulator::RunSafe(uint64_t qa) const {
  SimResult res;
  assert(safe_plan_ >= 0 && "bouquet has no plans");
  SimStep step;
  step.contour = static_cast<int>(bouquet_->contours.size()) - 1;
  step.plan_id = safe_plan_;
  step.budget = safe_budget_;
  step.charged = ActualCost(safe_plan_, qa);
  step.completed = true;
  res.steps.push_back(step);
  res.total_cost = step.charged;
  res.num_executions = 1;
  res.completed = true;
  res.final_plan = safe_plan_;
  res.final_contour = step.contour;
  return res;
}

SimResult BouquetSimulator::RunOptimized(uint64_t qa) const {
  return RunOptimizedFrom(qa, diagram_->grid().Origin(), 0, {});
}

SimResult BouquetSimulator::RunOptimizedWarm(
    uint64_t qa, int start_contour, obs::Tracer* tracer,
    const obs::Span* parent, const LadderInstruments* ins) const {
  return RunOptimizedFrom(qa, diagram_->grid().Origin(), start_contour,
                          LadderObs::Under(tracer, parent, ins));
}

SimResult BouquetSimulator::RunOptimizedSeeded(uint64_t qa,
                                               const GridPoint& seed) const {
  // Keep the seed on the grid; Surface::Seed clamps it below q_a.
  const EssGrid& grid = diagram_->grid();
  GridPoint on_grid = seed;
  for (int d = 0; d < grid.dims(); ++d) {
    on_grid[d] = std::clamp(on_grid[d], 0, grid.resolution(d) - 1);
  }
  return RunOptimizedFrom(qa, on_grid, 0, {});
}

SimResult BouquetSimulator::RunOptimizedFrom(uint64_t qa,
                                             const GridPoint& seed,
                                             int start_contour,
                                             const LadderObs& obs) const {
  std::vector<GridPoint> trace;
  Surface surface(*this, qa, &trace);
  SimResult res = ToSimResult(
      RunOptimizedLadder(*bouquet_, *diagram_, &surface,
                         diagram_->grid().SelectivityAt(seed), start_contour,
                         obs),
      static_cast<int>(bouquet_->contours.size()));
  res.qrun_trace = std::move(trace);
  return res;
}

double BouquetSimulator::SubOpt(const SimResult& result, uint64_t qa) const {
  const double optimal = ActualOptimal(qa);
  assert(optimal > 0.0);
  return result.total_cost / optimal;
}

}  // namespace bouquet
