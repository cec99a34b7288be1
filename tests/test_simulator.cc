// Tests for bouquet/simulator: completion guarantees, MSO bounds,
// optimized-mode behavior, and bounded cost-model error (Section 3.4).

#include <gtest/gtest.h>

#include "bouquet/bounds.h"
#include "bouquet/ladder.h"
#include "bouquet/simulator.h"
#include "ess/posp_generator.h"
#include "robustness/metrics.h"
#include "workloads/spaces.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace {

struct Pipeline {
  Pipeline(const std::string& space_name, std::vector<int> res)
      : tpch(MakeTpchCatalog(1.0)),
        tpcds(MakeTpcdsCatalog(100.0)),
        space(GetSpace(space_name, tpch, tpcds)),
        grid(space.query, std::move(res)),
        diagram(GeneratePosp(space.query,
                             space.benchmark == "H" ? tpch : tpcds,
                             CostParams::Postgres(), grid)),
        opt(space.query, space.benchmark == "H" ? tpch : tpcds,
            CostParams::Postgres()),
        bouquet(BuildBouquet(diagram, &opt)) {}

  Catalog tpch, tpcds;
  NamedSpace space;
  EssGrid grid;
  PlanDiagram diagram;
  QueryOptimizer opt;
  PlanBouquet bouquet;
};

TEST(SimulatorTest, BasicCompletesEverywhereNoFallback) {
  Pipeline p("3D_H_Q5", {8, 8, 8});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  for (uint64_t qa = 0; qa < p.grid.num_points(); ++qa) {
    const SimResult run = sim.RunBasic(qa);
    EXPECT_TRUE(run.completed);
    EXPECT_FALSE(run.fallback_used) << "qa=" << qa;
    EXPECT_GE(sim.SubOpt(run, qa), 1.0 - 1e-9);
  }
}

TEST(SimulatorTest, OptimizedCompletesEverywhereNoFallback) {
  Pipeline p("3D_H_Q5", {8, 8, 8});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  for (uint64_t qa = 0; qa < p.grid.num_points(); ++qa) {
    const SimResult run = sim.RunOptimized(qa);
    EXPECT_TRUE(run.completed);
    EXPECT_FALSE(run.fallback_used) << "qa=" << qa;
  }
}

TEST(SimulatorTest, BasicMsoWithinTheoreticalBound) {
  Pipeline p("3D_DS_Q96", {8, 8, 8});
  // Use restart accounting (no continuation) to match the Theorem 3
  // analysis exactly.
  SimOptions opts;
  opts.continue_same_plan = false;
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt, opts);
  const double bound = MultiDMsoBound(2.0, p.bouquet.rho(), 0.2);
  for (uint64_t qa = 0; qa < p.grid.num_points(); ++qa) {
    const SimResult run = sim.RunBasic(qa);
    EXPECT_LE(sim.SubOpt(run, qa), bound * (1 + 1e-6)) << "qa=" << qa;
  }
}

TEST(SimulatorTest, ContinuationNeverWorseThanRestart) {
  Pipeline p("3D_H_Q7", {8, 8, 8});
  SimOptions restart;
  restart.continue_same_plan = false;
  BouquetSimulator sim_cont(p.bouquet, p.diagram, &p.opt);
  BouquetSimulator sim_rest(p.bouquet, p.diagram, &p.opt, restart);
  for (uint64_t qa = 0; qa < p.grid.num_points(); qa += 7) {
    const double cont = sim_cont.RunBasic(qa).total_cost;
    const double rest = sim_rest.RunBasic(qa).total_cost;
    EXPECT_LE(cont, rest * (1 + 1e-9)) << "qa=" << qa;
  }
}

TEST(SimulatorTest, OptimizedNoWorseOnAverage) {
  Pipeline p("5D_DS_Q19", {5, 5, 5, 5, 5});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  const BouquetProfile basic = ComputeBouquetProfile(sim, false);
  const BouquetProfile optimized = ComputeBouquetProfile(sim, true);
  EXPECT_FALSE(basic.any_fallback);
  EXPECT_FALSE(optimized.any_fallback);
  // The optimizations (first-quadrant pruning, early jumps) should pay off
  // in executions and not blow up ASO.
  EXPECT_LE(optimized.avg_executions, basic.avg_executions * 1.05);
  EXPECT_LE(optimized.aso, basic.aso * 1.5);
}

TEST(SimulatorTest, FirstQuadrantInvariantHolds) {
  // Section 5.2: the running location q_run must never overestimate the
  // actual location in any dimension, and must advance monotonically.
  Pipeline p("3D_H_Q5", {8, 8, 8});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  for (uint64_t qa = 0; qa < p.grid.num_points(); qa += 3) {
    const GridPoint qa_pt = p.grid.PointAt(qa);
    const SimResult run = sim.RunOptimized(qa);
    ASSERT_EQ(run.qrun_trace.size(), run.steps.size());
    GridPoint prev(p.grid.dims(), 0);
    for (const GridPoint& qrun : run.qrun_trace) {
      EXPECT_TRUE(EssGrid::Dominates(qrun, qa_pt))
          << "q_run overtook q_a at qa=" << qa;
      EXPECT_TRUE(EssGrid::Dominates(prev, qrun))
          << "q_run regressed at qa=" << qa;
      prev = qrun;
    }
  }
}

TEST(SimulatorTest, QrunConvergesTowardQa) {
  // Discovery should actually move: for a far-corner q_a, the final q_run
  // must strictly dominate the origin.
  Pipeline p("3D_DS_Q96", {8, 8, 8});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  const uint64_t qa = p.grid.num_points() - 1;
  const SimResult run = sim.RunOptimized(qa);
  ASSERT_TRUE(run.completed);
  ASSERT_FALSE(run.qrun_trace.empty());
  const GridPoint& last = run.qrun_trace.back();
  int total = 0;
  for (int d = 0; d < p.grid.dims(); ++d) total += last[d];
  EXPECT_GT(total, 0) << "no selectivity learning happened";
}

TEST(SimulatorTest, SubOptAtLeastOne) {
  Pipeline p("3D_DS_Q15", {6, 6, 6});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  for (uint64_t qa = 0; qa < p.grid.num_points(); qa += 11) {
    EXPECT_GE(sim.SubOpt(sim.RunBasic(qa), qa), 1.0 - 1e-9);
    EXPECT_GE(sim.SubOpt(sim.RunOptimized(qa), qa), 1.0 - 1e-9);
  }
}

TEST(SimulatorTest, StepLogsConsistent) {
  Pipeline p("3D_H_Q5", {8, 8, 8});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  const uint64_t qa = p.grid.num_points() - 1;  // max corner
  const SimResult run = sim.RunBasic(qa);
  ASSERT_TRUE(run.completed);
  double total = 0.0;
  for (const auto& s : run.steps) total += s.charged;
  EXPECT_NEAR(total, run.total_cost, total * 1e-9);
  EXPECT_EQ(run.steps.size(), static_cast<size_t>(run.num_executions));
  EXPECT_TRUE(run.steps.back().completed);
  for (size_t i = 0; i + 1 < run.steps.size(); ++i) {
    EXPECT_FALSE(run.steps[i].completed);
    EXPECT_LE(run.steps[i].contour, run.steps[i + 1].contour);
  }
}

TEST(SimulatorTest, CostMatrixMatchesRecost) {
  Pipeline p("3D_H_Q5", {6, 6, 6});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  for (int pid : p.bouquet.plan_ids) {
    for (uint64_t q = 0; q < p.grid.num_points(); q += 31) {
      const double direct =
          p.opt.CostPlanAt(*p.diagram.plan(pid).root, p.grid.SelectivityAt(q));
      EXPECT_DOUBLE_EQ(sim.EstimatedCost(pid, q), direct);
    }
  }
}

// Section 3.4: bounded modeling error inflates the worst-case *guarantee*
// by at most (1+delta)^2.
class ModelErrorSweep : public ::testing::TestWithParam<double> {};

TEST_P(ModelErrorSweep, MsoInflationBounded) {
  const double delta = GetParam();
  Pipeline p("3D_DS_Q96", {7, 7, 7});
  SimOptions opts;
  opts.model_error_delta = delta;
  BouquetSimulator noisy(p.bouquet, p.diagram, &p.opt, opts);

  double mso_noisy = 0.0;
  for (uint64_t qa = 0; qa < p.grid.num_points(); ++qa) {
    mso_noisy = std::max(mso_noisy, noisy.SubOpt(noisy.RunBasic(qa), qa));
  }
  const double guarantee = MultiDMsoBound(2.0, p.bouquet.rho(), 0.2);
  EXPECT_LE(mso_noisy, guarantee * ModelErrorInflation(delta) * (1 + 1e-9))
      << "delta=" << delta;
}

INSTANTIATE_TEST_SUITE_P(Deltas, ModelErrorSweep,
                         ::testing::Values(0.1, 0.2, 0.4));

// ---------------------------------------------------------------------------
// Differential check of the ladder/backend seam: a backend that prices and
// charges every plan live through QueryOptimizer (CostPlanAt, OptimizeAt)
// at q_a, with the surface backend's grid-stepping spill model and resume
// accounting, must drive the shared ladder through exactly the step
// sequence BouquetSimulator produces from its precomputed cost matrix.
// ---------------------------------------------------------------------------

class ModelCostBackend : public StepBackend {
 public:
  ModelCostBackend(const Pipeline& p, QueryOptimizer* opt, uint64_t qa,
                   bool resume)
      : p_(p),
        opt_(opt),
        qa_sel_(p.grid.SelectivityAt(qa)),
        qa_pt_(p.grid.PointAt(qa)),
        resume_(resume) {}

  void Seed(LadderState* st) override {
    for (int d = 0; d < p_.grid.dims(); ++d) {
      const int idx = std::min(p_.grid.AxisFloor(d, st->qrun[d]), qa_pt_[d]);
      st->qrun[d] = p_.grid.axis(d)[idx];
      st->learned[d] = idx == qa_pt_[d];
    }
  }
  double OptimalCost(const DimVector& qrun) override {
    return opt_->OptimizeAt(qrun).cost;
  }
  double PlanCost(int plan_id, const DimVector& qrun) override {
    return opt_->CostPlanAt(Root(plan_id), qrun);
  }
  int ErrorDepth(int plan_id, int dim) override {
    const ErrorDimension& ed = opt_->query().error_dims[dim];
    return ErrorNodeMaxDepth(Root(plan_id), ed.kind == DimKind::kJoin,
                             ed.predicate_index);
  }
  bool Run(int plan_id, double budget, int spill_dim, LadderState* st,
           const obs::Span&, DriverStep* step, std::vector<Row>*) override {
    const double cost = opt_->CostPlanAt(Root(plan_id), qa_sel_);
    const double prior = Prior(plan_id);
    step->completed = cost <= budget * (1.0 + 1e-9);
    step->charged = (step->completed ? cost : budget) - prior;
    if (step->completed) return false;
    last_plan_ = plan_id;
    last_progress_ = budget;
    if (st == nullptr || spill_dim < 0) return true;
    // Step q_run along the learning dimension while the plan's modelled
    // cost stays within budget, capped at the truth.
    GridPoint at(st->qrun.size());
    for (size_t d = 0; d < at.size(); ++d) {
      at[d] = p_.grid.AxisFloor(static_cast<int>(d), st->qrun[d]);
    }
    while (at[spill_dim] < qa_pt_[spill_dim]) {
      ++at[spill_dim];
      if (PlanCost(plan_id, p_.grid.SelectivityAt(at)) > budget * (1 + 1e-9)) {
        --at[spill_dim];
        break;
      }
    }
    st->qrun[spill_dim] = p_.grid.axis(spill_dim)[at[spill_dim]];
    st->learned[spill_dim] = at[spill_dim] == qa_pt_[spill_dim];
    return true;
  }
  void RunOptimal(const DimVector&, LadderState*, const obs::Span&,
                  DriverStep* step, std::vector<Row>*) override {
    const Plan plan = opt_->OptimizeAt(qa_sel_);
    step->plan_id = p_.diagram.FindPlan(plan.signature);
    step->charged = plan.cost - Prior(step->plan_id);
    step->completed = true;
  }

 private:
  const PlanNode& Root(int plan_id) const {
    return *p_.diagram.plan(plan_id).root;
  }
  double Prior(int plan_id) const {
    return resume_ && plan_id == last_plan_ ? last_progress_ : 0.0;
  }

  const Pipeline& p_;
  QueryOptimizer* opt_;
  DimVector qa_sel_;
  GridPoint qa_pt_;
  bool resume_;
  int last_plan_ = -1;
  double last_progress_ = 0.0;
};

void ExpectSameSteps(const SimResult& sim, const DriverResult& model,
                     const std::string& what) {
  ASSERT_EQ(sim.steps.size(), model.steps.size()) << what;
  for (size_t i = 0; i < sim.steps.size(); ++i) {
    const SimStep& a = sim.steps[i];
    const DriverStep& b = model.steps[i];
    EXPECT_EQ(a.contour, b.contour) << what << " step " << i;
    EXPECT_EQ(a.plan_id, b.plan_id) << what << " step " << i;
    EXPECT_EQ(a.budget, b.budget) << what << " step " << i;
    EXPECT_EQ(a.charged, b.charged) << what << " step " << i;
    EXPECT_EQ(a.completed, b.completed) << what << " step " << i;
    EXPECT_EQ(a.learned_dim, b.learned_dim) << what << " step " << i;
  }
  EXPECT_EQ(sim.fallback_used, model.fallback_used) << what;
}

class LadderSeamTest
    : public ::testing::TestWithParam<std::pair<const char*, int>> {};

TEST_P(LadderSeamTest, ModelCostBackendMatchesSimulatorEverywhere) {
  const auto [space, res] = GetParam();
  Pipeline p(space, std::vector<int>(3, res));
  for (bool resume : {true, false}) {
    SimOptions opts;
    opts.continue_same_plan = resume;
    const BouquetSimulator sim(p.bouquet, p.diagram, &p.opt, opts);
    const int num_contours = static_cast<int>(p.bouquet.contours.size());
    for (uint64_t qa = 0; qa < p.grid.num_points(); ++qa) {
      const std::string at = std::string(space) + " qa=" + std::to_string(qa) +
                             (resume ? " resume" : " restart");
      {
        ModelCostBackend model(p, &p.opt, qa, resume);
        ExpectSameSteps(sim.RunBasic(qa),
                        RunBasicLadder(p.bouquet, p.diagram, &model, {}),
                        at + " basic");
      }
      for (int warm : {0, 1, num_contours / 2, num_contours}) {
        ModelCostBackend model(p, &p.opt, qa, resume);
        ExpectSameSteps(
            sim.RunOptimizedWarm(qa, warm),
            RunOptimizedLadder(p.bouquet, p.diagram, &model,
                               p.grid.SelectivityAt(p.grid.Origin()), warm,
                               {}),
            at + " warm=" + std::to_string(warm));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Templates, LadderSeamTest,
                         ::testing::Values(std::make_pair("3D_H_Q5", 6),
                                           std::make_pair("3D_DS_Q96", 6)));

}  // namespace
}  // namespace bouquet
