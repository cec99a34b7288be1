// Tests for grouped aggregation (SPJA queries): optimizer wrapping, recost
// consistency, executor correctness against reference computations, and the
// full bouquet pipeline over an aggregate query.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "bouquet/bouquet.h"
#include "bouquet/simulator.h"
#include "ess/pic.h"
#include "ess/posp_generator.h"
#include "executor/builder.h"
#include "workloads/spaces.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace {

class AggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchDataOptions opts;
    opts.mini_scale = 0.1;
    MakeTpchDatabase(&db_, opts);
    SyncTpchCatalog(db_, &catalog_);
    query_ = Make2DHQ8a(catalog_);
    BindSelectionConstants(&query_, catalog_, {0.4, 0.5});
    // Group by part size, sum the lineitem quantities.
    query_.aggregate.enabled = true;
    query_.aggregate.group_by = {{"part", "p_size"}};
    query_.aggregate.func = AggregateSpec::Func::kSum;
    query_.aggregate.agg_table = "lineitem";
    query_.aggregate.agg_column = "l_quantity";
    ASSERT_TRUE(query_.Validate(catalog_).ok());
    opt_ = std::make_unique<QueryOptimizer>(query_, catalog_,
                                            CostParams::Postgres());
  }

  // Reference: group sums computed by brute force over the join.
  std::map<int64_t, int64_t> ReferenceSums() {
    const DataTable& part = db_.table("part");
    const DataTable& lineitem = db_.table("lineitem");
    const DataTable& orders = db_.table("orders");
    std::map<int64_t, int64_t> part_size;  // partkey -> size (if passing)
    for (int64_t r = 0; r < part.num_rows(); ++r) {
      if (part.value(1, r) < query_.filters[0].constant) {
        part_size[part.value(0, r)] = part.value(2, r);
      }
    }
    std::set<int64_t> order_pass;
    for (int64_t r = 0; r < orders.num_rows(); ++r) {
      if (orders.value(3, r) < query_.filters[1].constant) {
        order_pass.insert(orders.value(0, r));
      }
    }
    std::map<int64_t, int64_t> sums;
    const int lpk = lineitem.ColumnIndex("l_partkey");
    const int lok = lineitem.ColumnIndex("l_orderkey");
    const int lq = lineitem.ColumnIndex("l_quantity");
    for (int64_t r = 0; r < lineitem.num_rows(); ++r) {
      auto it = part_size.find(lineitem.value(lpk, r));
      if (it == part_size.end()) continue;
      if (!order_pass.count(lineitem.value(lok, r))) continue;
      sums[it->second] += lineitem.value(lq, r);
    }
    return sums;
  }

  Database db_;
  Catalog catalog_;
  QuerySpec query_;
  std::unique_ptr<QueryOptimizer> opt_;
};

TEST_F(AggregateTest, OptimizerWrapsRoot) {
  const Plan plan = opt_->OptimizeAt({0.4, 0.5});
  EXPECT_EQ(plan.root->op, OpType::kHashAggregate);
  ASSERT_TRUE(plan.root->left != nullptr);
  EXPECT_TRUE(plan.root->left->is_join());
  EXPECT_EQ(plan.signature.rfind("AGG(", 0), 0u);
  // Output cardinality bounded by the group column's NDV (p_size: 50).
  EXPECT_LE(plan.rows, 50.0 + 1e-9);
}

TEST_F(AggregateTest, RecostMatchesOptimizerCost) {
  for (double s : {0.01, 0.2, 0.8}) {
    const Plan plan = opt_->OptimizeAt({s, s});
    const double recost = opt_->CostPlanAt(*plan.root, {s, s});
    EXPECT_NEAR(recost, plan.cost, plan.cost * 1e-9) << "s=" << s;
  }
}

TEST_F(AggregateTest, ExecutorMatchesReference) {
  const auto expected = ReferenceSums();
  const Plan plan = opt_->OptimizeAt({0.4, 0.5});
  ExecContext ctx;
  ctx.query = &query_;
  ctx.catalog = &catalog_;
  ctx.db = &db_;
  ctx.cost_model = &opt_->cost_model();
  std::vector<Row> rows;
  const ExecutionOutcome out = ExecutePlan(
      ExecEngine::kScalar, *plan.root, &ctx,
      std::numeric_limits<double>::infinity(), &rows);
  ASSERT_EQ(out.status, ExecResult::kDone);
  ASSERT_EQ(rows.size(), expected.size());
  for (const Row& row : rows) {
    ASSERT_EQ(row.size(), 2u);  // group key + sum
    auto it = expected.find(row[0]);
    ASSERT_NE(it, expected.end()) << "unexpected group " << row[0];
    EXPECT_EQ(row[1], it->second) << "group " << row[0];
  }
}

TEST_F(AggregateTest, EmissionOrderIsSortedByGroupKey) {
  // The hash aggregate drains its unordered table into a sort before
  // emitting (the bouquet-determinism lint's sanctioned escape): output
  // order must be ascending group key, never hash-bucket order. If this
  // regresses, charged-cost replays stay bit-equal but row order becomes
  // a function of the allocator, breaking the differential harnesses.
  const Plan plan = opt_->OptimizeAt({0.4, 0.5});
  ExecContext ctx;
  ctx.query = &query_;
  ctx.catalog = &catalog_;
  ctx.db = &db_;
  ctx.cost_model = &opt_->cost_model();
  std::vector<Row> rows;
  const ExecutionOutcome out = ExecutePlan(
      ExecEngine::kScalar, *plan.root, &ctx,
      std::numeric_limits<double>::infinity(), &rows);
  ASSERT_EQ(out.status, ExecResult::kDone);
  ASSERT_GT(rows.size(), 1u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1][0], rows[i][0])
        << "group keys out of order at row " << i;
  }
}

TEST_F(AggregateTest, CountMinMaxFunctions) {
  ExecContext ctx;
  ctx.query = &query_;
  ctx.catalog = &catalog_;
  ctx.db = &db_;
  ctx.cost_model = &opt_->cost_model();
  for (auto func : {AggregateSpec::Func::kCount, AggregateSpec::Func::kMin,
                    AggregateSpec::Func::kMax}) {
    query_.aggregate.func = func;
    QueryOptimizer opt(query_, catalog_, CostParams::Postgres());
    const Plan plan = opt.OptimizeAt({0.4, 0.5});
    std::vector<Row> rows;
    const ExecutionOutcome out = ExecutePlan(
        ExecEngine::kScalar, *plan.root, &ctx,
        std::numeric_limits<double>::infinity(), &rows);
    ASSERT_EQ(out.status, ExecResult::kDone);
    EXPECT_FALSE(rows.empty());
    if (func == AggregateSpec::Func::kMin ||
        func == AggregateSpec::Func::kMax) {
      for (const Row& row : rows) {
        EXPECT_GE(row[1], 1);   // l_quantity domain
        EXPECT_LE(row[1], 50);
      }
    }
  }
  query_.aggregate.func = AggregateSpec::Func::kSum;
}

TEST_F(AggregateTest, ScalarCountOverEmptyInput) {
  QuerySpec q = query_;
  q.aggregate.group_by.clear();
  q.aggregate.func = AggregateSpec::Func::kCount;
  q.filters[0].constant = INT64_MIN + 1;  // empty join
  QueryOptimizer opt(q, catalog_, CostParams::Postgres());
  const Plan plan = opt.OptimizeAt({0.001, 0.001});
  ExecContext ctx;
  ctx.query = &q;
  ctx.catalog = &catalog_;
  ctx.db = &db_;
  ctx.cost_model = &opt.cost_model();
  std::vector<Row> rows;
  const ExecutionOutcome out = ExecutePlan(
      ExecEngine::kScalar, *plan.root, &ctx,
      std::numeric_limits<double>::infinity(), &rows);
  ASSERT_EQ(out.status, ExecResult::kDone);
  ASSERT_EQ(rows.size(), 1u);  // COUNT(*) = 0, one row
  EXPECT_EQ(rows[0].back(), 0);
}

TEST_F(AggregateTest, FullBouquetPipelineWorks) {
  const EssGrid grid(query_, {10, 10});
  const PlanDiagram diagram =
      GeneratePosp(query_, catalog_, CostParams::Postgres(), grid);
  EXPECT_TRUE(IsPicMonotone(diagram));
  const PlanBouquet bouquet = BuildBouquet(diagram, opt_.get());
  EXPECT_GE(bouquet.cardinality(), 1);
  BouquetSimulator sim(bouquet, diagram, opt_.get());
  for (uint64_t qa = 0; qa < grid.num_points(); qa += 7) {
    const SimResult run = sim.RunBasic(qa);
    EXPECT_TRUE(run.completed);
    EXPECT_FALSE(run.fallback_used) << "qa=" << qa;
  }
}

TEST_F(AggregateTest, ValidateRejectsUnknownColumns) {
  QuerySpec q = query_;
  q.aggregate.group_by = {{"part", "does_not_exist"}};
  EXPECT_FALSE(q.Validate(catalog_).ok());
  q = query_;
  q.aggregate.agg_column = "nope";
  EXPECT_FALSE(q.Validate(catalog_).ok());
}

}  // namespace
}  // namespace bouquet
