// Tests for ess/posp_generator and ess/pic: exhaustive generation,
// parallel-shard equivalence, and the PIC monotonicity property.

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "ess/pic.h"
#include "ess/posp_generator.h"
#include "optimizer/optimizer.h"
#include "workloads/spaces.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace {

class PospTest : public ::testing::Test {
 protected:
  PospTest()
      : catalog_(MakeTpchCatalog(1.0)),
        query_(MakeEqQuery(catalog_)),
        grid_(query_, {50}) {}
  Catalog catalog_;
  QuerySpec query_;
  EssGrid grid_;
};

TEST_F(PospTest, CoversEveryPoint) {
  const PlanDiagram d =
      GeneratePosp(query_, catalog_, CostParams::Postgres(), grid_);
  for (uint64_t i = 0; i < grid_.num_points(); ++i) {
    EXPECT_GE(d.plan_at(i), 0);
    EXPECT_GT(d.cost_at(i), 0.0);
  }
  EXPECT_GE(d.num_plans(), 2);
}

TEST_F(PospTest, CostsMatchDirectOptimization) {
  const PlanDiagram d =
      GeneratePosp(query_, catalog_, CostParams::Postgres(), grid_);
  QueryOptimizer opt(query_, catalog_, CostParams::Postgres());
  for (uint64_t i = 0; i < grid_.num_points(); i += 7) {
    const Plan p = opt.OptimizeAt(grid_.SelectivityAt(i));
    EXPECT_NEAR(d.cost_at(i), p.cost, p.cost * 1e-9);
    EXPECT_EQ(d.plan(d.plan_at(i)).signature, p.signature);
  }
}

TEST_F(PospTest, StatsReported) {
  PospStats stats;
  GeneratePosp(query_, catalog_, CostParams::Postgres(), grid_, PospOptions{},
               &stats);
  // Every point is served by either a full DP or the recost fast path.
  EXPECT_EQ(stats.dp_calls + stats.recost_hits,
            static_cast<long long>(grid_.num_points()));
  EXPECT_EQ(stats.optimizer_calls, stats.dp_calls);
  EXPECT_GT(stats.recost_hits, 0);
  EXPECT_EQ(stats.audit_failures, 0);
  EXPECT_EQ(stats.shards, 1);
  EXPECT_GE(stats.wall_seconds, 0.0);

  // Memoryless mode restores the historical one-DP-per-point behavior.
  PospOptions memoryless;
  memoryless.incremental = false;
  PospStats mstats;
  GeneratePosp(query_, catalog_, CostParams::Postgres(), grid_, memoryless,
               &mstats);
  EXPECT_EQ(mstats.dp_calls, static_cast<long long>(grid_.num_points()));
  EXPECT_EQ(mstats.recost_hits, 0);
  EXPECT_EQ(mstats.audit_checks, 0);
}

TEST_F(PospTest, IncrementalMatchesMemoryless) {
  PospOptions memoryless;
  memoryless.incremental = false;
  const PlanDiagram reference = GeneratePosp(
      query_, catalog_, CostParams::Postgres(), grid_, memoryless);
  PospStats stats;
  const PlanDiagram incremental = GeneratePosp(
      query_, catalog_, CostParams::Postgres(), grid_, PospOptions{}, &stats);
  ASSERT_EQ(reference.num_plans(), incremental.num_plans());
  for (int p = 0; p < reference.num_plans(); ++p) {
    EXPECT_EQ(reference.plan(p).signature, incremental.plan(p).signature);
  }
  for (uint64_t i = 0; i < grid_.num_points(); ++i) {
    EXPECT_EQ(reference.plan_at(i), incremental.plan_at(i));
    // Bit-exact, not approximate: skips only fire on proven equality.
    EXPECT_EQ(reference.cost_at(i), incremental.cost_at(i));
  }
  EXPECT_GT(stats.recost_hits, 0);
}

TEST_F(PospTest, AuditSamplingRunsAndPasses) {
  PospOptions audited;
  audited.audit_fraction = 1.0;  // audit every skipped point
  PospStats stats;
  const PlanDiagram d = GeneratePosp(query_, catalog_, CostParams::Postgres(),
                                     grid_, audited, &stats);
  EXPECT_GT(stats.recost_hits, 0);
  EXPECT_EQ(stats.audit_checks, stats.recost_hits);
  EXPECT_EQ(stats.audit_failures, 0);

  PospOptions unaudited;
  unaudited.audit_fraction = 0.0;
  PospStats ustats;
  const PlanDiagram d2 = GeneratePosp(
      query_, catalog_, CostParams::Postgres(), grid_, unaudited, &ustats);
  EXPECT_EQ(ustats.audit_checks, 0);
  for (uint64_t i = 0; i < grid_.num_points(); ++i) {
    EXPECT_EQ(d.cost_at(i), d2.cost_at(i));
    EXPECT_EQ(d.plan_at(i), d2.plan_at(i));
  }
}

TEST_F(PospTest, ParallelEqualsSerial) {
  const PlanDiagram serial =
      GeneratePosp(query_, catalog_, CostParams::Postgres(), grid_);
  ThreadPool pool(4);
  PospOptions par;
  par.pool = &pool;
  par.min_shard_points = 8;
  PospStats stats;
  const PlanDiagram parallel = GeneratePosp(
      query_, catalog_, CostParams::Postgres(), grid_, par, &stats);
  EXPECT_GT(stats.shards, 1);
  for (uint64_t i = 0; i < grid_.num_points(); ++i) {
    EXPECT_DOUBLE_EQ(serial.cost_at(i), parallel.cost_at(i));
    EXPECT_EQ(serial.plan(serial.plan_at(i)).signature,
              parallel.plan(parallel.plan_at(i)).signature);
  }
}

TEST_F(PospTest, PoolShardingNeverCreatesSubMinimumTails) {
  // Regression: 65 points with a 16-point shard floor used to produce a
  // 5th single-point tail shard (ceil-chunking); the shard count must now
  // be clamped so every shard gets at least min_shard_points.
  const EssGrid grid(query_, {65});
  ThreadPool pool(3);
  PospOptions pooled;
  pooled.pool = &pool;
  pooled.min_shard_points = 16;
  PospStats stats;
  const PlanDiagram d = GeneratePosp(query_, catalog_, CostParams::Postgres(),
                                     grid, pooled, &stats);
  EXPECT_GT(stats.shards, 1);
  EXPECT_LE(stats.shards,
            static_cast<long long>(grid.num_points() / 16));
  const PlanDiagram serial =
      GeneratePosp(query_, catalog_, CostParams::Postgres(), grid);
  for (uint64_t i = 0; i < grid.num_points(); ++i) {
    EXPECT_EQ(serial.cost_at(i), d.cost_at(i));
    EXPECT_EQ(serial.plan(serial.plan_at(i)).signature,
              d.plan(d.plan_at(i)).signature);
  }
}

TEST_F(PospTest, PicMonotone1D) {
  const PlanDiagram d =
      GeneratePosp(query_, catalog_, CostParams::Postgres(), grid_);
  EXPECT_TRUE(IsPicMonotone(d));
  EXPECT_EQ(CountPicViolations(d), 0);
}

TEST_F(PospTest, PicSliceShape) {
  const PlanDiagram d =
      GeneratePosp(query_, catalog_, CostParams::Postgres(), grid_);
  const auto slice = PicSlice(d, 0, GridPoint{0});
  ASSERT_EQ(slice.size(), 50u);
  EXPECT_DOUBLE_EQ(slice.front().cost, d.Cmin());
  EXPECT_DOUBLE_EQ(slice.back().cost, d.Cmax());
  for (size_t i = 1; i < slice.size(); ++i) {
    EXPECT_GE(slice[i].cost, slice[i - 1].cost * (1 - 1e-9));
    EXPECT_GT(slice[i].selectivity, slice[i - 1].selectivity);
  }
}

// Multi-dimensional PIC monotonicity across benchmark spaces (coarse grids).
class PicMonotoneSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(PicMonotoneSweep, Holds) {
  const Catalog tpch = MakeTpchCatalog(1.0);
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  const NamedSpace space = GetSpace(GetParam(), tpch, tpcds);
  const Catalog& cat = space.benchmark == "H" ? tpch : tpcds;
  const EssGrid grid(space.query,
                     std::vector<int>(space.query.NumDims(), 5));
  const PlanDiagram d =
      GeneratePosp(space.query, cat, CostParams::Postgres(), grid);
  EXPECT_EQ(CountPicViolations(d), 0) << space.name;
}

INSTANTIATE_TEST_SUITE_P(Spaces, PicMonotoneSweep,
                         ::testing::Values("3D_H_Q5", "4D_H_Q8", "3D_DS_Q96",
                                           "5D_DS_Q19"));

}  // namespace
}  // namespace bouquet
