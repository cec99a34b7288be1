// Microbenchmarks of the core library operations: optimizer invocations,
// abstract plan recosting, bouquet simulation, reduction passes, and
// executor throughput. These are the primitives whose costs determine the
// compile-time overheads discussed in Section 6.1.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "bouquet/driver.h"
#include "ess/anorexic.h"
#include "executor/builder.h"

namespace bouquet {
namespace {

using benchutil::BuildSpace;

void BM_OptimizerCall_3Rel(benchmark::State& state) {
  const Catalog tpch = MakeTpchCatalog(1.0);
  const QuerySpec eq = MakeEqQuery(tpch);
  QueryOptimizer opt(eq, tpch, CostParams::Postgres());
  for (auto _ : state) benchmark::DoNotOptimize(opt.OptimizeAt({0.1}));
}
BENCHMARK(BM_OptimizerCall_3Rel);

void BM_OptimizerCall_6Rel(benchmark::State& state) {
  const Catalog tpch = MakeTpchCatalog(1.0);
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  const NamedSpace space = GetSpace("3D_H_Q5", tpch, tpcds);
  QueryOptimizer opt(space.query, tpch, CostParams::Postgres());
  DimVector dims;
  for (const auto& d : space.query.error_dims) dims.push_back(d.hi);
  for (auto _ : state) benchmark::DoNotOptimize(opt.OptimizeAt(dims));
}
BENCHMARK(BM_OptimizerCall_6Rel);

void BM_OptimizerCall_8Rel(benchmark::State& state) {
  const Catalog tpch = MakeTpchCatalog(1.0);
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  const NamedSpace space = GetSpace("4D_H_Q8", tpch, tpcds);
  QueryOptimizer opt(space.query, tpch, CostParams::Postgres());
  DimVector dims;
  for (const auto& d : space.query.error_dims) dims.push_back(d.hi);
  for (auto _ : state) benchmark::DoNotOptimize(opt.OptimizeAt(dims));
}
BENCHMARK(BM_OptimizerCall_8Rel);

void BM_RecostPlan(benchmark::State& state) {
  static auto p = BuildSpace("4D_H_Q8");
  const PlanNode& root = *p->diagram->plan(0).root;
  DimVector dims;
  for (const auto& d : p->query.error_dims) dims.push_back(d.lo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p->opt->CostPlanAt(root, dims));
  }
}
BENCHMARK(BM_RecostPlan);

void BM_SimulatorConstruction(benchmark::State& state) {
  static auto p = BuildSpace("3D_H_Q5");
  for (auto _ : state) {
    BouquetSimulator sim(*p->bouquet, *p->diagram, p->opt.get());
    benchmark::DoNotOptimize(&sim);
  }
}
BENCHMARK(BM_SimulatorConstruction)->Unit(benchmark::kMillisecond);

void BM_SimulatedRunBasic(benchmark::State& state) {
  static auto p = BuildSpace("5D_DS_Q19");
  static BouquetSimulator sim(*p->bouquet, *p->diagram, p->opt.get());
  uint64_t qa = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.RunBasic(qa));
    qa = (qa + 211) % p->grid->num_points();
  }
}
BENCHMARK(BM_SimulatedRunBasic);

void BM_SimulatedRunOptimized(benchmark::State& state) {
  static auto p = BuildSpace("5D_DS_Q19");
  static BouquetSimulator sim(*p->bouquet, *p->diagram, p->opt.get());
  uint64_t qa = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.RunOptimized(qa));
    qa = (qa + 211) % p->grid->num_points();
  }
}
BENCHMARK(BM_SimulatedRunOptimized);

void BM_AnorexicReduction(benchmark::State& state) {
  static auto p = BuildSpace("3D_DS_Q96");
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnorexicReduce(*p->diagram, p->opt.get(), 0.2));
  }
}
BENCHMARK(BM_AnorexicReduction)->Unit(benchmark::kMillisecond);

void BM_ExecutorHashJoinThroughput(benchmark::State& state) {
  static Database db = [] {
    Database d;
    TpchDataOptions opts;
    opts.mini_scale = 1.0;
    MakeTpchDatabase(&d, opts);
    return d;
  }();
  static Catalog catalog = [] {
    Catalog c;
    SyncTpchCatalog(db, &c);
    return c;
  }();
  static QuerySpec query = [] {
    QuerySpec q = Make2DHQ8a(catalog);
    BindSelectionConstants(&q, catalog, {0.5, 0.5});
    return q;
  }();
  static QueryOptimizer opt(query, catalog, CostParams::Postgres());
  const Plan plan = opt.OptimizeAt({0.5, 0.5});
  int64_t rows = 0;
  for (auto _ : state) {
    ExecContext ctx;
    ctx.query = &query;
    ctx.catalog = &catalog;
    ctx.db = &db;
    ctx.cost_model = &opt.cost_model();
    const ExecutionOutcome out = ExecutePlan(
        ExecEngine::kScalar, *plan.root, &ctx,
        std::numeric_limits<double>::infinity(), nullptr);
    rows = out.rows_emitted;
    benchmark::DoNotOptimize(out);
  }
  state.counters["result_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_ExecutorHashJoinThroughput)->Unit(benchmark::kMillisecond);

void BM_ContourIdentification(benchmark::State& state) {
  static auto p = BuildSpace("4D_DS_Q26");
  for (auto _ : state) {
    benchmark::DoNotOptimize(IdentifyContours(*p->diagram, 2.0));
  }
}
BENCHMARK(BM_ContourIdentification)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bouquet

BENCHMARK_MAIN();
