// Shared scaffolding for the reproduction benches: builds the full
// compile-time pipeline (catalog -> space -> grid -> POSP diagram ->
// bouquet) for a named workload space, with stable ownership so the
// pieces can reference one another.

#ifndef BOUQUET_BENCH_BENCH_UTIL_H_
#define BOUQUET_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bouquet/bouquet.h"
#include "bouquet/simulator.h"
#include "ess/posp_generator.h"
#include "optimizer/optimizer.h"
#include "robustness/metrics.h"
#include "robustness/native.h"
#include "robustness/seer.h"
#include "workloads/spaces.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace benchutil {

/// Everything the benches need for one error space, with owned storage.
struct SpacePipeline {
  Catalog catalog;  ///< the benchmark catalog this space runs against
  QuerySpec query;
  std::string name;
  std::unique_ptr<EssGrid> grid;
  std::unique_ptr<PlanDiagram> diagram;
  std::unique_ptr<QueryOptimizer> opt;
  std::unique_ptr<PlanBouquet> bouquet;
  PospStats posp_stats;
};

/// Builds the pipeline for one of the ten Table 2 spaces (or a custom
/// query when `custom` is non-null). Resolution <= 0 uses the defaults.
inline std::unique_ptr<SpacePipeline> BuildSpace(
    const std::string& name, int resolution = 0,
    CostParams params = CostParams::Postgres(),
    const QuerySpec* custom = nullptr, const Catalog* custom_catalog = nullptr,
    const BouquetParams& bouquet_params = {}) {
  auto p = std::make_unique<SpacePipeline>();
  if (custom != nullptr) {
    p->catalog = *custom_catalog;
    p->query = *custom;
    p->name = custom->name;
  } else {
    const Catalog tpch = MakeTpchCatalog(1.0);
    const Catalog tpcds = MakeTpcdsCatalog(100.0);
    NamedSpace space = GetSpace(name, tpch, tpcds);
    p->catalog = space.benchmark == "H" ? tpch : tpcds;
    p->query = std::move(space.query);
    p->name = name;
  }
  const int dims = p->query.NumDims();
  const int res =
      resolution > 0 ? resolution : EssGrid::DefaultResolutionForDims(dims);
  p->grid = std::make_unique<EssGrid>(p->query, std::vector<int>(dims, res));
  ThreadPool pool(8);
  PospOptions opts;
  opts.pool = &pool;
  p->diagram = std::make_unique<PlanDiagram>(
      GeneratePosp(p->query, p->catalog, params, *p->grid, opts,
                   &p->posp_stats));
  p->opt = std::make_unique<QueryOptimizer>(p->query, p->catalog, params);
  p->bouquet = std::make_unique<PlanBouquet>(
      BuildBouquet(*p->diagram, p->opt.get(), bouquet_params));
  return p;
}

/// The ten Table 2 space names, in the paper's order.
inline std::vector<std::string> AllSpaceNames() {
  return {"3D_H_Q5",   "3D_H_Q7",   "4D_H_Q8",   "5D_H_Q7",  "3D_DS_Q15",
          "3D_DS_Q96", "4D_DS_Q7",  "4D_DS_Q26", "4D_DS_Q91", "5D_DS_Q19"};
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("\n=============================================================="
              "==================\n");
  std::printf("%s\n(reproduces %s of 'Plan Bouquets', SIGMOD 2014)\n", title,
              paper_ref);
  std::printf("================================================================"
              "================\n");
}

}  // namespace benchutil
}  // namespace bouquet

#endif  // BOUQUET_BENCH_BENCH_UTIL_H_
