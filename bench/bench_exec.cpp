// Executor throughput: vectorized batch engine vs the scalar Volcano
// oracle on TPC-H mini data, plus the bit-compatibility spot check
// (identical charged cost at every shape).
//
// Shapes:
//   scan — a Q6-style conjunctive range scan of lineitem: four BETWEEN
//          pairs (eight range predicates, wide ones first, combined
//          selectivity ~1.2%);
//   join — hash join with a filtered orders probe side and the full
//          lineitem table as the build side (build-heavy);
//   pipeline — a left-deep three-join plan over paged storage (a warm pool
//          holding every page): a filtered lineitem scan probes a hash join
//          on orders, then an index-NL join on customer and a material-NL
//          join on nation. Every root row's charges splice through three
//          levels of input tapes, so this is the shape where tape cost
//          would grow with depth. It also reports tape_bytes_per_row: the
//          batch run's metering-tape bytes (the exec.batch span's
//          tape_bytes) per lineitem input row.
//
// Scalar and batch reps are interleaved and each side takes its best
// time, so a noisy neighbor inflates both engines alike rather than
// whichever happened to run during the spike.
//
// Default mode prints the reproduction-style report with a batch-size
// sweep. `--smoke [out.json]` runs the same measurement with CI-sized
// repetitions and writes BENCH_exec.json for the smoke_exec gate
// (scripts/check_smoke.py against bench/baselines/exec_smoke.json; run with
// `ctest -C smoke -L smoke`), which checks the single-thread speedup floors
// and the charged-cost bit-equality between engines. `--data-dir DIR` places the pipeline's page
// files (default /tmp/bouquet_bench_exec).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "executor/batch.h"
#include "executor/builder.h"
#include "obs/trace.h"
#include "storage/paged_table.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace {

PlanNodeRef ScanNode(int table, std::vector<int> filters = {}) {
  auto n = std::make_shared<PlanNode>();
  n->op = OpType::kSeqScan;
  n->table_idx = table;
  n->filter_idxs = std::move(filters);
  return n;
}

std::shared_ptr<PlanNode> JoinNode(OpType op, PlanNodeRef left,
                                   PlanNodeRef right, int join_idx) {
  auto n = std::make_shared<PlanNode>();
  n->op = op;
  n->left = std::move(left);
  n->right = std::move(right);
  n->join_idxs = {join_idx};
  return n;
}

struct ExecBench {
  Database db;
  Catalog catalog;
  QuerySpec query;
  std::unique_ptr<CostModel> cm;
  PlanNodeRef scan_plan;
  PlanNodeRef join_plan;
  int64_t lineitem_rows = 0;
  // Pipeline shape over paged copies of its four tables.
  QuerySpec pipe_query;
  std::unique_ptr<storage::StorageManager> sm;
  Database paged_db;
  PlanNodeRef pipe_plan;

  void Build(double mini_scale) {
    TpchDataOptions opts;
    opts.mini_scale = mini_scale;
    MakeTpchDatabase(&db, opts);
    SyncTpchCatalog(db, &catalog);
    lineitem_rows = db.table("lineitem").num_rows();

    query.name = "exec_bench";
    query.tables = {"orders", "lineitem"};
    query.joins = {
        JoinPredicate{"orders", "o_orderkey", "lineitem", "l_orderkey", -1.0}};
    query.filters = {
        SelectionPredicate{"lineitem", "l_extendedprice",
                           CompareOp::kGreaterEqual, 100000, -1.0},
        SelectionPredicate{"lineitem", "l_quantity", CompareOp::kGreaterEqual,
                           5, -1.0},
        SelectionPredicate{"lineitem", "l_discount", CompareOp::kGreaterEqual,
                           1, -1.0},
        SelectionPredicate{"lineitem", "l_shipdate", CompareOp::kGreaterEqual,
                           400, -1.0},
        SelectionPredicate{"lineitem", "l_quantity", CompareOp::kLess, 38,
                           -1.0},
        SelectionPredicate{"lineitem", "l_shipdate", CompareOp::kLess, 1900,
                           -1.0},
        SelectionPredicate{"lineitem", "l_discount", CompareOp::kLessEqual, 6,
                           -1.0},
        SelectionPredicate{"lineitem", "l_extendedprice", CompareOp::kLess,
                           600000, -1.0},
        SelectionPredicate{"orders", "o_totalprice", CompareOp::kLess, 600000,
                           -1.0}};
    cm = std::make_unique<CostModel>(CostParams::Postgres());

    scan_plan = ScanNode(1, {0, 1, 2, 3, 4, 5, 6, 7});  // lineitem
    // Filtered orders probe side, full lineitem build side.
    join_plan = JoinNode(OpType::kHashJoin, ScanNode(0, {8}), ScanNode(1), 0);
  }

  // Imports the pipeline's tables into `data_dir` behind a pool that holds
  // every page, so the measurement is the engines, not disk I/O.
  void BuildPipeline(const std::string& data_dir) {
    pipe_query.name = "exec_bench_pipeline";
    pipe_query.tables = {"lineitem", "orders", "customer", "nation"};
    pipe_query.joins = {
        JoinPredicate{"lineitem", "l_orderkey", "orders", "o_orderkey", -1.0},
        JoinPredicate{"orders", "o_custkey", "customer", "c_custkey", -1.0},
        JoinPredicate{"customer", "c_nationkey", "nation", "n_nationkey",
                      -1.0}};
    pipe_query.filters = {SelectionPredicate{"lineitem", "l_quantity",
                                             CompareOp::kLess, 5, -1.0}};
    sm = std::make_unique<storage::StorageManager>(storage::StorageOptions{
        data_dir, /*pool_pages=*/4096, storage::EvictionPolicyKind::k2Q});
    for (const std::string& t : pipe_query.tables) {
      auto imported = sm->ImportTable(db.table(t));
      if (!imported.ok()) {
        std::fprintf(stderr, "import %s: %s\n", t.c_str(),
                     imported.status().ToString().c_str());
        std::exit(1);
      }
    }
    paged_db.AttachStorage(sm.get());
    auto hash = JoinNode(OpType::kHashJoin, ScanNode(0, {0}), ScanNode(1), 0);
    auto inl = JoinNode(OpType::kIndexNLJoin, hash, ScanNode(2), 1);
    inl->index_join = 1;
    pipe_plan = JoinNode(OpType::kMaterialNLJoin, inl, ScanNode(3), 2);
  }

  ExecContext MakeContext(int batch_size, bool pipeline = false) const {
    ExecContext ctx;
    ctx.query = pipeline ? &pipe_query : &query;
    ctx.catalog = &catalog;
    ctx.db = const_cast<Database*>(pipeline ? &paged_db : &db);
    ctx.cost_model = cm.get();
    ctx.batch_size = batch_size;
    return ctx;
  }
};

struct Measurement {
  double seconds = 0.0;      ///< best-of-reps wall time
  double charged = 0.0;
  int64_t rows_emitted = 0;
};

struct Comparison {
  Measurement scalar;
  Measurement batch;
  double speedup = 0.0;
  bool charged_equal = false;  ///< bit-exact
  bool rows_equal = false;
};

Comparison Compare(const ExecBench& bench, const PlanNode& plan,
                   int batch_size, int reps, bool pipeline = false) {
  Comparison c;
  c.scalar.seconds = std::numeric_limits<double>::infinity();
  c.batch.seconds = std::numeric_limits<double>::infinity();
  for (int i = 0; i <= reps; ++i) {  // rep 0 is the warmup (index builds)
    for (const ExecEngine engine : {ExecEngine::kScalar, ExecEngine::kBatch}) {
      Measurement& m = engine == ExecEngine::kScalar ? c.scalar : c.batch;
      ExecContext ctx = bench.MakeContext(batch_size, pipeline);
      const auto t0 = std::chrono::steady_clock::now();
      const ExecutionOutcome out = ExecutePlanWith(
          engine, plan, &ctx, std::numeric_limits<double>::infinity(),
          /*results=*/nullptr);
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      m.charged = out.cost_charged;
      m.rows_emitted = out.rows_emitted;
      if (i > 0) m.seconds = std::min(m.seconds, secs);
    }
  }
  c.speedup = c.batch.seconds > 0.0 ? c.scalar.seconds / c.batch.seconds : 0.0;
  c.charged_equal = c.scalar.charged == c.batch.charged;
  c.rows_equal = c.scalar.rows_emitted == c.batch.rows_emitted;
  return c;
}

// Metering-tape bytes of one unbudgeted batch run, read off its exec.batch
// span.
double TapeBytes(const ExecBench& bench, const PlanNode& plan,
                 int batch_size) {
  obs::Tracer tracer(1 << 10);
  ExecContext ctx = bench.MakeContext(batch_size, /*pipeline=*/true);
  ctx.tracer = &tracer;
  ExecutePlanBatch(plan, &ctx, std::numeric_limits<double>::infinity());
  for (const obs::TraceEvent& ev : tracer.Snapshot()) {
    if (ev.name != "exec.batch") continue;
    for (const auto& [key, value] : ev.num_attrs) {
      if (key == "tape_bytes") return value;
    }
  }
  return 0.0;
}

void PrintComparison(const char* name, const ExecBench& bench,
                     const Comparison& c) {
  const double rows = static_cast<double>(bench.lineitem_rows);
  std::printf("  %-18s scalar %8.2f ms (%6.2f Mrows/s)   "
              "batch %8.2f ms (%6.2f Mrows/s)   speedup %5.2fx   "
              "charged %s\n",
              name, c.scalar.seconds * 1e3,
              rows / c.scalar.seconds / 1e6, c.batch.seconds * 1e3,
              rows / c.batch.seconds / 1e6, c.speedup,
              c.charged_equal ? "bit-equal" : "DIVERGED");
}

void PrintReproduction(const std::string& data_dir) {
  std::printf("Vectorized batch executor vs scalar Volcano oracle\n");
  std::printf("(TPC-H mini, single thread; rows/s normalized to lineitem "
              "input rows)\n\n");
  ExecBench bench;
  bench.Build(/*mini_scale=*/2.0);
  bench.BuildPipeline(data_dir);
  std::printf("  lineitem %lld rows, orders %lld rows\n\n",
              static_cast<long long>(bench.lineitem_rows),
              static_cast<long long>(bench.db.table("orders").num_rows()));
  PrintComparison("filtered scan", bench,
                  Compare(bench, *bench.scan_plan, 1024, 9));
  PrintComparison("hash join", bench,
                  Compare(bench, *bench.join_plan, 1024, 9));
  PrintComparison("3-join pipeline", bench,
                  Compare(bench, *bench.pipe_plan, 1024, 9, true));
  std::printf("  pipeline metering tape: %.1f bytes per lineitem row\n",
              TapeBytes(bench, *bench.pipe_plan, 1024) /
                  static_cast<double>(bench.lineitem_rows));
  std::printf("\n  batch-size sweep (hash join):\n");
  for (const int bsz : {64, 256, 1024, 4096}) {
    const Comparison c = Compare(bench, *bench.join_plan, bsz, 3);
    std::printf("    batch_size %5d: %8.2f ms   speedup %5.2fx   "
                "charged %s\n",
                bsz, c.batch.seconds * 1e3, c.speedup,
                c.charged_equal ? "bit-equal" : "DIVERGED");
  }
}

int RunSmoke(const char* out_path, const std::string& data_dir) {
  ExecBench bench;
  bench.Build(/*mini_scale=*/2.0);
  bench.BuildPipeline(data_dir);
  const Comparison scan = Compare(bench, *bench.scan_plan, 1024, 9);
  const Comparison join = Compare(bench, *bench.join_plan, 1024, 9);
  const Comparison pipe = Compare(bench, *bench.pipe_plan, 1024, 9, true);
  const double tape_bytes_per_row =
      TapeBytes(bench, *bench.pipe_plan, 1024) /
      static_cast<double>(bench.lineitem_rows);
  PrintComparison("filtered scan", bench, scan);
  PrintComparison("hash join", bench, join);
  PrintComparison("3-join pipeline", bench, pipe);
  std::printf("  pipeline metering tape: %.1f bytes per lineitem row\n",
              tape_bytes_per_row);

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  auto section = [&](const char* name, const Comparison& c,
                     const double* tape_per_row) {
    std::fprintf(f, "  \"%s\": {\n", name);
    std::fprintf(f, "    \"input_rows\": %lld,\n",
                 static_cast<long long>(bench.lineitem_rows));
    std::fprintf(f, "    \"rows_emitted\": %lld,\n",
                 static_cast<long long>(c.batch.rows_emitted));
    std::fprintf(f, "    \"scalar_seconds\": %.6f,\n", c.scalar.seconds);
    std::fprintf(f, "    \"batch_seconds\": %.6f,\n", c.batch.seconds);
    std::fprintf(f, "    \"scalar_rows_per_sec\": %.1f,\n",
                 bench.lineitem_rows / c.scalar.seconds);
    std::fprintf(f, "    \"batch_rows_per_sec\": %.1f,\n",
                 bench.lineitem_rows / c.batch.seconds);
    std::fprintf(f, "    \"speedup\": %.3f,\n", c.speedup);
    std::fprintf(f, "    \"charged_bit_equal\": %s,\n",
                 c.charged_equal ? "true" : "false");
    std::fprintf(f, "    \"rows_equal\": %s", c.rows_equal ? "true" : "false");
    if (tape_per_row != nullptr) {
      std::fprintf(f, ",\n    \"tape_bytes_per_row\": %.3f", *tape_per_row);
    }
    std::fprintf(f, "\n  }");
  };
  std::fprintf(f, "{\n");
  section("scan", scan, nullptr);
  std::fprintf(f, ",\n");
  section("join", join, nullptr);
  std::fprintf(f, ",\n");
  section("pipeline", pipe, &tape_bytes_per_row);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("exec-smoke: wrote %s\n", out_path);
  return 0;
}

}  // namespace
}  // namespace bouquet

int main(int argc, char** argv) {
  std::string data_dir = "/tmp/bouquet_bench_exec";
  const char* smoke_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke_out = i + 1 < argc && argv[i + 1][0] != '-' ? argv[++i]
                                                          : "BENCH_exec.json";
    } else if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
    }
  }
  if (smoke_out != nullptr) return bouquet::RunSmoke(smoke_out, data_dir);
  bouquet::PrintReproduction(data_dir);
  return 0;
}
