// Disk-backed storage benchmark: charged-cost effect of the buffer pool on
// re-scan-heavy bouquet workloads, eviction-policy comparison, and the
// scalar-vs-batch parity + accounting gates over paged data.
//
// The dataset is the seeded on-disk star schema from storage/dataset.h
// (written once into --data-dir, ~4 MB, dozens of times the pool size), so
// every number here is a pure function of the seed. Workloads:
//
//   reexec   — the bouquet re-execution pattern: an isocost-style ladder of
//              widening index-range scans over the fact table, the whole
//              ladder run twice to completion. The ladder's distinct pages
//              fit the pool, so with a cache the re-reads become priced
//              buffer hits; with EvictionPolicyKind::kNone every access
//              pays the full page cost. Gated: charged(nocache)/charged(LRU)
//              and charged(nocache)/charged(2Q) are both >= 3x.
//   scan_mix — the 2Q scan-resistance scenario: a pinned-down hot range
//              (promoted into Am via a one-shot ghost-priming burst) is
//              re-read between full sequential scans of a dimension table
//              larger than the pool. LRU flushes the hot set on every scan;
//              2Q keeps it in Am. Gated: charged(LRU)/charged(2Q) floor.
//   parity   — the reexec ladder run under both engines on the 2Q pool:
//              charged cost must be bit-equal, and each engine's charged
//              page reads/hits must equal the buffer manager's miss/hit
//              counters exactly (the accounting the I/O-charged MSO rests
//              on).
//
// Charged costs are deterministic, so the smoke_storage gate
// (scripts/check_smoke.py over BENCH_storage.json against
// bench/baselines/storage_smoke.json; run with `ctest -C smoke -L smoke`)
// checks exact ratio floors, immune to machine noise; wall times are printed
// for context only.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "executor/batch.h"
#include "executor/builder.h"
#include "storage/dataset.h"
#include "storage/index.h"
#include "storage/paged_table.h"

namespace bouquet {
namespace {

constexpr size_t kPoolPages = 32;

storage::DatasetSpec BenchSpec() {
  storage::DatasetSpec spec;
  spec.num_tables = 2;
  spec.rows_per_table = 8192;
  // Wide rows (few per page) keep page I/O dominant over per-tuple CPU in
  // the charged cost, as it is for the paper's disk-resident workloads.
  spec.data_columns = 62;
  spec.dim_rows = 1440;  // dim1 spans ~3x the pool: a flushing scan
  return spec;
}

/// One policy's view of the on-disk dataset: its own pool + catalog +
/// pre-built indexes, so measured runs charge data-page I/O only.
struct Session {
  std::unique_ptr<storage::StorageManager> sm;
  Database db;
  Catalog catalog;
  QuerySpec query;
  std::unique_ptr<CostModel> cm;
  int rpp = 1;              ///< fact rows per page
  int64_t fact_rows = 0;
  uint32_t fact_pages = 0;
  uint32_t dim_pages = 0;

  ExecContext MakeContext(int batch_size) {
    ExecContext ctx;
    ctx.query = &query;
    ctx.catalog = &catalog;
    ctx.db = &db;
    ctx.cost_model = cm.get();
    ctx.batch_size = batch_size;
    return ctx;
  }
};

Session OpenSession(const std::string& data_dir,
                    storage::EvictionPolicyKind policy) {
  Session s;
  s.sm = std::make_unique<storage::StorageManager>(
      storage::StorageOptions{data_dir, kPoolPages, policy});
  for (const std::string& name : storage::DatasetTableNames(BenchSpec())) {
    auto opened = s.sm->OpenTable(name);
    if (!opened.ok()) {
      std::fprintf(stderr, "open %s: %s\n", name.c_str(),
                   opened.status().ToString().c_str());
      std::exit(1);
    }
  }
  s.db.AttachStorage(s.sm.get());
  s.db.SyncCatalog(&s.catalog);
  const storage::PagedTable* fact = s.db.paged("fact");
  const storage::PagedTable* dim = s.db.paged("dim1");
  s.rpp = fact->rows_per_page();
  s.fact_rows = fact->num_rows();
  s.fact_pages = fact->num_data_pages();
  s.dim_pages = dim->num_data_pages();

  s.query.name = "storage_bench";
  s.query.tables = {"fact", "dim1"};
  s.query.joins = {JoinPredicate{"fact", "fk1", "dim1", "pk", -1.0}};
  s.query.filters = {
      SelectionPredicate{"fact", "pk", CompareOp::kLess, 1, -1.0},
      SelectionPredicate{"fact", "pk", CompareOp::kGreaterEqual, 1, -1.0}};
  const Status valid = s.query.Validate(s.catalog);
  if (!valid.ok()) {
    std::fprintf(stderr, "query: %s\n", valid.ToString().c_str());
    std::exit(1);
  }
  s.cm = std::make_unique<CostModel>(CostParams::Postgres());
  // Pre-build the pk index: maintenance streams are unaccounted, but they
  // should not show up in the wall times either.
  s.db.sorted_index("fact", 0);
  return s;
}

PlanNodeRef IndexRangeScan(int table_idx, int filter_idx) {
  auto n = std::make_shared<PlanNode>();
  n->op = OpType::kIndexScan;
  n->table_idx = table_idx;
  n->filter_idxs = {filter_idx};
  n->index_filter = filter_idx;
  return n;
}

PlanNodeRef SeqScan(int table_idx) {
  auto n = std::make_shared<PlanNode>();
  n->op = OpType::kSeqScan;
  n->table_idx = table_idx;
  return n;
}

struct Totals {
  double charged = 0.0;
  int64_t rows = 0;
  int64_t page_reads = 0;  ///< charged misses
  int64_t page_hits = 0;   ///< charged buffer hits
  double seconds = 0.0;
};

void Accumulate(Totals* t, const ExecutionOutcome& out) {
  t->charged += out.cost_charged;
  t->rows += out.rows_emitted;
  t->page_reads += out.page_reads;
  t->page_hits += out.page_hits;
}

/// The bouquet re-execution ladder: 8 widening pk ranges (4, 7, ..., 25
/// pages), the whole ladder twice, every execution to completion.
Totals RunReexec(Session* s, ExecEngine engine) {
  s->sm->buffer()->ResetForTest();
  const PlanNodeRef plan = IndexRangeScan(0, 0);
  Totals t;
  const auto t0 = std::chrono::steady_clock::now();
  for (int pass = 0; pass < 2; ++pass) {
    for (int k = 1; k <= 8; ++k) {
      s->query.filters[0].constant = static_cast<int64_t>(3 * k + 1) * s->rpp;
      ExecContext ctx = s->MakeContext(1024);
      const ExecutionOutcome out = ExecutePlanWith(
          engine, *plan, &ctx, std::numeric_limits<double>::infinity(),
          nullptr);
      Accumulate(&t, out);
    }
  }
  t.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return t;
}

/// Hot 12-page range re-read between full scans of a dimension table ~3x
/// the pool. The one-shot burst after the first hot read demotes the hot
/// pages into 2Q's ghost queue while they are still young, so the second
/// hot read promotes them into Am, out of the sequential flood's reach.
Totals RunScanMix(Session* s, ExecEngine engine) {
  s->sm->buffer()->ResetForTest();
  const PlanNodeRef hot = IndexRangeScan(0, 0);
  const PlanNodeRef burst = IndexRangeScan(0, 1);
  const PlanNodeRef dim_scan = SeqScan(1);
  s->query.filters[0].constant = static_cast<int64_t>(12) * s->rpp;
  s->query.filters[1].constant =
      s->fact_rows - static_cast<int64_t>(34) * s->rpp + 1;
  Totals t;
  const double inf = std::numeric_limits<double>::infinity();
  const auto t0 = std::chrono::steady_clock::now();
  auto run = [&](const PlanNode& plan) {
    ExecContext ctx = s->MakeContext(1024);
    Accumulate(&t, ExecutePlanWith(engine, plan, &ctx, inf, nullptr));
  };
  run(*hot);
  run(*burst);
  for (int round = 0; round < 8; ++round) {
    run(*hot);
    run(*dim_scan);
  }
  t.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return t;
}

struct BenchReport {
  // reexec, per policy.
  Totals re_none, re_lru, re_2q;
  double ratio_lru = 0.0;  ///< charged(nocache) / charged(LRU)
  double ratio_2q = 0.0;   ///< charged(nocache) / charged(2Q)
  // scan_mix.
  Totals mix_lru, mix_2q;
  double lru_over_2q = 0.0;
  // parity (2Q pool, reexec ladder).
  bool charged_bit_equal = false;
  bool rows_equal = false;
  bool accounting_exact = false;
  // dataset shape.
  uint32_t dataset_pages = 0;
  int64_t reexec_rows = 0;
};

BenchReport RunAll(const std::string& data_dir) {
  BenchReport r;
  {
    Session none = OpenSession(data_dir, storage::EvictionPolicyKind::kNone);
    r.dataset_pages = none.fact_pages + none.dim_pages;
    r.re_none = RunReexec(&none, ExecEngine::kScalar);
  }
  Session lru = OpenSession(data_dir, storage::EvictionPolicyKind::kLru);
  r.re_lru = RunReexec(&lru, ExecEngine::kScalar);
  r.mix_lru = RunScanMix(&lru, ExecEngine::kScalar);
  Session twoq = OpenSession(data_dir, storage::EvictionPolicyKind::k2Q);
  r.re_2q = RunReexec(&twoq, ExecEngine::kScalar);
  r.mix_2q = RunScanMix(&twoq, ExecEngine::kScalar);
  r.ratio_lru = r.re_none.charged / r.re_lru.charged;
  r.ratio_2q = r.re_none.charged / r.re_2q.charged;
  r.lru_over_2q = r.mix_lru.charged / r.mix_2q.charged;
  r.reexec_rows = r.re_2q.rows;

  // Parity + accounting: the same ladder, scalar vs batch, each from a cold
  // 2Q pool. `charged` equality is bit-exact (==, not a tolerance).
  const Totals scalar = RunReexec(&twoq, ExecEngine::kScalar);
  const storage::BufferStats ss = twoq.sm->buffer()->stats();
  const bool scalar_exact =
      ss.misses == static_cast<uint64_t>(scalar.page_reads) &&
      ss.hits == static_cast<uint64_t>(scalar.page_hits);
  const Totals batch = RunReexec(&twoq, ExecEngine::kBatch);
  const storage::BufferStats bs = twoq.sm->buffer()->stats();
  const bool batch_exact =
      bs.misses == static_cast<uint64_t>(batch.page_reads) &&
      bs.hits == static_cast<uint64_t>(batch.page_hits);
  r.charged_bit_equal = scalar.charged == batch.charged;
  r.rows_equal = scalar.rows == batch.rows;
  r.accounting_exact = scalar_exact && batch_exact;
  return r;
}

void PrintTotals(const char* name, const Totals& t) {
  std::printf("  %-8s charged %10.1f   page reads %6lld   hits %6lld   "
              "%7.2f ms\n",
              name, t.charged, static_cast<long long>(t.page_reads),
              static_cast<long long>(t.page_hits), t.seconds * 1e3);
}

void PrintReport(const BenchReport& r) {
  std::printf("Disk-backed storage: buffer pool effect on charged cost\n");
  std::printf("(pool %zu pages; dataset %u pages = %.1fx pool)\n\n",
              kPoolPages, r.dataset_pages,
              static_cast<double>(r.dataset_pages) / kPoolPages);
  std::printf("reexec ladder (2 passes x 8 widening index ranges):\n");
  PrintTotals("nocache", r.re_none);
  PrintTotals("lru", r.re_lru);
  PrintTotals("2q", r.re_2q);
  std::printf("  charged ratio nocache/lru %.2fx, nocache/2q %.2fx\n\n",
              r.ratio_lru, r.ratio_2q);
  std::printf("scan_mix (hot 12-page range between full dim scans):\n");
  PrintTotals("lru", r.mix_lru);
  PrintTotals("2q", r.mix_2q);
  std::printf("  charged ratio lru/2q %.2fx (2Q scan resistance)\n\n",
              r.lru_over_2q);
  std::printf("parity (reexec, scalar vs batch on the 2Q pool):\n");
  std::printf("  charged %s, rows %s, accounting %s\n",
              r.charged_bit_equal ? "bit-equal" : "DIVERGED",
              r.rows_equal ? "equal" : "DIVERGED",
              r.accounting_exact ? "exact" : "DRIFTED");
}

int WriteSmokeJson(const BenchReport& r, const char* out_path) {
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"pool_pages\": %zu,\n", kPoolPages);
  std::fprintf(f, "  \"dataset_pages\": %u,\n", r.dataset_pages);
  std::fprintf(f, "  \"reexec\": {\n");
  std::fprintf(f, "    \"rows_emitted\": %lld,\n",
               static_cast<long long>(r.reexec_rows));
  std::fprintf(f, "    \"charged_nocache\": %.6f,\n", r.re_none.charged);
  std::fprintf(f, "    \"charged_lru\": %.6f,\n", r.re_lru.charged);
  std::fprintf(f, "    \"charged_2q\": %.6f,\n", r.re_2q.charged);
  std::fprintf(f, "    \"ratio_lru\": %.3f,\n", r.ratio_lru);
  std::fprintf(f, "    \"ratio_2q\": %.3f\n", r.ratio_2q);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"scan_mix\": {\n");
  std::fprintf(f, "    \"charged_lru\": %.6f,\n", r.mix_lru.charged);
  std::fprintf(f, "    \"charged_2q\": %.6f,\n", r.mix_2q.charged);
  std::fprintf(f, "    \"lru_over_2q\": %.3f\n", r.lru_over_2q);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"parity\": {\n");
  std::fprintf(f, "    \"charged_bit_equal\": %s,\n",
               r.charged_bit_equal ? "true" : "false");
  std::fprintf(f, "    \"rows_equal\": %s,\n",
               r.rows_equal ? "true" : "false");
  std::fprintf(f, "    \"accounting_exact\": %s\n",
               r.accounting_exact ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("storage-smoke: wrote %s\n", out_path);
  return 0;
}

int Run(const std::string& data_dir, bool smoke, const char* out_path) {
  const Status written = storage::WriteOnDiskDataset(data_dir, BenchSpec());
  if (!written.ok()) {
    std::fprintf(stderr, "dataset: %s\n", written.ToString().c_str());
    return 1;
  }
  const BenchReport r = RunAll(data_dir);
  PrintReport(r);
  if (smoke) return WriteSmokeJson(r, out_path);
  return 0;
}

}  // namespace
}  // namespace bouquet

int main(int argc, char** argv) {
  std::string data_dir = "/tmp/bouquet_bench_storage";
  bool smoke = false;
  const char* out_path = "BENCH_storage.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
    }
  }
  return bouquet::Run(data_dir, smoke, out_path);
}
