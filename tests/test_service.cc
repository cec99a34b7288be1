// Tests for the concurrent bouquet service layer: ThreadPool semantics
// (including nest-safety), template-key structural identity, BouquetCache
// LRU eviction + counters, single-flight compilation dedup, pool-parallel
// POSP determinism, warm-start from serialized bouquets, and the per-request
// stats split.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bouquet/serialize.h"
#include "common/thread_pool.h"
#include "ess/posp_generator.h"
#include "service/bouquet_cache.h"
#include "service/service.h"
#include "service/template_key.h"
#include "workloads/spaces.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, SubmitReturnsFutureResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<int> visits(1000, 0);
  pool.ParallelFor(0, visits.size(), 7, [&](uint64_t b, uint64_t e) {
    for (uint64_t i = b; i < e; ++i) ++visits[i];
  });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingleChunk) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](uint64_t, uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(0, 3, 100, [&](uint64_t b, uint64_t e) {
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 3u);
  });
  EXPECT_EQ(calls, 1);
}

// A pool task may itself ParallelFor over the same pool: the calling thread
// claims chunks, so this completes even when every worker is busy.
TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::vector<std::future<uint64_t>> futs;
  for (int t = 0; t < 4; ++t) {
    futs.push_back(pool.Submit([&pool] {
      std::atomic<uint64_t> sum{0};
      pool.ParallelFor(0, 100, 9, [&](uint64_t b, uint64_t e) {
        for (uint64_t i = b; i < e; ++i) {
          sum.fetch_add(i, std::memory_order_relaxed);
        }
      });
      return sum.load();
    }));
  }
  for (auto& f : futs) EXPECT_EQ(f.get(), 4950u);
}

// ------------------------------------------------------------- Template keys

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : catalog_(MakeTpchCatalog(1.0)), query_(MakeEqQuery(catalog_)) {}

  ServiceOptions FastOptions() const {
    ServiceOptions o;
    o.num_threads = 4;
    o.grid_resolution = 30;
    o.min_shard_points = 1;  // force multi-shard POSP even on tiny grids
    o.cache_shards = 1;
    return o;
  }

  Catalog catalog_;
  QuerySpec query_;
};

TEST_F(ServiceTest, TemplateKeyIgnoresErrorDimConstantsAndName) {
  const std::vector<int> res{30};
  const CostParams cp = CostParams::Postgres();
  const BouquetParams bp;
  const std::string base = TemplateSignature(query_, res, cp, bp);

  // Binding the error-prone predicate's constant = same template (the whole
  // point of the cache: compile once, serve every binding).
  QuerySpec bound = query_;
  bound.filters[0].constant = 1234;
  bound.name = "EQ-instance-7";
  EXPECT_EQ(TemplateSignature(bound, res, cp, bp), base);

  // Anything the compiled artifact depends on changes the key.
  QuerySpec wider = query_;
  wider.error_dims[0].lo = 1e-3;
  EXPECT_NE(TemplateSignature(wider, res, cp, bp), base);

  BouquetParams other_bp;
  other_bp.lambda = 0.3;
  EXPECT_NE(TemplateSignature(query_, res, cp, other_bp), base);

  EXPECT_NE(TemplateSignature(query_, {40}, cp, bp), base);
  EXPECT_NE(TemplateSignature(query_, res, CostParams::Commercial(), bp),
            base);

  // Hash is stable and key-discriminating on this set.
  EXPECT_EQ(TemplateHash(base), TemplateHash(base));
  EXPECT_NE(TemplateHash(base),
            TemplateHash(TemplateSignature(wider, res, cp, bp)));
}

// ------------------------------------------------------------- BouquetCache

std::shared_ptr<const CompiledBouquet> DummyBundle() {
  return std::make_shared<CompiledBouquet>();
}

TEST(BouquetCacheTest, LruEvictionAndCounters) {
  BouquetCache cache(2, /*num_shards=*/1);
  EXPECT_EQ(cache.Get("a"), nullptr);  // miss
  cache.Put("a", DummyBundle());
  cache.Put("b", DummyBundle());
  EXPECT_NE(cache.Get("a"), nullptr);  // hit; bumps "a" to MRU
  cache.Put("c", DummyBundle());       // evicts LRU = "b"
  EXPECT_EQ(cache.Get("b"), nullptr);  // miss (evicted)
  EXPECT_NE(cache.Get("a"), nullptr);  // survived
  EXPECT_NE(cache.Get("c"), nullptr);

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.inserts, 3u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_NEAR(s.HitRate(), 3.0 / 5.0, 1e-12);
}

TEST(BouquetCacheTest, PutOverwritesWithoutEviction) {
  BouquetCache cache(2, 1);
  cache.Put("a", DummyBundle());
  auto replacement = DummyBundle();
  cache.Put("a", replacement);
  EXPECT_EQ(cache.Get("a"), replacement);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(BouquetCacheTest, EvictedBundleSurvivesViaSharedPtr) {
  BouquetCache cache(1, 1);
  auto held = DummyBundle();
  cache.Put("a", held);
  cache.Put("b", DummyBundle());  // evicts "a"
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(held.use_count(), 1);  // still alive for in-flight requests
}

// ------------------------------------------------- Parallel POSP determinism

TEST_F(ServiceTest, PoolParallelPospIdenticalToSerial) {
  const EssGrid grid(query_, {40});
  const PlanDiagram serial =
      GeneratePosp(query_, catalog_, CostParams::Postgres(), grid);

  ThreadPool pool(4);
  PospOptions opts;
  opts.pool = &pool;
  opts.min_shard_points = 1;  // many shards, each with a private optimizer
  PospStats stats;
  const PlanDiagram parallel = GeneratePosp(
      query_, catalog_, CostParams::Postgres(), grid, opts, &stats);

  // Every point is accounted for by a full DP or a certified recost skip;
  // sharding must not lose or duplicate points.
  EXPECT_EQ(stats.dp_calls + stats.recost_hits,
            static_cast<long long>(grid.num_points()));
  EXPECT_EQ(stats.audit_failures, 0);
  ASSERT_EQ(parallel.num_plans(), serial.num_plans());
  for (uint64_t i = 0; i < grid.num_points(); ++i) {
    // Bit-identical: same interned plan ids, signatures, and costs.
    EXPECT_EQ(parallel.plan_at(i), serial.plan_at(i));
    EXPECT_EQ(parallel.plan(parallel.plan_at(i)).signature,
              serial.plan(serial.plan_at(i)).signature);
    EXPECT_DOUBLE_EQ(parallel.cost_at(i), serial.cost_at(i));
  }
}

// --------------------------------------------------------------- The service

TEST_F(ServiceTest, ServesRequestsAndReportsStatsSplit) {
  BouquetService service(catalog_, FastOptions());
  ServiceRequest req;
  req.query = query_;
  req.actual_selectivities = {0.05};
  auto res = service.Run(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->sim.completed);
  EXPECT_FALSE(res->cache_hit);
  EXPECT_TRUE(res->compiled);
  EXPECT_GT(res->compile_seconds, 0.0);
  EXPECT_GE(res->latency_seconds,
            res->execute_seconds);  // latency covers compile + execute
  ASSERT_NE(res->compiled_bundle, nullptr);
  EXPECT_GE(res->compiled_bundle->bouquet->cardinality(), 1);

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.compilations, 1u);
  EXPECT_GT(s.compile_seconds, 0.0);
  EXPECT_GE(s.latency_seconds, s.execute_seconds);
}

TEST_F(ServiceTest, RejectsMalformedRequests) {
  BouquetService service(catalog_, FastOptions());
  ServiceRequest req;
  req.query = query_;
  req.actual_selectivities = {0.05, 0.2};  // 1D query
  EXPECT_FALSE(service.Run(req).ok());

  ServiceRequest real;
  real.query = query_;
  real.mode = ExecutionMode::kRealData;  // no database configured
  EXPECT_FALSE(service.Run(real).ok());

  ServiceRequest bad;
  bad.query = query_;
  bad.query.tables.push_back("no_such_table");
  bad.actual_selectivities = {0.05};
  EXPECT_FALSE(service.Run(bad).ok());
}

TEST_F(ServiceTest, RepeatedTemplateHitRate) {
  BouquetService service(catalog_, FastOptions());
  const int M = 6;
  const double locations[M] = {0.001, 0.01, 0.05, 0.2, 0.5, 0.9};
  for (int i = 0; i < M; ++i) {
    ServiceRequest req;
    req.query = query_;
    req.query.filters[0].constant = 1000 + i;  // varying binding, same key
    req.actual_selectivities = {locations[i]};
    auto res = service.Run(req);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res->sim.completed);
    EXPECT_EQ(res->cache_hit, i > 0);
  }
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.requests, static_cast<uint64_t>(M));
  EXPECT_EQ(s.compilations, 1u);
  EXPECT_EQ(s.cache_hits, static_cast<uint64_t>(M - 1));
  EXPECT_GE(s.CacheHitRate(), (M - 1.0) / M - 1e-12);
}

TEST_F(ServiceTest, SingleFlightDedupUnderConcurrency) {
  ServiceOptions opts = FastOptions();
  opts.num_threads = 8;
  BouquetService service(catalog_, opts);

  const int N = 8;
  std::vector<std::future<Result<ServiceResult>>> futs;
  for (int i = 0; i < N; ++i) {
    ServiceRequest req;
    req.query = query_;
    req.actual_selectivities = {0.001 * (i + 1) * 37};
    futs.push_back(service.Submit(std::move(req)));
  }
  int shared = 0, hits = 0, compiled = 0;
  for (auto& f : futs) {
    auto res = f.get();
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_TRUE(res->sim.completed);
    shared += res->shared_compile ? 1 : 0;
    hits += res->cache_hit ? 1 : 0;
    compiled += res->compiled ? 1 : 0;
  }
  // Exactly one request compiled; everyone else either joined the in-flight
  // compilation or hit the cache afterwards.
  EXPECT_EQ(compiled, 1);
  EXPECT_EQ(shared + hits, N - 1);
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.compilations, 1u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.requests, static_cast<uint64_t>(N));
  EXPECT_EQ(service.cache().size(), 1u);
}

// Regression (stats admission ordering): requests used to be counted at the
// *end* of Run while GetOrCompile bumped cache_hits mid-request, so a
// concurrent stats() snapshot could observe cache_hits + cache_misses +
// shared_compiles > requests — i.e. CacheHitRate() > 1. Requests are now
// admitted into the counters before the cache is consulted, making the
// snapshot invariant hold at every instant.
TEST_F(ServiceTest, StatsSnapshotNeverOvercountsHits) {
  ServiceOptions opts = FastOptions();
  opts.num_threads = 4;
  BouquetService service(catalog_, opts);

  // Precompile the template so the workload below is all fast cache hits
  // (maximizing snapshot chances inside the hit window).
  {
    ServiceRequest req;
    req.query = query_;
    req.actual_selectivities = {0.05};
    ASSERT_TRUE(service.Run(req).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> violated{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      const ServiceStats s = service.stats();
      if (s.cache_hits + s.cache_misses + s.shared_compiles > s.requests) {
        violated.store(true);
      }
      if (s.CacheHitRate() > 1.0) violated.store(true);
    }
  });

  const int kThreads = 4, kIters = 150;
  std::vector<std::thread> runners;
  runners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    runners.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        ServiceRequest req;
        req.query = query_;
        req.actual_selectivities = {0.001 * ((t * kIters + i) % 900 + 1)};
        EXPECT_TRUE(service.Run(req).ok());
      }
    });
  }
  for (auto& r : runners) r.join();
  stop.store(true);
  snapshotter.join();

  EXPECT_FALSE(violated.load())
      << "stats snapshot showed more cache outcomes than admitted requests";
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.requests, static_cast<uint64_t>(kThreads * kIters + 1));
  EXPECT_EQ(s.cache_hits, static_cast<uint64_t>(kThreads * kIters));
}

TEST_F(ServiceTest, DistinctTemplatesCompileSeparately) {
  BouquetService service(catalog_, FastOptions());
  ServiceRequest a;
  a.query = query_;
  a.actual_selectivities = {0.05};
  ASSERT_TRUE(service.Run(a).ok());

  ServiceRequest b;
  b.query = query_;
  b.query.error_dims[0].lo = 1e-3;  // different ESS range => new template
  b.actual_selectivities = {0.05};
  ASSERT_TRUE(service.Run(b).ok());

  EXPECT_EQ(service.stats().compilations, 2u);
  EXPECT_EQ(service.cache().size(), 2u);
}

TEST_F(ServiceTest, WarmStartServesWithoutCompiling) {
  // Offline: compile with the same configuration the service will use.
  const ServiceOptions opts = FastOptions();
  const EssGrid grid(query_, {opts.grid_resolution});
  const PlanDiagram diagram =
      GeneratePosp(query_, catalog_, opts.cost_params, grid);
  QueryOptimizer opt(query_, catalog_, opts.cost_params);
  const PlanBouquet bouquet =
      BuildBouquet(diagram, &opt, opts.bouquet_params);
  const std::string path =
      ::testing::TempDir() + "/test_service_warm_start.bouquet";
  ASSERT_TRUE(SaveBouquetToFile(diagram, bouquet, path).ok());

  // Online: a fresh service warm-starts from disk; no compilation happens.
  BouquetService service(catalog_, opts);
  ASSERT_TRUE(service.WarmStart(query_, path).ok())
      << service.WarmStart(query_, path).ToString();
  ServiceRequest req;
  req.query = query_;
  req.actual_selectivities = {0.2};
  auto res = service.Run(req);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->cache_hit);
  EXPECT_TRUE(res->sim.completed);
  EXPECT_TRUE(res->compiled_bundle->warm_started);

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.compilations, 0u);
  EXPECT_EQ(s.warm_starts, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  std::remove(path.c_str());
}

TEST_F(ServiceTest, WarmStartRejectsResolutionMismatch) {
  const EssGrid grid(query_, {17});  // not the service's configured 30
  const PlanDiagram diagram =
      GeneratePosp(query_, catalog_, CostParams::Postgres(), grid);
  QueryOptimizer opt(query_, catalog_, CostParams::Postgres());
  const PlanBouquet bouquet = BuildBouquet(diagram, &opt);
  const std::string path =
      ::testing::TempDir() + "/test_service_warm_mismatch.bouquet";
  ASSERT_TRUE(SaveBouquetToFile(diagram, bouquet, path).ok());

  BouquetService service(catalog_, FastOptions());
  const Status st = service.WarmStart(query_, path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// Service results must agree with a directly-driven simulator: the cache
// and concurrency layers may not change the execution outcome.
TEST_F(ServiceTest, ServiceExecutionMatchesDirectSimulator) {
  const ServiceOptions opts = FastOptions();
  BouquetService service(catalog_, opts);

  ServiceRequest req;
  req.query = query_;
  req.actual_selectivities = {0.3};
  auto res = service.Run(req);
  ASSERT_TRUE(res.ok());

  const auto& c = *res->compiled_bundle;
  // Reference: same bundle, direct call.
  const uint64_t qa = [&] {
    // Snap exactly as the service does: nearest axis point in log space.
    int best = 0;
    double best_d = 1e300;
    for (int i = 0; i < c.grid->resolution(0); ++i) {
      const double d = std::abs(std::log(0.3 / c.grid->axis(0)[i]));
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    return c.grid->LinearIndex(GridPoint{best});
  }();
  const SimResult direct = c.simulator->RunOptimized(qa);
  EXPECT_EQ(res->sim.total_cost, direct.total_cost);
  EXPECT_EQ(res->sim.num_executions, direct.num_executions);
  EXPECT_EQ(res->sim.final_plan, direct.final_plan);
}

// ------------------------------------------------------- Real-data serving

// Concurrent kRealData requests: every binding of the form shares one
// compiled template; each request gets its own driver + optimizer and runs
// the Volcano executor against the shared (internally-locked) Database.
TEST(ServiceRealDataTest, ConcurrentDriverExecutions) {
  Database db;
  TpchDataOptions data_opts;
  data_opts.mini_scale = 0.1;
  MakeTpchDatabase(&db, data_opts);
  Catalog catalog;
  SyncTpchCatalog(db, &catalog);
  QuerySpec form = Make2DHQ8a(catalog);

  ServiceOptions opts;
  opts.num_threads = 4;
  opts.grid_resolution = 10;
  opts.min_shard_points = 1;
  opts.database = &db;
  BouquetService service(catalog, opts);

  const double locations[][2] = {{0.05, 0.3}, {0.4, 0.1}, {0.7, 0.6}};
  std::vector<std::future<Result<ServiceResult>>> futs;
  for (const auto& loc : locations) {
    ServiceRequest req;
    req.query = form;
    BindSelectionConstants(&req.query, catalog, {loc[0], loc[1]});
    req.mode = ExecutionMode::kRealData;
    futs.push_back(service.Submit(std::move(req)));
  }
  for (auto& f : futs) {
    auto res = f.get();
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_TRUE(res->real.completed);
    EXPECT_GT(res->real.num_executions, 0);
  }
  // Different bindings of the same form share one compiled bouquet.
  EXPECT_EQ(service.stats().compilations, 1u);
  EXPECT_EQ(service.cache().size(), 1u);
}

// ROADMAP aim 3: a request's charges depend only on (query, location, data,
// config). Four concurrent copies of one real-data request, served beside
// other bindings on a paged database whose pool is smaller than the data,
// must each produce the step sequence of a serial run — same contours,
// plans, budgets, bit-equal charges, completion, and page reads and hits.
// (With one shared accounting state, neighbours' accesses turned hits into
// misses and moved abort points.)
TEST(ServiceRealDataTest, ConcurrentPagedCopiesChargeLikeASerialRun) {
  Database mem;
  TpchDataOptions data_opts;
  data_opts.mini_scale = 0.1;
  MakeTpchDatabase(&mem, data_opts);
  Catalog catalog;
  SyncTpchCatalog(mem, &catalog);
  const QuerySpec form = Make2DHQ8a(catalog);

  storage::StorageOptions sopts;
  sopts.data_dir = ::testing::TempDir() + "/service_paged_copies";
  sopts.pool_pages = 16;
  sopts.policy = storage::EvictionPolicyKind::k2Q;
  storage::StorageManager sm(sopts);
  uint32_t data_pages = 0;
  for (const std::string& t : form.tables) {
    auto imported = sm.ImportTable(mem.table(t));
    ASSERT_TRUE(imported.ok()) << t << ": " << imported.status().ToString();
    data_pages += imported.value()->num_data_pages();
  }
  ASSERT_GT(data_pages, 2 * sopts.pool_pages);
  Database db;
  db.AttachStorage(&sm);

  ServiceOptions opts;
  opts.num_threads = 4;
  opts.grid_resolution = 10;
  opts.min_shard_points = 1;
  opts.database = &db;
  BouquetService service(catalog, opts);

  auto request = [&](double s0, double s1) {
    ServiceRequest req;
    req.query = form;
    BindSelectionConstants(&req.query, catalog, {s0, s1});
    req.mode = ExecutionMode::kRealData;
    return req;
  };
  auto serial = service.Run(request(0.337, 0.456));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const std::vector<DriverStep>& want = serial->real.steps;
  ASSERT_TRUE(serial->real.completed);
  ASSERT_GT(serial->real.page_reads, 0);
  ASSERT_GT(serial->real.page_hits, 0);

  const double others[][2] = {{0.05, 0.3}, {0.7, 0.6}, {0.9, 0.02}};
  std::vector<std::future<Result<ServiceResult>>> copies, rest;
  for (int round = 0; round < 4; ++round) {
    copies.push_back(service.Submit(request(0.337, 0.456)));
    if (round < 3) {
      rest.push_back(service.Submit(request(others[round][0],
                                            others[round][1])));
    }
  }
  for (auto& f : copies) {
    auto res = f.get();
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    const std::vector<DriverStep>& got = res->real.steps;
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].contour, want[i].contour) << "step " << i;
      EXPECT_EQ(got[i].plan_id, want[i].plan_id) << i;
      EXPECT_EQ(got[i].plan_signature, want[i].plan_signature) << i;
      EXPECT_EQ(got[i].budget, want[i].budget) << i;
      EXPECT_EQ(got[i].charged, want[i].charged) << i;  // bit-equal
      EXPECT_EQ(got[i].completed, want[i].completed) << i;
      EXPECT_EQ(got[i].spilled, want[i].spilled) << i;
      EXPECT_EQ(got[i].page_reads, want[i].page_reads) << i;
      EXPECT_EQ(got[i].page_hits, want[i].page_hits) << i;
    }
    EXPECT_EQ(res->real.total_cost_units, serial->real.total_cost_units);
  }
  for (auto& f : rest) {
    auto res = f.get();
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_TRUE(res->real.completed);
  }
  // Every run's counts were folded into the pool's stats.
  const storage::BufferStats st = sm.buffer()->stats();
  EXPECT_GT(st.misses, 0u);
  EXPECT_GT(st.hits, 0u);
  EXPECT_EQ(st.pinned_frames, 0u);
}

// Regression: a real-data run that exhausts every contour budget used to
// finish through the driver's safety net without being counted, so
// ServiceStats::fallbacks and bouquet_fallbacks_total saw simulated
// fallbacks only. Starved budgets (as in
// DriverTest.AllBudgetsExceededFallsBackAndCountsContours) force it.
TEST(ServiceRealDataTest, StarvedBudgetFallbackIsCounted) {
  Database db;
  TpchDataOptions data_opts;
  data_opts.mini_scale = 0.1;
  MakeTpchDatabase(&db, data_opts);
  Catalog catalog;
  SyncTpchCatalog(db, &catalog);
  const QuerySpec form = Make2DHQ8a(catalog);

  ServiceOptions opts;
  opts.num_threads = 1;
  opts.grid_resolution = 10;
  opts.database = &db;
  const EssGrid grid(form, {10, 10});
  const PlanDiagram diagram =
      GeneratePosp(form, catalog, opts.cost_params, grid);
  QueryOptimizer opt(form, catalog, opts.cost_params);
  PlanBouquet starved = BuildBouquet(diagram, &opt, opts.bouquet_params);
  for (BouquetContour& c : starved.contours) c.budget = 1.0;
  const std::string path =
      ::testing::TempDir() + "/test_service_starved.bouquet";
  ASSERT_TRUE(SaveBouquetToFile(diagram, starved, path).ok());
  BouquetService service(catalog, opts);
  ASSERT_TRUE(service.WarmStart(form, path).ok());

  ServiceRequest req;
  req.query = form;
  BindSelectionConstants(&req.query, catalog, {0.3, 0.4});
  req.mode = ExecutionMode::kRealData;
  auto res = service.Run(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->real.completed);
  EXPECT_TRUE(res->real.fallback_used);
  EXPECT_EQ(res->real.contours_crossed,
            static_cast<int>(starved.contours.size()));
  EXPECT_EQ(service.stats().fallbacks, 1u);
  EXPECT_EQ(
      service.metrics().GetCounter("bouquet_fallbacks_total", "")->value(),
      1u);
  std::remove(path.c_str());
}

// ----------------------------------------------------- Feedback integration

TEST(BouquetCacheTest, WarmEntriesTrackedThroughEviction) {
  BouquetCache cache(1, 1);
  auto warm = std::make_shared<CompiledBouquet>();
  warm->warm_started = true;
  cache.Put("a", std::shared_ptr<const CompiledBouquet>(std::move(warm)));
  CacheStats s = cache.stats();
  EXPECT_EQ(s.warm_inserts, 1u);
  EXPECT_EQ(s.warm_entries, 1u);
  EXPECT_EQ(s.warm_evictions, 0u);

  cache.Put("b", DummyBundle());  // LRU-evicts the warm entry
  s = cache.stats();
  EXPECT_EQ(s.warm_evictions, 1u);
  EXPECT_EQ(s.warm_entries, 0u);

  // Overwriting a cold entry with a warm one flips the live count; Clear
  // drains it.
  auto warm2 = std::make_shared<CompiledBouquet>();
  warm2->warm_started = true;
  cache.Put("b", std::shared_ptr<const CompiledBouquet>(std::move(warm2)));
  EXPECT_EQ(cache.stats().warm_entries, 1u);
  EXPECT_EQ(cache.stats().warm_inserts, 2u);
  cache.Clear();
  EXPECT_EQ(cache.stats().warm_entries, 0u);
}

TEST_F(ServiceTest, FeedbackWarmRunSkipsContours) {
  FeedbackStore store;  // memory-only: durability is test_feedback's job
  ServiceOptions opts = FastOptions();
  opts.feedback = &store;
  BouquetService service(catalog_, opts);
  ServiceRequest req;
  req.query = query_;
  req.actual_selectivities = {0.9};

  // The policy demands min_observations (3) before acting on feedback.
  for (int i = 0; i < 3; ++i) {
    auto res = service.Run(req);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_TRUE(res->sim.completed);
    EXPECT_EQ(res->sim.start_contour, 0);
  }
  auto warm = service.Run(req);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->sim.completed);
  EXPECT_FALSE(warm->sim.fallback_used);
  EXPECT_GT(warm->sim.start_contour, 0);  // ladder prefix skipped

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.feedback_lookups, 4u);
  EXPECT_EQ(s.feedback_hits, 1u);
  EXPECT_EQ(s.feedback_warm_runs, 1u);
  EXPECT_GE(s.feedback_contours_skipped, 1u);
  EXPECT_EQ(s.feedback_records, 4u);
  // Regression: feedback warm runs must stay invisible to the compile
  // accounting — one template, one compilation == one miss, and the
  // file-warm-start counter untouched.
  EXPECT_EQ(s.compilations, 1u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.warm_starts, 0u);
}

TEST_F(ServiceTest, FeedbackShrinksEssBoxOnFreshCompile) {
  FeedbackStore store;
  ServiceOptions opts = FastOptions();
  opts.feedback = &store;
  ServiceRequest req;
  req.query = query_;
  req.actual_selectivities = {0.3};
  {
    BouquetService first(catalog_, opts);
    for (int i = 0; i < 3; ++i) {
      auto res = first.Run(req);
      ASSERT_TRUE(res.ok());
      EXPECT_FALSE(res->compiled_bundle->shrunken_box);  // no support yet
    }
    EXPECT_EQ(first.stats().feedback_box_shrinks, 0u);
  }

  // A fresh service sharing the store compiles the template over the
  // observed support (+ guard band) instead of the declared range.
  BouquetService second(catalog_, opts);
  auto res = second.Run(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_NE(res->compiled_bundle, nullptr);
  EXPECT_TRUE(res->compiled_bundle->shrunken_box);
  EXPECT_TRUE(res->sim.completed);
  const ServiceStats s = second.stats();
  EXPECT_EQ(s.feedback_box_shrinks, 1u);
  // The shrunken grid is strictly denser-per-decade but smaller overall.
  EXPECT_LT(res->compiled_bundle->grid->num_points(),
            static_cast<uint64_t>(opts.grid_resolution));
}

TEST_F(ServiceTest, StatsExposeWarmCacheGauges) {
  const ServiceOptions opts = FastOptions();
  const EssGrid grid(query_, {opts.grid_resolution});
  const PlanDiagram diagram =
      GeneratePosp(query_, catalog_, opts.cost_params, grid);
  QueryOptimizer opt(query_, catalog_, opts.cost_params);
  const PlanBouquet bouquet = BuildBouquet(diagram, &opt, opts.bouquet_params);
  const std::string path =
      ::testing::TempDir() + "/test_service_warm_gauge.bouquet";
  ASSERT_TRUE(SaveBouquetToFile(diagram, bouquet, path).ok());

  BouquetService service(catalog_, opts);
  ASSERT_TRUE(service.WarmStart(query_, path).ok());
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.cache_warm_entries, 1u);
  EXPECT_EQ(s.cache_warm_evictions, 0u);
  std::remove(path.c_str());
}

// ------------------------------------------------- one count per event

// The value a Prometheus export prints for `series`; NaN when absent.
double Exported(const std::string& text, const std::string& series) {
  const std::string lines = "\n" + text;
  const std::string key = "\n" + series + " ";
  const size_t at = lines.find(key);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(lines.c_str() + at + key.size(), nullptr);
}

// Every ServiceStats field backed by an instrument equals what metrics()
// exports for it, and so do the sampled levels.
void ExpectStatsMatchExport(BouquetService& service) {
  const ServiceStats s = service.stats();
  const std::string text = service.metrics().ExportPrometheus();
  const std::pair<const char*, double> pairs[] = {
      {"service_requests_total", static_cast<double>(s.requests)},
      {"service_cache_hits_total", static_cast<double>(s.cache_hits)},
      {"service_cache_misses_total", static_cast<double>(s.cache_misses)},
      {"service_cache_misses_total", static_cast<double>(s.compilations)},
      {"service_shared_compiles_total",
       static_cast<double>(s.shared_compiles)},
      {"service_warm_starts_total", static_cast<double>(s.warm_starts)},
      {"service_posp_dp_calls_total", static_cast<double>(s.posp_dp_calls)},
      {"service_posp_recost_hits_total",
       static_cast<double>(s.posp_recost_hits)},
      {"service_posp_memo_hits_total", static_cast<double>(s.posp_memo_hits)},
      {"service_posp_audit_checks_total",
       static_cast<double>(s.posp_audit_checks)},
      {"service_posp_audit_failures_total",
       static_cast<double>(s.posp_audit_failures)},
      {"service_compile_seconds_sum", s.compile_seconds},
      {"service_execute_seconds_sum", s.execute_seconds},
      {"service_latency_seconds_sum", s.latency_seconds},
      {"bouquet_executions_total", static_cast<double>(s.plan_executions)},
      {"bouquet_contour_crossings_total",
       static_cast<double>(s.contour_crossings)},
      {"bouquet_spills_total", static_cast<double>(s.spills)},
      {"bouquet_fallbacks_total", static_cast<double>(s.fallbacks)},
      {"service_batches_total", static_cast<double>(s.batches)},
      {"service_batch_requests_total", static_cast<double>(s.batch_requests)},
      {"service_shed_total", static_cast<double>(s.sheds)},
      {"service_inflight_requests", static_cast<double>(s.inflight_requests)},
      {"service_queue_depth", static_cast<double>(s.queue_depth)},
      {"feedback_lookups_total", static_cast<double>(s.feedback_lookups)},
      {"feedback_hits_total", static_cast<double>(s.feedback_hits)},
      {"feedback_records_total", static_cast<double>(s.feedback_records)},
      {"feedback_warm_runs_total", static_cast<double>(s.feedback_warm_runs)},
      {"feedback_contours_skipped_total",
       static_cast<double>(s.feedback_contours_skipped)},
      {"feedback_box_shrinks_total",
       static_cast<double>(s.feedback_box_shrinks)},
      {"service_cache_warm_entries",
       static_cast<double>(s.cache_warm_entries)},
      {"service_cache_warm_evictions",
       static_cast<double>(s.cache_warm_evictions)},
      {"service_cache_hit_rate", s.CacheHitRate()},
  };
  for (const auto& [series, value] : pairs) {
    EXPECT_EQ(Exported(text, series), value) << series;
  }
}

// Simulation mode, feedback warm runs, batches, a file warm start and the
// shed path: every count agrees with its instrument, and the ladder's run-
// phase counts agree with the per-request results.
TEST_F(ServiceTest, SimulatedCountsAgreeWithExport) {
  FeedbackStore store;
  ServiceOptions opts = FastOptions();
  opts.feedback = &store;

  QuerySpec narrow = query_;
  narrow.name = "EQ-narrow";
  narrow.error_dims[0].lo = 1e-3;
  const EssGrid grid(narrow, {opts.grid_resolution});
  const PlanDiagram diagram =
      GeneratePosp(narrow, catalog_, opts.cost_params, grid);
  QueryOptimizer opt(narrow, catalog_, opts.cost_params);
  const PlanBouquet bouquet =
      BuildBouquet(diagram, &opt, opts.bouquet_params);
  const std::string path =
      ::testing::TempDir() + "/test_service_counts.bouquet";
  ASSERT_TRUE(SaveBouquetToFile(diagram, bouquet, path).ok());

  BouquetService service(catalog_, opts);
  ASSERT_TRUE(service.WarmStart(narrow, path).ok());
  std::vector<SimResult> runs;
  auto request = [&](const QuerySpec& q, double s) {
    ServiceRequest req;
    req.query = q;
    req.actual_selectivities = {s};
    return req;
  };
  for (double s : {0.9, 0.9, 0.9, 0.9, 0.02, 0.3}) {
    auto res = service.Run(request(query_, s));
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    runs.push_back(res->sim);
  }
  auto narrow_run = service.Run(request(narrow, 0.05));
  ASSERT_TRUE(narrow_run.ok());
  runs.push_back(narrow_run->sim);
  auto batch = service.RunBatch(
      {request(query_, 0.001), request(query_, 0.1), request(query_, 0.6)});
  ASSERT_TRUE(batch.ok());
  for (const ServiceResult& r : batch.value()) runs.push_back(r.sim);
  uint64_t executions = 0;
  for (double s : {0.2, 0.7}) {
    auto shed = service.RunSafePlan(request(query_, s));
    ASSERT_TRUE(shed.ok());
    executions += static_cast<uint64_t>(shed->sim.num_executions);
  }
  ExpectStatsMatchExport(service);

  uint64_t crossings = 0, spills = 0, fallbacks = 0;
  for (const SimResult& r : runs) {
    executions += static_cast<uint64_t>(r.num_executions);
    fallbacks += r.fallback_used ? 1 : 0;
    // Contours advanced past: warm-skipped ones are not crossed.
    crossings += static_cast<uint64_t>(r.final_contour - r.start_contour);
    for (const SimStep& step : r.steps) {
      if (!step.completed && step.learned_dim >= 0) ++spills;
    }
  }
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.requests, 12u);
  EXPECT_EQ(s.warm_starts, 1u);
  EXPECT_EQ(s.cache_warm_entries, 1u);
  EXPECT_EQ(s.compilations, 1u);
  EXPECT_EQ(s.sheds, 2u);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_GE(s.feedback_warm_runs, 1u);
  EXPECT_GT(s.posp_dp_calls, 0);
  EXPECT_EQ(fallbacks, 0u);
  EXPECT_EQ(s.plan_executions, executions);
  EXPECT_EQ(s.contour_crossings, crossings);
  EXPECT_EQ(s.spills, spills);
  EXPECT_GT(s.spills + s.contour_crossings, 0u);
  std::remove(path.c_str());
}

// Real-data mode on a paged database whose pool served accesses before the
// service existed: the service's counts agree with its export, the pool's
// BufferStats with the pool's own export, and ServiceStats' buffer fields
// with BufferStats.
TEST(ServiceRealDataTest, RealDataAndPoolCountsAgreeWithExport) {
  Database mem;
  TpchDataOptions data_opts;
  data_opts.mini_scale = 0.1;
  MakeTpchDatabase(&mem, data_opts);
  Catalog catalog;
  SyncTpchCatalog(mem, &catalog);
  const QuerySpec form = Make2DHQ8a(catalog);

  storage::StorageOptions sopts;
  sopts.data_dir = ::testing::TempDir() + "/service_counts_agree";
  sopts.pool_pages = 16;
  sopts.policy = storage::EvictionPolicyKind::k2Q;
  storage::StorageManager sm(sopts);
  for (const std::string& t : form.tables) {
    ASSERT_TRUE(sm.ImportTable(mem.table(t)).ok()) << t;
  }
  Database db;
  db.AttachStorage(&sm);
  storage::BufferManager* pool = sm.buffer();
  for (uint32_t page = 0; page < 4; ++page) {
    pool->Access(storage::PageId{1, page});
    pool->Access(storage::PageId{1, page});
  }
  ASSERT_GT(pool->stats().hits, 0u);

  obs::Tracer tracer(1 << 16);
  ServiceOptions opts;
  opts.num_threads = 2;
  opts.grid_resolution = 10;
  opts.min_shard_points = 1;
  opts.database = &db;
  opts.tracer = &tracer;
  BouquetService service(catalog, opts);
  std::vector<DriverResult> runs;
  const double locations[][2] = {{0.337, 0.456}, {0.05, 0.3}, {0.9, 0.02}};
  for (const auto& loc : locations) {
    ServiceRequest req;
    req.query = form;
    BindSelectionConstants(&req.query, catalog, {loc[0], loc[1]});
    req.mode = ExecutionMode::kRealData;
    auto res = service.Run(req);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_TRUE(res->real.completed);
    runs.push_back(res->real);
  }
  ExpectStatsMatchExport(service);

  uint64_t executions = 0, crossings = 0, spills = 0;
  for (const DriverResult& r : runs) {
    executions += static_cast<uint64_t>(r.num_executions);
    crossings +=
        static_cast<uint64_t>(r.contours_crossed - r.warm_contours_skipped);
    for (const DriverStep& step : r.steps) spills += step.spilled ? 1 : 0;
  }
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.plan_executions, executions);
  EXPECT_EQ(s.contour_crossings, crossings);
  EXPECT_EQ(s.spills, spills);
  EXPECT_GT(s.spills, 0u);

  const storage::BufferStats b = pool->stats();
  const std::string text = pool->metrics().ExportPrometheus();
  const std::pair<const char*, uint64_t> pairs[] = {
      {"buffer_hits_total", b.hits},
      {"buffer_misses_total", b.misses},
      {"buffer_evictions_total", b.evictions},
      {"buffer_ghost_hits_total", b.ghost_hits},
      {"buffer_writebacks_total", b.writebacks},
      {"buffer_physical_reads_total", b.physical_reads},
      {"buffer_write_errors_total", b.write_errors},
      {"buffer_pinned_frames", b.pinned_frames},
  };
  for (const auto& [series, value] : pairs) {
    EXPECT_EQ(Exported(text, series), static_cast<double>(value)) << series;
  }
  EXPECT_GT(b.physical_reads, 0u);
  EXPECT_EQ(s.buffer_hits, b.hits);
  EXPECT_EQ(s.buffer_misses, b.misses);
  EXPECT_EQ(s.buffer_evictions, b.evictions);
  EXPECT_EQ(s.buffer_writebacks, b.writebacks);
  EXPECT_EQ(s.buffer_pinned_peak, b.pinned_peak);
  const auto events = tracer.Snapshot();
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const auto& e) {
    return e.name == "storage.page_fault";
  }));
}

}  // namespace
}  // namespace bouquet
