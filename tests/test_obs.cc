// Tests for the runtime observability layer (src/obs): tracer/span
// mechanics, metrics registry + exporters, and the end-to-end wiring into
// BouquetService and BouquetDriver — including the machine-checked budget
// invariant over an exported trace (the per-step analogue of Theorem 3's
// "cost-limited" premise).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bouquet/driver.h"
#include "ess/posp_generator.h"
#include "executor/batch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/service.h"
#include "workloads/spaces.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace {

// Numeric attribute lookup; NaN when absent.
double NumAttr(const obs::TraceEvent& ev, const std::string& key) {
  for (const auto& [k, v] : ev.num_attrs) {
    if (k == key) return v;
  }
  return std::nan("");
}

bool HasStrAttr(const obs::TraceEvent& ev, const std::string& key) {
  for (const auto& [k, v] : ev.str_attrs) {
    if (k == key) return true;
  }
  return false;
}

std::vector<obs::TraceEvent> SpansNamed(
    const std::vector<obs::TraceEvent>& events, const std::string& name) {
  std::vector<obs::TraceEvent> out;
  for (const auto& ev : events) {
    if (ev.name == name) out.push_back(ev);
  }
  return out;
}

// The trace-wide budget invariant (same tolerance as
// scripts/trace_schema.json): on every execution-carrying span, finite
// charged stays within one charge granule of the budget.
void CheckBudgetInvariant(const std::vector<obs::TraceEvent>& events) {
  int checked = 0;
  for (const auto& ev : events) {
    if (ev.name != "driver.step" && ev.name != "exec.plan") {
      continue;
    }
    if (!std::isnan(NumAttr(ev, "build_failed"))) continue;
    const double budget = NumAttr(ev, "budget");
    const double charged = NumAttr(ev, "charged");
    ASSERT_FALSE(std::isnan(budget)) << ev.name << " span without budget";
    ASSERT_FALSE(std::isnan(charged)) << ev.name << " span without charged";
    if (std::isfinite(budget)) {
      EXPECT_LE(charged, budget * 1.01 + 10.0)
          << ev.name << ": charged " << charged << " vs budget " << budget;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0) << "no budgeted execution spans in trace";
}

TEST(TracerTest, SpanNestingAndAttributes) {
  obs::Tracer tracer(64);
  obs::Span root = tracer.StartSpan("service.request");
  const uint64_t root_id = root.id();
  ASSERT_TRUE(root.enabled());
  EXPECT_EQ(root.trace_id(), root_id);  // roots anchor their own trace
  {
    obs::Span child = tracer.StartSpan("driver.step", &root);
    child.Num("budget", 42.0).Flag("completed", true).Str("signature", "sig");
    child.End();
  }
  root.End();
  root.End();  // idempotent

  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);  // children End() before parents
  EXPECT_EQ(events[0].name, "driver.step");
  EXPECT_EQ(events[0].parent_id, root_id);
  EXPECT_EQ(events[0].trace_id, root_id);
  EXPECT_DOUBLE_EQ(NumAttr(events[0], "budget"), 42.0);
  EXPECT_DOUBLE_EQ(NumAttr(events[0], "completed"), 1.0);
  EXPECT_TRUE(HasStrAttr(events[0], "signature"));
  EXPECT_EQ(events[1].name, "service.request");
  EXPECT_EQ(events[1].parent_id, 0u);
  EXPECT_GE(events[1].dur_s, events[0].dur_s);
}

TEST(TracerTest, NullTracerYieldsDisabledSpans) {
  obs::Span s = obs::Tracer::Begin(nullptr, "anything");
  EXPECT_FALSE(s.enabled());
  EXPECT_EQ(s.id(), 0u);
  s.Num("k", 1.0).Flag("f", true).Str("s", "v");  // all no-ops
  s.End();
  obs::Span u = obs::Tracer::BeginUnder(nullptr, "anything", 7, 7);
  EXPECT_FALSE(u.enabled());
}

TEST(TracerTest, RingBufferWrapsAndCountsDrops) {
  obs::Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    obs::Span s = tracer.StartSpan("driver.step");
    s.Num("i", i);
    s.End();
  }
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first unwrap: the survivors are the last four, in order.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(NumAttr(events[i], "i"), 6.0 + i);
  }
  tracer.Clear();
  EXPECT_EQ(tracer.Snapshot().size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, JsonlExportShapeAndNonFiniteEncoding) {
  obs::Tracer tracer(16);
  obs::Span s = tracer.StartSpan("driver.step");
  s.Num("budget", std::numeric_limits<double>::infinity())
      .Num("charged", 12.5)
      .Str("signature", "a\"b\\c");  // needs escaping
  s.End();
  std::ostringstream os;
  tracer.ExportJsonl(os);
  const std::string line = os.str();
  EXPECT_NE(line.find("\"name\":\"driver.step\""), std::string::npos);
  EXPECT_NE(line.find("\"budget\":\"inf\""), std::string::npos)
      << "non-finite numerics must be exported as quoted strings: " << line;
  EXPECT_NE(line.find("\"charged\":12.5"), std::string::npos);
  EXPECT_NE(line.find("a\\\"b\\\\c"), std::string::npos);
  EXPECT_EQ(line.find("inf,"), std::string::npos)
      << "bare inf is not valid JSON: " << line;
  // Exactly one line per span, newline-terminated.
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
}

TEST(MetricsRegistryTest, InstrumentsAccumulateAndReRegisterByName) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("bouquet_executions_total", "execs");
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(c->value(), 5u);
  // Same name -> same instrument (cross-subsystem sharing).
  EXPECT_EQ(reg.GetCounter("bouquet_executions_total", "other help"), c);

  obs::Gauge* g = reg.GetGauge("service_cache_hit_rate", "rate");
  g->Set(0.25);
  g->Add(0.5);
  EXPECT_DOUBLE_EQ(g->value(), 0.75);

  obs::Histogram* h =
      reg.GetHistogram("service_compile_seconds", "latency", {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(100.0);  // +Inf bucket
  const auto snap = h->snapshot();
  ASSERT_EQ(snap.counts.size(), 3u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 100.55);
}

TEST(MetricsRegistryTest, PrometheusExportFormat) {
  obs::MetricsRegistry reg;
  reg.GetCounter("bouquet_executions_total", "Plan executions")->Inc(3);
  reg.GetGauge("service_cache_hit_rate", "hit rate")->Set(0.5);
  obs::Histogram* h = reg.GetHistogram("service_compile_seconds",
                                       "compile latency", {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.5);
  const std::string text = reg.ExportPrometheus();
  EXPECT_NE(text.find("# HELP bouquet_executions_total Plan executions"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE bouquet_executions_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("bouquet_executions_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE service_cache_hit_rate gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE service_compile_seconds histogram"),
            std::string::npos);
  // Cumulative buckets + the +Inf bucket + _sum/_count series.
  EXPECT_NE(text.find("service_compile_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("service_compile_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("service_compile_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("service_compile_seconds_count 2"), std::string::npos);

  const std::string json = reg.ExportJson();
  EXPECT_NE(json.find("\"bouquet_executions_total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: BouquetService with sinks attached (simulate mode).
// ---------------------------------------------------------------------------

TEST(ServiceObservabilityTest, TracedRequestsSatisfyBudgetInvariant) {
  const Catalog catalog = MakeTpchCatalog(1.0);
  obs::Tracer tracer(1 << 14);
  ServiceOptions opts;
  opts.num_threads = 2;
  opts.grid_resolution = 20;
  opts.tracer = &tracer;
  BouquetService service(catalog, opts);

  const QuerySpec query = MakeEqQuery(catalog);
  for (double s : {0.002, 0.05, 0.4, 0.9}) {
    ServiceRequest req;
    req.query = query;
    req.actual_selectivities = {s};
    auto res = service.Run(req);
    ASSERT_TRUE(res.ok());
    ASSERT_TRUE(res->sim.completed);
  }

  const auto events = tracer.Snapshot();
  ASSERT_FALSE(events.empty());
  // Machine-check the per-step "charged <= budget (+ one granule)"
  // invariant over every execution span in the trace.
  CheckBudgetInvariant(events);

  // Span-tree shape: one request root per Run, compiles under requests,
  // ladder runs under requests, steps under ladder runs.
  const auto requests = SpansNamed(events, "service.request");
  ASSERT_EQ(requests.size(), 4u);
  for (const auto& req : requests) {
    EXPECT_FALSE(std::isnan(NumAttr(req, "subopt")));
  }
  const auto compiles = SpansNamed(events, "service.compile");
  ASSERT_EQ(compiles.size(), 1u);  // single template, compiled once
  EXPECT_EQ(compiles[0].parent_id, requests[0].span_id);
  const auto sim_runs = SpansNamed(events, "driver.run_optimized");
  ASSERT_EQ(sim_runs.size(), 4u);
  int steps_total = 0;
  for (size_t i = 0; i < sim_runs.size(); ++i) {
    EXPECT_EQ(sim_runs[i].parent_id, requests[i].span_id);
    EXPECT_DOUBLE_EQ(NumAttr(sim_runs[i], "completed"), 1.0);
    for (const auto& step : SpansNamed(events, "driver.step")) {
      if (step.parent_id == sim_runs[i].span_id) ++steps_total;
    }
  }
  EXPECT_GT(steps_total, 0);

  // Referential integrity: every parented span's parent is in the export
  // with a matching trace id (capacity was ample: nothing dropped).
  EXPECT_EQ(tracer.dropped(), 0u);
  for (const auto& ev : events) {
    if (ev.parent_id == 0) continue;
    bool found = false;
    for (const auto& other : events) {
      if (other.span_id == ev.parent_id) {
        EXPECT_EQ(other.trace_id, ev.trace_id);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "dangling parent for span " << ev.span_id;
  }

  // The JSONL export round-trips through a file and contains one line per
  // snapshot event (scripts/check_trace_schema.py validates the same file
  // shape in CI).
  const char* path = "/tmp/test_obs_trace.jsonl";
  ASSERT_TRUE(tracer.ExportJsonlFile(path).ok());
  std::ifstream in(path);
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++lines;
  }
  EXPECT_EQ(lines, static_cast<int>(events.size()));
  std::remove(path);

  // Metrics: the required instruments are exposed with sane values.
  const std::string prom = service.metrics().ExportPrometheus();
  EXPECT_NE(prom.find("service_requests_total 4"), std::string::npos);
  EXPECT_NE(prom.find("service_cache_hits_total 3"), std::string::npos);
  EXPECT_NE(prom.find("service_cache_misses_total 1"), std::string::npos);
  EXPECT_NE(prom.find("bouquet_executions_total"), std::string::npos);
  EXPECT_NE(prom.find("bouquet_contour_crossings_total"), std::string::npos);
  EXPECT_NE(prom.find("bouquet_spills_total"), std::string::npos);
  EXPECT_NE(prom.find("service_cache_hit_rate 0.75"), std::string::npos);
  EXPECT_NE(prom.find("service_compile_seconds_bucket"), std::string::npos);
  EXPECT_NE(prom.find("bouquet_suboptimality_count 4"), std::string::npos);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.plan_executions,
            service.metrics().GetCounter("bouquet_executions_total", "")
                ->value());
  EXPECT_GT(stats.plan_executions, 0u);
}

TEST(ServiceObservabilityTest, DetachedSinksProduceNothing) {
  const Catalog catalog = MakeTpchCatalog(1.0);
  ServiceOptions opts;
  opts.num_threads = 2;
  opts.grid_resolution = 20;
  BouquetService service(catalog, opts);
  ServiceRequest req;
  req.query = MakeEqQuery(catalog);
  req.actual_selectivities = {0.1};
  auto res = service.Run(req);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->sim.completed);  // observability off changes nothing
}

// ---------------------------------------------------------------------------
// Batch executor: tape volume on the exec.batch span.
// ---------------------------------------------------------------------------

TEST(BatchExecObsTest, ExecBatchSpanReportsTapeVolume) {
  Database db;
  Catalog catalog;
  TpchDataOptions opts;
  opts.mini_scale = 0.2;
  MakeTpchDatabase(&db, opts);
  SyncTpchCatalog(db, &catalog);
  QuerySpec query;
  query.name = "obs_two_joins";
  query.tables = {"customer", "orders", "lineitem"};
  query.joins = {
      JoinPredicate{"orders", "o_custkey", "customer", "c_custkey", -1.0},
      JoinPredicate{"lineitem", "l_orderkey", "orders", "o_orderkey", -1.0}};
  const CostModel cm(CostParams::Postgres());

  const auto scan = [](int table) {
    auto n = std::make_shared<PlanNode>();
    n->op = OpType::kSeqScan;
    n->table_idx = table;
    return n;
  };
  const auto join = [](PlanNodeRef l, PlanNodeRef r, int join_idx) {
    auto n = std::make_shared<PlanNode>();
    n->op = OpType::kHashJoin;
    n->left = std::move(l);
    n->right = std::move(r);
    n->join_idxs = {join_idx};
    return n;
  };
  // (lineitem probe ⋈ orders build) probing a customer build.
  const PlanNodeRef plan = join(join(scan(2), scan(1), 1), scan(0), 0);

  obs::Tracer tracer(1 << 12);
  ExecContext ctx;
  ctx.query = &query;
  ctx.catalog = &catalog;
  ctx.db = &db;
  ctx.cost_model = &cm;
  ctx.tracer = &tracer;
  const ExecutionOutcome out =
      ExecutePlan(ExecEngine::kBatch, *plan, &ctx,
                  std::numeric_limits<double>::infinity());
  ASSERT_EQ(out.status, ExecResult::kDone);
  ASSERT_GT(out.rows_emitted, 0);

  const auto batches = SpansNamed(tracer.Snapshot(), "exec.batch");
  ASSERT_EQ(batches.size(), 1u);
  const double events = NumAttr(batches[0], "tape_events");
  const double bytes = NumAttr(batches[0], "tape_bytes");
  EXPECT_GT(events, 0.0);
  EXPECT_EQ(bytes, events * sizeof(batch_internal::MeterEvent));
}

// ---------------------------------------------------------------------------
// End-to-end: real-data BouquetDriver with sinks attached.
// ---------------------------------------------------------------------------

class DriverObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchDataOptions opts;
    opts.mini_scale = 0.2;
    MakeTpchDatabase(&db_, opts);
    SyncTpchCatalog(db_, &catalog_);
    query_ = Make2DHQ8a(catalog_);
    BindSelectionConstants(&query_, catalog_, {0.337, 0.456});
    ASSERT_TRUE(query_.Validate(catalog_).ok());
    opt_ = std::make_unique<QueryOptimizer>(query_, catalog_,
                                            CostParams::Postgres());
    grid_ = std::make_unique<EssGrid>(query_, std::vector<int>{16, 16});
    diagram_ = std::make_unique<PlanDiagram>(
        GeneratePosp(query_, catalog_, CostParams::Postgres(), *grid_));
    bouquet_ =
        std::make_unique<PlanBouquet>(BuildBouquet(*diagram_, opt_.get()));
  }

  Database db_;
  Catalog catalog_;
  QuerySpec query_;
  std::unique_ptr<QueryOptimizer> opt_;
  std::unique_ptr<EssGrid> grid_;
  std::unique_ptr<PlanDiagram> diagram_;
  std::unique_ptr<PlanBouquet> bouquet_;
};

TEST_F(DriverObsTest, OptimizedRunTraceMatchesStepsAndLearnsDims) {
  obs::Tracer tracer(1 << 16);
  obs::MetricsRegistry metrics;
  BouquetDriver driver(*bouquet_, *diagram_, opt_.get(), &db_);
  driver.SetObservability(&tracer, &metrics);
  const DriverResult res = driver.RunOptimized();
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(tracer.dropped(), 0u);

  const auto events = tracer.Snapshot();
  CheckBudgetInvariant(events);

  // Every DriverStep has exactly one driver.step span, in order, with
  // matching spill/completion/budget records.
  const auto run_spans = SpansNamed(events, "driver.run_optimized");
  ASSERT_EQ(run_spans.size(), 1u);
  const auto steps = SpansNamed(events, "driver.step");
  ASSERT_EQ(steps.size(), res.steps.size());
  int spilled_spans = 0, spilled_steps = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i].parent_id, run_spans[0].span_id);
    EXPECT_DOUBLE_EQ(NumAttr(steps[i], "contour"), res.steps[i].contour);
    EXPECT_DOUBLE_EQ(NumAttr(steps[i], "plan_id"), res.steps[i].plan_id);
    EXPECT_DOUBLE_EQ(NumAttr(steps[i], "charged"), res.steps[i].charged);
    EXPECT_EQ(NumAttr(steps[i], "spilled") == 1.0, res.steps[i].spilled);
    EXPECT_EQ(NumAttr(steps[i], "completed") == 1.0, res.steps[i].completed);
    spilled_spans += NumAttr(steps[i], "spilled") == 1.0 ? 1 : 0;
    spilled_steps += res.steps[i].spilled ? 1 : 0;
  }
  EXPECT_EQ(spilled_spans, spilled_steps);
  EXPECT_GT(spilled_steps, 0) << "2D H_Q8a at (0.337,0.456) must spill";

  // Spill-mode learning surfaces as q_run trace events and the
  // dims-learned counter (both error dims are discoverable here).
  const auto qrun_events = SpansNamed(events, "driver.qrun");
  EXPECT_FALSE(qrun_events.empty());
  bool any_learn_event = false;
  for (const auto& ev : qrun_events) {
    any_learn_event |= !std::isnan(NumAttr(ev, "learned_dim"));
  }
  EXPECT_TRUE(any_learn_event);
  EXPECT_EQ(
      metrics.GetCounter("bouquet_driver_dims_learned_total", "")->value(),
      2u);

  // Executor spans nest under the steps and carry operator records.
  const auto exec_plans = SpansNamed(events, "exec.plan");
  ASSERT_EQ(exec_plans.size(), res.steps.size());
  const auto exec_nodes = SpansNamed(events, "exec.node");
  EXPECT_GT(exec_nodes.size(), 0u);
  for (const auto& node : exec_nodes) {
    EXPECT_FALSE(std::isnan(NumAttr(node, "tuples_out")));
    EXPECT_GE(NumAttr(node, "node_wall_seconds"), 0.0);
  }

  // Driver metrics agree with the result record.
  EXPECT_EQ(
      metrics.GetCounter("bouquet_executions_total", "")->value(),
      static_cast<uint64_t>(res.num_executions));
  EXPECT_EQ(metrics.GetCounter("bouquet_spills_total", "")->value(),
            static_cast<uint64_t>(spilled_steps));
  EXPECT_EQ(metrics.GetCounter("bouquet_fallbacks_total", "")->value(),
            0u);
}

TEST_F(DriverObsTest, SafetyNetFallbackIsTracedAndCounted) {
  // Starve every contour so the safety net must complete the query; the
  // trace and metrics must say so explicitly.
  PlanBouquet starved = *bouquet_;
  for (BouquetContour& c : starved.contours) c.budget = 1.0;
  obs::Tracer tracer(1 << 16);
  obs::MetricsRegistry metrics;
  BouquetDriver driver(starved, *diagram_, opt_.get(), &db_);
  driver.SetObservability(&tracer, &metrics);
  const DriverResult res = driver.RunBasic();
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(tracer.dropped(), 0u);

  const auto events = tracer.Snapshot();
  const auto steps = SpansNamed(events, "driver.step");
  ASSERT_EQ(steps.size(), res.steps.size());
  // The final step span is the unbudgeted fallback, past the last contour.
  const auto& last = steps.back();
  EXPECT_TRUE(std::isinf(NumAttr(last, "budget")));
  EXPECT_DOUBLE_EQ(NumAttr(last, "completed"), 1.0);
  EXPECT_DOUBLE_EQ(NumAttr(last, "contour"),
                   static_cast<double>(starved.contours.size()));
  // All earlier spans are aborted budgeted executions.
  for (size_t i = 0; i + 1 < steps.size(); ++i) {
    EXPECT_DOUBLE_EQ(NumAttr(steps[i], "completed"), 0.0);
    EXPECT_TRUE(std::isfinite(NumAttr(steps[i], "budget")));
  }
  const auto run_spans = SpansNamed(events, "driver.run_basic");
  ASSERT_EQ(run_spans.size(), 1u);
  EXPECT_DOUBLE_EQ(NumAttr(run_spans[0], "fallback"), 1.0);
  EXPECT_DOUBLE_EQ(NumAttr(run_spans[0], "contours_crossed"),
                   static_cast<double>(starved.contours.size()));

  EXPECT_EQ(metrics.GetCounter("bouquet_fallbacks_total", "")->value(),
            1u);
  EXPECT_EQ(
      metrics.GetCounter("bouquet_contour_crossings_total", "")
          ->value(),
      static_cast<uint64_t>(starved.contours.size()));
  // Budget-utilization histogram saw every budgeted (non-fallback) step.
  const auto snap =
      metrics
          .GetHistogram("bouquet_driver_budget_utilization", "",
                        obs::BudgetUtilizationBuckets())
          ->snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(res.num_executions - 1));
}

}  // namespace
}  // namespace bouquet
