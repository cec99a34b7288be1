// Tests for executor/: operator correctness against a naive reference
// evaluation, cost-limited abort, instrumentation counters, spilled
// subtree execution, bind failures, and the run loop both engines share.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "executor/builder.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "workloads/spaces.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace {

// Naive reference: count of part x lineitem x orders rows satisfying the
// bound filters, computed by brute hash lookups.
int64_t ReferenceCount(const Database& db, const QuerySpec& q) {
  const DataTable& part = db.table("part");
  const DataTable& lineitem = db.table("lineitem");
  const DataTable& orders = db.table("orders");

  auto filter_ok = [&](const DataTable& t, int64_t row) {
    for (const auto& f : q.filters) {
      if (f.table != t.name()) continue;
      const int64_t v = t.value(t.ColumnIndex(f.column), row);
      bool ok = true;
      switch (f.op) {
        case CompareOp::kLess: ok = v < f.constant; break;
        case CompareOp::kLessEqual: ok = v <= f.constant; break;
        case CompareOp::kGreater: ok = v > f.constant; break;
        case CompareOp::kGreaterEqual: ok = v >= f.constant; break;
        case CompareOp::kEqual: ok = v == f.constant; break;
      }
      if (!ok) return false;
    }
    return true;
  };

  std::unordered_map<int64_t, int64_t> part_pass;  // partkey -> multiplicity
  const int pk = part.ColumnIndex("p_partkey");
  for (int64_t r = 0; r < part.num_rows(); ++r) {
    if (filter_ok(part, r)) part_pass[part.value(pk, r)]++;
  }
  std::unordered_map<int64_t, int64_t> order_pass;
  const int ok_col = orders.ColumnIndex("o_orderkey");
  for (int64_t r = 0; r < orders.num_rows(); ++r) {
    if (filter_ok(orders, r)) order_pass[orders.value(ok_col, r)]++;
  }
  int64_t count = 0;
  const int lpk = lineitem.ColumnIndex("l_partkey");
  const int lok = lineitem.ColumnIndex("l_orderkey");
  for (int64_t r = 0; r < lineitem.num_rows(); ++r) {
    auto itp = part_pass.find(lineitem.value(lpk, r));
    if (itp == part_pass.end()) continue;
    auto ito = order_pass.find(lineitem.value(lok, r));
    if (ito == order_pass.end()) continue;
    count += itp->second * ito->second;
  }
  return count;
}

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchDataOptions opts;
    opts.mini_scale = 0.1;  // lineitem ~6000 rows
    MakeTpchDatabase(&db_, opts);
    SyncTpchCatalog(db_, &catalog_);
    query_ = Make2DHQ8a(catalog_);
    BindSelectionConstants(&query_, catalog_, {0.3, 0.4});
    ASSERT_TRUE(query_.Validate(catalog_).ok());
    opt_ = std::make_unique<QueryOptimizer>(query_, catalog_,
                                            CostParams::Postgres());
  }

  ExecContext MakeContext() {
    ExecContext ctx;
    ctx.query = &query_;
    ctx.catalog = &catalog_;
    ctx.db = &db_;
    ctx.cost_model = &opt_->cost_model();
    return ctx;
  }

  Database db_;
  Catalog catalog_;
  QuerySpec query_;
  std::unique_ptr<QueryOptimizer> opt_;
};

TEST_F(ExecutorTest, PlanMatchesReferenceCount) {
  const int64_t expected = ReferenceCount(db_, query_);
  ASSERT_GT(expected, 0);
  const Plan plan = opt_->OptimizeAt({0.3, 0.4});
  ExecContext ctx = MakeContext();
  std::vector<Row> rows;
  const ExecutionOutcome out = ExecutePlan(
      ExecEngine::kScalar, *plan.root, &ctx,
      std::numeric_limits<double>::infinity(), &rows);
  EXPECT_EQ(out.status, ExecResult::kDone);
  EXPECT_EQ(out.rows_emitted, expected);
  EXPECT_EQ(static_cast<int64_t>(rows.size()), expected);
}

TEST_F(ExecutorTest, AllPlanShapesAgree) {
  // Different injected selectivities force different physical plans; all
  // must return identical cardinalities on the same data.
  const int64_t expected = ReferenceCount(db_, query_);
  std::set<std::string> signatures;
  for (double s1 : {1e-3, 0.05, 1.0}) {
    for (double s2 : {1e-3, 0.05, 1.0}) {
      const Plan plan = opt_->OptimizeAt({s1, s2});
      signatures.insert(plan.signature);
      ExecContext ctx = MakeContext();
      const ExecutionOutcome out = ExecutePlan(
          ExecEngine::kScalar, *plan.root, &ctx,
          std::numeric_limits<double>::infinity(), nullptr);
      EXPECT_EQ(out.status, ExecResult::kDone) << plan.signature;
      EXPECT_EQ(out.rows_emitted, expected) << plan.signature;
    }
  }
  // The sweep must actually have exercised multiple plan shapes.
  EXPECT_GE(signatures.size(), 2u);
}

TEST_F(ExecutorTest, BudgetAborts) {
  const Plan plan = opt_->OptimizeAt({0.3, 0.4});
  ExecContext ctx = MakeContext();
  const ExecutionOutcome out = ExecutePlan(ExecEngine::kScalar, *plan.root,
                                           &ctx, 1.0, nullptr);
  EXPECT_EQ(out.status, ExecResult::kAborted);
  EXPECT_GT(out.cost_charged, 1.0);       // tripped just over the budget
  EXPECT_LT(out.cost_charged, 100.0);     // but did not run away
}

TEST_F(ExecutorTest, ChargesApproximateEstimatedCost) {
  // Executing the optimal plan at (0.3, 0.4) with unlimited budget should
  // charge within a small factor of the cost model's estimate at the true
  // location (the meter uses the same constants).
  const Plan plan = opt_->OptimizeAt({0.3, 0.4});
  const double est = opt_->CostPlanAt(*plan.root, {0.3, 0.4});
  ExecContext ctx = MakeContext();
  const ExecutionOutcome out = ExecutePlan(
      ExecEngine::kScalar, *plan.root, &ctx,
      std::numeric_limits<double>::infinity(), nullptr);
  EXPECT_EQ(out.status, ExecResult::kDone);
  EXPECT_GT(out.cost_charged, est * 0.1);
  EXPECT_LT(out.cost_charged, est * 10.0);
}

TEST_F(ExecutorTest, InstrumentationCountsScanOutput) {
  const Plan plan = opt_->OptimizeAt({0.3, 0.4});
  ExecContext ctx = MakeContext();
  ExecutePlan(ExecEngine::kScalar, *plan.root, &ctx,
              std::numeric_limits<double>::infinity(), nullptr);
  // The part scan node must report tuples_out == filtered part count.
  const ErrorDimension& dim = query_.error_dims[0];  // p_retailprice
  const PlanNode* part_node =
      FindPredicateNode(*plan.root, false, dim.predicate_index);
  ASSERT_NE(part_node, nullptr);
  const NodeCounters* nc = ctx.instr.Find(part_node);
  ASSERT_NE(nc, nullptr);

  const DataTable& part = db_.table("part");
  const auto& f = query_.filters[dim.predicate_index];
  int64_t expected = 0;
  const int col = part.ColumnIndex(f.column);
  for (int64_t r = 0; r < part.num_rows(); ++r) {
    expected += part.value(col, r) < f.constant;
  }
  if (part_node->is_scan()) {
    EXPECT_EQ(nc->tuples_out, expected);
    EXPECT_TRUE(nc->finished);
  } else {
    // Predicate evaluated at a join (index-NL inner): tuple count reflects
    // join output, just assert it ran.
    EXPECT_GE(nc->tuples_out, 0);
  }
}

TEST_F(ExecutorTest, SpilledSubtreeRunsOnlyErrorNode) {
  const Plan plan = opt_->OptimizeAt({1e-3, 1e-3});
  const ErrorDimension& dim = query_.error_dims[0];
  const PlanNode* spill =
      FindPredicateNode(*plan.root, false, dim.predicate_index);
  ASSERT_NE(spill, nullptr);
  ExecContext ctx = MakeContext();
  const ExecutionOutcome out = ExecuteSpilled(
      ExecEngine::kScalar, *spill, &ctx,
      std::numeric_limits<double>::infinity());
  EXPECT_EQ(out.status, ExecResult::kDone);
  // The spilled run must be cheaper than the full plan's execution.
  ExecContext ctx2 = MakeContext();
  const ExecutionOutcome full = ExecutePlan(
      ExecEngine::kScalar, *plan.root, &ctx2,
      std::numeric_limits<double>::infinity(), nullptr);
  EXPECT_LE(out.cost_charged, full.cost_charged);
}

TEST_F(ExecutorTest, AbstractPredicateRefusesExecution) {
  QuerySpec abstract = Make2DHQ8a(catalog_);  // constants unbound
  QueryOptimizer opt(abstract, catalog_, CostParams::Postgres());
  const Plan plan = opt.OptimizeAt({0.1, 0.1});
  ExecContext ctx;
  ctx.query = &abstract;
  ctx.catalog = &catalog_;
  ctx.db = &db_;
  ctx.cost_model = &opt.cost_model();
  const auto bound = BindPlan(*plan.root, ctx);
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kFailedPrecondition);
  for (const ExecEngine engine : {ExecEngine::kScalar, ExecEngine::kBatch}) {
    const ExecutionOutcome out = ExecutePlan(
        engine, *plan.root, &ctx, std::numeric_limits<double>::infinity());
    EXPECT_TRUE(out.build_failed);
    EXPECT_EQ(out.status, ExecResult::kAborted);
    EXPECT_EQ(out.build_status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(out.build_status.message(), bound.status().message());
    EXPECT_EQ(out.cost_charged, 0.0);
  }
}

TEST_F(ExecutorTest, MissingColumnRefusesExecution) {
  // A filter on a column the catalog knows but the data table lacks.
  Database db;
  DataTable part("part", {"p_partkey"});
  part.AppendRow({1});
  db.AddTable(std::move(part));
  QuerySpec q;
  q.name = "missing";
  q.tables = {"part"};
  q.filters = {SelectionPredicate{"part", "p_retailprice", CompareOp::kLess,
                                  100, -1.0}};
  auto scan = std::make_shared<PlanNode>();
  scan->op = OpType::kSeqScan;
  scan->table_idx = 0;
  scan->filter_idxs = {0};
  ExecContext ctx;
  ctx.query = &q;
  ctx.catalog = &catalog_;
  ctx.db = &db;
  ctx.cost_model = &opt_->cost_model();
  for (const ExecEngine engine : {ExecEngine::kScalar, ExecEngine::kBatch}) {
    const ExecutionOutcome out = ExecutePlan(
        engine, *scan, &ctx, std::numeric_limits<double>::infinity());
    EXPECT_TRUE(out.build_failed);
    EXPECT_EQ(out.build_status.code(), StatusCode::kNotFound);
    EXPECT_EQ(out.build_status.message(), "column missing in data table");
  }
}

TEST_F(ExecutorTest, EmptyResultAtImpossibleFilter) {
  QuerySpec q = Make2DHQ8a(catalog_);
  // Constants below every value: zero selectivity.
  q.filters[0].constant = INT64_MIN + 1;
  q.filters[1].constant = INT64_MIN + 1;
  QueryOptimizer opt(q, catalog_, CostParams::Postgres());
  const Plan plan = opt.OptimizeAt({1e-3, 1e-3});
  ExecContext ctx;
  ctx.query = &q;
  ctx.catalog = &catalog_;
  ctx.db = &db_;
  ctx.cost_model = &opt.cost_model();
  std::vector<Row> rows;
  const ExecutionOutcome out = ExecutePlan(
      ExecEngine::kScalar, *plan.root, &ctx,
      std::numeric_limits<double>::infinity(), &rows);
  EXPECT_EQ(out.status, ExecResult::kDone);
  EXPECT_EQ(out.rows_emitted, 0);
}

// What the shared run loop reports for one traced execution: the outcome,
// the exec.plan span's attributes, and the exec.node spans as a sorted
// multiset of (op, tuples_out, tuples_scanned).
struct RunSurface {
  ExecutionOutcome out;
  std::vector<std::pair<std::string, double>> plan_num;
  std::vector<std::pair<std::string, std::string>> plan_str;
  std::vector<std::array<double, 3>> nodes;
};

double Attr(const obs::TraceEvent& ev, const std::string& key) {
  for (const auto& [k, v] : ev.num_attrs) {
    if (k == key) return v;
  }
  ADD_FAILURE() << ev.name << " lacks " << key;
  return -1.0;
}

RunSurface RunTraced(ExecEngine engine, const PlanNode& root, ExecContext ctx,
                     double budget, bool spilled) {
  obs::Tracer tracer;
  ctx.tracer = &tracer;
  RunSurface r;
  r.out = spilled ? ExecuteSpilled(engine, root, &ctx, budget)
                  : ExecutePlan(engine, root, &ctx, budget);
  int plans = 0;
  for (const obs::TraceEvent& ev : tracer.Snapshot()) {
    if (ev.name == "exec.plan") {
      ++plans;
      r.plan_num = ev.num_attrs;
      r.plan_str = ev.str_attrs;
    } else if (ev.name == "exec.node") {
      r.nodes.push_back({Attr(ev, "op"), Attr(ev, "tuples_out"),
                         Attr(ev, "tuples_scanned")});
    }
  }
  EXPECT_EQ(plans, 1);
  std::sort(r.nodes.begin(), r.nodes.end());
  return r;
}

// Both engines go through one run loop: the exec.plan span, the exec.node
// spans and the build status must not depend on the engine.
TEST_F(ExecutorTest, EnginesReportIdenticalRunSurface) {
  const double inf = std::numeric_limits<double>::infinity();
  const Plan plan = opt_->OptimizeAt({0.3, 0.4});
  ExecContext ref = MakeContext();
  const double full =
      ExecutePlan(ExecEngine::kScalar, *plan.root, &ref, inf).cost_charged;
  const int pred = query_.error_dims[0].predicate_index;
  const PlanNode* spill = FindPredicateNode(*plan.root, false, pred);
  ASSERT_NE(spill, nullptr);

  QuerySpec abstract = Make2DHQ8a(catalog_);  // constants unbound
  ExecContext abstract_ctx = MakeContext();
  abstract_ctx.query = &abstract;

  struct Case {
    const char* name;
    const PlanNode* root;
    ExecContext ctx;
    double budget;
    bool spilled;
  };
  Case cases[] = {
      {"finished", plan.root.get(), MakeContext(), inf, false},
      {"aborted", plan.root.get(), MakeContext(), full / 2, false},
      {"spilled", spill, MakeContext(), inf, true},
      {"build_failed", plan.root.get(), abstract_ctx, inf, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const RunSurface s =
        RunTraced(ExecEngine::kScalar, *c.root, c.ctx, c.budget, c.spilled);
    const RunSurface b =
        RunTraced(ExecEngine::kBatch, *c.root, c.ctx, c.budget, c.spilled);
    EXPECT_FALSE(s.plan_num.empty() && s.plan_str.empty());
    EXPECT_EQ(b.plan_num, s.plan_num);
    EXPECT_EQ(b.plan_str, s.plan_str);
    EXPECT_EQ(b.nodes, s.nodes);
    EXPECT_EQ(b.out.build_failed, s.out.build_failed);
    EXPECT_EQ(b.out.build_status.code(), s.out.build_status.code());
    EXPECT_EQ(b.out.build_status.message(), s.out.build_status.message());
  }
  // The cases reach what they are named for.
  const RunSurface done = RunTraced(ExecEngine::kBatch, *plan.root,
                                    MakeContext(), inf, false);
  EXPECT_EQ(done.out.status, ExecResult::kDone);
  EXPECT_FALSE(done.nodes.empty());
  const RunSurface aborted = RunTraced(ExecEngine::kBatch, *plan.root,
                                       MakeContext(), full / 2, false);
  EXPECT_EQ(aborted.out.status, ExecResult::kAborted);
  EXPECT_FALSE(aborted.out.build_failed);
  const RunSurface failed = RunTraced(ExecEngine::kBatch, *plan.root,
                                      abstract_ctx, inf, false);
  EXPECT_TRUE(failed.out.build_failed);
  EXPECT_EQ(failed.out.build_status.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace bouquet
