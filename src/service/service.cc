#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "bouquet/serialize.h"
#include "common/str_util.h"
#include "ess/posp_generator.h"
#include "service/template_key.h"

namespace bouquet {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

BouquetService::BouquetService(const Catalog& catalog, ServiceOptions options)
    : catalog_(&catalog),
      options_(options),
      ladder_(LadderInstruments::Resolve(metrics_)),
      pool_(options.num_threads),
      cache_(options.cache_capacity, options.cache_shards) {
  obs::MetricsRegistry& m = metrics_;
  ins_.requests = m.GetCounter("service_requests_total", "Requests served");
  ins_.cache_hits = m.GetCounter("service_cache_hits_total",
                                 "Requests served from the bouquet cache");
  ins_.compilations =
      m.GetCounter("service_cache_misses_total",
                   "Requests that compiled their template bundle");
  ins_.shared_compiles =
      m.GetCounter("service_shared_compiles_total",
                   "Requests deduplicated onto another compile "
                   "(single-flight followers)");
  ins_.warm_starts = m.GetCounter("service_warm_starts_total",
                                  "Bundles installed from bouquet files");
  ins_.posp_dp_calls = m.GetCounter(
      "service_posp_dp_calls_total", "Full DP invocations of POSP compiles");
  ins_.posp_recost_hits =
      m.GetCounter("service_posp_recost_hits_total",
                   "POSP grid points served by the recost fast path");
  ins_.posp_memo_hits =
      m.GetCounter("service_posp_memo_hits_total",
                   "DP subproblems reused from the invariant-subplan memo");
  ins_.posp_audit_checks = m.GetCounter(
      "service_posp_audit_checks_total", "POSP differential-audit checks");
  ins_.posp_audit_failures =
      m.GetCounter("service_posp_audit_failures_total",
                   "POSP differential-audit mismatches");
  ins_.compile_seconds =
      m.GetHistogram("service_compile_seconds",
                     "Template compile latency (leader compiles only)",
                     obs::CompileLatencyBuckets());
  ins_.execute_seconds = m.GetHistogram(
      "service_execute_seconds",
      "Per-request execution time (ladder or safe plan)",
      obs::NetLatencyBuckets());
  ins_.latency_seconds = m.GetHistogram(
      "service_latency_seconds",
      "Per-request latency from admission to result",
      obs::NetLatencyBuckets());
  ins_.suboptimality = m.GetHistogram(
      "bouquet_suboptimality",
      "Per-run SubOpt = total cost / optimal cost at q_a (simulated runs)",
      obs::SubOptimalityBuckets());
  ins_.batches = m.GetCounter("service_batches_total",
                              "Same-template batches served by RunBatch");
  ins_.batch_requests = m.GetCounter("service_batch_requests_total",
                                     "Requests served inside batches");
  ins_.sheds = m.GetCounter(
      "service_shed_total",
      "Requests served degraded by the precompiled MSO-safe plan");
  ins_.feedback_lookups = m.GetCounter(
      "feedback_lookups_total", "Feedback store lookups before runs");
  ins_.feedback_hits = m.GetCounter(
      "feedback_hits_total",
      "Feedback lookups that produced a usable warm-start seed");
  ins_.feedback_records = m.GetCounter(
      "feedback_records_total", "Run outcomes recorded into feedback");
  ins_.feedback_warm_runs = m.GetCounter(
      "feedback_warm_runs_total",
      "Runs that warm-started the ladder above contour 0");
  ins_.feedback_contours_skipped = m.GetCounter(
      "feedback_contours_skipped_total",
      "Contours skipped up-front by warm starts, summed over runs");
  ins_.feedback_box_shrinks = m.GetCounter(
      "feedback_box_shrinks_total",
      "Template compiles over a feedback-shrunken ESS box");

  // Levels, read from their one source whenever they are exported.
  m.GetGauge("service_cache_hit_rate", "cache_hits / requests, cumulative",
             [this] {
               // Hits first, requests last (see stats()).
               const double hits = static_cast<double>(ins_.cache_hits->value());
               const uint64_t requests = ins_.requests->value();
               return requests == 0 ? 0.0 : hits / requests;
             });
  m.GetGauge("service_inflight_requests", "Requests currently executing",
             [this] {
               return static_cast<double>(
                   inflight_now_.load(std::memory_order_relaxed));
             });
  m.GetGauge("service_queue_depth", "Tasks waiting in the service pool",
             [this] { return static_cast<double>(pool_.queue_depth()); });
  m.GetGauge("service_cache_warm_entries",
             "Warm-started bundles resident in the cache", [this] {
               return static_cast<double>(cache_.stats().warm_entries);
             });
  m.GetGauge("service_cache_warm_evictions",
             "Warm-started bundles evicted by LRU pressure", [this] {
               return static_cast<double>(cache_.stats().warm_evictions);
             });

  // Disk-backed databases: page-fault spans go to the service's tracer
  // (the buffer pool counts its own events in its own registry).
  if (options_.database != nullptr &&
      options_.database->storage() != nullptr &&
      options_.tracer != nullptr) {
    options_.database->storage()->buffer()->SetObservability(options_.tracer);
  }
}

BouquetService::InflightScope::InflightScope(BouquetService* s) : s_(s) {
  const int64_t now =
      s_->inflight_now_.fetch_add(1, std::memory_order_relaxed) + 1;
  int64_t peak = s_->inflight_peak_.load(std::memory_order_relaxed);
  while (now > peak && !s_->inflight_peak_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

BouquetService::InflightScope::~InflightScope() {
  s_->inflight_now_.fetch_sub(1, std::memory_order_relaxed);
}

std::vector<int> BouquetService::ResolutionsFor(const QuerySpec& query) const {
  const int dims = query.NumDims();
  const int res = options_.grid_resolution > 0
                      ? options_.grid_resolution
                      : EssGrid::DefaultResolutionForDims(dims);
  return std::vector<int>(dims, res);
}

std::string BouquetService::KeyFor(const QuerySpec& query) const {
  return TemplateSignature(query, ResolutionsFor(query), options_.cost_params,
                           options_.bouquet_params);
}

std::shared_ptr<const CompiledBouquet> BouquetService::Compile(
    const QuerySpec& query) {
  const auto t0 = std::chrono::steady_clock::now();
  auto c = std::make_shared<CompiledBouquet>();
  c->query = query;
  // Feedback-driven ESS-box shrinking: when the store has enough repeat
  // observations for this template, compile over the observed selectivity
  // support (plus guard band) instead of the declared ranges. The cache key
  // — which encodes the declared ranges — is unchanged, and SnapToGrid
  // clamps out-of-box actuals to the grid edge, so correctness (ladder
  // completion) is unaffected; only the grid the POSP explores shrinks.
  EssBox box;
  bool shrunk = false;
  if (options_.feedback != nullptr && options_.feedback_policy.shrink_box) {
    TemplateFeedback tf;
    if (options_.feedback->Lookup(TemplateHash(KeyFor(query)), &tf)) {
      shrunk = ShrunkenBox(query, tf, options_.feedback_policy, &box);
    }
  }
  if (shrunk) {
    c->grid = std::make_unique<EssGrid>(
        c->query,
        ShrunkenResolutions(query, box, ResolutionsFor(query),
                            options_.feedback_policy.min_resolution),
        box.lo, box.hi);
    c->shrunken_box = true;
  } else {
    c->grid = std::make_unique<EssGrid>(c->query, ResolutionsFor(query));
  }
  PospOptions posp;
  posp.pool = &pool_;
  posp.min_shard_points = options_.min_shard_points;
  c->diagram = std::make_unique<PlanDiagram>(
      GeneratePosp(c->query, *catalog_, options_.cost_params, *c->grid, posp,
                   &c->posp_stats));
  c->optimizer = std::make_unique<QueryOptimizer>(c->query, *catalog_,
                                                  options_.cost_params);
  c->bouquet = std::make_unique<PlanBouquet>(
      BuildBouquet(*c->diagram, c->optimizer.get(), options_.bouquet_params));
  FinishCompiledBouquet(c.get(), *catalog_, options_.cost_params,
                        options_.sim_options);
  c->compile_seconds = SecondsSince(t0);
  return c;
}

void BouquetService::CountCompile(const CompiledBouquet& c) {
  ins_.compilations->Inc();
  ins_.compile_seconds->Observe(c.compile_seconds);
  if (c.shrunken_box) ins_.feedback_box_shrinks->Inc();
  const PospStats& p = c.posp_stats;
  ins_.posp_dp_calls->Inc(static_cast<uint64_t>(p.dp_calls));
  ins_.posp_recost_hits->Inc(static_cast<uint64_t>(p.recost_hits));
  ins_.posp_memo_hits->Inc(static_cast<uint64_t>(p.memo_hits));
  ins_.posp_audit_checks->Inc(static_cast<uint64_t>(p.audit_checks));
  ins_.posp_audit_failures->Inc(static_cast<uint64_t>(p.audit_failures));
}

Result<std::shared_ptr<const CompiledBouquet>> BouquetService::GetOrCompile(
    const QuerySpec& query, ServiceResult* result, const obs::Span* parent) {
  const std::string key = KeyFor(query);
  if (result != nullptr) result->template_hash = TemplateHash(key);
  const auto t0 = std::chrono::steady_clock::now();

  if (auto c = cache_.Get(key)) {
    if (result != nullptr) {
      result->cache_hit = true;
      result->compile_seconds = SecondsSince(t0);
    }
    ins_.cache_hits->Inc();
    return c;
  }

  const Status valid = query.Validate(*catalog_);
  if (!valid.ok()) return valid;

  std::promise<std::shared_ptr<const CompiledBouquet>> promise;
  std::shared_future<std::shared_ptr<const CompiledBouquet>> fut;
  bool leader = false;
  {
    MutexLock lock(&inflight_mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      fut = it->second;
    } else if (auto c = cache_.Get(key)) {
      // A leader finished between the unlocked lookup and here.
      if (result != nullptr) {
        result->cache_hit = true;
        result->compile_seconds = SecondsSince(t0);
      }
      ins_.cache_hits->Inc();
      return c;
    } else {
      leader = true;
      fut = promise.get_future().share();
      inflight_.emplace(key, fut);
    }
  }

  if (leader) {
    obs::Span compile_span =
        obs::Tracer::Begin(options_.tracer, "service.compile", parent);
    auto c = Compile(query);
    if (compile_span.enabled()) {
      compile_span.Num("compile_seconds", c->compile_seconds)
          .Num("num_plans", static_cast<double>(c->diagram->num_plans()))
          .Num("num_contours",
               static_cast<double>(c->bouquet->contours.size()));
      compile_span.End();
    }
    cache_.Put(key, c);
    {
      MutexLock lock(&inflight_mu_);
      inflight_.erase(key);
    }
    promise.set_value(c);
    if (result != nullptr) {
      result->compiled = true;
      result->compile_seconds = SecondsSince(t0);
    }
    CountCompile(*c);
    return c;
  }

  // Single-flight follower: block until the leader publishes the bundle.
  auto c = fut.get();
  if (result != nullptr) {
    result->shared_compile = true;
    result->compile_seconds = SecondsSince(t0);
  }
  ins_.shared_compiles->Inc();
  return c;
}

uint64_t BouquetService::SnapToGrid(const EssGrid& grid,
                                    const DimVector& actual) const {
  GridPoint p(grid.dims());
  for (int d = 0; d < grid.dims(); ++d) {
    const double s = actual[d];
    const int lo = grid.AxisFloor(d, s);
    const int hi = grid.AxisCeil(d, s);
    if (lo == hi) {
      p[d] = lo;
    } else {
      // Nearest neighbor in log space (the axes are log-spaced).
      const double dlo = std::log(s / grid.axis(d)[lo]);
      const double dhi = std::log(grid.axis(d)[hi] / s);
      p[d] = dlo <= dhi ? lo : hi;
    }
  }
  return grid.LinearIndex(p);
}

Status BouquetService::ValidateRequest(const ServiceRequest& request) const {
  if (request.mode == ExecutionMode::kSimulate &&
      static_cast<int>(request.actual_selectivities.size()) !=
          request.query.NumDims()) {
    return Status::InvalidArgument(StrPrintf(
        "request has %zu actual selectivities, query has %d error dims",
        request.actual_selectivities.size(), request.query.NumDims()));
  }
  if (request.mode == ExecutionMode::kRealData &&
      options_.database == nullptr) {
    return Status::FailedPrecondition(
        "kRealData requires ServiceOptions::database");
  }
  return Status::Ok();
}

Result<ServiceResult> BouquetService::Run(const ServiceRequest& request) {
  const auto t0 = std::chrono::steady_clock::now();
  ServiceResult r;
  r.mode = request.mode;

  const Status valid = ValidateRequest(request);
  if (!valid.ok()) return valid;
  InflightScope inflight(this);

  // Admit the request into the counters *before* GetOrCompile bumps the
  // hit/miss/shared counters: a stats() snapshot taken mid-request must
  // never show cache_hits + cache_misses + shared_compiles > requests
  // (it used to, transiently, which let CacheHitRate() exceed 1.0).
  // Counter increments are release and reads acquire, and stats() reads
  // requests last, so this order is what every snapshot sees.
  ins_.requests->Inc();

  obs::Span req_span = obs::Tracer::Begin(options_.tracer, "service.request");
  req_span.Num("mode",
               request.mode == ExecutionMode::kSimulate ? 0.0 : 1.0);

  auto bundle_or = GetOrCompile(request.query, &r, &req_span);
  if (!bundle_or.ok()) return bundle_or.status();
  std::shared_ptr<const CompiledBouquet> c = std::move(bundle_or).value();

  ExecuteWithBundle(request, c, &req_span, t0, &r);
  return r;
}

int BouquetService::FeedbackStartContour(const CompiledBouquet& c,
                                         uint64_t template_hash,
                                         const obs::Span* parent) {
  FeedbackStore* fb = options_.feedback;
  if (fb == nullptr || !options_.feedback_policy.warm_contours) return 0;
  obs::Span span =
      obs::Tracer::Begin(options_.tracer, "feedback.lookup", parent);
  TemplateFeedback tf;
  DimVector seed;
  int start = 0;
  bool hit = false;
  if (fb->Lookup(template_hash, &tf) &&
      tf.support.size() == static_cast<size_t>(c.grid->dims()) &&
      WarmStartSeed(tf, options_.feedback_policy, &seed)) {
    hit = true;
    // Snap the seed DOWN per dimension: the seed cost must understate the
    // cost at the seed, never overstate it, so that seed <= q_a implies
    // C(seed) <= PIC(q_a) and the warm start stays inside the bound
    // (feedback/warm_start.h).
    GridPoint p(c.grid->dims());
    for (int d = 0; d < c.grid->dims(); ++d) {
      p[d] = c.grid->AxisFloor(d, seed[d]);
    }
    const double seed_cost = c.diagram->cost_at(c.grid->LinearIndex(p));
    start = WarmStartContour(*c.bouquet, seed_cost,
                             options_.feedback_policy.safety_margin);
  }
  ins_.feedback_lookups->Inc();
  if (hit) ins_.feedback_hits->Inc();
  if (start > 0) {
    ins_.feedback_warm_runs->Inc();
    ins_.feedback_contours_skipped->Inc(static_cast<uint64_t>(start));
  }
  if (span.enabled()) {
    span.Flag("hit", hit).Num("start_contour", static_cast<double>(start));
    span.End();
  }
  return start;
}

void BouquetService::RecordFeedback(const ServiceRequest& request,
                                    const CompiledBouquet& c,
                                    const ServiceResult& r,
                                    const obs::Span* parent) {
  FeedbackStore* fb = options_.feedback;
  if (fb == nullptr) return;
  FeedbackObservation observed;
  observed.template_hash = r.template_hash;
  const int num_contours = static_cast<int>(c.bouquet->contours.size());
  if (request.mode == ExecutionMode::kSimulate) {
    if (!r.sim.completed || r.sim.fallback_used) return;
    // Simulation knows q_a exactly: record the snapped actual location.
    observed.selectivities = c.grid->SelectivityAt(
        SnapToGrid(*c.grid, request.actual_selectivities));
    observed.final_contour =
        std::min(r.sim.final_contour, num_contours - 1);
  } else {
    if (!r.real.completed || r.real.discovered_selectivities.empty()) return;
    // Real data: record the discovered q_run lower bounds — conservative
    // by construction, exactly what the min-support seed wants.
    observed.selectivities = r.real.discovered_selectivities;
    observed.final_contour =
        std::min(r.real.contours_crossed, num_contours - 1);
  }
  obs::Span span =
      obs::Tracer::Begin(options_.tracer, "feedback.record", parent);
  const Status s = fb->Record(observed);
  if (s.ok()) ins_.feedback_records->Inc();
  if (span.enabled()) {
    span.Flag("ok", s.ok())
        .Num("final_contour", static_cast<double>(observed.final_contour));
    span.End();
  }
}

void BouquetService::ExecuteWithBundle(
    const ServiceRequest& request,
    const std::shared_ptr<const CompiledBouquet>& c, obs::Span* req_span,
    std::chrono::steady_clock::time_point t0, ServiceResult* out) {
  ServiceResult& r = *out;
  const auto e0 = std::chrono::steady_clock::now();
  const int warm_start = FeedbackStartContour(*c, r.template_hash, req_span);
  if (request.mode == ExecutionMode::kSimulate) {
    const uint64_t qa = SnapToGrid(*c->grid, request.actual_selectivities);
    r.sim = c->simulator->RunOptimizedWarm(qa, warm_start, options_.tracer,
                                           req_span, &ladder_);
    const double subopt = c->simulator->SubOpt(r.sim, qa);
    req_span->Num("subopt", subopt);
    ins_.suboptimality->Observe(subopt);
  } else {
    // Per-request optimizer + driver: both are bound to this request's
    // constants and neither is shared across threads.
    QueryOptimizer run_opt(request.query, *catalog_, options_.cost_params);
    BouquetDriver driver(*c->bouquet, *c->diagram, &run_opt,
                         options_.database);
    driver.SetObservability(options_.tracer, &metrics_, req_span);
    driver.SetWarmStart(warm_start);
    r.real = driver.RunOptimized();
  }
  RecordFeedback(request, *c, r, req_span);
  r.execute_seconds = SecondsSince(e0);
  r.latency_seconds = SecondsSince(t0);
  r.compiled_bundle = c;

  if (req_span->enabled()) {
    req_span->Num("template_hash", static_cast<double>(r.template_hash))
        .Flag("cache_hit", r.cache_hit)
        .Flag("compiled", r.compiled)
        .Flag("shared_compile", r.shared_compile)
        .Num("compile_seconds", r.compile_seconds)
        .Num("execute_seconds", r.execute_seconds);
    req_span->End();
  }

  ins_.execute_seconds->Observe(r.execute_seconds);
  ins_.latency_seconds->Observe(r.latency_seconds);
}

Result<std::vector<ServiceResult>> BouquetService::RunBatch(
    const std::vector<ServiceRequest>& requests, const obs::Span* parent) {
  if (requests.empty()) {
    return Status::InvalidArgument("RunBatch: empty batch");
  }
  const std::string key = KeyFor(requests.front().query);
  for (const ServiceRequest& request : requests) {
    const Status valid = ValidateRequest(request);
    if (!valid.ok()) return valid;
    if (KeyFor(request.query) != key) {
      return Status::InvalidArgument(
          "RunBatch: requests span multiple template keys");
    }
  }
  InflightScope inflight(this);

  const auto t0 = std::chrono::steady_clock::now();
  ins_.requests->Inc(requests.size());
  ins_.batches->Inc();
  ins_.batch_requests->Inc(requests.size());

  obs::Span batch_span =
      obs::Tracer::Begin(options_.tracer, "service.batch", parent);
  batch_span.Num("batch_size", static_cast<double>(requests.size()));

  // One bundle acquisition for the whole batch: the opener pays the compile
  // (or the single-flight wait), every other member is by construction a
  // cache hit on the shared bundle.
  ServiceResult leader;
  auto bundle_or = GetOrCompile(requests.front().query, &leader, &batch_span);
  if (!bundle_or.ok()) return bundle_or.status();
  std::shared_ptr<const CompiledBouquet> c = std::move(bundle_or).value();
  if (requests.size() > 1) ins_.cache_hits->Inc(requests.size() - 1);

  std::vector<ServiceResult> results(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ServiceResult& r = results[i];
    r.mode = requests[i].mode;
    r.template_hash = leader.template_hash;
    if (i == 0) {
      r.cache_hit = leader.cache_hit;
      r.shared_compile = leader.shared_compile;
      r.compiled = leader.compiled;
      r.compile_seconds = leader.compile_seconds;
    } else {
      r.cache_hit = true;
    }
    obs::Span req_span =
        obs::Tracer::Begin(options_.tracer, "service.request", &batch_span);
    req_span.Num("mode", 0.0).Num("batch_index", static_cast<double>(i));
    ExecuteWithBundle(requests[i], c, &req_span, t0, &r);
  }
  batch_span.End();
  return results;
}

Result<ServiceResult> BouquetService::RunSafePlan(
    const ServiceRequest& request, const obs::Span* parent) {
  const auto t0 = std::chrono::steady_clock::now();
  if (request.mode != ExecutionMode::kSimulate) {
    return Status::InvalidArgument(
        "RunSafePlan supports simulation mode only");
  }
  const Status valid = ValidateRequest(request);
  if (!valid.ok()) return valid;
  InflightScope inflight(this);

  const std::string key = KeyFor(request.query);
  ServiceResult r;
  r.mode = request.mode;
  r.degraded = true;
  r.template_hash = TemplateHash(key);

  // Cache-only on purpose: shedding exists to bound work under overload, so
  // it must never fault in a multi-second compile.
  std::shared_ptr<const CompiledBouquet> c = cache_.Get(key);
  if (c == nullptr) {
    return Status::FailedPrecondition(
        "RunSafePlan: template not compiled (safe plan unavailable)");
  }
  r.cache_hit = true;
  ins_.requests->Inc();
  ins_.cache_hits->Inc();
  ins_.sheds->Inc();

  obs::Span span =
      obs::Tracer::Begin(options_.tracer, "service.safe_plan", parent);
  const auto e0 = std::chrono::steady_clock::now();
  const uint64_t qa = SnapToGrid(*c->grid, request.actual_selectivities);
  r.sim = c->simulator->RunSafe(qa);
  r.execute_seconds = SecondsSince(e0);
  r.latency_seconds = SecondsSince(t0);
  r.compiled_bundle = c;

  if (span.enabled()) {
    span.Num("template_hash", static_cast<double>(r.template_hash))
        .Num("safe_plan", static_cast<double>(c->simulator->safe_plan()))
        .Num("safe_budget", c->simulator->safe_budget())
        .Num("charged", r.sim.total_cost)
        .Flag("completed", r.sim.completed);
    span.End();
  }

  // The safe plan's one execution, on the ladders' execution counter.
  ladder_.executions->Inc(static_cast<uint64_t>(r.sim.num_executions));
  ins_.execute_seconds->Observe(r.execute_seconds);
  ins_.latency_seconds->Observe(r.latency_seconds);
  return r;
}

std::future<Result<ServiceResult>> BouquetService::Submit(
    ServiceRequest request) {
  return pool_.Submit(
      [this, request = std::move(request)] { return Run(request); });
}

Status BouquetService::WarmStart(const QuerySpec& query,
                                 const std::string& path) {
  auto loaded_or = LoadBouquetFromFile(query, path);
  if (!loaded_or.ok()) return loaded_or.status();
  LoadedBouquet loaded = std::move(loaded_or).value();

  const std::vector<int> want = ResolutionsFor(query);
  for (int d = 0; d < loaded.grid->dims(); ++d) {
    if (loaded.grid->resolution(d) != want[d]) {
      return Status::FailedPrecondition(StrPrintf(
          "warm-start grid resolution %d on dim %d, service expects %d",
          loaded.grid->resolution(d), d, want[d]));
    }
  }

  auto c = std::make_shared<CompiledBouquet>();
  c->query = query;
  c->grid = std::move(loaded.grid);
  c->diagram = std::move(loaded.diagram);
  c->bouquet = std::move(loaded.bouquet);
  c->warm_started = true;
  FinishCompiledBouquet(c.get(), *catalog_, options_.cost_params,
                        options_.sim_options);
  cache_.Put(KeyFor(query), c);
  ins_.warm_starts->Inc();
  return Status::Ok();
}

ServiceStats BouquetService::stats() const {
  ServiceStats s;
  // Outcomes first, admissions last: a request is counted before its
  // outcome (release increments, acquire reads), so no snapshot shows more
  // outcomes than requests.
  s.cache_hits = ins_.cache_hits->value();
  s.cache_misses = ins_.compilations->value();
  s.compilations = s.cache_misses;
  s.shared_compiles = ins_.shared_compiles->value();
  s.requests = ins_.requests->value();
  s.warm_starts = ins_.warm_starts->value();
  s.posp_dp_calls = static_cast<long long>(ins_.posp_dp_calls->value());
  s.posp_recost_hits = static_cast<long long>(ins_.posp_recost_hits->value());
  s.posp_memo_hits = static_cast<long long>(ins_.posp_memo_hits->value());
  s.posp_audit_checks =
      static_cast<long long>(ins_.posp_audit_checks->value());
  s.posp_audit_failures =
      static_cast<long long>(ins_.posp_audit_failures->value());
  s.compile_seconds = ins_.compile_seconds->snapshot().sum;
  s.execute_seconds = ins_.execute_seconds->snapshot().sum;
  s.latency_seconds = ins_.latency_seconds->snapshot().sum;
  s.plan_executions = ladder_.executions->value();
  s.contour_crossings = ladder_.contour_crossings->value();
  s.spills = ladder_.spills->value();
  s.fallbacks = ladder_.fallbacks->value();
  s.batches = ins_.batches->value();
  s.batch_requests = ins_.batch_requests->value();
  s.sheds = ins_.sheds->value();
  s.feedback_lookups = ins_.feedback_lookups->value();
  s.feedback_hits = ins_.feedback_hits->value();
  s.feedback_records = ins_.feedback_records->value();
  s.feedback_warm_runs = ins_.feedback_warm_runs->value();
  s.feedback_contours_skipped = ins_.feedback_contours_skipped->value();
  s.feedback_box_shrinks = ins_.feedback_box_shrinks->value();
  // Sampled levels.
  s.inflight_requests = static_cast<uint64_t>(
      std::max<int64_t>(0, inflight_now_.load(std::memory_order_relaxed)));
  s.peak_inflight_requests = static_cast<uint64_t>(
      std::max<int64_t>(0, inflight_peak_.load(std::memory_order_relaxed)));
  s.queue_depth = pool_.queue_depth();
  const CacheStats cs = cache_.stats();
  s.cache_warm_entries = cs.warm_entries;
  s.cache_warm_evictions = cs.warm_evictions;
  if (options_.database != nullptr &&
      options_.database->storage() != nullptr) {
    const storage::BufferStats b =
        options_.database->storage()->buffer()->stats();
    s.buffer_hits = b.hits;
    s.buffer_misses = b.misses;
    s.buffer_evictions = b.evictions;
    s.buffer_writebacks = b.writebacks;
    s.buffer_pinned_peak = b.pinned_peak;
  }
  return s;
}

}  // namespace bouquet
