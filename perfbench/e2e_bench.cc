// End-to-end request benchmark for the plan-bouquet library.
//
//   e2e_bench --workload <real_hot|real_pressure|sim_wire> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//             [--dump-stream]
//
// Each workload is driven through the library's public API only. Every
// response is checked (real data: canonical row multiset against the oracle
// plan's rows; simulation over the wire: charged cost against the in-process
// simulator). The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Lines before it are a human-readable report. perfbench/README.md
// defines every workload and metric.

#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bouquet/bounds.h"
#include "bouquet/driver.h"
#include "feedback/feedback_store.h"
#include "feedback/warm_start.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "optimizer/optimizer.h"
#include "service/service.h"
#include "service/template_key.h"
#include "storage/paged_table.h"
#include "workloads/spaces.h"
#include "workloads/tpch.h"
#include "workloads/tpcds.h"

namespace perfbench {

using namespace bouquet;  // NOLINT: the benchmark uses only the public API
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ configuration

constexpr double kMiniScale = 2.0;        // lineitem = 120k rows
constexpr uint64_t kDataSeed = 42;        // data is fixed; requests vary
constexpr int kRealRequestsPerTemplate = 512;  // one pass: ~1,000 requests
constexpr size_t kHotPoolPages = 2048;    // holds all 1,055 data pages
constexpr size_t kPressurePoolPages = 128;
constexpr size_t kReferencePoolPages = 4096;
constexpr int kSetupReps = 5;             // setup_s = median of these
constexpr int kSimTenants = 4;
constexpr double kSimFixedRate = 3000.0;  // offered req/s, ~half max at SLO
constexpr double kSimWindowS = 1.0;       // latency quantile windows
constexpr double kSimP99LimitMs = 25.0;   // latency limit for the ramp
constexpr double kSimRampFactor = 1.1;    // consecutive ramp steps
// The generator "fell behind" when its own lateness reaches the latency
// limit: jitter below that is already inside the due-time latency.
constexpr double kLateLimitMs = kSimP99LimitMs;

const char* const kTpchTables[] = {"region",   "nation", "supplier",
                                   "customer", "part",   "orders",
                                   "lineitem"};
const char* const kSimTemplates[] = {"3D_H_Q5", "3D_H_Q7", "4D_H_Q8",
                                     "5D_H_Q7"};

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "e2e_bench: %s\n", msg.c_str());
  std::exit(2);
}

void Check(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

// Deterministic seeded stream (SplitMix64): identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double LogUniform(double lo, double hi) {
    return std::exp(std::log(lo) + Uniform() * (std::log(hi) - std::log(lo)));
  }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }

 private:
  uint64_t state_;
};

uint64_t StreamSeed(uint64_t seed, const std::string& workload) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over the workload name
  for (char c : workload) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  return h ^ (seed * 0x9E3779B97F4A7C15ull);
}

// ------------------------------------------------------------------ stats

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the samples <= it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Restarts the peak-RSS count, so the reported peak covers serving only
// and not the set-up repetitions before it.
void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Order-independent fingerprint of a row multiset where each row is itself
// compared as a value multiset: result columns follow the executing plan's
// join order, so only the canonical form is plan-independent.
struct RowDigest {
  uint64_t rows = 0, sum_a = 0, sum_b = 0;
  bool operator==(const RowDigest& o) const {
    return rows == o.rows && sum_a == o.sum_a && sum_b == o.sum_b;
  }
};

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

RowDigest DigestRows(const std::vector<Row>& rows) {
  RowDigest d;
  Row sorted;
  for (const Row& row : rows) {
    sorted = row;
    std::sort(sorted.begin(), sorted.end());
    uint64_t a = 0x243F6A8885A308D3ull, b = 0x13198A2E03707344ull;
    for (int64_t v : sorted) {
      a = Mix(a ^ static_cast<uint64_t>(v));
      b = Mix(b + static_cast<uint64_t>(v) * 0xA4093822299F31D1ull);
    }
    ++d.rows;
    d.sum_a += a;
    d.sum_b += b;
  }
  return d;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
};

void PrintResult(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", r.metrics[i].name.c_str(),
                r.metrics[i].value, r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintHuman(const char* label, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", label);
  for (const Metric& m : metrics) {
    std::printf("#   %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// ------------------------------------------------------------------ tracing
//
// The benchmark's own spans around the public calls it makes. Kept in
// memory per client thread and written out as JSONL when the run ends.

struct SpanRec {
  const char* name;
  uint64_t request;
  int32_t id;
  int32_t parent;  // -1 = root
  double start_s;
  double end_s;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}
  double Now() const { return Since(epoch_); }
  int32_t Add(const char* name, uint64_t request, int32_t parent,
              double start_s, double end_s) {
    spans_.push_back({name, request, static_cast<int32_t>(spans_.size()),
                      parent, start_s, end_s});
    return spans_.back().id;
  }
  void SetEnd(int32_t id, double end_s) { spans_[id].end_s = end_s; }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<SpanRec> spans_;
};

// Self time per span name (duration minus direct children), the root
// ("request") self time being the residual no layer span covers.
std::map<std::string, double> SelfTimes(const std::vector<SpanRec>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const SpanRec& s : spans) {
    if (s.parent >= 0) child[s.parent] += s.end_s - s.start_s;
  }
  std::map<std::string, double> self;
  for (const SpanRec& s : spans) {
    self[s.name] += (s.end_s - s.start_s) - child[s.id];
  }
  return self;
}

void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const SpanRec& s : logs[t]->spans()) {
      std::fprintf(f,
                   "{\"thread\":%zu,\"id\":%d,\"parent\":%d,\"request\":%llu,"
                   "\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f}\n",
                   t, s.id, s.parent,
                   static_cast<unsigned long long>(s.request), s.name,
                   s.start_s, s.end_s);
    }
  }
  std::fclose(f);
}

// ================================================================ real data

struct RealItem {
  int tpl = 0;
  DimVector target;
  DimVector achieved;
  QuerySpec query;
};

std::vector<QuerySpec> RealForms(const Catalog& catalog) {
  return {Make2DHQ8a(catalog), Make3DHQ5b(catalog)};
}

// The request list of one pass: per template, one target location in each
// cell of a jittered m^d grid over the log-scaled [max(lo, 1e-3), hi] range
// of every dimension (m^d ~ 512), so each template's locations are
// log-uniform yet cover the space evenly: the request mix, and so every
// figure, stays close across seeds. Targets are bound to selection
// constants against the data's histograms; the list is served in seeded
// random order. Both real-data workloads draw the same list for a seed, so
// they differ only in pool size, client count and feedback.
std::vector<RealItem> MakeRealStream(uint64_t seed, const Catalog& catalog,
                                     const std::vector<QuerySpec>& forms) {
  Rng rng(StreamSeed(seed, "real"));
  std::vector<RealItem> items;
  for (int f = 0; f < static_cast<int>(forms.size()); ++f) {
    const std::vector<ErrorDimension>& dims = forms[f].error_dims;
    const int d = static_cast<int>(dims.size());
    const int m = static_cast<int>(std::lround(
        std::pow(kRealRequestsPerTemplate, 1.0 / d)));
    const int cells = static_cast<int>(std::lround(std::pow(m, d)));
    for (int cell = 0; cell < cells; ++cell) {
      RealItem it;
      it.tpl = f;
      it.query = forms[f];
      for (int k = 0, rest = cell; k < d; ++k, rest /= m) {
        const double lo = std::log(std::max(dims[k].lo, 1e-3));
        const double hi = std::log(dims[k].hi);
        const double u = (rest % m + rng.Uniform()) / m;
        it.target.push_back(std::exp(lo + u * (hi - lo)));
      }
      it.achieved = BindSelectionConstants(&it.query, catalog, it.target);
      items.push_back(std::move(it));
    }
  }
  for (int i = static_cast<int>(items.size()) - 1; i > 0; --i) {
    std::swap(items[i], items[rng.Below(i + 1)]);
  }
  return items;
}

struct RealConfig {
  size_t pool_pages = kHotPoolPages;
  bool feedback = false;
  int clients = 1;
};

RealConfig RealConfigFor(const std::string& workload) {
  RealConfig c;
  if (workload == "real_pressure") {
    c.pool_pages = kPressurePoolPages;
    c.clients = std::max(1u, std::thread::hardware_concurrency());
  } else {
    c.feedback = true;
  }
  return c;
}

// One paged copy of the generated data: its own directory, pool and
// index caches.
struct PagedDb {
  std::unique_ptr<storage::StorageManager> sm;
  Database db;

  void Open(const Database& mem, const std::string& dir, size_t pool_pages) {
    std::filesystem::create_directories(dir);
    sm = std::make_unique<storage::StorageManager>(storage::StorageOptions{
        dir, pool_pages, storage::EvictionPolicyKind::k2Q});
    for (const char* name : kTpchTables) {
      auto imported = sm->ImportTable(mem.table(name));
      if (!imported.ok()) Die(std::string("import ") + name);
    }
    db.AttachStorage(sm.get());
  }

  // Builds every index the templates can use (hash on join keys, sorted
  // on filter columns) so no lazy build lands inside a timed request.
  void BuildIndexes(const std::vector<QuerySpec>& forms) {
    for (const QuerySpec& q : forms) {
      for (const JoinPredicate& j : q.joins) {
        db.hash_index(j.left_table,
                      db.table(j.left_table).ColumnIndex(j.left_column));
        db.hash_index(j.right_table,
                      db.table(j.right_table).ColumnIndex(j.right_column));
      }
      for (const SelectionPredicate& f : q.filters) {
        db.sorted_index(f.table, db.table(f.table).ColumnIndex(f.column));
      }
    }
  }

  // Faults every data page in and records one accounted access each, so
  // the replacement state starts from a deterministic warm pool.
  void WarmPool() {
    storage::BufferManager* bm = sm->buffer();
    for (const storage::PagedTable* t : sm->tables()) {
      for (uint32_t p = 1; p <= t->num_data_pages(); ++p) {
        const storage::PageId id{t->file_id(), p};
        storage::PageGuard guard = bm->Pin(id);
        if (!guard.valid()) Die("warm pin failed");
        bm->Access(id);
      }
    }
  }
};

// Everything a real-data deployment builds before serving.
struct RealEnv {
  std::string dir;
  Database mem;
  Catalog catalog;
  PagedDb paged;
  std::unique_ptr<FeedbackStore> feedback;
  std::unique_ptr<BouquetService> service;
  std::vector<QuerySpec> forms;
  std::vector<std::shared_ptr<const CompiledBouquet>> bundles;
  double setup_s = 0.0;
  double first_request_ms = 0.0;

  ~RealEnv() {
    service.reset();
    feedback.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

std::unique_ptr<RealEnv> SetupReal(const RealConfig& cfg,
                                   const std::string& dir) {
  auto env = std::make_unique<RealEnv>();
  env->dir = dir;
  const auto t0 = Clock::now();
  TpchDataOptions data;
  data.seed = kDataSeed;
  data.mini_scale = kMiniScale;
  MakeTpchDatabase(&env->mem, data);
  SyncTpchCatalog(env->mem, &env->catalog);
  env->paged.Open(env->mem, dir + "/data", cfg.pool_pages);
  if (cfg.feedback) {
    auto store = FeedbackStore::Open(dir + "/feedback.log");
    if (!store.ok()) Die("feedback store: " + store.status().ToString());
    env->feedback = std::move(store).value();
  }
  ServiceOptions opts;
  opts.num_threads = std::max(1, cfg.clients);
  opts.database = &env->paged.db;
  opts.feedback = env->feedback.get();
  env->service = std::make_unique<BouquetService>(env->catalog, opts);
  env->forms = RealForms(env->catalog);
  for (const QuerySpec& form : env->forms) {
    auto c = env->service->GetOrCompile(form);
    if (!c.ok()) Die("compile " + form.name + ": " + c.status().ToString());
    env->bundles.push_back(std::move(c).value());
  }
  // The first cold request of each template: lazy index builds and cold
  // page faults, paid once per deployment.
  const auto f0 = Clock::now();
  for (const QuerySpec& form : env->forms) {
    ServiceRequest req;
    req.query = form;
    BindSelectionConstants(&req.query, env->catalog,
                           DimVector(form.NumDims(), 0.1));
    req.mode = ExecutionMode::kRealData;
    auto r = env->service->Run(req);
    if (!r.ok() || !r->real.completed) Die("first request failed");
  }
  env->first_request_ms =
      Since(f0) * 1e3 / static_cast<double>(env->forms.size());
  env->paged.BuildIndexes(env->forms);
  env->paged.WarmPool();
  env->setup_s = Since(t0);
  return env;
}

// The oracle of one request: the plan optimal at the achieved q_a, run to
// completion on a separate warm, fully cached copy of the data.
struct Oracle {
  double cost = 0.0;
  double wall_s = 0.0;
  RowDigest digest;
};

std::vector<Oracle> ComputeOracles(const RealEnv& env,
                                   const std::vector<RealItem>& items,
                                   const std::string& dir) {
  PagedDb ref;
  ref.Open(env.mem, dir, kReferencePoolPages);
  ref.BuildIndexes(env.forms);
  ref.WarmPool();
  const CostParams params = env.service->options().cost_params;
  std::vector<Oracle> out(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const RealItem& it = items[i];
    QueryOptimizer opt(it.query, env.catalog, params);
    const Plan plan = opt.OptimizeAt(it.achieved);
    const CompiledBouquet& c = *env.bundles[it.tpl];
    BouquetDriver driver(*c.bouquet, *c.diagram, &opt, &ref.db);
    const DriverResult r = driver.RunSinglePlan(*plan.root);
    if (!r.completed) Die("oracle plan did not complete");
    out[i].cost = r.total_cost_units;
    out[i].wall_s = r.wall_seconds;
    out[i].digest = DigestRows(r.rows);
  }
  std::error_code ec;
  ref.db = Database();
  ref.sm.reset();
  std::filesystem::remove_all(dir, ec);
  return out;
}

// One served request, as observed by its client.
struct RealSample {
  int64_t seq = 0;  // position in the stream (pass = seq / pass size)
  double latency_s = 0.0;
  double execute_s = 0.0;
  double charged = 0.0;
  bool ok = false;         // returned a completed result
  RowDigest digest;
  // Filled on traced runs only.
  int executions = 0, contours = 0, spills = 0, warm_start = 0;
  double aborted_charged = 0.0;
  double step_s = 0.0, aborted_step_s = 0.0, run_s = 0.0;
  long long dp_calls = 0, memo_hits = 0;
};

// The service's real-data request path, replayed call by call through the
// public API so each layer gets its own span: bundle lookup, feedback
// lookup, per-request optimizer, driver ladder (one child per execution),
// feedback record.
RealSample TracedRealRequest(RealEnv& env, const RealItem& it, uint64_t rid,
                             SpanLog* log) {
  RealSample s;
  BouquetService& svc = *env.service;
  const double r0 = log->Now();
  const int32_t root = log->Add("request", rid, -1, r0, r0);

  double t = log->Now();
  ServiceResult sr;
  auto bundle_or = svc.GetOrCompile(it.query, &sr);
  log->Add("service.get_or_compile", rid, root, t, log->Now());
  if (!bundle_or.ok()) return s;
  const CompiledBouquet& c = *bundle_or.value();

  int start = 0;
  FeedbackStore* fb = env.feedback.get();
  const WarmStartPolicy& policy = svc.options().feedback_policy;
  if (fb != nullptr && policy.warm_contours) {
    t = log->Now();
    TemplateFeedback tf;
    DimVector seed;
    if (fb->Lookup(sr.template_hash, &tf) &&
        tf.support.size() == static_cast<size_t>(c.grid->dims()) &&
        WarmStartSeed(tf, policy, &seed)) {
      GridPoint p(c.grid->dims());
      for (int d = 0; d < c.grid->dims(); ++d) {
        p[d] = c.grid->AxisFloor(d, seed[d]);
      }
      start = WarmStartContour(*c.bouquet,
                               c.diagram->cost_at(c.grid->LinearIndex(p)),
                               policy.safety_margin);
    }
    log->Add("feedback.lookup", rid, root, t, log->Now());
  }

  const double e0 = log->Now();
  t = e0;
  QueryOptimizer opt(it.query, env.catalog, svc.options().cost_params);
  log->Add("optimizer.init", rid, root, t, log->Now());
  BouquetDriver driver(*c.bouquet, *c.diagram, &opt, &env.paged.db);
  driver.SetWarmStart(start);
  t = log->Now();
  const DriverResult r = driver.RunOptimized();
  const double run_end = log->Now();
  const int32_t run = log->Add("bouquet.run", rid, root, t, run_end);
  // Driver steps carry their own wall time; they run back to back inside
  // the ladder, so they are laid out from the run's start.
  double at = t;
  for (const DriverStep& step : r.steps) {
    log->Add(step.completed ? "executor.step" : "executor.aborted_step", rid,
             run, at, at + step.wall_seconds);
    at += step.wall_seconds;
    s.step_s += step.wall_seconds;
    if (!step.completed) {
      s.aborted_step_s += step.wall_seconds;
      s.aborted_charged += step.charged;
    }
    if (step.spilled) ++s.spills;
  }
  s.run_s = run_end - t;

  if (fb != nullptr && r.completed && !r.discovered_selectivities.empty()) {
    t = log->Now();
    FeedbackObservation observed;
    observed.template_hash = sr.template_hash;
    observed.selectivities = r.discovered_selectivities;
    observed.final_contour =
        std::min(r.contours_crossed,
                 static_cast<int>(c.bouquet->contours.size()) - 1);
    Check(fb->Record(observed), "feedback record");
    log->Add("feedback.record", rid, root, t, log->Now());
  }
  const double r1 = log->Now();
  log->SetEnd(root, r1);

  s.latency_s = r1 - r0;
  s.execute_s = r1 - e0;
  s.ok = r.completed;
  s.charged = r.total_cost_units;
  s.digest = DigestRows(r.rows);
  s.executions = r.num_executions;
  s.contours = r.contours_crossed;
  s.warm_start = start;
  s.dp_calls = opt.invocations();
  s.memo_hits = opt.memo_hits();
  return s;
}

struct RealPhase {
  std::vector<RealSample> samples;  // sorted by seq
  double wall_s = 0.0;
  storage::BufferStats pool_before, pool_after_pass;
  std::vector<std::unique_ptr<SpanLog>> logs;
};

// Closed loop: `clients` threads each send their next request when the
// previous one returns, walking the request list in order (pass after
// pass) until `seconds` have elapsed and the first pass is complete.
RealPhase RunRealPhase(RealEnv& env, const std::vector<RealItem>& items,
                       int clients, double seconds, bool traced) {
  RealPhase phase;
  const int64_t n = static_cast<int64_t>(items.size());
  std::atomic<int64_t> next{0}, done{0};
  std::mutex mu;
  storage::BufferManager* bm = env.paged.sm->buffer();
  phase.pool_before = bm->stats();
  const auto t0 = Clock::now();
  for (int c = 0; c < clients; ++c) {
    phase.logs.push_back(std::make_unique<SpanLog>(t0));
  }
  std::vector<std::vector<RealSample>> per(clients);
  auto client = [&](int c) {
    for (;;) {
      const int64_t seq = next.fetch_add(1);
      if (seq >= n && Since(t0) >= seconds) break;
      const RealItem& it = items[seq % n];
      RealSample s;
      if (traced) {
        s = TracedRealRequest(env, it, static_cast<uint64_t>(seq),
                              phase.logs[c].get());
      } else {
        ServiceRequest req;
        req.query = it.query;
        req.mode = ExecutionMode::kRealData;
        const auto a = Clock::now();
        auto r = env.service->Run(req);
        s.latency_s = Since(a);
        if (r.ok()) {
          s.ok = r->real.completed;
          s.execute_s = r->execute_seconds;
          s.charged = r->real.total_cost_units;
          s.digest = DigestRows(r->real.rows);
        }
      }
      s.seq = seq;
      per[c].push_back(s);
      if (done.fetch_add(1) + 1 == n) {
        std::lock_guard<std::mutex> lock(mu);
        phase.pool_after_pass = bm->stats();
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (std::thread& th : threads) th.join();
  phase.wall_s = Since(t0);
  for (auto& v : per) {
    phase.samples.insert(phase.samples.end(), v.begin(), v.end());
  }
  std::sort(phase.samples.begin(), phase.samples.end(),
            [](const RealSample& a, const RealSample& b) {
              return a.seq < b.seq;
            });
  return phase;
}

struct RealQuality {
  uint64_t attempted = 0, failed = 0;
  double aso = 0.0, mso = 0.0, subopt_wall_p50 = 0.0;
  int bound_exceed = 0;
  std::string worst;
  double worst_subopt = 0.0;
};

// Checks every response and scores the first pass against the oracles.
RealQuality ScoreReal(const RealEnv& env, const std::vector<RealItem>& items,
                      const std::vector<Oracle>& oracles,
                      const std::vector<RealSample>& samples) {
  RealQuality q;
  const int64_t n = static_cast<int64_t>(items.size());
  std::vector<double> subopt, wall_ratio;
  for (const RealSample& s : samples) {
    const size_t i = static_cast<size_t>(s.seq % n);
    ++q.attempted;
    const bool good = s.ok && s.digest == oracles[i].digest;
    if (!good) {
      ++q.failed;
      continue;
    }
    if (oracles[i].wall_s > 0.0) {
      wall_ratio.push_back(s.execute_s / oracles[i].wall_s);
    }
    if (s.seq >= n) continue;
    const double so = s.charged / oracles[i].cost;
    subopt.push_back(so);
    const double bound = BouquetMsoBound(*env.bundles[items[i].tpl]->bouquet);
    if (so > bound) ++q.bound_exceed;
    if (so > q.worst_subopt) {
      q.worst_subopt = so;
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s at q_a=(", items[i].query.name.c_str());
      q.worst = buf;
      for (size_t d = 0; d < items[i].achieved.size(); ++d) {
        std::snprintf(buf, sizeof(buf), "%s%.4g", d == 0 ? "" : ", ",
                      items[i].achieved[d]);
        q.worst += buf;
      }
      std::snprintf(buf, sizeof(buf), ") subopt %.2f vs bound %.1f", so, bound);
      q.worst += buf;
    }
  }
  q.aso = Mean(subopt);
  q.mso = subopt.empty() ? 0.0 : *std::max_element(subopt.begin(), subopt.end());
  q.subopt_wall_p50 = Quantile(wall_ratio, 0.5);
  return q;
}

struct RealRun {
  std::vector<std::unique_ptr<RealEnv>> envs;  // setup repetitions
  double setup_s = 0.0;
  std::vector<RealItem> items;
  std::vector<Oracle> oracles;
};

// Sets up `reps` times from scratch (setup_s = their median) and keeps the
// last `keep` environments for measurement.
RealRun PrepareReal(const RealConfig& cfg, uint64_t seed,
                    const std::string& work, int keep) {
  RealRun run;
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    if (static_cast<int>(run.envs.size()) == keep) {
      run.envs.erase(run.envs.begin());
    }
    run.envs.push_back(SetupReal(cfg, work + "/setup" + std::to_string(i)));
    setups.push_back(run.envs.back()->setup_s);
  }
  run.setup_s = Quantile(setups, 0.5);
  const RealEnv& env = *run.envs.back();
  run.items = MakeRealStream(seed, env.catalog, env.forms);
  run.oracles = ComputeOracles(env, run.items, work + "/reference");
  return run;
}

std::vector<double> Latencies(const std::vector<RealSample>& samples) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const RealSample& s : samples) v.push_back(s.latency_s * 1e3);
  return v;
}

void ReportRealEndToEnd(const RealConfig& cfg, const RealRun& run,
                        const RealPhase& phase, const RealQuality& q,
                        Report* out, std::vector<Metric>* extra) {
  const std::vector<double> lat = Latencies(phase.samples);
  out->Add("setup_s", run.setup_s, "s");
  out->Add("req_p50_ms", Quantile(lat, 0.50), "ms");
  out->Add("throughput_rps",
           static_cast<double>(q.attempted - q.failed) / phase.wall_s, "1/s");
  out->Add("aso_cost", q.aso, "ratio");
  out->Add("peak_rss_mb", PeakRssMb(), "MB");
  extra->push_back({"req_p99_ms", Quantile(lat, 0.99), "ms"});
  extra->push_back({"samples", static_cast<double>(lat.size()), "count"});
  extra->push_back({"samples_beyond_p99",
                    std::floor(0.01 * static_cast<double>(lat.size())),
                    "count"});
  extra->push_back({"clients", static_cast<double>(cfg.clients), "count"});
  extra->push_back({"fail_frac",
                    q.attempted ? static_cast<double>(q.failed) / q.attempted
                                : 0.0,
                    "frac"});
  extra->push_back({"mso_cost", q.mso, "ratio"});
  extra->push_back({"subopt_wall_p50", q.subopt_wall_p50, "ratio"});
  extra->push_back({"bouquet.bound_exceed",
                    static_cast<double>(q.bound_exceed), "count"});
}

// ================================================================ sim wire

struct SimItem {
  int tpl = 0;
  uint32_t tenant = 0;
  double due_s = 0.0;
  std::vector<double> sels;
};

// Poisson arrivals at `rate` for `duration` seconds: template, tenant and
// log-uniform selectivities per request.
std::vector<SimItem> MakeSimSchedule(Rng* rng,
                                     const std::vector<QuerySpec>& forms,
                                     double rate, double duration) {
  std::vector<SimItem> items;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng->Uniform()) / rate;
    if (t >= duration) break;
    SimItem it;
    it.tpl = rng->Below(static_cast<int>(forms.size()));
    it.tenant = static_cast<uint32_t>(rng->Below(kSimTenants));
    it.due_s = t;
    for (const ErrorDimension& dim : forms[it.tpl].error_dims) {
      it.sels.push_back(rng->LogUniform(dim.lo, dim.hi));
    }
    items.push_back(std::move(it));
  }
  return items;
}

struct SimEnv {
  Catalog tpch, tpcds;
  std::vector<QuerySpec> forms;
  std::unique_ptr<BouquetService> service;
  std::unique_ptr<net::BouquetServer> server;
  std::vector<std::shared_ptr<const CompiledBouquet>> bundles;
  double setup_s = 0.0;
  double first_request_ms = 0.0;

  ~SimEnv() {
    if (server != nullptr) {
      server->RequestShutdown();
      server->Wait();
    }
  }
};

std::unique_ptr<SimEnv> SetupSim() {
  auto env = std::make_unique<SimEnv>();
  const auto t0 = Clock::now();
  env->tpch = MakeTpchCatalog(1.0);
  env->tpcds = MakeTpcdsCatalog();
  for (const char* name : kSimTemplates) {
    env->forms.push_back(GetSpace(name, env->tpch, env->tpcds).query);
  }
  ServiceOptions opts;
  opts.num_threads = 4;
  env->service = std::make_unique<BouquetService>(env->tpch, opts);
  for (const QuerySpec& form : env->forms) {
    auto c = env->service->GetOrCompile(form);
    if (!c.ok()) Die("compile " + form.name + ": " + c.status().ToString());
    env->bundles.push_back(std::move(c).value());
  }
  net::ServerOptions sopts;
  sopts.num_reactors = 2;
  env->server = std::make_unique<net::BouquetServer>(env->service.get(), sopts);
  for (const QuerySpec& form : env->forms) {
    Check(env->server->RegisterTemplate(form), "register " + form.name);
  }
  Check(env->server->Start(), "server start");
  const auto f0 = Clock::now();
  auto client = net::BlockingClient::Connect(env->server->port());
  if (!client.ok()) Die("connect: " + client.status().ToString());
  Check(client->Hello(), "hello");
  net::QueryMsg q;
  q.request_id = 1;
  q.template_name = env->forms[0].name;
  q.selectivities.assign(env->forms[0].NumDims(), 0.1);
  auto r = client->Query(q);
  if (!r.ok() || !r->ok) Die("first wire request failed");
  env->first_request_ms = Since(f0) * 1e3;
  env->setup_s = Since(t0);
  return env;
}

// The grid point the service snaps a simulated q_a to (nearest neighbour
// in log space per dimension, as BouquetService does).
uint64_t SnapToGrid(const EssGrid& grid, const std::vector<double>& actual) {
  GridPoint p(grid.dims());
  for (int d = 0; d < grid.dims(); ++d) {
    const double s = actual[d];
    const int lo = grid.AxisFloor(d, s);
    const int hi = grid.AxisCeil(d, s);
    if (lo == hi) {
      p[d] = lo;
    } else {
      const double dlo = std::log(s / grid.axis(d)[lo]);
      const double dhi = std::log(grid.axis(d)[hi] / s);
      p[d] = dlo <= dhi ? lo : hi;
    }
  }
  return grid.LinearIndex(p);
}

struct SimSample {
  double send_s = -1.0;
  double sent_s = -1.0;  // SendFrame returned
  double recv_s = -1.0;
  bool ok = false;
  bool degraded = false;
  double total_cost = 0.0;
  double server_s = 0.0;
};

struct SimPhase {
  std::vector<SimItem> items;
  std::vector<SimSample> samples;
  double duration_s = 0.0;
  double late_p99_ms = 0.0;
  bool backlog_grew = false;
  bool sender_failed = false;
};

// Open loop over two loopback connections: one thread sends each QUERY at
// its due time, one thread receives. Latency counts from the due time.
SimPhase RunSimPhase(SimEnv& env, std::vector<SimItem> items, double rate,
                     double duration) {
  SimPhase phase;
  phase.items = std::move(items);
  phase.duration_s = duration;
  const size_t n = phase.items.size();
  phase.samples.assign(n, SimSample{});
  std::vector<net::BlockingClient> conns;
  for (int i = 0; i < 2; ++i) {
    auto c = net::BlockingClient::Connect(env.server->port());
    if (!c.ok()) Die("connect: " + c.status().ToString());
    Check(c->Hello(), "hello");
    conns.push_back(std::move(c).value());
  }
  std::atomic<size_t> received{0};
  std::atomic<bool> stop{false};
  const auto t0 = Clock::now();
  auto receiver = [&] {
    std::vector<net::FrameDecoder> decoders(conns.size());
    pollfd fds[2];
    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i] = pollfd{conns[i].fd(), POLLIN, 0};
    }
    uint8_t buf[65536];
    while (received.load() < n && !stop.load()) {
      if (poll(fds, conns.size(), 20) <= 0) continue;
      for (size_t i = 0; i < conns.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t got = read(fds[i].fd, buf, sizeof(buf));
        if (got <= 0) {
          stop.store(true);
          break;
        }
        const double now = Since(t0);
        if (!decoders[i].Feed(buf, static_cast<size_t>(got)).ok()) {
          stop.store(true);
          break;
        }
        net::Frame frame;
        while (decoders[i].Next(&frame)) {
          uint64_t id = 0;
          SimSample s;
          s.recv_s = now;
          if (static_cast<net::FrameType>(frame.type) ==
              net::FrameType::kResult) {
            net::ResultMsg msg;
            if (!net::DecodeResult(frame, &msg).ok()) continue;
            id = msg.request_id;
            s.ok = (msg.flags & net::kResultCompleted) != 0;
            s.degraded = (msg.flags & net::kResultDegraded) != 0;
            s.total_cost = msg.total_cost;
            s.server_s = msg.server_seconds;
          } else if (static_cast<net::FrameType>(frame.type) ==
                     net::FrameType::kError) {
            net::ErrorMsg err;
            if (!net::DecodeError(frame, &err).ok()) continue;
            id = err.request_id;
          } else {
            continue;
          }
          if (id == 0 || id > n) continue;
          SimSample& dst = phase.samples[id - 1];
          dst.recv_s = s.recv_s;
          dst.ok = s.ok;
          dst.degraded = s.degraded;
          dst.total_cost = s.total_cost;
          dst.server_s = s.server_s;
          received.fetch_add(1);
        }
      }
    }
  };
  std::thread rx(receiver);
  std::vector<double> late_ms;
  late_ms.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const SimItem& it = phase.items[i];
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(it.due_s));
    std::this_thread::sleep_until(due);
    net::QueryMsg q;
    q.request_id = i + 1;
    q.tenant_id = it.tenant;
    q.template_name = env.forms[it.tpl].name;
    q.selectivities = it.sels;
    const double send = Since(t0);
    phase.samples[i].send_s = send;
    if (!conns[i % conns.size()].SendFrame(net::EncodeQuery(q)).ok()) {
      phase.sender_failed = true;
      break;
    }
    phase.samples[i].sent_s = Since(t0);
    late_ms.push_back((send - it.due_s) * 1e3);
  }
  // Backlog: requests still unanswered when sending ends, against what the
  // latency limit lets be in flight at this rate.
  const size_t outstanding = n - std::min(n, received.load());
  phase.backlog_grew =
      static_cast<double>(outstanding) >
      std::max(64.0, 2.0 * rate * kSimP99LimitMs * 1e-3);
  const auto give_up = Clock::now() + std::chrono::seconds(10);
  while (received.load() < n && !stop.load() && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  rx.join();
  phase.late_p99_ms = Quantile(late_ms, 0.99);
  return phase;
}

struct SimQuality {
  uint64_t attempted = 0, failed = 0, degraded = 0;
  double aso = 0.0, mso = 0.0, p50_ms = 0.0, p99_ms = 0.0;
  double throughput = 0.0, sim_steps = 0.0;
  int bound_exceed = 0;
  std::string worst;
  double worst_subopt = 0.0;
};

// Checks every response against the in-process simulator at the snapped
// q_a (RunSafe when the response is DEGRADED) and scores it.
// With `window_s` > 0 the latency quantiles are medians over windows of
// that length; otherwise they are taken over the whole phase.
SimQuality ScoreSim(const SimEnv& env, const SimPhase& phase,
                    double window_s) {
  SimQuality q;
  std::vector<double> lat, due, subopt;
  double last_recv = 0.0;
  double steps = 0.0;
  for (size_t i = 0; i < phase.items.size(); ++i) {
    const SimItem& it = phase.items[i];
    const SimSample& s = phase.samples[i];
    ++q.attempted;
    if (!s.ok || s.recv_s < 0.0) {
      ++q.failed;
      continue;
    }
    const CompiledBouquet& c = *env.bundles[it.tpl];
    const uint64_t qa = SnapToGrid(*c.grid, it.sels);
    const SimResult ref = s.degraded ? c.simulator->RunSafe(qa)
                                     : c.simulator->RunOptimized(qa);
    if (ref.total_cost != s.total_cost) {
      ++q.failed;
      continue;
    }
    if (s.degraded) ++q.degraded;
    steps += static_cast<double>(ref.steps.size());
    lat.push_back((s.recv_s - it.due_s) * 1e3);
    due.push_back(it.due_s);
    last_recv = std::max(last_recv, s.recv_s);
    const double so = c.simulator->SubOpt(ref, qa);
    subopt.push_back(so);
    const double bound = BouquetMsoBound(*c.bouquet);
    if (so > bound) ++q.bound_exceed;
    if (so > q.worst_subopt) {
      q.worst_subopt = so;
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%s subopt %.2f vs bound %.1f",
                    env.forms[it.tpl].name.c_str(), so, bound);
      q.worst = buf;
    }
  }
  if (window_s > 0.0) {
    // Median over fixed windows of each window's quantile: a burst of host
    // interference moves one window, not the run's figure.
    std::map<int64_t, std::vector<double>> windows;
    for (size_t i = 0; i < lat.size(); ++i) {
      windows[static_cast<int64_t>(due[i] / window_s)].push_back(lat[i]);
    }
    std::vector<double> p50, p99;
    for (const auto& [w, v] : windows) {
      p50.push_back(Quantile(v, 0.50));
      p99.push_back(Quantile(v, 0.99));
    }
    q.p50_ms = Quantile(p50, 0.5);
    q.p99_ms = Quantile(p99, 0.5);
  } else {
    q.p50_ms = Quantile(lat, 0.50);
    q.p99_ms = Quantile(lat, 0.99);
  }
  q.aso = Mean(subopt);
  q.mso = subopt.empty() ? 0.0 : *std::max_element(subopt.begin(), subopt.end());
  const double served = static_cast<double>(q.attempted - q.failed);
  q.throughput = served / std::max(phase.duration_s, last_recv);
  q.sim_steps = served > 0 ? steps / served : 0.0;
  return q;
}

// Open-loop ramp in steps no more than a tenth apart; returns the highest
// offered rate whose p99 stays within the limit with no failures, no
// generator lag and no growing backlog.
double RampMaxRps(SimEnv& env, Rng* rng, double start_rate, double budget_s,
                  std::vector<Metric>* steps_out) {
  double best = 0.0;
  double rate = start_rate;
  double spent = 0.0;
  while (spent < budget_s) {
    const double duration = std::max(0.4, 1500.0 / rate);
    if (spent + duration > budget_s && best > 0.0) break;
    SimPhase phase = RunSimPhase(
        env, MakeSimSchedule(rng, env.forms, rate, duration), rate, duration);
    spent += duration;
    const SimQuality q = ScoreSim(env, phase, 0.0);
    const bool meets = q.failed == 0 && q.p99_ms <= kSimP99LimitMs &&
                       phase.late_p99_ms <= kLateLimitMs &&
                       !phase.backlog_grew && !phase.sender_failed;
    char name[64];
    std::snprintf(name, sizeof(name), "ramp@%.0f.p99_ms", rate);
    steps_out->push_back({name, q.p99_ms, meets ? "ms ok" : "ms over"});
    if (!meets) break;
    best = rate;
    rate *= kSimRampFactor;
  }
  return best;
}

// ============================================================ per-layer util

// Every per-layer metric, in BENCHMARK.json order. Workloads fill what their
// path exercises; the rest read 0 (the layer does no work there).
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"net.transit_p50_us", "us"},
      {"router.mean_batch_size", "count"},
      {"router.peak_queue_depth", "count"},
      {"router.shed", "count"},
      {"service.lookup_us", "us"},
      {"service.compile_s", "s"},
      {"service.first_request_ms", "ms"},
      {"ess.dp_calls", "count"},
      {"ess.recost_hits", "count"},
      {"ess.memo_hits", "count"},
      {"feedback.lookup_us", "us"},
      {"feedback.record_us", "us"},
      {"feedback.warm_frac", "frac"},
      {"feedback.contours_skipped", "count"},
      {"optimizer.init_us", "us"},
      {"optimizer.dp_calls_per_req", "count"},
      {"optimizer.memo_hits_per_req", "count"},
      {"bouquet.executions_per_req", "count"},
      {"bouquet.contours_per_req", "count"},
      {"bouquet.spills_per_req", "count"},
      {"bouquet.self_ms", "ms"},
      {"bouquet.aborted_cost_frac", "frac"},
      {"bouquet.sim_steps_per_req", "count"},
      {"bouquet.bound_exceed", "count"},
      {"executor.step_ms_per_req", "ms"},
      {"executor.aborted_step_ms_per_req", "ms"},
      {"executor.charged_units_per_req", "units"},
      {"executor.units_per_ms", "units/ms"},
      {"storage.hit_rate", "frac"},
      {"storage.misses_per_req", "count"},
      {"storage.physical_reads_per_req", "count"},
      {"storage.physical_writes_per_req", "count"},
      {"storage.evictions_per_req", "count"},
      {"storage.writebacks_per_req", "count"},
      {"storage.pinned_peak", "count"},
      {"loadgen.late_p99_ms", "ms"},
      {"loadgen.backlog_grew", "count"},
      {"req_p99_ms", "ms"},
      {"mso_cost", "ratio"},
      {"subopt_wall_p50", "ratio"},
      {"max_rps_at_slo", "1/s"},
      {"degraded_frac", "frac"},
      {"fail_frac", "frac"},
      {"trace.overhead_frac", "frac"},
      {"trace.residual_frac", "frac"},
  };
  return names;
}

// Compile time and POSP counters of the deployment's template compiles.
void AddCompileStats(
    const std::vector<std::shared_ptr<const CompiledBouquet>>& bundles,
    std::map<std::string, double>* v) {
  for (const auto& b : bundles) {
    (*v)["service.compile_s"] += b->compile_seconds;
    (*v)["ess.dp_calls"] += static_cast<double>(b->posp_stats.dp_calls);
    (*v)["ess.recost_hits"] += static_cast<double>(b->posp_stats.recost_hits);
    (*v)["ess.memo_hits"] += static_cast<double>(b->posp_stats.memo_hits);
  }
}

void EmitLayers(const std::map<std::string, double>& values, Report* out) {
  for (const auto& [name, unit] : LayerMetricNames()) {
    const auto it = values.find(name);
    out->Add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

std::string WorkDir(const std::string& base, const std::string& workload,
                    uint64_t seed) {
  return base + "/" + workload + "-" + std::to_string(seed) + "-" +
         std::to_string(getpid());
}

// ================================================================ workloads

int RunReal(const std::string& workload, uint64_t seed, double seconds,
            bool trace, const std::string& work_base) {
  const RealConfig cfg = RealConfigFor(workload);
  const std::string work = WorkDir(work_base, workload, seed);
  std::filesystem::create_directories(work);
  // The traced run measures on its own fresh deployment so its counts
  // start from the same state as an untraced run's.
  RealRun run = PrepareReal(cfg, seed, work, trace ? 2 : 1);
  RealEnv& env = *run.envs.back();

  Report report;
  std::vector<Metric> extra;
  ResetPeakRss();
  const RealPhase phase =
      RunRealPhase(env, run.items, cfg.clients, seconds, false);
  const RealQuality q = ScoreReal(env, run.items, run.oracles, phase.samples);
  report.attempted = q.attempted;
  report.failed = q.failed;
  ReportRealEndToEnd(cfg, run, phase, q, &report, &extra);
  std::printf("# workload %s seed %llu: %d-client closed loop, %llu requests "
              "in %.2fs\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              cfg.clients, static_cast<unsigned long long>(q.attempted),
              phase.wall_s);
  PrintHuman("end-to-end (untraced)", report.metrics);
  PrintHuman("end-to-end, reported only", extra);
  if (!q.worst.empty()) {
    std::printf("# Theorem-3 audit: %d of %zu first-pass requests above "
                "bound; worst %s\n",
                q.bound_exceed, run.items.size(), q.worst.c_str());
  }

  if (trace) {
    RealEnv& tenv = *run.envs.front();
    const RealPhase tp =
        RunRealPhase(tenv, run.items, cfg.clients, seconds, true);
    const RealQuality tq = ScoreReal(tenv, run.items, run.oracles, tp.samples);
    report.attempted += tq.attempted;
    report.failed += tq.failed;

    std::map<std::string, double> v;
    const int64_t n = static_cast<int64_t>(run.items.size());
    double pass_dp = 0, pass_memo = 0, pass_exec = 0, pass_cont = 0,
           pass_spill = 0, pass_charged = 0, pass_aborted = 0, warm = 0,
           skipped = 0;
    double step_s = 0, aborted_s = 0, run_self_s = 0, total_charged = 0;
    for (const RealSample& s : tp.samples) {
      step_s += s.step_s;
      aborted_s += s.aborted_step_s;
      run_self_s += s.run_s - s.step_s;
      total_charged += s.charged;
      if (s.seq >= n) continue;
      pass_dp += static_cast<double>(s.dp_calls);
      pass_memo += static_cast<double>(s.memo_hits);
      pass_exec += s.executions;
      pass_cont += s.contours;
      pass_spill += s.spills;
      pass_charged += s.charged;
      pass_aborted += s.aborted_charged;
      warm += s.warm_start > 0 ? 1 : 0;
      skipped += s.warm_start;
    }
    const double reqs = static_cast<double>(tp.samples.size());
    std::vector<const SpanLog*> logs;
    std::map<std::string, double> self, count;
    double request_s = 0;
    for (const auto& log : tp.logs) {
      logs.push_back(log.get());
      for (const auto& [name, t] : SelfTimes(log->spans())) self[name] += t;
      for (const SpanRec& s : log->spans()) {
        count[s.name] += 1;
        if (s.parent < 0) request_s += s.end_s - s.start_s;
      }
    }
    auto per = [&](const char* name) {
      return count[name] > 0 ? self[name] / count[name] : 0.0;
    };
    v["service.lookup_us"] = per("service.get_or_compile") * 1e6;
    v["feedback.lookup_us"] = per("feedback.lookup") * 1e6;
    v["feedback.record_us"] = per("feedback.record") * 1e6;
    v["optimizer.init_us"] = per("optimizer.init") * 1e6;
    AddCompileStats(env.bundles, &v);
    v["service.first_request_ms"] = env.first_request_ms;
    v["feedback.warm_frac"] = warm / n;
    v["feedback.contours_skipped"] = skipped;
    v["optimizer.dp_calls_per_req"] = pass_dp / n;
    v["optimizer.memo_hits_per_req"] = pass_memo / n;
    v["bouquet.executions_per_req"] = pass_exec / n;
    v["bouquet.contours_per_req"] = pass_cont / n;
    v["bouquet.spills_per_req"] = pass_spill / n;
    v["bouquet.self_ms"] = run_self_s * 1e3 / reqs;
    v["bouquet.aborted_cost_frac"] =
        pass_charged > 0 ? pass_aborted / pass_charged : 0.0;
    v["bouquet.bound_exceed"] = tq.bound_exceed;
    v["executor.step_ms_per_req"] = step_s * 1e3 / reqs;
    v["executor.aborted_step_ms_per_req"] = aborted_s * 1e3 / reqs;
    v["executor.charged_units_per_req"] = pass_charged / n;
    v["executor.units_per_ms"] = step_s > 0 ? total_charged / (step_s * 1e3)
                                            : 0.0;
    const storage::BufferStats& a = tp.pool_before;
    const storage::BufferStats& b = tp.pool_after_pass;
    const double hits = static_cast<double>(b.hits - a.hits);
    const double misses = static_cast<double>(b.misses - a.misses);
    v["storage.hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    v["storage.misses_per_req"] = misses / n;
    v["storage.physical_reads_per_req"] =
        static_cast<double>(b.physical_reads - a.physical_reads) / n;
    v["storage.physical_writes_per_req"] =
        static_cast<double>(b.physical_writes - a.physical_writes) / n;
    v["storage.evictions_per_req"] =
        static_cast<double>(b.evictions - a.evictions) / n;
    v["storage.writebacks_per_req"] =
        static_cast<double>(b.writebacks - a.writebacks) / n;
    v["storage.pinned_peak"] = static_cast<double>(b.pinned_peak);
    for (const Metric& m : extra) v[m.name] = m.value;
    const double untraced_mean = Mean(Latencies(phase.samples));
    const double traced_mean = Mean(Latencies(tp.samples));
    v["trace.overhead_frac"] =
        untraced_mean > 0 ? traced_mean / untraced_mean - 1.0 : 0.0;
    v["trace.residual_frac"] = request_s > 0 ? self["request"] / request_s : 0;

    // Self times plus the residual add up to the request time.
    double layer_sum = 0;
    std::printf("# traced layer self time per request (ms):\n");
    for (const auto& [name, t] : self) {
      layer_sum += t;
      std::printf("#   %-26s %10.4f  (%5.1f%%)\n", name.c_str(),
                  t * 1e3 / reqs, request_s > 0 ? 100.0 * t / request_s : 0.0);
    }
    std::printf("#   %-26s %10.4f  (sum of self times %.4f)\n",
                "request total", request_s * 1e3 / reqs,
                layer_sum * 1e3 / reqs);
    // On real_hot the replayed path must charge exactly what the service
    // charged for the same first-pass request.
    if (cfg.clients == 1) {
      int mismatches = 0;
      for (int64_t i = 0; i < n && i < static_cast<int64_t>(tp.samples.size()) &&
                          i < static_cast<int64_t>(phase.samples.size());
           ++i) {
        if (tp.samples[i].charged != phase.samples[i].charged) ++mismatches;
      }
      std::printf("# traced path vs service: %d of %lld first-pass charges "
                  "differ\n",
                  mismatches, static_cast<long long>(n));
    }
    WriteSpans(work_base + "/trace-" + workload + "-" + std::to_string(seed) +
                   ".jsonl",
               logs);
    report.metrics.clear();
    EmitLayers(v, &report);
  }
  report.correct = report.failed == 0;
  run.envs.clear();
  std::error_code ec;
  std::filesystem::remove_all(work, ec);
  PrintResult(report);
  return 0;
}

int RunSimWire(uint64_t seed, double seconds, bool trace,
               const std::string& work_base) {
  std::vector<double> setups;
  std::unique_ptr<SimEnv> env;
  for (int i = 0; i < kSetupReps; ++i) {
    env.reset();
    env = SetupSim();
    setups.push_back(env->setup_s);
  }
  Rng rng(StreamSeed(seed, "sim_wire"));
  const double fixed_s = 0.6 * seconds;
  ResetPeakRss();
  SimPhase phase = RunSimPhase(
      *env, MakeSimSchedule(&rng, env->forms, kSimFixedRate, fixed_s),
      kSimFixedRate, fixed_s);
  const net::RouterStats router = env->server->router().stats();
  const SimQuality q = ScoreSim(*env, phase, kSimWindowS);
  std::vector<Metric> ramp_steps;
  const double max_rps =
      RampMaxRps(*env, &rng, 0.8 * kSimFixedRate, seconds - fixed_s,
                 &ramp_steps);

  Report report;
  report.attempted = q.attempted;
  report.failed = q.failed;
  report.Add("setup_s", Quantile(setups, 0.5), "s");
  report.Add("req_p50_ms", q.p50_ms, "ms");
  report.Add("throughput_rps", q.throughput, "1/s");
  report.Add("aso_cost", q.aso, "ratio");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  std::vector<Metric> extra = {
      {"req_p99_ms", q.p99_ms, "ms"},
      {"offered_rps", kSimFixedRate, "1/s"},
      {"p99_limit_ms", kSimP99LimitMs, "ms"},
      {"samples", static_cast<double>(q.attempted - q.failed), "count"},
      {"fail_frac",
       q.attempted ? static_cast<double>(q.failed) / q.attempted : 0.0,
       "frac"},
      {"mso_cost", q.mso, "ratio"},
      {"max_rps_at_slo", max_rps, "1/s"},
      {"degraded_frac",
       q.attempted > q.failed
           ? static_cast<double>(q.degraded) / (q.attempted - q.failed)
           : 0.0,
       "frac"},
      {"loadgen.late_p99_ms", phase.late_p99_ms, "ms"},
      {"loadgen.backlog_grew", phase.backlog_grew ? 1.0 : 0.0, "count"},
      {"bouquet.bound_exceed", static_cast<double>(q.bound_exceed), "count"},
  };
  std::printf("# workload sim_wire seed %llu: open loop at %.0f req/s for "
              "%.1fs, %zu requests\n",
              static_cast<unsigned long long>(seed), kSimFixedRate, fixed_s,
              phase.items.size());
  PrintHuman("end-to-end (untraced)", report.metrics);
  PrintHuman("end-to-end, reported only", extra);
  PrintHuman("ramp steps", ramp_steps);
  if (!q.worst.empty()) {
    std::printf("# Theorem-3 audit: %d requests above bound; worst %s\n",
                q.bound_exceed, q.worst.c_str());
  }
  if (phase.late_p99_ms > kLateLimitMs || phase.backlog_grew ||
      phase.sender_failed) {
    std::printf("# INVALID: the load generator fell behind (late p99 %.3f "
                "ms, backlog grew %d); latency not reported\n",
                phase.late_p99_ms, phase.backlog_grew ? 1 : 0);
    return 3;
  }

  if (trace) {
    SimPhase tp = RunSimPhase(
        *env, MakeSimSchedule(&rng, env->forms, kSimFixedRate, fixed_s),
        kSimFixedRate, fixed_s);
    const SimQuality tq = ScoreSim(*env, tp, kSimWindowS);
    report.attempted += tq.attempted;
    report.failed += tq.failed;
    SpanLog log(Clock::now());
    std::vector<double> transit_us;
    double req_s = 0, residual_s = 0;
    for (size_t i = 0; i < tp.items.size(); ++i) {
      const SimSample& s = tp.samples[i];
      if (!s.ok) continue;
      const double due = tp.items[i].due_s;
      const int32_t root = log.Add("request", i + 1, -1, due, s.recv_s);
      log.Add("loadgen.late", i + 1, root, due, s.send_s);
      log.Add("client.send", i + 1, root, s.send_s, s.sent_s);
      // The server's own arrival -> response span, placed to end where the
      // response left it (at most the receive time).
      const double srv_end = s.recv_s;
      log.Add("server", i + 1, root, srv_end - s.server_s, srv_end);
      transit_us.push_back((s.recv_s - s.send_s - s.server_s) * 1e6);
      req_s += s.recv_s - due;
      residual_s +=
          (s.recv_s - due) - (s.send_s - due) - (s.sent_s - s.send_s) -
          s.server_s;
    }
    std::map<std::string, double> v;
    v["net.transit_p50_us"] = Quantile(transit_us, 0.5);
    v["router.mean_batch_size"] =
        router.batches ? static_cast<double>(router.batched_requests) /
                             static_cast<double>(router.batches)
                       : 0.0;
    v["router.peak_queue_depth"] = static_cast<double>(router.peak_queue_depth);
    v["router.shed"] = static_cast<double>(router.shed);
    // Cache-hit bundle lookups, timed directly.
    const auto l0 = Clock::now();
    int lookups = 0;
    for (int r = 0; r < 2000; ++r) {
      for (const QuerySpec& form : env->forms) {
        auto c = env->service->GetOrCompile(form);
        if (!c.ok()) Die("lookup failed");
        ++lookups;
      }
    }
    v["service.lookup_us"] = Since(l0) * 1e6 / lookups;
    AddCompileStats(env->bundles, &v);
    v["service.first_request_ms"] = env->first_request_ms;
    v["bouquet.sim_steps_per_req"] = q.sim_steps;
    for (const Metric& m : extra) v[m.name] = m.value;
    v["trace.overhead_frac"] =
        q.p50_ms > 0 ? tq.p50_ms / q.p50_ms - 1.0 : 0.0;
    v["trace.residual_frac"] = req_s > 0 ? residual_s / req_s : 0.0;
    WriteSpans(work_base + "/trace-sim_wire-" + std::to_string(seed) +
                   ".jsonl",
               {&log});
    report.metrics.clear();
    EmitLayers(v, &report);
  }
  report.correct = report.failed == 0;
  env.reset();
  PrintResult(report);
  return 0;
}

// Prints the request stream a seed generates (templates, bindings, arrival
// times) without running it; the determinism test compares these.
int DumpStream(const std::string& workload, uint64_t seed, double seconds) {
  if (workload == "sim_wire") {
    const Catalog tpch = MakeTpchCatalog(1.0);
    const Catalog tpcds = MakeTpcdsCatalog();
    std::vector<QuerySpec> forms;
    for (const char* name : kSimTemplates) {
      forms.push_back(GetSpace(name, tpch, tpcds).query);
    }
    Rng rng(StreamSeed(seed, workload));
    for (const SimItem& it :
         MakeSimSchedule(&rng, forms, kSimFixedRate, 0.6 * seconds)) {
      std::printf("%s tenant=%u due=%.9f", forms[it.tpl].name.c_str(),
                  it.tenant, it.due_s);
      for (double s : it.sels) std::printf(" %.17g", s);
      std::printf("\n");
    }
    return 0;
  }
  Database mem;
  TpchDataOptions data;
  data.seed = kDataSeed;
  data.mini_scale = kMiniScale;
  MakeTpchDatabase(&mem, data);
  Catalog catalog;
  SyncTpchCatalog(mem, &catalog);
  for (const RealItem& it :
       MakeRealStream(seed, catalog, RealForms(catalog))) {
    std::printf("%s", it.query.name.c_str());
    for (double t : it.target) std::printf(" target=%.17g", t);
    for (const SelectionPredicate& f : it.query.filters) {
      std::printf(" %s.%s=%lld", f.table.c_str(), f.column.c_str(),
                  static_cast<long long>(f.constant));
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false, dump = false;
  std::string work = ".bench_work";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) perfbench::Die("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      trace = value() == "1";
    } else if (a == "--work-dir") {
      work = value();
    } else if (a == "--dump-stream") {
      dump = true;
    } else {
      perfbench::Die("unknown argument " + a);
    }
  }
  if (!(seconds > 0.0)) perfbench::Die("--seconds must be positive");
  if (workload != "real_hot" && workload != "real_pressure" &&
      workload != "sim_wire") {
    perfbench::Die("--workload must be real_hot, real_pressure or sim_wire");
  }
  if (dump) return perfbench::DumpStream(workload, seed, seconds);
  std::filesystem::create_directories(work);
  if (workload == "sim_wire") {
    return perfbench::RunSimWire(seed, seconds, trace, work);
  }
  return perfbench::RunReal(workload, seed, seconds, trace, work);
}
