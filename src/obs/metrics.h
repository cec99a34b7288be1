// Runtime observability, part 2: a process-local metrics registry.
//
// Counters, gauges, and fixed-bucket histograms, named in the Prometheus
// style (snake_case, `_total` suffix for counters) and exportable both as
// Prometheus text exposition format (the examples/bouquet_server "/metrics"
// dump) and as a JSON object (machine-friendly for the bench harness and
// EXPERIMENTS.md table regeneration).
//
// Each counting component owns one registry (BouquetService, BouquetServer
// together with its RequestRouter, BufferManager) and resolves its
// instruments once, at construction, as stable raw pointers owned by the
// registry (valid for the registry's lifetime). The hot path is a single
// atomic add — no map lookup, no lock — and the component's stats()
// snapshot reads the same instruments the exporter prints. The registry's
// name index is GUARDED_BY a Mutex from the capability layer
// (common/synchronization.h); histograms serialize their bucket updates
// through their own leaf Mutex.
//
// Thread-safety: all methods of all classes here may be called from any
// thread concurrently.

#ifndef BOUQUET_OBS_METRICS_H_
#define BOUQUET_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/synchronization.h"

namespace bouquet {
namespace obs {

/// Monotonically increasing count (lock-free). Increments are release and
/// reads acquire: a reader that sees an increment also sees every count its
/// writer made before it. Snapshots rely on this to stay consistent without
/// a lock (count the admission first, its outcome second; read the outcome
/// first, the admission last).
class Counter {
 public:
  void Inc(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_release);
  }
  uint64_t value() const { return value_.load(std::memory_order_acquire); }

 private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (lock-free), or a sampled level: a
/// gauge registered with a sample function reads it on every value() call,
/// so it can never go stale (Set/Add are not used on those).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    // CAS loop instead of C++20 atomic<double>::fetch_add for portability
    // across the GCC/Clang versions the CI matrix builds with.
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return sample_ ? sample_() : value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::atomic<double> value_{0.0};
  std::function<double()> sample_;
};

/// Fixed-bucket histogram (cumulative buckets on export, Prometheus-style:
/// bucket i counts observations <= bounds[i], plus an implicit +Inf).
class Histogram {
 public:
  /// `bounds` must be strictly increasing; the +Inf bucket is implicit.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  struct Snapshot {
    std::vector<double> bounds;    ///< upper bounds, +Inf excluded
    std::vector<uint64_t> counts;  ///< per-bucket (non-cumulative), +Inf last
    uint64_t count = 0;
    double sum = 0.0;
  };
  Snapshot snapshot() const;

 private:
  friend class MetricsRegistry;
  void Reset();

  const std::vector<double> bounds_;
  mutable Mutex mu_;
  std::vector<uint64_t> counts_ GUARDED_BY(mu_);
  uint64_t count_ GUARDED_BY(mu_) = 0;
  double sum_ GUARDED_BY(mu_) = 0.0;
};

/// Named instruments with Prometheus/JSON export. Re-requesting an existing
/// name returns the same instrument (help/bounds of the first registration
/// win), so a reader — a test, or a per-run object such as BouquetDriver
/// handed its owner's registry — finds an instrument by its name.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help);
  Gauge* GetGauge(const std::string& name, const std::string& help);
  /// A sampled gauge: its value is `sample()` at read time. `sample` must be
  /// thread-safe and must not call back into this registry (exports run it
  /// under the registry lock); it typically reads a level its owner keeps
  /// anyway (a queue depth, live cache entries).
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  std::function<double()> sample);
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds);

  /// Prometheus text exposition format (HELP/TYPE comments, cumulative
  /// histogram buckets with an +Inf bucket, _sum and _count series).
  std::string ExportPrometheus() const;

  /// One JSON object keyed by metric name; histograms expand to
  /// {"buckets":[{"le":..,"count":..},...],"count":..,"sum":..}.
  std::string ExportJson() const;

  /// Zeroes every counter, plain gauge and histogram (sampled gauges follow
  /// their source). For test resets of the owning component only.
  void ResetForTest();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string help;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindLocked(const std::string& name) REQUIRES(mu_);

  mutable Mutex mu_;
  /// Registration order, preserved in exports for stable diffs.
  std::vector<std::unique_ptr<Entry>> entries_ GUARDED_BY(mu_);
};

/// Default compile-latency buckets (seconds): compile times range from
/// sub-millisecond warm paths to tens of seconds for 3D grids.
std::vector<double> CompileLatencyBuckets();

/// Default buckets for charged/budget utilization ratios; budgets are only
/// ever exceeded by one operator quantum, so the tail above 1.0 is short.
std::vector<double> BudgetUtilizationBuckets();

/// Default buckets for per-run sub-optimality (theory bound: 4rho(1+lambda)).
std::vector<double> SubOptimalityBuckets();

/// Default buckets for network request latency in seconds (0.1 ms – 10 s):
/// cache-warm simulated requests land sub-millisecond; cold compiles and
/// overload queueing push into whole seconds.
std::vector<double> NetLatencyBuckets();

/// Default buckets for same-template batch sizes (powers of two up to the
/// router's max_batch ceiling).
std::vector<double> BatchSizeBuckets();

}  // namespace obs
}  // namespace bouquet

#endif  // BOUQUET_OBS_METRICS_H_
