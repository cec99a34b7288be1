#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

#include "common/str_util.h"

namespace bouquet {
namespace obs {

namespace {

// Shortest representation that parses back to exactly `v` ("0.1", not
// "0.10000000000000001") — bucket bounds double as grep targets in CI.
std::string RoundTrip(double v) {
  for (int prec = 15; prec <= 17; ++prec) {
    std::string s = StrPrintf("%.*g", prec, v);
    if (std::strtod(s.c_str(), nullptr) == v) return s;
  }
  return StrPrintf("%.17g", v);
}

std::string FmtDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return RoundTrip(v);
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()) &&
         "histogram bounds must be increasing");
  MutexLock lock(&mu_);
  counts_.assign(bounds_.size() + 1, 0);  // +1: the implicit +Inf bucket
}

void Histogram::Observe(double value) {
  const size_t b =
      std::upper_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  MutexLock lock(&mu_);
  ++counts_[b];
  ++count_;
  sum_ += value;
}

void Histogram::Reset() {
  MutexLock lock(&mu_);
  counts_.assign(bounds_.size() + 1, 0);
  count_ = 0;
  sum_ = 0.0;
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  MutexLock lock(&mu_);
  s.counts = counts_;
  s.count = count_;
  s.sum = sum_;
  return s;
}

MetricsRegistry::Entry* MetricsRegistry::FindLocked(const std::string& name) {
  for (auto& e : entries_) {
    if (e->name == name) return e.get();
  }
  return nullptr;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  MutexLock lock(&mu_);
  if (Entry* e = FindLocked(name)) {
    assert(e->kind == Kind::kCounter && "metric re-registered as a counter");
    return e->counter.get();
  }
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->kind = Kind::kCounter;
  e->counter = std::make_unique<Counter>();
  Counter* out = e->counter.get();
  entries_.push_back(std::move(e));
  return out;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  return GetGauge(name, help, nullptr);
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 std::function<double()> sample) {
  MutexLock lock(&mu_);
  if (Entry* e = FindLocked(name)) {
    assert(e->kind == Kind::kGauge && "metric re-registered as a gauge");
    return e->gauge.get();
  }
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->kind = Kind::kGauge;
  e->gauge = std::make_unique<Gauge>();
  e->gauge->sample_ = std::move(sample);
  Gauge* out = e->gauge.get();
  entries_.push_back(std::move(e));
  return out;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> bounds) {
  MutexLock lock(&mu_);
  if (Entry* e = FindLocked(name)) {
    assert(e->kind == Kind::kHistogram &&
           "metric re-registered as a histogram");
    return e->histogram.get();
  }
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->kind = Kind::kHistogram;
  e->histogram = std::make_unique<Histogram>(std::move(bounds));
  Histogram* out = e->histogram.get();
  entries_.push_back(std::move(e));
  return out;
}

void MetricsRegistry::ResetForTest() {
  MutexLock lock(&mu_);
  for (const auto& e : entries_) {
    switch (e->kind) {
      case Kind::kCounter:
        e->counter->value_.store(0, std::memory_order_release);
        break;
      case Kind::kGauge:
        e->gauge->Set(0.0);
        break;
      case Kind::kHistogram:
        e->histogram->Reset();
        break;
    }
  }
}

std::string MetricsRegistry::ExportPrometheus() const {
  std::string out;
  MutexLock lock(&mu_);
  for (const auto& e : entries_) {
    out += "# HELP " + e->name + " " + e->help + "\n";
    switch (e->kind) {
      case Kind::kCounter:
        out += "# TYPE " + e->name + " counter\n";
        out += e->name + " " +
               StrPrintf("%llu",
                         static_cast<unsigned long long>(
                             e->counter->value())) +
               "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + e->name + " gauge\n";
        out += e->name + " " + FmtDouble(e->gauge->value()) + "\n";
        break;
      case Kind::kHistogram: {
        out += "# TYPE " + e->name + " histogram\n";
        const Histogram::Snapshot s = e->histogram->snapshot();
        uint64_t cumulative = 0;
        for (size_t i = 0; i < s.counts.size(); ++i) {
          cumulative += s.counts[i];
          const std::string le =
              i < s.bounds.size() ? FmtDouble(s.bounds[i]) : "+Inf";
          out += e->name + "_bucket{le=\"" + le + "\"} " +
                 StrPrintf("%llu",
                           static_cast<unsigned long long>(cumulative)) +
                 "\n";
        }
        out += e->name + "_sum " + FmtDouble(s.sum) + "\n";
        out += e->name + "_count " +
               StrPrintf("%llu", static_cast<unsigned long long>(s.count)) +
               "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::ExportJson() const {
  std::string out = "{";
  MutexLock lock(&mu_);
  bool first = true;
  for (const auto& e : entries_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + e->name + "\":";
    switch (e->kind) {
      case Kind::kCounter:
        out += StrPrintf("%llu",
                         static_cast<unsigned long long>(e->counter->value()));
        break;
      case Kind::kGauge: {
        const double v = e->gauge->value();
        out += std::isfinite(v) ? RoundTrip(v) : "null";
        break;
      }
      case Kind::kHistogram: {
        const Histogram::Snapshot s = e->histogram->snapshot();
        out += "{\"buckets\":[";
        uint64_t cumulative = 0;
        for (size_t i = 0; i < s.counts.size(); ++i) {
          cumulative += s.counts[i];
          if (i > 0) out += ",";
          const std::string le = i < s.bounds.size()
                                     ? RoundTrip(s.bounds[i])
                                     : "\"inf\"";
          out += "{\"le\":" + le + ",\"count\":" +
                 StrPrintf("%llu",
                           static_cast<unsigned long long>(cumulative)) +
                 "}";
        }
        out += "],\"count\":" +
               StrPrintf("%llu", static_cast<unsigned long long>(s.count)) +
               ",\"sum\":" +
               (std::isfinite(s.sum) ? RoundTrip(s.sum) : "null") +
               "}";
        break;
      }
    }
  }
  out += "}";
  return out;
}

std::vector<double> CompileLatencyBuckets() {
  return {0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
          30.0};
}

std::vector<double> BudgetUtilizationBuckets() {
  return {0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.01, 1.1, 1.5, 2.0};
}

std::vector<double> SubOptimalityBuckets() {
  return {1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0};
}

std::vector<double> NetLatencyBuckets() {
  return {0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
          0.05,   0.1,     0.25,   0.5,   1.0,    2.5,   5.0,  10.0};
}

std::vector<double> BatchSizeBuckets() {
  return {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0};
}

}  // namespace obs
}  // namespace bouquet
