#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace impliance::obs {

void SetMetricsEnabled(bool enabled) {
  MetricsEnabledFlag().store(enabled, std::memory_order_relaxed);
}

// ------------------------------------------------------------------ Counter

size_t Counter::ShardIndex() {
  // One shard per thread, assigned round-robin on first use; the bitmask
  // folds thread counts beyond kShards back onto existing shards.
  static std::atomic<size_t> next{0};
  thread_local size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot & (kShards - 1);
}

// --------------------------------------------------------- BoundedHistogram

size_t BoundedHistogram::BucketIndex(double value) {
  if (!(value > kMinValue)) return 0;  // also catches NaN and negatives
  const double octaves = std::log2(value / kMinValue);
  const size_t index =
      1 + static_cast<size_t>(octaves * kBucketsPerOctave);
  return std::min(index, kNumBuckets - 1);
}

double BoundedHistogram::BucketUpperBound(size_t index) {
  if (index == 0) return kMinValue;
  return kMinValue *
         std::exp2(static_cast<double>(index) / kBucketsPerOctave);
}

HistogramSnapshot BoundedHistogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.buckets.resize(kNumBuckets);
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    snapshot.buckets[i] = n;
    snapshot.total += n;
  }
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  snapshot.max = max_.load(std::memory_order_relaxed);
  return snapshot;
}

double HistogramSnapshot::Percentile(double p) const {
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p / 100.0 * total)));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      // Never report beyond the true maximum (tightens the top bucket).
      return std::min(BoundedHistogram::BucketUpperBound(i), max);
    }
  }
  return max;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (buckets.size() < other.buckets.size()) {
    buckets.resize(other.buckets.size());
  }
  for (size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  total += other.total;
  sum += other.sum;
  max = std::max(max, other.max);
}

std::string HistogramSnapshot::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
                static_cast<unsigned long long>(total), Mean(),
                Percentile(50), Percentile(95), Percentile(99), Max());
  return buf;
}

// ----------------------------------------------------------------- Registry

Registry& Registry::Global() {
  // Leaked singleton: metric pointers cached in static locals across the
  // process must stay valid through static destruction.
  static Registry* registry = new Registry();
  return *registry;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

BoundedHistogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<BoundedHistogram>();
  return slot.get();
}

RegistrySnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->Value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.emplace_back(name, histogram->Snapshot());
  }
  return snapshot;
}

}  // namespace impliance::obs
