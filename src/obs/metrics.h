#ifndef IMPLIANCE_OBS_METRICS_H_
#define IMPLIANCE_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

// Process-wide observability primitives for the appliance's hot paths.
// The self-managing behaviors of Sections 3.4/5 (admission control,
// brokered resources, execution management) all need the system to see its
// own latencies and queue depths cheaply and continuously, which rules out
// keeping exact samples (unbounded memory, sort-per-read). Everything here
// is O(1) per recording, allocation-free after registration, and safe to
// hammer from any number of threads while a reader snapshots. This library
// deliberately depends on nothing but the standard library so `common`
// (ThreadPool) can depend on it.
namespace impliance::obs {

// Runtime kill-switch: with metrics disabled every Add/Increment becomes a
// single relaxed load + branch, which is what bench_obs measures as the
// disarmed floor. Enabled by default.
void SetMetricsEnabled(bool enabled);

inline std::atomic<bool>& MetricsEnabledFlag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}
inline bool MetricsEnabled() {
  return MetricsEnabledFlag().load(std::memory_order_relaxed);
}

// ------------------------------------------------------------------ Counter

// Monotonic counter, sharded across cache lines so concurrent writers from
// different threads do not bounce one hot line. Value() sums the shards
// (reads are rare; writes are the hot path).
class Counter {
 public:
  static constexpr size_t kShards = 16;

  void Increment(uint64_t delta = 1) {
    if (!MetricsEnabled()) return;
    shards_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  static size_t ShardIndex();

  Shard shards_[kShards];
};

// -------------------------------------------------------------------- Gauge

// Point-in-time signed value (queue depth, live connections).
class Gauge {
 public:
  void Set(int64_t value) {
    if (!MetricsEnabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// --------------------------------------------------------- BoundedHistogram

// Fixed-memory log-scale histogram: values land in geometric buckets
// growing by 2^(1/kBucketsPerOctave) per step, so quantiles are accurate
// to within one bucket width (<= ~19% relative error) at any sample count.
// Add is O(1) (one log2 + one relaxed fetch_add); memory is a constant
// ~1.4 KiB regardless of how many samples are recorded, which is what
// server and core hot paths need.
struct HistogramSnapshot {
  std::vector<uint64_t> buckets;  // size kNumBuckets
  uint64_t total = 0;
  double sum = 0.0;
  double max = 0.0;

  size_t count() const { return static_cast<size_t>(total); }
  double Mean() const { return total == 0 ? 0.0 : sum / total; }
  double Max() const { return max; }
  // Nearest-rank quantile, reported as the containing bucket's upper
  // bound (monotone in p, so P99() >= P50() always holds).
  double Percentile(double p) const;
  double P50() const { return Percentile(50); }
  double P95() const { return Percentile(95); }
  double P99() const { return Percentile(99); }

  // Bucket-level exact merge (bucket boundaries are globally fixed).
  void Merge(const HistogramSnapshot& other);

  // One-line summary "n=... mean=... p50=... p95=... p99=... max=...".
  std::string Summary() const;
};

class BoundedHistogram {
 public:
  static constexpr size_t kBucketsPerOctave = 4;
  static constexpr size_t kOctaves = 40;
  // Bucket 0 is the underflow bucket [0, kMinValue]; the last bucket
  // absorbs overflow.
  static constexpr size_t kNumBuckets = 1 + kBucketsPerOctave * kOctaves;
  static constexpr double kMinValue = 1e-3;

  // Bucket index for a value; exposed so the accuracy test can compare
  // exact and approximate quantiles in bucket units.
  static size_t BucketIndex(double value);
  // Upper boundary of bucket `index` (the value quantiles report).
  static double BucketUpperBound(size_t index);

  void Add(double value) {
    if (!MetricsEnabled()) return;
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    // Double-precision sum as atomic bits: CAS loop, uncontended in
    // practice because latency recordings are brief.
    double expected = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(expected, expected + value,
                                       std::memory_order_relaxed)) {
    }
    double max = max_.load(std::memory_order_relaxed);
    while (value > max && !max_.compare_exchange_weak(
                              max, value, std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

// ----------------------------------------------------------------- Registry

struct RegistrySnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

// Name-keyed home of every counter/gauge/histogram in the process.
// Registration (Get*) takes a mutex and is meant to happen once per call
// site (cache the returned pointer); the returned objects are lock-free
// and live for the life of the process.
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  BoundedHistogram* GetHistogram(const std::string& name);

  RegistrySnapshot Snapshot() const;

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<BoundedHistogram>> histograms_;
};

}  // namespace impliance::obs

#endif  // IMPLIANCE_OBS_METRICS_H_
