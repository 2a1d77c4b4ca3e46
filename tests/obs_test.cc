#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace impliance::obs {
namespace {

// ---------------------------------------------------------------- Counter

TEST(CounterTest, CountsAcrossThreads) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(CounterTest, DisabledMetricsDropRecordings) {
  Counter counter;
  counter.Increment(5);
  SetMetricsEnabled(false);
  counter.Increment(100);
  SetMetricsEnabled(true);
  counter.Increment(2);
  EXPECT_EQ(counter.Value(), 7u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
}

// ------------------------------------------------------- BoundedHistogram

TEST(BoundedHistogramTest, BucketIndexIsMonotone) {
  size_t previous = 0;
  for (double value : {0.0, 1e-4, 1e-3, 0.01, 0.5, 1.0, 7.0, 123.0, 1e6,
                       1e12}) {
    size_t index = BoundedHistogram::BucketIndex(value);
    EXPECT_GE(index, previous) << "value " << value;
    EXPECT_LT(index, BoundedHistogram::kNumBuckets);
    previous = index;
  }
}

TEST(BoundedHistogramTest, ValueFallsAtOrBelowItsBucketUpperBound) {
  for (double value : {0.002, 0.1, 1.0, 3.5, 42.0, 999.0}) {
    size_t index = BoundedHistogram::BucketIndex(value);
    EXPECT_LE(value, BoundedHistogram::BucketUpperBound(index));
    if (index > 1) {
      // At or above the previous bucket's upper bound (values landing
      // exactly on a boundary may round to either side).
      EXPECT_GE(value, BoundedHistogram::BucketUpperBound(index - 1));
    }
  }
}

// Exact nearest-rank percentile of `sorted` (ascending), p in [0, 100].
double ExactPercentile(const std::vector<double>& sorted, double p) {
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(rank == 0 ? 0 : rank - 1, sorted.size() - 1)];
}

// Quantiles of the bounded histogram must agree with the exact samples to
// within one bucket: the reported value is the upper bound of the bucket
// that contains the exact percentile.
TEST(BoundedHistogramTest, QuantilesMatchExactHistogramWithinOneBucket) {
  Rng rng(0xB0B);
  BoundedHistogram bounded;
  std::vector<double> exact;
  for (int i = 0; i < 20'000; ++i) {
    // Log-uniform latencies spanning microseconds to seconds.
    double value = std::pow(10.0, rng.NextDouble() * 6.0 - 3.0);
    bounded.Add(value);
    exact.push_back(value);
  }
  std::sort(exact.begin(), exact.end());
  const double exact_mean =
      std::accumulate(exact.begin(), exact.end(), 0.0) / exact.size();
  HistogramSnapshot snapshot = bounded.Snapshot();
  EXPECT_EQ(snapshot.count(), exact.size());
  EXPECT_NEAR(snapshot.Mean(), exact_mean, exact_mean * 1e-6);
  EXPECT_DOUBLE_EQ(snapshot.Max(), exact.back());
  for (double p : {50.0, 90.0, 95.0, 99.0}) {
    const double approx = snapshot.Percentile(p);
    const double truth = ExactPercentile(exact, p);
    const size_t truth_bucket = BoundedHistogram::BucketIndex(truth);
    // The approximation is the upper bound of the exact value's bucket
    // (or the exact max, when the quantile lands in the top bucket).
    EXPECT_GE(approx, truth) << "p" << p;
    EXPECT_LE(approx, BoundedHistogram::BucketUpperBound(truth_bucket))
        << "p" << p;
  }
  // Monotone in p by construction.
  EXPECT_LE(snapshot.P50(), snapshot.P95());
  EXPECT_LE(snapshot.P95(), snapshot.P99());
  EXPECT_LE(snapshot.P99(), snapshot.Max());
}

TEST(BoundedHistogramTest, SnapshotMergeAddsBucketCounts) {
  BoundedHistogram a, b;
  for (int i = 0; i < 100; ++i) a.Add(1.0);
  for (int i = 0; i < 50; ++i) b.Add(1000.0);
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.count(), 150u);
  EXPECT_DOUBLE_EQ(merged.Max(), 1000.0);
  EXPECT_NEAR(merged.Mean(), (100 * 1.0 + 50 * 1000.0) / 150.0, 1e-9);
  EXPECT_GT(merged.P99(), merged.P50());
}

// --------------------------------------------------------------- Registry

TEST(RegistryTest, SameNameSameObject) {
  Registry& registry = Registry::Global();
  Counter* a = registry.GetCounter("obs_test.same_name");
  Counter* b = registry.GetCounter("obs_test.same_name");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetHistogram("obs_test.h1"),
            registry.GetHistogram("obs_test.h2"));
}

// Writers hammer counters and histograms while a reader snapshots — the
// TSan CI job runs this to prove the registry is race-free under
// concurrent record + snapshot.
TEST(RegistryTest, ConcurrentWritersAndSnapshotReader) {
  Registry& registry = Registry::Global();
  Counter* counter = registry.GetCounter("obs_test.concurrent.counter");
  BoundedHistogram* histogram =
      registry.GetHistogram("obs_test.concurrent.latency");
  const uint64_t counter_before = counter->Value();
  const uint64_t histogram_before = histogram->Snapshot().total;

  constexpr int kWriters = 6;
  constexpr int kPerWriter = 5'000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      RegistrySnapshot snapshot = registry.Snapshot();
      for (const auto& [name, hist] : snapshot.histograms) {
        // Quantiles must stay ordered even mid-write.
        EXPECT_LE(hist.P50(), hist.P99()) << name;
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        counter->Increment();
        histogram->Add(0.1 * (w + 1));
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(counter->Value() - counter_before, kWriters * kPerWriter);
  EXPECT_EQ(histogram->Snapshot().total - histogram_before,
            kWriters * kPerWriter);
}

// -------------------------------------------------- ThreadPool exceptions

// A throwing task must not take down the worker (std::terminate); it is
// counted, and the pool keeps draining subsequent tasks.
TEST(ThreadPoolTest, ThrowingTaskDoesNotKillWorker) {
  Counter* exceptions =
      Registry::Global().GetCounter("threadpool.task_exceptions");
  const uint64_t before = exceptions->Value();

  ThreadPool pool(2);
  std::atomic<int> completed{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([i, &completed] {
      if (i % 2 == 0) throw std::runtime_error("task failed");
      completed.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(completed.load(), 4);
  EXPECT_EQ(exceptions->Value() - before, 4u);

  // Workers survived: the pool still runs new work.
  pool.Submit([&completed] { completed.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(completed.load(), 5);
}

// ---------------------------------------------------------------- Tracing

TEST(TraceTest, SpansAreRecordedRelativeToTraceStart) {
  ClearTracesForTesting();
  TracePtr trace = StartTrace("unit");
  trace->RecordSpan("stage.a", trace->start_micros() + 10, 5);
  trace->RecordSpan("stage.b", trace->start_micros() + 20, 7);
  // A start before the trace start clamps to offset 0 instead of wrapping.
  trace->RecordSpan("stage.early", trace->start_micros() - 1000, 3);
  FinishTrace(trace);

  std::vector<FinishedTrace> recent = RecentTraces(4);
  ASSERT_EQ(recent.size(), 1u);
  const FinishedTrace& finished = recent[0];
  EXPECT_EQ(finished.trace_id, trace->trace_id());
  EXPECT_EQ(finished.op, "unit");
  EXPECT_EQ(finished.spans_dropped, 0u);
  ASSERT_EQ(finished.spans.size(), 3u);
  EXPECT_EQ(finished.spans[0].name, "stage.a");
  EXPECT_EQ(finished.spans[0].start_micros, 10u);
  EXPECT_EQ(finished.spans[0].duration_micros, 5u);
  EXPECT_EQ(finished.spans[1].start_micros, 20u);
  EXPECT_EQ(finished.spans[2].start_micros, 0u);
}

TEST(TraceTest, SpanCapIsEnforced) {
  ClearTracesForTesting();
  TracePtr trace = StartTrace("fanout");
  for (size_t i = 0; i < TraceContext::kMaxSpans + 10; ++i) {
    trace->RecordSpan("node.execute", trace->start_micros(), 1);
  }
  FinishTrace(trace);
  std::vector<FinishedTrace> recent = RecentTraces(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].spans.size(), TraceContext::kMaxSpans);
  EXPECT_EQ(recent[0].spans_dropped, 10u);
}

TEST(TraceTest, RingIsBoundedAndNewestFirst) {
  ClearTracesForTesting();
  for (int i = 0; i < 100; ++i) {
    FinishTrace(StartTrace("op" + std::to_string(i)));
  }
  std::vector<FinishedTrace> recent = RecentTraces(1000);
  EXPECT_LE(recent.size(), 64u);
  ASSERT_GE(recent.size(), 2u);
  EXPECT_EQ(recent[0].op, "op99");
  EXPECT_EQ(recent[1].op, "op98");
  EXPECT_EQ(RecentTraces(3).size(), 3u);
}

TEST(TraceTest, SlowThresholdFlagsAndCounts) {
  ClearTracesForTesting();
  const uint64_t saved = SlowTraceThresholdMicros();
  SetSlowTraceThresholdMicros(0);  // everything is slow
  const uint64_t before = SlowTraceCount();
  FinishTrace(StartTrace("slowpoke"));
  EXPECT_EQ(SlowTraceCount() - before, 1u);
  std::vector<FinishedTrace> recent = RecentTraces(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_TRUE(recent[0].slow);
  SetSlowTraceThresholdMicros(saved);
}

TEST(TraceTest, ScopedAttachPropagatesAcrossThreads) {
  ClearTracesForTesting();
  TracePtr trace = StartTrace("cross-thread");
  EXPECT_EQ(CurrentTrace(), nullptr);
  {
    ScopedTraceAttach attach(trace);
    EXPECT_EQ(CurrentTrace(), trace);
    // The cluster/exec idiom: capture CurrentTrace() into the closure and
    // re-attach on the worker thread.
    std::thread worker([captured = CurrentTrace()] {
      EXPECT_EQ(CurrentTrace(), nullptr);
      ScopedTraceAttach worker_attach(captured);
      ScopedSpan span("worker.stage");
    });
    worker.join();
  }
  EXPECT_EQ(CurrentTrace(), nullptr);
  FinishTrace(trace);
  std::vector<FinishedTrace> recent = RecentTraces(1);
  ASSERT_EQ(recent.size(), 1u);
  ASSERT_EQ(recent[0].spans.size(), 1u);
  EXPECT_EQ(recent[0].spans[0].name, "worker.stage");
}

TEST(TraceTest, ScopedSpanIsNoOpWhenUntraced) {
  ClearTracesForTesting();
  { ScopedSpan span("nobody.listening"); }
  EXPECT_TRUE(RecentTraces(10).empty());
}

}  // namespace
}  // namespace impliance::obs
