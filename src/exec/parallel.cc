#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <thread>

#include "common/logging.h"
#include "obs/trace.h"

namespace impliance::exec {

namespace {

// Blocks one thread until `count` completions arrive from others.
class CompletionLatch {
 public:
  explicit CompletionLatch(size_t count) : remaining_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--remaining_ == 0) done_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable done_;
  size_t remaining_;
};

OperatorPtr MakePipeline(const MorselPlan& plan, size_t begin, size_t end) {
  OperatorPtr source = std::make_unique<RowSliceSourceOp>(
      &plan.source_schema, plan.source_rows, begin, end);
  return plan.make_pipeline ? plan.make_pipeline(std::move(source))
                            : std::move(source);
}

}  // namespace

// ------------------------------------------------------------ MorselPlan

Schema MorselPlan::PipelineSchema() const {
  // Probe with an empty slice: schemas are fixed at construction.
  return MakePipeline(*this, 0, 0)->schema();
}

Schema MorselPlan::OutputSchema() const {
  Schema pipeline_schema = PipelineSchema();
  if (sink == Sink::kAggregate) {
    return GroupByAggregator::OutputSchema(pipeline_schema, group_columns,
                                           aggregates);
  }
  return pipeline_schema;
}

// ----------------------------------------------------------- MorselQueue

MorselQueue::MorselQueue(size_t total_rows, size_t morsel_rows,
                         size_t num_workers) {
  IMPLIANCE_CHECK(morsel_rows > 0 && num_workers > 0);
  lanes_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  num_morsels_ = (total_rows + morsel_rows - 1) / morsel_rows;
  // Deal contiguous runs of morsels to each lane so a worker's own work is
  // a sequential slice of the base table.
  const size_t per_lane = (num_morsels_ + num_workers - 1) / num_workers;
  for (size_t m = 0; m < num_morsels_; ++m) {
    Morsel morsel;
    morsel.id = m;
    morsel.begin = m * morsel_rows;
    morsel.end = std::min(total_rows, morsel.begin + morsel_rows);
    lanes_[std::min(m / per_lane, num_workers - 1)]->morsels.push_back(morsel);
  }
}

bool MorselQueue::Pop(size_t worker, Morsel* out) {
  Lane& own = *lanes_[worker];
  {
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.morsels.empty()) {
      *out = own.morsels.front();
      own.morsels.pop_front();
      return true;
    }
  }
  // Own lane dry: steal from the victim with the most remaining work, from
  // the back (the part of its range it will reach last).
  while (true) {
    size_t victim = lanes_.size();
    size_t victim_depth = 0;
    for (size_t i = 0; i < lanes_.size(); ++i) {
      if (i == worker) continue;
      std::lock_guard<std::mutex> lock(lanes_[i]->mutex);
      if (lanes_[i]->morsels.size() > victim_depth) {
        victim_depth = lanes_[i]->morsels.size();
        victim = i;
      }
    }
    if (victim == lanes_.size()) return false;  // everything drained
    std::lock_guard<std::mutex> lock(lanes_[victim]->mutex);
    if (lanes_[victim]->morsels.empty()) continue;  // raced; rescan
    *out = lanes_[victim]->morsels.back();
    lanes_[victim]->morsels.pop_back();
    steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
}

uint64_t MorselQueue::steals() const {
  return steals_.load(std::memory_order_relaxed);
}

// ------------------------------------------------------ ParallelExecutor

struct ParallelExecutor::WorkerState {
  std::unique_ptr<GroupByAggregator> aggregator;
  std::unique_ptr<TopKAccumulator> top_k;
  // Sink::kCollect: per-morsel output slots, concatenated in morsel order.
  std::vector<std::vector<Row>>* collect_slots = nullptr;
};

ParallelExecutor::ParallelExecutor(size_t num_threads) : pool_(num_threads) {}

ParallelExecutor& ParallelExecutor::Shared() {
  static ParallelExecutor executor([] {
    const size_t hardware = std::thread::hardware_concurrency();
    // Keep enough threads for a DOP-8 query even on small hosts (they time
    // share), but do not run away on very wide ones.
    return std::clamp<size_t>(hardware, 8, 16);
  }());
  return executor;
}

std::vector<Row> ParallelExecutor::RunInline(const MorselPlan& plan) {
  const size_t total = plan.source_rows ? plan.source_rows->size() : 0;
  OperatorPtr pipeline = MakePipeline(plan, 0, total);
  switch (plan.sink) {
    case MorselPlan::Sink::kCollect:
      return Execute(pipeline.get());
    case MorselPlan::Sink::kAggregate: {
      GroupByAggregator aggregator(plan.group_columns, plan.aggregates);
      pipeline->Open();
      RowBatch batch;
      while (pipeline->NextBatch(&batch)) aggregator.AccumulateBatch(batch);
      pipeline->Close();
      return aggregator.Finalize();
    }
    case MorselPlan::Sink::kTopK: {
      TopKAccumulator accumulator(plan.sort_keys, plan.top_k);
      pipeline->Open();
      RowBatch batch;
      while (pipeline->NextBatch(&batch)) accumulator.AddBatch(std::move(batch));
      pipeline->Close();
      return accumulator.Finalize();
    }
  }
  return {};
}

void ParallelExecutor::RunWorker(const MorselPlan& plan, MorselQueue* queue,
                                 size_t worker, WorkerState* state) {
  MorselQueue::Morsel morsel;
  RowBatch batch;
  while (queue->Pop(worker, &morsel)) {
    OperatorPtr pipeline = MakePipeline(plan, morsel.begin, morsel.end);
    pipeline->Open();
    while (pipeline->NextBatch(&batch)) {
      switch (plan.sink) {
        case MorselPlan::Sink::kCollect: {
          std::vector<Row>& slot = (*state->collect_slots)[morsel.id];
          for (Row& row : batch.rows) slot.push_back(std::move(row));
          break;
        }
        case MorselPlan::Sink::kAggregate:
          state->aggregator->AccumulateBatch(batch);
          break;
        case MorselPlan::Sink::kTopK:
          state->top_k->AddBatch(std::move(batch));
          break;
      }
    }
    pipeline->Close();
  }
}

std::vector<Row> ParallelExecutor::Run(const MorselPlan& plan,
                                       const ExecOptions& options) {
  IMPLIANCE_CHECK(plan.source_rows != nullptr);
  const size_t total = plan.source_rows->size();
  const size_t morsel_rows = std::max<size_t>(1, options.morsel_rows);
  const size_t num_morsels = (total + morsel_rows - 1) / morsel_rows;
  size_t dop = std::min(options.dop, num_morsels);
  if (dop <= 1) return RunInline(plan);

  MorselQueue queue(total, morsel_rows, dop);
  // Each morsel gets its own output slot so collected rows concatenate in
  // source order no matter which worker ran which morsel.
  std::vector<std::vector<Row>> collect_slots(
      plan.sink == MorselPlan::Sink::kCollect ? num_morsels : 0);
  std::vector<WorkerState> states(dop);
  for (WorkerState& state : states) {
    switch (plan.sink) {
      case MorselPlan::Sink::kCollect:
        state.collect_slots = &collect_slots;
        break;
      case MorselPlan::Sink::kAggregate:
        state.aggregator = std::make_unique<GroupByAggregator>(
            plan.group_columns, plan.aggregates);
        break;
      case MorselPlan::Sink::kTopK:
        state.top_k =
            std::make_unique<TopKAccumulator>(plan.sort_keys, plan.top_k);
        break;
    }
  }

  // Workers run on pool threads, which have no trace of their own — attach
  // the submitting request's trace so morsel work lands in the right spans.
  obs::ScopedSpan morsel_span("exec.morsels");
  CompletionLatch latch(dop);
  for (size_t w = 0; w < dop; ++w) {
    pool_.Submit([this, &plan, &queue, &states, &latch, w,
                  trace = obs::CurrentTrace()] {
      obs::ScopedTraceAttach attach(trace);
      RunWorker(plan, &queue, w, &states[w]);
      latch.CountDown();
    });
  }
  latch.Wait();
  total_steals_.fetch_add(queue.steals(), std::memory_order_relaxed);

  // Merge thread-local partials (worker order, deterministic).
  switch (plan.sink) {
    case MorselPlan::Sink::kCollect: {
      size_t total_out = 0;
      for (const std::vector<Row>& slot : collect_slots) {
        total_out += slot.size();
      }
      std::vector<Row> out;
      out.reserve(total_out);
      for (std::vector<Row>& slot : collect_slots) {
        for (Row& row : slot) out.push_back(std::move(row));
      }
      return out;
    }
    case MorselPlan::Sink::kAggregate: {
      for (size_t w = 1; w < dop; ++w) {
        states[0].aggregator->Merge(std::move(*states[w].aggregator));
      }
      return states[0].aggregator->Finalize();
    }
    case MorselPlan::Sink::kTopK: {
      for (size_t w = 1; w < dop; ++w) {
        states[0].top_k->Merge(std::move(*states[w].top_k));
      }
      return states[0].top_k->Finalize();
    }
  }
  return {};
}

void ParallelExecutor::RunTasks(std::vector<std::function<void()>> tasks,
                                size_t dop) {
  if (tasks.empty()) return;
  dop = std::min(dop, tasks.size());
  if (dop <= 1) {
    for (auto& task : tasks) task();
    return;
  }
  // Deal tasks into `dop` lanes; each lane is one pool submission running
  // its share sequentially, so at most `dop` run concurrently. Lanes carry
  // the caller's trace so fanned-out index work records into it.
  CompletionLatch latch(dop);
  for (size_t lane = 0; lane < dop; ++lane) {
    pool_.Submit([&tasks, &latch, lane, dop, trace = obs::CurrentTrace()] {
      obs::ScopedTraceAttach attach(trace);
      for (size_t i = lane; i < tasks.size(); i += dop) tasks[i]();
      latch.CountDown();
    });
  }
  latch.Wait();
}

}  // namespace impliance::exec
