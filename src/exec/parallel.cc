#include "exec/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <thread>
#include <utility>

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

// Morsel leaf of a worker's pipeline: emits the batch the worker claimed
// from the plan's source, once per Open().
class ClaimedBatchOp : public Operator {
 public:
  explicit ClaimedBatchOp(const Schema* schema) : schema_(schema) {}

  const Schema& schema() const override { return *schema_; }
  std::string name() const override { return "ClaimedBatch"; }
  void Open() override { pending_ = true; }
  bool NextBatch(RowBatch* batch) override {
    if (!pending_) {
      batch->clear();
      return false;
    }
    pending_ = false;
    // Swapping hands the consumer's spent rows back for the next claim to
    // refill, so batch recycling survives the hand-off.
    std::swap(*batch, claimed_);
    rows_produced_ += batch->size();
    return true;
  }
  void Close() override {}

  RowBatch* claimed() { return &claimed_; }

 private:
  const Schema* schema_;  // the plan source's, which outlives the worker
  RowBatch claimed_;
  bool pending_ = false;
};

OperatorPtr MakePipeline(const MorselPlan& plan, OperatorPtr leaf) {
  return plan.make_pipeline ? plan.make_pipeline(std::move(leaf))
                            : std::move(leaf);
}

}  // namespace

// ------------------------------------------------------------ MorselPlan

Schema MorselPlan::PipelineSchema() const {
  // Probe with an empty leaf: schemas are fixed at construction.
  return MakePipeline(*this, std::make_unique<RowSourceOp>(source->schema(),
                                                           std::vector<Row>{}))
      ->schema();
}

Schema MorselPlan::OutputSchema() const {
  Schema pipeline_schema = PipelineSchema();
  if (sink == Sink::kAggregate) {
    return GroupByAggregator::OutputSchema(pipeline_schema, group_columns,
                                           aggregates);
  }
  return pipeline_schema;
}

// ------------------------------------------------------ ParallelExecutor

// The plan source shared by a query's workers. A claim is one NextBatch
// under `mutex`; its number is the batch's position in source order.
struct ParallelExecutor::Claims {
  std::mutex mutex;
  Operator* source = nullptr;
  size_t next = 0;
  bool done = false;  // the source reported end of stream
};

struct ParallelExecutor::WorkerState {
  std::unique_ptr<GroupByAggregator> aggregator;
  std::unique_ptr<TopKAccumulator> top_k;
  // Sink::kCollect: output rows, each chunk tagged with its claim number.
  std::vector<std::pair<size_t, std::vector<Row>>> collected;
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

std::vector<Row> ParallelExecutor::RunInline(MorselPlan plan) {
  OperatorPtr pipeline = MakePipeline(plan, std::move(plan.source));
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

void ParallelExecutor::RunWorker(const MorselPlan& plan, Claims* claims,
                                 WorkerState* state) {
  auto leaf = std::make_unique<ClaimedBatchOp>(&claims->source->schema());
  ClaimedBatchOp* morsel = leaf.get();
  OperatorPtr pipeline = MakePipeline(plan, std::move(leaf));
  RowBatch batch;
  while (true) {
    size_t claim = 0;
    {
      std::lock_guard<std::mutex> lock(claims->mutex);
      if (claims->done) break;
      if (!claims->source->NextBatch(morsel->claimed())) {
        claims->done = true;
        break;
      }
      claim = claims->next++;
    }
    // The rest of the morsel's pipeline runs outside the lock.
    pipeline->Open();
    while (pipeline->NextBatch(&batch)) {
      switch (plan.sink) {
        case MorselPlan::Sink::kCollect:
          state->collected.emplace_back(claim, std::move(batch.rows));
          batch.rows.clear();
          break;
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

std::vector<Row> ParallelExecutor::Run(MorselPlan plan,
                                       const ExecOptions& options) {
  IMPLIANCE_CHECK(plan.source != nullptr);
  for (MorselPlan::JoinBuild& build : plan.builds) {
    build.table->Build(build.input.get());
  }
  const uint64_t batches =
      (plan.source->EstimatedRows() + kDefaultBatchRows - 1) /
      kDefaultBatchRows;
  const size_t dop =
      static_cast<size_t>(std::min<uint64_t>(options.dop, batches));
  if (dop <= 1) return RunInline(std::move(plan));

  std::vector<WorkerState> states(dop);
  for (WorkerState& state : states) {
    if (plan.sink == MorselPlan::Sink::kAggregate) {
      state.aggregator = std::make_unique<GroupByAggregator>(
          plan.group_columns, plan.aggregates);
    } else if (plan.sink == MorselPlan::Sink::kTopK) {
      state.top_k =
          std::make_unique<TopKAccumulator>(plan.sort_keys, plan.top_k);
    }
  }

  Claims claims;
  claims.source = plan.source.get();
  claims.source->Open();
  {
    // Workers run on pool threads, which have no trace of their own —
    // attach the submitting request's trace so morsel work lands in the
    // right spans.
    obs::ScopedSpan morsel_span("exec.morsels");
    CompletionLatch latch(dop);
    for (size_t w = 0; w < dop; ++w) {
      pool_.Submit([&plan, &claims, &states, &latch, w,
                    trace = obs::CurrentTrace()] {
        obs::ScopedTraceAttach attach(trace);
        RunWorker(plan, &claims, &states[w]);
        latch.CountDown();
      });
    }
    latch.Wait();
  }
  claims.source->Close();

  // Merge thread-local partials (worker order, deterministic).
  switch (plan.sink) {
    case MorselPlan::Sink::kCollect: {
      // Claim order is source order; one claim's chunks all come from one
      // worker, in order, so a stable sort keeps them in sequence.
      std::vector<std::pair<size_t, std::vector<Row>>> chunks;
      size_t total_out = 0;
      for (WorkerState& state : states) {
        for (auto& chunk : state.collected) {
          total_out += chunk.second.size();
          chunks.push_back(std::move(chunk));
        }
      }
      std::stable_sort(chunks.begin(), chunks.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      std::vector<Row> out;
      out.reserve(total_out);
      for (auto& chunk : chunks) {
        for (Row& row : chunk.second) out.push_back(std::move(row));
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
