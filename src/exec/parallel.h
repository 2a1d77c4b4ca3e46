#ifndef IMPLIANCE_EXEC_PARALLEL_H_
#define IMPLIANCE_EXEC_PARALLEL_H_

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/thread_pool.h"
#include "exec/aggregator.h"
#include "exec/operators.h"

namespace impliance::exec {

// Per-query execution knobs. dop==1 runs the batched pipeline inline on the
// calling thread; dop>1 splits the base scan into morsels executed by
// workers on the shared pool. The degree-of-parallelism cap is chosen by
// the cluster scheduler from its view of free workers (Section 3.3's
// "simple, massive parallelism": scale a few predictable operators, not a
// clever optimizer).
struct ExecOptions {
  size_t dop = 1;
  size_t morsel_rows = kDefaultMorselRows;
};

// A parallelizable query segment: a materialized base-table scan, a
// row-wise pipeline stacked on each morsel of it (filter / project /
// hash-probe against a shared build table), and a sink describing how
// per-worker outputs combine.
//
//   kCollect   — outputs gathered per morsel and concatenated in morsel
//                order, so the result row order equals the serial plan's.
//   kAggregate — each worker folds its rows into a thread-local
//                GroupByAggregator; partials merge exactly (avg divides
//                only at finalize) and emit in key order.
//   kTopK      — each worker keeps a thread-local top-k heap; partials
//                merge into the global top-k.
struct MorselPlan {
  Schema source_schema;
  std::shared_ptr<const std::vector<Row>> source_rows;

  // Wraps a morsel source with the row-wise part of the pipeline. Called
  // once per worker per morsel (and once to derive the output schema), so
  // it must be cheap and safe to invoke concurrently.
  std::function<OperatorPtr(OperatorPtr source)> make_pipeline;

  enum class Sink { kCollect, kAggregate, kTopK };
  Sink sink = Sink::kCollect;

  // Sink::kAggregate
  std::vector<int> group_columns;
  std::vector<AggSpec> aggregates;

  // Sink::kTopK
  std::vector<SortKey> sort_keys;
  size_t top_k = 0;

  // Schema of the rows the pipeline feeds into the sink.
  Schema PipelineSchema() const;
  // Schema of the rows Run() returns (aggregate sinks reshape).
  Schema OutputSchema() const;
};

// Morsel dispenser with work stealing: morsels are dealt as contiguous
// ranges to per-worker deques (scan locality); a worker that drains its own
// deque steals from the back of the busiest victim, so skewed pipelines
// (one worker's morsels all pass the filter, another's all fail) still
// finish together.
class MorselQueue {
 public:
  struct Morsel {
    size_t id = 0;  // position in source order, for deterministic collects
    size_t begin = 0;
    size_t end = 0;
  };

  MorselQueue(size_t total_rows, size_t morsel_rows, size_t num_workers);

  // Next morsel for `worker`; false when every lane is empty.
  bool Pop(size_t worker, Morsel* out);

  size_t num_morsels() const { return num_morsels_; }
  // Morsels taken from a lane other than the worker's own (for tests).
  uint64_t steals() const;

 private:
  struct Lane {
    std::mutex mutex;
    std::deque<Morsel> morsels;
  };

  std::vector<std::unique_ptr<Lane>> lanes_;
  size_t num_morsels_ = 0;
  std::atomic<uint64_t> steals_{0};
};

// Morsel-driven parallel pipeline driver. One process-wide instance
// (Shared()) owns the worker pool every query draws from, so intra-query
// parallelism and inter-query concurrency share the same fixed set of
// threads instead of oversubscribing the host.
class ParallelExecutor {
 public:
  explicit ParallelExecutor(size_t num_threads);

  // Process-wide executor sized to the hardware.
  static ParallelExecutor& Shared();

  // Executes the segment and returns its rows (collected, aggregated, or
  // top-k — see MorselPlan::Sink). dop<=1, a single morsel, or an empty
  // source run inline on the calling thread with zero scheduling overhead.
  std::vector<Row> Run(const MorselPlan& plan, const ExecOptions& options);

  // Runs independent closures with at most `dop` in flight, blocking until
  // all complete. Used by the faceted and graph paths to fan out read-only
  // index work. Tasks must not submit to this executor and block on it.
  void RunTasks(std::vector<std::function<void()>> tasks, size_t dop);

  size_t num_threads() const { return pool_.num_threads(); }
  size_t pending_tasks() const { return pool_.pending_tasks(); }
  uint64_t total_steals() const { return total_steals_.load(); }

 private:
  struct WorkerState;

  std::vector<Row> RunInline(const MorselPlan& plan);
  void RunWorker(const MorselPlan& plan, MorselQueue* queue, size_t worker,
                 WorkerState* state);

  ThreadPool pool_;
  std::atomic<uint64_t> total_steals_{0};
};

}  // namespace impliance::exec

#endif  // IMPLIANCE_EXEC_PARALLEL_H_
