#ifndef IMPLIANCE_EXEC_PARALLEL_H_
#define IMPLIANCE_EXEC_PARALLEL_H_

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/thread_pool.h"
#include "exec/aggregator.h"
#include "exec/operators.h"

namespace impliance::exec {

// Per-query execution knobs. dop==1 runs the batched pipeline inline on the
// calling thread; dop>1 lets up to `dop` workers on the shared pool claim
// the base scan's batches as morsels. The degree-of-parallelism cap is
// chosen by the cluster scheduler from its view of free workers (Section
// 3.3's "simple, massive parallelism": scale a few predictable operators,
// not a clever optimizer).
struct ExecOptions {
  size_t dop = 1;
};

// A parallelizable query segment: a base-table scan whose batches are the
// morsels, a row-wise pipeline each morsel runs through (filter / project /
// hash-probe against shared build tables), and a sink describing how
// per-worker outputs combine. A plan runs once, like the scan it holds.
//
//   kCollect   — outputs gathered per morsel and concatenated in claim
//                order, so the result row order equals the serial plan's.
//   kAggregate — each worker folds its rows into a thread-local
//                GroupByAggregator; partials merge exactly (avg divides
//                only at finalize) and emit in key order.
//   kTopK      — each worker keeps a thread-local top-k heap; partials
//                merge into the global top-k.
struct MorselPlan {
  // Leaf operator (a table scan, or the rows of an index fetch). Workers
  // claim its batches one at a time under a lock; only its NextBatch runs
  // there.
  OperatorPtr source;

  // Hash-join build sides: each input streams into its table when the plan
  // runs, before the first morsel is claimed. The pipeline's probes share
  // the tables read-only.
  struct JoinBuild {
    OperatorPtr input;
    std::shared_ptr<JoinHashTable> table;
  };
  std::vector<JoinBuild> builds;

  // Wraps a morsel leaf with the row-wise part of the pipeline. Called once
  // per worker (and once to derive the output schema), so it must be cheap
  // and safe to invoke concurrently.
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
  // top-k — see MorselPlan::Sink). The DOP is capped at the source's
  // estimated batch count, so dop<=1, a single batch, or an empty source
  // run inline on the calling thread with zero scheduling overhead.
  std::vector<Row> Run(MorselPlan plan, const ExecOptions& options);

  // Runs independent closures with at most `dop` in flight, blocking until
  // all complete. Used by the faceted and graph paths to fan out read-only
  // index work. Tasks must not submit to this executor and block on it.
  void RunTasks(std::vector<std::function<void()>> tasks, size_t dop);

  size_t num_threads() const { return pool_.num_threads(); }
  size_t pending_tasks() const { return pool_.pending_tasks(); }

 private:
  struct Claims;
  struct WorkerState;

  static std::vector<Row> RunInline(MorselPlan plan);
  static void RunWorker(const MorselPlan& plan, Claims* claims,
                        WorkerState* state);

  ThreadPool pool_;
};

}  // namespace impliance::exec

#endif  // IMPLIANCE_EXEC_PARALLEL_H_
