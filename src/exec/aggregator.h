#ifndef IMPLIANCE_EXEC_AGGREGATOR_H_
#define IMPLIANCE_EXEC_AGGREGATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace impliance::exec {

enum class AggFn { kCount, kSum, kAvg, kMin, kMax };

struct AggSpec {
  AggFn fn = AggFn::kCount;
  int column = -1;  // ignored for kCount
  std::string output_name;
};

// Hash group-by accumulator shared by HashAggregateOp and the parallel
// executor. Each worker accumulates into a private instance; partials are
// combined with Merge() (count/sum add, min/max compare — avg divides only
// at Finalize, so merging is exact). Finalize emits groups in key order,
// making serial and any-DOP parallel runs bitwise identical.
class GroupByAggregator {
 public:
  GroupByAggregator(std::vector<int> group_columns,
                    std::vector<AggSpec> aggregates);

  void Accumulate(const Row& row);
  void AccumulateBatch(const RowBatch& batch);

  // Folds `other`'s groups into this one. `other` is left empty.
  void Merge(GroupByAggregator&& other);

  // One output row per group, in key order: group columns ++ aggregates.
  std::vector<Row> Finalize() const;

  // Output schema for the given child schema.
  static Schema OutputSchema(const Schema& input,
                             const std::vector<int>& group_columns,
                             const std::vector<AggSpec>& aggregates);

 private:
  struct AggState {
    double sum = 0;
    int64_t count = 0;
    model::Value min;
    model::Value max;
  };

  void AccumulateInto(std::vector<AggState>& states, const Row& row) const;
  static void MergeState(AggState& into, const AggState& from);

  std::vector<int> group_columns_;
  std::vector<AggSpec> aggregates_;
  std::map<Row, std::vector<AggState>> groups_;  // Value has operator<
};

// Full sort on (column, ascending) keys, applied in order.
struct SortKey {
  int column = 0;
  bool ascending = true;
};

// Comparator used by SortOp/TopKOp (exposed for tests).
bool RowLess(const Row& a, const Row& b, const std::vector<SortKey>& keys);

// Bounded top-k accumulator (max-heap of the worst retained row) shared by
// TopKOp and the parallel executor: workers keep thread-local top-k sets,
// Merge() folds them, Finalize() sorts the survivors.
class TopKAccumulator {
 public:
  TopKAccumulator(std::vector<SortKey> keys, size_t k);

  void Add(Row row);
  void AddBatch(RowBatch&& batch);
  void Merge(TopKAccumulator&& other);

  // The k smallest rows under RowLess, sorted.
  std::vector<Row> Finalize() const;

  size_t k() const { return k_; }

 private:
  bool WorstFirst(const Row& a, const Row& b) const {
    return RowLess(a, b, keys_);  // max-heap: worst (largest) at front
  }

  std::vector<SortKey> keys_;
  size_t k_;
  std::vector<Row> heap_;
};

}  // namespace impliance::exec

#endif  // IMPLIANCE_EXEC_AGGREGATOR_H_
