#ifndef IMPLIANCE_EXEC_OPERATORS_H_
#define IMPLIANCE_EXEC_OPERATORS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/aggregator.h"
#include "exec/operator.h"
#include "exec/predicate.h"

namespace impliance::exec {

// Leaf: a materialized row set (a view scan's rows, an index lookup result,
// or rows shipped from another node).
class RowSourceOp : public Operator {
 public:
  RowSourceOp(Schema schema, std::vector<Row> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "RowSource"; }
  void Open() override { cursor_ = 0; }
  bool NextBatch(RowBatch* batch) override;
  void Close() override {}
  uint64_t EstimatedRows() const override { return rows_.size(); }

 private:
  Schema schema_;
  std::vector<Row> rows_;
  size_t cursor_ = 0;
};

// Conjunctive filter. With `adaptive` set, predicate evaluation order is
// re-sorted by observed selectivity every `kAdaptBatch` input rows — the
// eddies-flavored runtime adaptivity Section 3.3 leans on in place of
// optimizer statistics.
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, std::vector<Predicate> predicates,
           bool adaptive = false);

  const Schema& schema() const override { return child_->schema(); }
  std::string name() const override { return adaptive_ ? "AdaptiveFilter" : "Filter"; }
  void Open() override;
  bool NextBatch(RowBatch* batch) override;
  void Close() override { child_->Close(); }
  uint64_t EstimatedRows() const override { return child_->EstimatedRows(); }

  // Current evaluation order (for tests/benches).
  std::vector<int> EvaluationOrder() const;
  uint64_t predicate_evals() const { return predicate_evals_; }

 private:
  static constexpr uint64_t kAdaptBatch = 256;

  struct Tracked {
    Predicate predicate;
    uint64_t evaluated = 0;
    uint64_t passed = 0;
    int original_index = 0;
    double Selectivity() const {
      return evaluated == 0 ? 1.0
                            : static_cast<double>(passed) / evaluated;
    }
  };

  OperatorPtr child_;
  std::vector<Tracked> predicates_;
  bool adaptive_;
  uint64_t input_rows_ = 0;
  uint64_t predicate_evals_ = 0;
  RowBatch input_;  // persists across calls so rejected rows recycle
};

// Column projection (by child column index).
class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<int> columns,
            std::vector<std::string> names);

  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "Project"; }
  void Open() override { child_->Open(); }
  bool NextBatch(RowBatch* batch) override;
  void Close() override { child_->Close(); }
  uint64_t EstimatedRows() const override { return child_->EstimatedRows(); }

 private:
  OperatorPtr child_;
  std::vector<int> columns_;
  Schema schema_;
  bool distinct_columns_;  // safe to move values out of consumed input rows
  RowBatch input_;
};

// Build side of a hash equi-join, keyed by value hash with an equality
// re-check at probe time. Built once, then shared read-only — the
// morsel-parallel driver probes one table from every worker. A plan creates
// the table empty and builds it when it runs, so planning reads no rows.
struct JoinHashTable {
  JoinHashTable(Schema build_schema, int key)
      : key_column(key), schema(std::move(build_schema)) {}

  std::unordered_map<uint64_t, std::vector<Row>> buckets;
  size_t build_rows = 0;
  int key_column;
  Schema schema;  // build-side schema

  // Streams `build` (Open/NextBatch*/Close; its schema is `schema`) into
  // the table. Null keys never join and are dropped.
  void Build(Operator* build);
};

// Probes a shared JoinHashTable with the left child's rows. Output schema =
// left columns ++ build columns.
class HashProbeOp : public Operator {
 public:
  HashProbeOp(OperatorPtr left, std::shared_ptr<const JoinHashTable> table,
              int left_key);

  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "HashProbe"; }
  void Open() override { left_->Open(); }
  bool NextBatch(RowBatch* batch) override;
  void Close() override { left_->Close(); }

 private:
  OperatorPtr left_;
  std::shared_ptr<const JoinHashTable> table_;
  int left_key_;
  Schema schema_;
  RowBatch input_;
};

// Hash equi-join: builds on the right child in Open(), probes with the
// left. Output schema = left columns ++ right columns. Internally a
// JoinHashTable build plus a HashProbeOp-style probe loop.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right, int left_key, int right_key);

  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "HashJoin"; }
  void Open() override;
  bool NextBatch(RowBatch* batch) override;
  void Close() override;

  size_t build_rows() const {
    return table_ == nullptr ? 0 : table_->build_rows;
  }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  int left_key_;
  int right_key_;
  Schema schema_;
  std::shared_ptr<const JoinHashTable> table_;
  RowBatch input_;
};

// Index nested-loop join: for each left row, fetches matching right rows
// through a lookup callback (e.g. a ValueIndex probe). Preferred by the
// simple planner for top-k queries (Section 3.3): no build cost, first
// results stream immediately.
class IndexedNLJoinOp : public Operator {
 public:
  using LookupFn = std::function<std::vector<Row>(const model::Value&)>;

  IndexedNLJoinOp(OperatorPtr left, int left_key, LookupFn lookup,
                  Schema right_schema);

  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "IndexedNLJoin"; }
  void Open() override;
  bool NextBatch(RowBatch* batch) override;
  void Close() override { left_->Close(); }

  uint64_t index_probes() const { return index_probes_; }

 private:
  OperatorPtr left_;
  int left_key_;
  LookupFn lookup_;
  Schema schema_;
  uint64_t index_probes_ = 0;
  RowBatch input_;
};

// Sort-merge equi-join: materializes and sorts both inputs by the join key
// in Open(), then merges. Output schema = left columns ++ right columns;
// output rows are ordered by the join key (the cost-aware planner exploits
// this "interesting order" to elide a final sort). Null keys never join.
class SortMergeJoinOp : public Operator {
 public:
  SortMergeJoinOp(OperatorPtr left, OperatorPtr right, int left_key,
                  int right_key);

  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "SortMergeJoin"; }
  void Open() override;
  bool NextBatch(RowBatch* batch) override;
  void Close() override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  int left_key_;
  int right_key_;
  Schema schema_;
  std::vector<Row> left_rows_;   // sorted by left_key_
  std::vector<Row> right_rows_;  // sorted by right_key_
  size_t left_cursor_ = 0;
  size_t right_cursor_ = 0;
};

// Hash group-by with the standard aggregate functions. Output schema =
// group columns ++ aggregate outputs. Groups emitted in key order
// (deterministic). Accumulation runs through GroupByAggregator — the same
// code the parallel executor uses for thread-local partials.
class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(OperatorPtr child, std::vector<int> group_columns,
                  std::vector<AggSpec> aggregates);

  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "HashAggregate"; }
  void Open() override;
  bool NextBatch(RowBatch* batch) override;
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  std::vector<int> group_columns_;
  std::vector<AggSpec> aggregates_;
  Schema schema_;
  std::vector<Row> finalized_;
  size_t cursor_ = 0;
};

class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<SortKey> keys);

  const Schema& schema() const override { return child_->schema(); }
  std::string name() const override { return "Sort"; }
  void Open() override;
  bool NextBatch(RowBatch* batch) override;
  void Close() override { child_->Close(); }
  uint64_t EstimatedRows() const override { return child_->EstimatedRows(); }

 private:
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  std::vector<Row> rows_;
  size_t cursor_ = 0;
};

// Bounded top-k by sort keys using a heap; O(n log k) and O(k) memory where
// SortOp is O(n log n) / O(n).
class TopKOp : public Operator {
 public:
  TopKOp(OperatorPtr child, std::vector<SortKey> keys, size_t k);

  const Schema& schema() const override { return child_->schema(); }
  std::string name() const override { return "TopK"; }
  void Open() override;
  bool NextBatch(RowBatch* batch) override;
  void Close() override { child_->Close(); }
  uint64_t EstimatedRows() const override {
    const uint64_t child_rows = child_->EstimatedRows();
    return child_rows == 0 ? k_ : std::min<uint64_t>(k_, child_rows);
  }

 private:
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  size_t k_;
  std::vector<Row> sorted_;
  size_t cursor_ = 0;
};

class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr child, size_t limit)
      : child_(std::move(child)), limit_(limit) {}

  const Schema& schema() const override { return child_->schema(); }
  std::string name() const override { return "Limit"; }
  void Open() override {
    child_->Open();
    emitted_ = 0;
  }
  bool NextBatch(RowBatch* batch) override;
  void Close() override { child_->Close(); }
  uint64_t EstimatedRows() const override {
    const uint64_t child_rows = child_->EstimatedRows();
    return child_rows == 0 ? limit_ : std::min<uint64_t>(limit_, child_rows);
  }

 private:
  OperatorPtr child_;
  size_t limit_;
  size_t emitted_ = 0;
};

}  // namespace impliance::exec

#endif  // IMPLIANCE_EXEC_OPERATORS_H_
