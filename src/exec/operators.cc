#include "exec/operators.h"

#include <algorithm>

#include "common/logging.h"

namespace impliance::exec {

std::vector<Row> Execute(Operator* op) {
  std::vector<Row> rows;
  op->Open();
  rows.reserve(op->EstimatedRows());
  RowBatch batch;
  while (op->NextBatch(&batch)) {
    for (Row& row : batch.rows) rows.push_back(std::move(row));
  }
  op->Close();
  return rows;
}

// ------------------------------------------------------------- RowSource

bool RowSourceOp::NextBatch(RowBatch* batch) {
  batch->clear();
  if (cursor_ >= rows_.size()) return false;
  const size_t end = std::min(rows_.size(), cursor_ + kDefaultBatchRows);
  batch->reserve(end - cursor_);
  for (; cursor_ < end; ++cursor_) batch->AppendCopy(rows_[cursor_]);
  rows_produced_ += batch->size();
  return true;
}

// ---------------------------------------------------------------- Filter

FilterOp::FilterOp(OperatorPtr child, std::vector<Predicate> predicates,
                   bool adaptive)
    : child_(std::move(child)), adaptive_(adaptive) {
  predicates_.reserve(predicates.size());
  for (size_t i = 0; i < predicates.size(); ++i) {
    Tracked tracked;
    tracked.predicate = std::move(predicates[i]);
    tracked.original_index = static_cast<int>(i);
    predicates_.push_back(std::move(tracked));
  }
}

void FilterOp::Open() {
  child_->Open();
  input_rows_ = 0;
}

bool FilterOp::NextBatch(RowBatch* batch) {
  batch->clear();
  // Keep pulling child batches until at least one row survives, so false
  // still means end-of-stream.
  while (batch->empty()) {
    if (!child_->NextBatch(&input_)) return false;
    batch->reserve(input_.size());
    if (adaptive_) {
      for (Row& row : input_.rows) {
        ++input_rows_;
        if (input_rows_ % kAdaptBatch == 0) {
          // Most selective (lowest pass rate) first: cheapest way to reject.
          std::stable_sort(predicates_.begin(), predicates_.end(),
                           [](const Tracked& a, const Tracked& b) {
                             return a.Selectivity() < b.Selectivity();
                           });
        }
        bool pass = true;
        for (Tracked& tracked : predicates_) {
          ++tracked.evaluated;
          ++predicate_evals_;
          if (tracked.predicate.Eval(row)) {
            ++tracked.passed;
          } else {
            pass = false;
            break;
          }
        }
        if (pass) batch->push_back(std::move(row));
      }
    } else {
      // Lean loop: no per-predicate selectivity tracking, no reorder check.
      uint64_t evals = 0;
      for (Row& row : input_.rows) {
        bool pass = true;
        for (Tracked& tracked : predicates_) {
          ++evals;
          if (!tracked.predicate.Eval(row)) {
            pass = false;
            break;
          }
        }
        if (pass) batch->push_back(std::move(row));
      }
      input_rows_ += input_.size();
      predicate_evals_ += evals;
    }
  }
  rows_produced_ += batch->size();
  return true;
}

std::vector<int> FilterOp::EvaluationOrder() const {
  std::vector<int> order;
  order.reserve(predicates_.size());
  for (const Tracked& tracked : predicates_) {
    order.push_back(tracked.original_index);
  }
  return order;
}

// --------------------------------------------------------------- Project

ProjectOp::ProjectOp(OperatorPtr child, std::vector<int> columns,
                     std::vector<std::string> names)
    : child_(std::move(child)), columns_(std::move(columns)) {
  IMPLIANCE_CHECK(columns_.size() == names.size());
  schema_ = Schema(std::move(names));
  for (int column : columns_) {
    IMPLIANCE_CHECK(column >= 0 &&
                    static_cast<size_t>(column) < child_->schema().size());
  }
  std::vector<int> sorted = columns_;
  std::sort(sorted.begin(), sorted.end());
  distinct_columns_ =
      std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}

bool ProjectOp::NextBatch(RowBatch* batch) {
  batch->clear();
  if (!child_->NextBatch(&input_)) return false;
  batch->reserve(input_.size());
  for (Row& row : input_.rows) {
    Row& projected = batch->AppendRow();
    projected.reserve(columns_.size());
    for (int column : columns_) {
      // Input rows are dead after this pass; stealing their values saves a
      // copy — unless the same column is projected twice.
      if (distinct_columns_) {
        projected.push_back(std::move(row[column]));
      } else {
        projected.push_back(row[column]);
      }
    }
  }
  rows_produced_ += batch->size();
  return true;
}

// -------------------------------------------------------------- HashJoin

void JoinHashTable::Build(Operator* build) {
  build->Open();
  RowBatch batch;
  while (build->NextBatch(&batch)) {
    for (Row& row : batch.rows) {
      const model::Value& key = row[key_column];
      if (key.is_null()) continue;  // nulls never join
      const uint64_t hash = key.HashValue();
      buckets[hash].push_back(std::move(row));
      ++build_rows;
    }
  }
  build->Close();
}

namespace {

// Appends all matches of `input` against `table` to `out`: probe rows keep
// their order, each extended with every equal-keyed build row. Shared by
// HashProbeOp and HashJoinOp.
void ProbeBatch(const JoinHashTable& table, RowBatch& input, int left_key,
                RowBatch* out) {
  for (Row& left_row : input.rows) {
    const model::Value& key = left_row[left_key];
    if (key.is_null()) continue;
    auto it = table.buckets.find(key.HashValue());
    if (it == table.buckets.end()) continue;
    for (const Row& right_row : it->second) {
      // Re-check equality to guard against hash collisions.
      if (right_row[table.key_column].Compare(key) != 0) continue;
      Row& joined = out->AppendRow();
      joined.reserve(left_row.size() + right_row.size());
      joined.insert(joined.end(), left_row.begin(), left_row.end());
      joined.insert(joined.end(), right_row.begin(), right_row.end());
    }
  }
}

Schema ConcatSchemas(const Schema& left, const Schema& right) {
  Schema schema;
  for (const std::string& column : left.columns) schema.AddColumn(column);
  for (const std::string& column : right.columns) schema.AddColumn(column);
  return schema;
}

}  // namespace

HashProbeOp::HashProbeOp(OperatorPtr left,
                         std::shared_ptr<const JoinHashTable> table,
                         int left_key)
    : left_(std::move(left)), table_(std::move(table)), left_key_(left_key) {
  schema_ = ConcatSchemas(left_->schema(), table_->schema);
}

bool HashProbeOp::NextBatch(RowBatch* batch) {
  batch->clear();
  while (batch->empty()) {
    if (!left_->NextBatch(&input_)) return false;
    ProbeBatch(*table_, input_, left_key_, batch);
  }
  rows_produced_ += batch->size();
  return true;
}

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right, int left_key,
                       int right_key)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_(left_key),
      right_key_(right_key) {
  schema_ = ConcatSchemas(left_->schema(), right_->schema());
}

void HashJoinOp::Open() {
  left_->Open();
  auto table = std::make_shared<JoinHashTable>(right_->schema(), right_key_);
  table->Build(right_.get());
  table_ = std::move(table);
}

bool HashJoinOp::NextBatch(RowBatch* batch) {
  batch->clear();
  while (batch->empty()) {
    if (!left_->NextBatch(&input_)) return false;
    ProbeBatch(*table_, input_, left_key_, batch);
  }
  rows_produced_ += batch->size();
  return true;
}

void HashJoinOp::Close() {
  left_->Close();
  table_.reset();
}

// --------------------------------------------------------- IndexedNLJoin

IndexedNLJoinOp::IndexedNLJoinOp(OperatorPtr left, int left_key,
                                 LookupFn lookup, Schema right_schema)
    : left_(std::move(left)),
      left_key_(left_key),
      lookup_(std::move(lookup)) {
  schema_ = ConcatSchemas(left_->schema(), right_schema);
}

void IndexedNLJoinOp::Open() {
  left_->Open();
  index_probes_ = 0;
}

bool IndexedNLJoinOp::NextBatch(RowBatch* batch) {
  batch->clear();
  while (batch->empty()) {
    if (!left_->NextBatch(&input_)) return false;
    for (Row& left_row : input_.rows) {
      const model::Value& key = left_row[left_key_];
      if (key.is_null()) continue;
      std::vector<Row> matches = lookup_(key);
      ++index_probes_;
      for (Row& right_row : matches) {
        Row& joined = batch->AppendRow();
        joined.reserve(left_row.size() + right_row.size());
        joined.insert(joined.end(), left_row.begin(), left_row.end());
        joined.insert(joined.end(),
                      std::make_move_iterator(right_row.begin()),
                      std::make_move_iterator(right_row.end()));
      }
    }
  }
  rows_produced_ += batch->size();
  return true;
}

// ----------------------------------------------------------- SortMerge

SortMergeJoinOp::SortMergeJoinOp(OperatorPtr left, OperatorPtr right,
                                 int left_key, int right_key)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_(left_key),
      right_key_(right_key) {
  schema_ = ConcatSchemas(left_->schema(), right_->schema());
}

void SortMergeJoinOp::Open() {
  left_rows_ = Execute(left_.get());
  right_rows_ = Execute(right_.get());
  auto by_key = [](int key) {
    return [key](const Row& a, const Row& b) {
      return a[key].Compare(b[key]) < 0;
    };
  };
  std::stable_sort(left_rows_.begin(), left_rows_.end(), by_key(left_key_));
  std::stable_sort(right_rows_.begin(), right_rows_.end(), by_key(right_key_));
  left_cursor_ = 0;
  right_cursor_ = 0;
}

bool SortMergeJoinOp::NextBatch(RowBatch* batch) {
  batch->clear();
  while (batch->size() < kDefaultBatchRows &&
         left_cursor_ < left_rows_.size() &&
         right_cursor_ < right_rows_.size()) {
    const model::Value& left_key = left_rows_[left_cursor_][left_key_];
    const model::Value& right_key = right_rows_[right_cursor_][right_key_];
    if (left_key.is_null()) {
      ++left_cursor_;
      continue;
    }
    if (right_key.is_null()) {
      ++right_cursor_;
      continue;
    }
    const int cmp = left_key.Compare(right_key);
    if (cmp < 0) {
      ++left_cursor_;
      continue;
    }
    if (cmp > 0) {
      ++right_cursor_;
      continue;
    }
    // Equal-key groups: cross every left row in the group with every right
    // row, then advance both cursors past the group.
    size_t left_end = left_cursor_;
    while (left_end < left_rows_.size() &&
           left_rows_[left_end][left_key_].Compare(left_key) == 0) {
      ++left_end;
    }
    size_t right_end = right_cursor_;
    while (right_end < right_rows_.size() &&
           right_rows_[right_end][right_key_].Compare(right_key) == 0) {
      ++right_end;
    }
    for (size_t l = left_cursor_; l < left_end; ++l) {
      for (size_t r = right_cursor_; r < right_end; ++r) {
        Row& joined = batch->AppendRow();
        const Row& left_row = left_rows_[l];
        const Row& right_row = right_rows_[r];
        joined.reserve(left_row.size() + right_row.size());
        joined.insert(joined.end(), left_row.begin(), left_row.end());
        joined.insert(joined.end(), right_row.begin(), right_row.end());
      }
    }
    left_cursor_ = left_end;
    right_cursor_ = right_end;
  }
  rows_produced_ += batch->size();
  return !batch->empty();
}

void SortMergeJoinOp::Close() {
  left_rows_.clear();
  right_rows_.clear();
}

// ------------------------------------------------------------- Aggregate

HashAggregateOp::HashAggregateOp(OperatorPtr child,
                                 std::vector<int> group_columns,
                                 std::vector<AggSpec> aggregates)
    : child_(std::move(child)),
      group_columns_(std::move(group_columns)),
      aggregates_(std::move(aggregates)) {
  schema_ = GroupByAggregator::OutputSchema(child_->schema(), group_columns_,
                                            aggregates_);
}

void HashAggregateOp::Open() {
  child_->Open();
  GroupByAggregator aggregator(group_columns_, aggregates_);
  RowBatch batch;
  while (child_->NextBatch(&batch)) aggregator.AccumulateBatch(batch);
  finalized_ = aggregator.Finalize();
  cursor_ = 0;
}

bool HashAggregateOp::NextBatch(RowBatch* batch) {
  batch->clear();
  if (cursor_ >= finalized_.size()) return false;
  const size_t end = std::min(finalized_.size(), cursor_ + kDefaultBatchRows);
  batch->reserve(end - cursor_);
  for (; cursor_ < end; ++cursor_) {
    batch->push_back(std::move(finalized_[cursor_]));
  }
  rows_produced_ += batch->size();
  return true;
}

// ------------------------------------------------------------ Sort/TopK

SortOp::SortOp(OperatorPtr child, std::vector<SortKey> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {}

void SortOp::Open() {
  child_->Open();
  rows_.clear();
  rows_.reserve(child_->EstimatedRows());
  RowBatch batch;
  while (child_->NextBatch(&batch)) {
    for (Row& row : batch.rows) rows_.push_back(std::move(row));
  }
  std::stable_sort(rows_.begin(), rows_.end(), [this](const Row& a, const Row& b) {
    return RowLess(a, b, keys_);
  });
  cursor_ = 0;
}

bool SortOp::NextBatch(RowBatch* batch) {
  batch->clear();
  if (cursor_ >= rows_.size()) return false;
  const size_t end = std::min(rows_.size(), cursor_ + kDefaultBatchRows);
  batch->reserve(end - cursor_);
  for (; cursor_ < end; ++cursor_) batch->push_back(std::move(rows_[cursor_]));
  rows_produced_ += batch->size();
  return true;
}

TopKOp::TopKOp(OperatorPtr child, std::vector<SortKey> keys, size_t k)
    : child_(std::move(child)), keys_(std::move(keys)), k_(k) {}

void TopKOp::Open() {
  child_->Open();
  TopKAccumulator accumulator(keys_, k_);
  RowBatch batch;
  while (child_->NextBatch(&batch)) accumulator.AddBatch(std::move(batch));
  sorted_ = accumulator.Finalize();
  cursor_ = 0;
}

bool TopKOp::NextBatch(RowBatch* batch) {
  batch->clear();
  if (cursor_ >= sorted_.size()) return false;
  const size_t end = std::min(sorted_.size(), cursor_ + kDefaultBatchRows);
  batch->reserve(end - cursor_);
  for (; cursor_ < end; ++cursor_) batch->push_back(std::move(sorted_[cursor_]));
  rows_produced_ += batch->size();
  return true;
}

// ----------------------------------------------------------------- Limit

bool LimitOp::NextBatch(RowBatch* batch) {
  batch->clear();
  if (emitted_ >= limit_) return false;
  if (!child_->NextBatch(batch)) return false;
  if (emitted_ + batch->size() > limit_) {
    batch->rows.resize(limit_ - emitted_);
  }
  emitted_ += batch->size();
  rows_produced_ += batch->size();
  return true;
}

}  // namespace impliance::exec
