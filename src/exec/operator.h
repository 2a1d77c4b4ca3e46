#ifndef IMPLIANCE_EXEC_OPERATOR_H_
#define IMPLIANCE_EXEC_OPERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "exec/row_batch.h"
#include "model/view.h"

namespace impliance::exec {

using Row = model::Row;

// Column names of an operator's output. Constructing from a column vector
// (or growing through AddColumn) keeps a name→index map so IndexOf is O(1);
// writing `columns` directly still works but falls back to a linear scan.
struct Schema {
  std::vector<std::string> columns;

  Schema() = default;
  Schema(std::vector<std::string> cols) : columns(std::move(cols)) {
    Reindex();
  }

  void AddColumn(std::string name) {
    // First occurrence wins, matching IndexOf's linear-scan semantics for
    // duplicate names (join schemas may carry duplicates).
    index_.emplace(name, static_cast<int>(columns.size()));
    columns.push_back(std::move(name));
    ++indexed_;
  }

  // Rebuilds the name→index map after direct writes to `columns`.
  void Reindex() {
    index_.clear();
    for (size_t i = 0; i < columns.size(); ++i) {
      index_.emplace(columns[i], static_cast<int>(i));
    }
    indexed_ = columns.size();
  }

  int IndexOf(std::string_view name) const {
    if (indexed_ == columns.size()) {
      auto it = index_.find(name);
      return it == index_.end() ? -1 : it->second;
    }
    // Map is stale (columns mutated directly); stay correct.
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i] == name) return static_cast<int>(i);
    }
    return -1;
  }
  size_t size() const { return columns.size(); }

 private:
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, int, StringHash, std::equal_to<>> index_;
  size_t indexed_ = 0;
};

// Batched operator. The deliberately small operator set is the paper's
// "simple planner" premise (Section 3.3): few physical operators, each
// predictable, instead of a large optimizer search space. Operators
// produce/consume RowBatch chunks (~kDefaultBatchRows rows) so the hot
// loops run per batch, not per virtual call as in the original Volcano
// design's row-at-a-time Next().
class Operator {
 public:
  virtual ~Operator() = default;

  virtual const Schema& schema() const = 0;
  virtual std::string name() const = 0;

  virtual void Open() = 0;
  // Clears `batch` and fills it with the next chunk of rows (target
  // kDefaultBatchRows; joins may overshoot on multi-matches). Returns false
  // — with `batch` empty — only at end of stream.
  virtual bool NextBatch(RowBatch* batch) = 0;
  virtual void Close() = 0;

  // Upper-bound row-count hint (0 = unknown). Execute() uses it to reserve
  // output capacity instead of growing per batch.
  virtual uint64_t EstimatedRows() const { return 0; }

  uint64_t rows_produced() const { return rows_produced_; }

 protected:
  uint64_t rows_produced_ = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

// Drains `op` (Open/NextBatch*/Close) into a vector, reserving capacity
// from the operator's EstimatedRows() hint.
std::vector<Row> Execute(Operator* op);

}  // namespace impliance::exec

#endif  // IMPLIANCE_EXEC_OPERATOR_H_
