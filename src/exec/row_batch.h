#ifndef IMPLIANCE_EXEC_ROW_BATCH_H_
#define IMPLIANCE_EXEC_ROW_BATCH_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "model/view.h"

namespace impliance::exec {

// Number of rows an operator aims to put in one batch. Large enough to
// amortize the virtual call per batch and keep the per-batch loops tight,
// small enough that a batch of wide rows stays cache-resident.
inline constexpr size_t kDefaultBatchRows = 1024;

// Unit of data flow between operators: a chunk of rows sharing the
// producing operator's schema. Operators fill batches with tight loops
// instead of paying one virtual Next() per row.
struct RowBatch {
  std::vector<model::Row> rows;

  size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }

  // Retires rows that still own a buffer into the spare pool so the next
  // fill can reuse their capacity. Freeing a whole batch of Row buffers at
  // once overflows the allocator's per-thread cache; recycling keeps the
  // steady-state allocation count at zero per batch.
  void clear() {
    for (model::Row& row : rows) {
      if (row.capacity() != 0 && spare_.size() < kDefaultBatchRows) {
        row.clear();
        spare_.push_back(std::move(row));
      }
    }
    rows.clear();
  }
  void reserve(size_t n) { rows.reserve(n); }
  void push_back(model::Row row) { rows.push_back(std::move(row)); }

  // Appends an empty row, reusing a retired row's buffer when one is
  // available, and returns it for the caller to fill.
  model::Row& AppendRow() {
    if (spare_.empty()) {
      rows.emplace_back();
    } else {
      rows.push_back(std::move(spare_.back()));
      spare_.pop_back();
    }
    return rows.back();
  }

  // Appends a copy of `row`; vector assignment reuses a recycled buffer.
  void AppendCopy(const model::Row& row) { AppendRow() = row; }

 private:
  std::vector<model::Row> spare_;
};

}  // namespace impliance::exec

#endif  // IMPLIANCE_EXEC_ROW_BATCH_H_
