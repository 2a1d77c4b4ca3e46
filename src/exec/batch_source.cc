#include "exec/batch_source.h"

#include <utility>

namespace impliance::exec {

BorrowedBatchSource::BorrowedBatchSource(Schema schema,
                                         const std::vector<Row>* rows,
                                         std::vector<int> columns)
    : schema_(std::move(schema)), rows_(rows), columns_(std::move(columns)) {}

bool BorrowedBatchSource::NextBatch(RowBatch* batch) {
  batch->clear();
  if (cursor_ >= rows_->size()) return false;
  const size_t end = std::min(rows_->size(), cursor_ + kDefaultBatchRows);
  batch->reserve(end - cursor_);
  for (; cursor_ < end; ++cursor_) {
    const Row& row = (*rows_)[cursor_];
    if (columns_.empty()) {
      batch->AppendCopy(row);
    } else {
      Row& out = batch->AppendRow();
      out.reserve(columns_.size());
      for (int column : columns_) out.push_back(row[column]);
    }
  }
  stats_.rows_decoded += batch->size();
  return true;
}

}  // namespace impliance::exec
