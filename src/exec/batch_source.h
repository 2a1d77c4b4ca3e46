#ifndef IMPLIANCE_EXEC_BATCH_SOURCE_H_
#define IMPLIANCE_EXEC_BATCH_SOURCE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/operator.h"
#include "exec/row_batch.h"

namespace impliance::exec {

// Counters a scan accumulates while it runs. A source that decodes from
// block-compressed storage reports real skip numbers; a materialized
// adapter only ever decodes.
struct ScanStats {
  uint64_t segments_visited = 0;
  uint64_t segments_skipped = 0;  // refuted entirely from segment metadata
  uint64_t blocks_decoded = 0;
  uint64_t blocks_skipped = 0;  // refuted from per-block zone maps
  uint64_t rows_decoded = 0;    // rows materialized into batches
};

// Pull-based stream of RowBatch chunks out of a table scan — the
// batch-native boundary between storage and the executor. Unlike Operator
// it has no Open/Close lifecycle: a source is single-use, positioned at the
// start when constructed, and carries exactly the projected columns the
// caller asked for. Plans never hold one directly: the table-scan leaf
// operator (query::TableScan) creates its source in Open().
//
// Sources created with predicate hints may SKIP rows that cannot satisfy
// them (whole blocks refuted by zone maps), but are never required to
// filter row-wise: callers must re-apply their predicates to the returned
// rows. Hints can only shrink the stream, never grow or reorder it — rows
// always come back in table order.
class BatchSource {
 public:
  virtual ~BatchSource() = default;

  // Schema over exactly the projected columns, in the requested order.
  virtual const Schema& schema() const = 0;

  // Clears `batch` and fills it with the next chunk of rows. Returns false
  // — with `batch` empty — only at end of stream.
  virtual bool NextBatch(RowBatch* batch) = 0;

  // Upper-bound row-count hint (0 = unknown).
  virtual uint64_t EstimatedRows() const { return 0; }

  // Counters so far (meaningful once the stream is drained).
  virtual ScanStats stats() const { return {}; }
};

using BatchSourcePtr = std::unique_ptr<BatchSource>;

// Adapter over a row vector owned by someone who outlives the scan
// (MemTable's backing store): prunes each row to `columns` (full-schema
// indices, in output order; empty = all columns) while batching. Values are
// copied into batches, but the base vector itself is never duplicated.
class BorrowedBatchSource : public BatchSource {
 public:
  BorrowedBatchSource(Schema schema, const std::vector<Row>* rows,
                      std::vector<int> columns);

  const Schema& schema() const override { return schema_; }
  bool NextBatch(RowBatch* batch) override;
  uint64_t EstimatedRows() const override { return rows_->size(); }
  ScanStats stats() const override { return stats_; }

 private:
  Schema schema_;
  const std::vector<Row>* rows_;
  std::vector<int> columns_;  // empty = identity
  size_t cursor_ = 0;
  ScanStats stats_;
};

}  // namespace impliance::exec

#endif  // IMPLIANCE_EXEC_BATCH_SOURCE_H_
