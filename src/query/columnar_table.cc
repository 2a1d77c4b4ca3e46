#include "query/columnar_table.h"

#include "common/logging.h"

namespace impliance::query {

namespace columnar = storage::columnar;

ColumnarTable::ColumnarTable(std::string name, exec::Schema schema,
                             size_t segment_rows, size_t block_rows)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      builder_(schema_.size(), segment_rows, block_rows) {}

void ColumnarTable::AddRow(exec::Row row) {
  IMPLIANCE_CHECK(row.size() == schema_.size());
  if (auto segment = builder_.Append(row)) {
    segments_.push_back(std::move(segment));
  }
  ++row_count_;
  ++version_;
}

std::optional<ColumnSummary> ColumnarTable::SummarizeColumn(int column) const {
  if (column < 0 || static_cast<size_t>(column) >= schema_.size()) {
    return std::nullopt;
  }
  columnar::ZoneMap zone;
  for (const auto& segment : segments_) {
    zone.Merge(segment->columns[column].zone);
  }
  for (const model::Value& value : builder_.staged()[column]) zone.Note(value);
  ColumnSummary summary;
  summary.row_count = zone.row_count;
  summary.null_count = zone.null_count;
  summary.min = zone.min;
  summary.max = zone.max;
  return summary;
}

size_t ColumnarTable::EncodedBytes() const {
  size_t bytes = 0;
  for (const auto& segment : segments_) bytes += segment->EncodedBytes();
  return bytes;
}

exec::BatchSourcePtr ColumnarTable::ScanBatchesImpl(
    exec::Schema schema, std::vector<int> columns,
    std::vector<exec::Predicate> hints) const {
  return std::make_unique<columnar::ColumnarBatchSource>(
      std::move(schema), &segments_, &builder_.staged(), builder_.staged_rows(),
      std::move(columns), std::move(hints));
}

}  // namespace impliance::query
