#ifndef IMPLIANCE_QUERY_COLUMNAR_TABLE_H_
#define IMPLIANCE_QUERY_COLUMNAR_TABLE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "query/table.h"
#include "storage/columnar/column_segment.h"

namespace impliance::query {

// Table backed by columnar segments: appended rows stage in a
// SegmentBuilder and cut into ColumnSegments (dictionary / RLE /
// delta-varint encoded blocks with zone maps) every `segment_rows` rows.
// Scans stream batches straight off the compressed blocks, decode only the
// requested columns, and skip blocks whose zone maps refute a predicate
// hint. No secondary indexes — zone maps are the access-path story here.
class ColumnarTable : public Table {
 public:
  ColumnarTable(std::string name, exec::Schema schema,
                size_t segment_rows = storage::columnar::kSegmentRows,
                size_t block_rows = storage::columnar::kBlockRows);

  void AddRow(exec::Row row);

  const std::string& table_name() const override { return name_; }
  const exec::Schema& schema() const override { return schema_; }
  bool SupportsZoneMapSkipping() const override { return true; }
  std::optional<ColumnSummary> SummarizeColumn(int column) const override;
  size_t RowCount() const override { return row_count_; }
  uint64_t DataVersion() const override { return version_; }

  // Introspection for tests / benches.
  size_t num_segments() const { return segments_.size(); }
  size_t staged_rows() const { return builder_.staged_rows(); }
  // Encoded payload bytes across all segments (tail excluded).
  size_t EncodedBytes() const;
  const storage::columnar::ColumnSegment& segment(size_t i) const {
    return *segments_[i];
  }

  // Public so a table layered over this one (the appliance's per-kind
  // projection) can stream it inside its own metered scan.
  exec::BatchSourcePtr ScanBatchesImpl(
      exec::Schema schema, std::vector<int> columns,
      std::vector<exec::Predicate> hints) const override;

 private:
  std::string name_;
  exec::Schema schema_;
  storage::columnar::SegmentBuilder builder_;
  std::vector<std::unique_ptr<storage::columnar::ColumnSegment>> segments_;
  size_t row_count_ = 0;
  uint64_t version_ = 1;
};

}  // namespace impliance::query

#endif  // IMPLIANCE_QUERY_COLUMNAR_TABLE_H_
