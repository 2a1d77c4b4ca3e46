#include "query/table.h"

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace impliance::query {

namespace {

exec::Schema ProjectSchema(const exec::Schema& full,
                           const std::vector<int>& columns) {
  exec::Schema projected;
  for (int column : columns) projected.AddColumn(full.columns[column]);
  return projected;
}

}  // namespace

std::unique_ptr<TableScan> Table::ScanBatches(
    std::vector<int> columns, std::vector<exec::Predicate> hints) const {
  const exec::Schema& full = schema();
  if (columns.empty()) {
    columns.resize(full.size());
    for (size_t i = 0; i < columns.size(); ++i) columns[i] = static_cast<int>(i);
  }
  for (int column : columns) {
    IMPLIANCE_CHECK(column >= 0 && static_cast<size_t>(column) < full.size());
  }
  // Project BEFORE the call: argument initialization order is unspecified,
  // so ProjectSchema(full, columns) in the argument list could read an
  // already-moved-from vector.
  exec::Schema projected = ProjectSchema(full, columns);
  return std::make_unique<TableScan>(this, std::move(projected),
                                     std::move(columns), std::move(hints));
}

TableScan::TableScan(const Table* table, exec::Schema schema,
                     std::vector<int> columns,
                     std::vector<exec::Predicate> hints)
    : table_(table),
      schema_(std::move(schema)),
      columns_(std::move(columns)),
      hints_(std::move(hints)) {}

void TableScan::Open() {
  Close();
  span_.emplace("table.scan");
  source_ = table_->ScanBatchesImpl(schema_, columns_, hints_);
  flushed_ = false;
}

bool TableScan::NextBatch(exec::RowBatch* batch) {
  const bool more = source_->NextBatch(batch);
  if (more) {
    rows_produced_ += batch->size();
  } else {
    Flush();
  }
  return more;
}

void TableScan::Close() {
  Flush();
  span_.reset();
}

uint64_t TableScan::EstimatedRows() const {
  return source_ != nullptr ? source_->EstimatedRows() : table_->RowCount();
}

void TableScan::Flush() {
  if (flushed_) return;
  flushed_ = true;
  static obs::Counter* segments_visited =
      obs::Registry::Global().GetCounter("scan.segments_visited");
  static obs::Counter* segments_skipped =
      obs::Registry::Global().GetCounter("scan.segments_skipped");
  static obs::Counter* blocks_decoded =
      obs::Registry::Global().GetCounter("scan.blocks_decoded");
  static obs::Counter* blocks_skipped =
      obs::Registry::Global().GetCounter("scan.blocks_skipped");
  static obs::Counter* rows_decoded =
      obs::Registry::Global().GetCounter("scan.rows_decoded");
  const exec::ScanStats s = source_->stats();
  segments_visited->Increment(s.segments_visited);
  segments_skipped->Increment(s.segments_skipped);
  blocks_decoded->Increment(s.blocks_decoded);
  blocks_skipped->Increment(s.blocks_skipped);
  rows_decoded->Increment(s.rows_decoded);
}

MemTable::MemTable(std::string name, exec::Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {}

void MemTable::AddRow(exec::Row row) {
  IMPLIANCE_CHECK(row.size() == schema_.size());
  const size_t index = rows_.size();
  rows_.push_back(std::move(row));
  for (auto& [column, map] : indexes_) {
    const model::Value& key = rows_.back()[column];
    if (!key.is_null()) map.emplace(key, index);
  }
  ++version_;
}

exec::BatchSourcePtr MemTable::ScanBatchesImpl(
    exec::Schema schema, std::vector<int> columns,
    std::vector<exec::Predicate> hints) const {
  (void)hints;
  bool identity = columns.size() == schema_.size();
  for (size_t i = 0; identity && i < columns.size(); ++i) {
    identity = columns[i] == static_cast<int>(i);
  }
  return std::make_unique<exec::BorrowedBatchSource>(
      std::move(schema), &rows_,
      identity ? std::vector<int>{} : std::move(columns));
}

void MemTable::BuildIndex(int column) {
  IMPLIANCE_CHECK(column >= 0 && static_cast<size_t>(column) < schema_.size());
  std::multimap<model::Value, size_t>& map = indexes_[column];
  map.clear();
  for (size_t i = 0; i < rows_.size(); ++i) {
    const model::Value& key = rows_[i][column];
    if (!key.is_null()) map.emplace(key, i);
  }
}

std::vector<exec::Row> MemTable::IndexLookup(int column,
                                             const model::Value& value) const {
  auto it = indexes_.find(column);
  IMPLIANCE_CHECK(it != indexes_.end()) << "no index on column " << column;
  std::vector<exec::Row> result;
  auto [lo, hi] = it->second.equal_range(value);
  for (auto entry = lo; entry != hi; ++entry) {
    result.push_back(rows_[entry->second]);
  }
  return result;
}

std::vector<exec::Row> MemTable::IndexRange(int column, const model::Value* lo,
                                            const model::Value* hi) const {
  auto it = indexes_.find(column);
  IMPLIANCE_CHECK(it != indexes_.end()) << "no index on column " << column;
  const auto& map = it->second;
  auto begin = lo == nullptr ? map.begin() : map.lower_bound(*lo);
  auto end = hi == nullptr ? map.end() : map.upper_bound(*hi);
  std::vector<exec::Row> result;
  for (auto entry = begin; entry != end; ++entry) {
    result.push_back(rows_[entry->second]);
  }
  return result;
}

void Catalog::Register(std::shared_ptr<const Table> table) {
  tables_[table->table_name()] = std::move(table);
}

const Table* Catalog::Lookup(std::string_view name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

}  // namespace impliance::query
