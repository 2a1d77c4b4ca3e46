#ifndef IMPLIANCE_QUERY_TABLE_H_
#define IMPLIANCE_QUERY_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/batch_source.h"
#include "exec/operator.h"
#include "exec/predicate.h"
#include "model/value.h"
#include "obs/trace.h"

namespace impliance::query {

// Exact per-column facts a backend can answer from storage metadata alone
// (columnar backends merge segment zone maps). Exact — never sampled — so
// the statistics collector prefers it over its row sample when present.
struct ColumnSummary {
  uint64_t row_count = 0;
  uint64_t null_count = 0;
  model::Value min;  // Null when every value is null
  model::Value max;
};

class TableScan;

// Logical relation the planners access: either a system view over documents
// (bound by the core facade) or an in-memory table (tests, benches,
// baselines). The planner only sees this interface, so plans are identical
// regardless of what backs the data.
class Table {
 public:
  virtual ~Table() = default;

  virtual const std::string& table_name() const = 0;
  virtual const exec::Schema& schema() const = 0;

  // The one scan path: a leaf operator streaming RowBatch chunks carrying
  // exactly `columns` (schema indices, in that order; empty = all columns
  // in schema order). `hints` are predicates over FULL-schema indices a
  // backend may use to skip storage blocks whose zone maps refute them —
  // hints only shrink the stream, so callers must still re-apply their
  // predicates. Nothing is read until the operator is opened; backends
  // implement ScanBatchesImpl.
  std::unique_ptr<TableScan> ScanBatches(
      std::vector<int> columns,
      std::vector<exec::Predicate> hints = {}) const;

  // True when ScanBatches can skip blocks from zone maps, so the planner
  // should discount scan cost by predicate selectivity.
  virtual bool SupportsZoneMapSkipping() const { return false; }

  // Exact column facts from storage metadata, or nullopt when the backend
  // keeps none (the stats collector then falls back to sampling).
  virtual std::optional<ColumnSummary> SummarizeColumn(int column) const {
    return std::nullopt;
  }

  // Index access; a backend without indexes keeps these defaults, and the
  // planners never call the lookups while HasIndexOn is false.
  virtual bool HasIndexOn(int column) const { return false; }

  // Rows whose `column` equals `value`. Only valid if HasIndexOn(column).
  virtual std::vector<exec::Row> IndexLookup(int column,
                                             const model::Value& value) const {
    return {};
  }

  // Rows with `column` in [lo, hi] (nullptr = unbounded).
  virtual std::vector<exec::Row> IndexRange(int column, const model::Value* lo,
                                            const model::Value* hi) const {
    return {};
  }

  // True cardinality (the simple planner never asks; the cost-aware planner
  // reads it through the TableStatsCache).
  virtual size_t RowCount() const = 0;

  // Monotone change counter: any mutation of the backing data bumps it.
  // The statistics cache recomputes a table's stats iff the version moved
  // since the last collection, so cached stats can never silently go
  // stale. 0 (the default) means "no change tracking" — stats callers
  // must then treat every read as potentially stale.
  virtual uint64_t DataVersion() const { return 0; }

 protected:
  friend class TableScan;

  // Backend hook behind ScanBatches, called when the scan opens. `columns`
  // is already normalized (never empty; explicit schema indices) and
  // `schema` is the projected schema over them. Every backend streams its
  // own storage.
  virtual exec::BatchSourcePtr ScanBatchesImpl(
      exec::Schema schema, std::vector<int> columns,
      std::vector<exec::Predicate> hints) const = 0;
};

// Leaf operator of every table scan. Open() asks the backend for its
// stream, so building a plan (or EXPLAIN) reads no rows. The scan's
// ScanStats go to the global scan.* counters (surfaced through the wire
// protocol's kStats op) and its open-to-close time to a `table.scan` trace
// span — once, at end of stream, Close or destruction, whichever comes
// first, so an abandoned scan (LIMIT satisfied early) is still accounted.
class TableScan : public exec::Operator {
 public:
  TableScan(const Table* table, exec::Schema schema, std::vector<int> columns,
            std::vector<exec::Predicate> hints);
  ~TableScan() override { Close(); }

  const exec::Schema& schema() const override { return schema_; }
  std::string name() const override { return "TableScan"; }
  void Open() override;
  bool NextBatch(exec::RowBatch* batch) override;
  void Close() override;
  // The open stream's hint, else the table's row count.
  uint64_t EstimatedRows() const override;

  // Counters of the current (or last) stream; zero before Open.
  exec::ScanStats stats() const {
    return source_ == nullptr ? exec::ScanStats{} : source_->stats();
  }

 private:
  void Flush();

  const Table* table_;
  exec::Schema schema_;
  std::vector<int> columns_;
  std::vector<exec::Predicate> hints_;
  exec::BatchSourcePtr source_;  // null until Open
  bool flushed_ = true;
  std::optional<obs::ScopedSpan> span_;
};

// Vector-backed table with optional per-column hash + ordered indexes.
class MemTable : public Table {
 public:
  MemTable(std::string name, exec::Schema schema);

  void AddRow(exec::Row row);
  // Builds (or rebuilds) an index on `column`.
  void BuildIndex(int column);

  const std::string& table_name() const override { return name_; }
  const exec::Schema& schema() const override { return schema_; }
  bool HasIndexOn(int column) const override {
    return indexes_.count(column) > 0;
  }
  std::vector<exec::Row> IndexLookup(int column,
                                     const model::Value& value) const override;
  std::vector<exec::Row> IndexRange(int column, const model::Value* lo,
                                    const model::Value* hi) const override;
  size_t RowCount() const override { return rows_.size(); }
  uint64_t DataVersion() const override { return version_; }

 protected:
  // Streams straight off rows_ (no vector copy).
  exec::BatchSourcePtr ScanBatchesImpl(
      exec::Schema schema, std::vector<int> columns,
      std::vector<exec::Predicate> hints) const override;

 private:
  std::string name_;
  exec::Schema schema_;
  std::vector<exec::Row> rows_;
  // column -> ordered multimap value -> row indices.
  std::map<int, std::multimap<model::Value, size_t>> indexes_;
  uint64_t version_ = 1;
};

// Name -> table registry handed to the planner.
class Catalog {
 public:
  void Register(std::shared_ptr<const Table> table);
  const Table* Lookup(std::string_view name) const;

 private:
  std::map<std::string, std::shared_ptr<const Table>, std::less<>> tables_;
};

}  // namespace impliance::query

#endif  // IMPLIANCE_QUERY_TABLE_H_
