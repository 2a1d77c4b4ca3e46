#include "query/opt/stats_cache.h"

#include <algorithm>

namespace impliance::query::opt {

namespace {

// Column-sketch recollection threshold: 10% row-count drift.
bool SketchesStale(uint64_t cached_rows, uint64_t current_rows) {
  const uint64_t drift = cached_rows > current_rows
                             ? cached_rows - current_rows
                             : current_rows - cached_rows;
  return drift * 10 >= std::max<uint64_t>(1, cached_rows);
}

}  // namespace

std::shared_ptr<const TableStats> TableStatsCache::Get(const Table& table) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache_.find(table.table_name());
  if (it == cache_.end()) return RefreshLocked(table);
  if (mode_ == Mode::kManual) return it->second;  // stale until ANALYZE

  // DataVersion() == 0 means the backend does no change tracking; treat
  // every read as a potential move and rely on the row-drift check below.
  const uint64_t version = table.DataVersion();
  if (version != 0 && version == it->second->data_version) return it->second;

  const uint64_t rows = table.RowCount();
  if (SketchesStale(it->second->row_count, rows)) return RefreshLocked(table);

  // Version moved but rows barely drifted: keep the (bounded-stale) column
  // sketches, refresh the exact cardinality and the version stamp.
  auto updated = std::make_shared<TableStats>(*it->second);
  updated->row_count = rows;
  updated->data_version = version;
  it->second = updated;
  return updated;
}

std::shared_ptr<const TableStats> TableStatsCache::Refresh(const Table& table) {
  std::lock_guard<std::mutex> lock(mutex_);
  return RefreshLocked(table);
}

std::shared_ptr<const TableStats> TableStatsCache::RefreshLocked(
    const Table& table) {
  auto stats =
      std::make_shared<const TableStats>(CollectTableStats(table, options_));
  cache_[table.table_name()] = stats;
  ++collections_;
  return stats;
}

uint64_t TableStatsCache::collections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return collections_;
}

}  // namespace impliance::query::opt
