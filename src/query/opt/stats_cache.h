#ifndef IMPLIANCE_QUERY_OPT_STATS_CACHE_H_
#define IMPLIANCE_QUERY_OPT_STATS_CACHE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "query/opt/stats.h"

namespace impliance::query::opt {

// Statistics cache keyed by table name. In kAuto mode (the appliance
// default) snapshots maintain themselves: every Get() compares the table's
// DataVersion against the snapshot's, refreshes the exact row count when
// the version moved, and recollects the column sketches once the row count
// has drifted beyond 10% — so cardinalities are always exact and sketch
// staleness is bounded, with zero administration. kManual mode is the
// conventional-DBA comparator for experiment E2: snapshots update ONLY on
// an explicit Refresh() ("ANALYZE"), and silently go stale otherwise —
// exactly the maintenance burden the paper argues against.
class TableStatsCache {
 public:
  enum class Mode { kAuto, kManual };

  explicit TableStatsCache(Mode mode = Mode::kAuto,
                           StatsOptions options = StatsOptions{})
      : mode_(mode), options_(options) {}

  // Current statistics for `table`, per the mode's freshness policy. Never
  // returns null: a missing snapshot is collected on first sight in either
  // mode.
  std::shared_ptr<const TableStats> Get(const Table& table);

  // Forces a full recollection now (manual ANALYZE).
  std::shared_ptr<const TableStats> Refresh(const Table& table);

  Mode mode() const { return mode_; }

  // Full collections performed so far (observability / tests).
  uint64_t collections() const;

 private:
  std::shared_ptr<const TableStats> RefreshLocked(const Table& table);

  const Mode mode_;
  const StatsOptions options_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const TableStats>, std::less<>> cache_;
  uint64_t collections_ = 0;
};

}  // namespace impliance::query::opt

#endif  // IMPLIANCE_QUERY_OPT_STATS_CACHE_H_
