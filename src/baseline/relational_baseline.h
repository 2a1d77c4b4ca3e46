#ifndef IMPLIANCE_BASELINE_RELATIONAL_BASELINE_H_
#define IMPLIANCE_BASELINE_RELATIONAL_BASELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "query/opt/optimizer.h"
#include "query/opt/stats_cache.h"
#include "query/planner.h"
#include "query/table.h"

namespace impliance::baseline {

// The Figure-4 "RDBMS" comparator: a schema-first relational engine sharing
// Impliance's executor. Its defining architectural property is what it
// REQUIRES of the administrator: explicit CREATE TABLE / CREATE INDEX /
// ANALYZE steps before data is queryable, strict row arity, no text or
// semi-structured ingestion. Every such step bumps admin_steps(), the TCO
// proxy used by experiments E4 and E10.
class RelationalBaseline {
 public:
  // Admin step: declare a schema. Loading into an undeclared table fails.
  Status CreateTable(const std::string& name,
                     const std::vector<std::string>& columns);

  // Admin step: build an index (nothing is indexed automatically).
  Status CreateIndex(const std::string& table, const std::string& column);

  // Admin step: refresh optimizer statistics.
  Status Analyze(const std::string& table);

  // Loads one row of raw fields; fails on unknown table or arity mismatch
  // (no "schema chaos" tolerated).
  Status LoadRow(const std::string& table,
                 const std::vector<std::string>& values);

  Result<std::vector<exec::Row>> Query(const std::string& sql);

  // Not supported by architecture: the error itself is the measurement.
  Result<std::vector<uint64_t>> KeywordSearch(const std::string& keywords) {
    return Status::NotSupported("relational baseline has no text search");
  }

  size_t admin_steps() const { return admin_steps_; }

 private:
  query::Catalog catalog_;
  std::map<std::string, std::shared_ptr<query::MemTable>> tables_;
  // Manual-mode statistics: stale until the administrator runs Analyze —
  // the architectural contrast with the appliance's auto-refreshed cache.
  query::opt::TableStatsCache stats_{
      query::opt::TableStatsCache::Mode::kManual};
  query::opt::CostAwarePlanner planner_{&stats_};
  size_t admin_steps_ = 0;
};

}  // namespace impliance::baseline

#endif  // IMPLIANCE_BASELINE_RELATIONAL_BASELINE_H_
