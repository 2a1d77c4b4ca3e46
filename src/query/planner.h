#ifndef IMPLIANCE_QUERY_PLANNER_H_
#define IMPLIANCE_QUERY_PLANNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/operator.h"
#include "exec/parallel.h"
#include "query/ast.h"
#include "query/table.h"

namespace impliance::query {

// One operator in a rendered plan tree, in root-first (pre-order) listing
// order. `depth` gives the tree shape; estimates are the optimizer's — the
// statistics-free SimplePlanner leaves them at 0.
struct ExplainNode {
  uint32_t depth = 0;
  std::string name;    // operator, e.g. "HashJoin"
  std::string detail;  // e.g. "build=customers"
  double est_rows = 0;
  double est_cost = 0;

  bool operator==(const ExplainNode&) const = default;
};

// A compiled query: executable operator tree plus a human-readable plan and
// (when the planner costs its decisions) a structured node listing that
// EXPLAIN ships over the wire.
struct PlanResult {
  exec::OperatorPtr root;
  std::string explain;
  std::vector<ExplainNode> nodes;  // may be empty (SimplePlanner)
};

// A query compiled for morsel-driven parallel execution: the scan / probe /
// filter / partial-aggregate segment runs data-parallel over morsels of the
// base table; `tail` (may be null) is the serial remainder stacked on the
// merged segment output (post-aggregate projection, final sort, limit).
struct ParallelPlan {
  exec::MorselPlan segment;
  std::function<exec::OperatorPtr(exec::OperatorPtr)> tail;
};

class Planner {
 public:
  virtual ~Planner() = default;
  virtual Result<PlanResult> Plan(const SelectStatement& stmt,
                                  const Catalog& catalog) = 0;

  // Morsel-parallel compilation; nullopt when the statement's shape (or the
  // planner) requires the serial operator tree. Default: always serial.
  virtual Result<std::optional<ParallelPlan>> PlanParallel(
      const SelectStatement& stmt, const Catalog& catalog) {
    (void)stmt;
    (void)catalog;
    return std::optional<ParallelPlan>();
  }
};

// The paper's planner (Section 3.3): "a simple planner that allows only a
// few limited choices of the underlying physical operators", preferring
// predictable over optimal performance and requiring NO statistics:
//   - access path: an index is used whenever an equality (else range)
//     predicate has one — never a cost decision;
//   - joins: left-deep in textual order; indexed nested-loop when the query
//     is top-k (LIMIT) and the join table has an index on the join column,
//     hash join otherwise;
//   - projection pushdown: scans fetch only the columns the query
//     references (a rule, requiring no statistics);
//   - residual predicates run through the adaptive filter, which reorders
//     itself at runtime instead of consulting statistics.
class SimplePlanner : public Planner {
 public:
  Result<PlanResult> Plan(const SelectStatement& stmt,
                          const Catalog& catalog) override;

  // Parallel variant of the same rules. Returns nullopt for shapes the
  // morsel driver does not cover (the indexed-NL-join top-k rule, whose
  // benefit is streaming the first rows, stays serial).
  Result<std::optional<ParallelPlan>> PlanParallel(
      const SelectStatement& stmt, const Catalog& catalog) override;
};

// Plans `stmt` (or parses `sql` first), executes the plan, and returns the
// rows. With options.dop > 1 the planner's PlanParallel shape (when
// available) runs on the shared morsel executor; rows equal the serial
// plan's (collects keep source order, aggregates emit in key order).
Result<std::vector<exec::Row>> RunSql(const SelectStatement& stmt,
                                      const Catalog& catalog, Planner* planner,
                                      const exec::ExecOptions& options = {});
Result<std::vector<exec::Row>> RunSql(std::string_view sql,
                                      const Catalog& catalog, Planner* planner,
                                      const exec::ExecOptions& options = {});

}  // namespace impliance::query

#endif  // IMPLIANCE_QUERY_PLANNER_H_
