#include "query/planner.h"

#include <algorithm>
#include <optional>
#include <set>

#include "exec/operators.h"
#include "query/plan_common.h"
#include "query/sql_parser.h"

namespace impliance::query {

namespace {

using planning::BindColumns;
using planning::BindJoins;
using planning::BindTables;
using planning::BoundJoin;
using planning::BoundTable;
using planning::FetchedRowsOp;
using planning::FetchViaIndex;
using planning::IndexFetch;
using planning::IsRangeOp;
using planning::MakeIndexLookup;
using planning::NameResolver;
using planning::RenderExplain;
using planning::ResolveInTable;
using planning::ResolveUpper;
using planning::UpperPlanSpec;

// The simple planner's access-path rule on the FROM table: the FIRST
// equality predicate with an index wins; else the first indexed range
// predicate; else scan. A rule, not a cost decision.
int ChooseAccessPredicate(const SelectStatement& stmt, const Table* table) {
  for (size_t i = 0; i < stmt.where.size(); ++i) {
    const int column = ResolveInTable(table, stmt.where[i].column);
    if (column >= 0 && stmt.where[i].op == exec::CompareOp::kEq &&
        table->HasIndexOn(column)) {
      return static_cast<int>(i);
    }
  }
  for (size_t i = 0; i < stmt.where.size(); ++i) {
    const int column = ResolveInTable(table, stmt.where[i].column);
    if (column >= 0 && IsRangeOp(stmt.where[i].op) &&
        table->HasIndexOn(column)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// Access-path leaf for the FROM table under the simple rule: a scan of the
// kept columns, or an index fetch pruned to them. Sets *consumed when an
// index fully absorbed the predicate.
exec::OperatorPtr BuildAccess(const SelectStatement& stmt,
                              const BoundTable& bound, int chosen,
                              std::string* description, int* consumed) {
  *consumed = -1;
  if (chosen < 0) {
    *description = "Scan(" + bound.table->table_name() + ")";
    return bound.table->ScanBatches(bound.kept);
  }
  const WhereClause& clause = stmt.where[chosen];
  IndexFetch fetch = FetchViaIndex(
      bound.table, clause.column,
      ResolveInTable(bound.table, clause.column), clause.op, clause.literal);
  *description = fetch.description;
  if (fetch.consumed) *consumed = chosen;
  return FetchedRowsOp(bound, std::move(fetch.rows));
}

// The simple rule for join methods: indexed nested-loop when the query is
// top-k (LIMIT) and the join table has an index on its join column.
bool UseIndexedNLJoin(const SelectStatement& stmt, const BoundJoin& join,
                      const std::vector<const Table*>& tables) {
  return stmt.limit.has_value() &&
         tables[join.right_table]->HasIndexOn(join.right_column);
}

}  // namespace

// ---------------------------------------------------------- SimplePlanner

Result<PlanResult> SimplePlanner::Plan(const SelectStatement& stmt,
                                       const Catalog& catalog) {
  IMPLIANCE_ASSIGN_OR_RETURN(std::vector<const Table*> tables,
                             BindTables(stmt, catalog));
  IMPLIANCE_ASSIGN_OR_RETURN(std::vector<BoundJoin> joins,
                             BindJoins(stmt, tables));

  // Index lookups return full rows, so IndexedNLJoin targets stay unpruned.
  std::vector<bool> keep_all(tables.size(), false);
  for (const BoundJoin& join : joins) {
    if (UseIndexedNLJoin(stmt, join, tables)) {
      keep_all[join.right_table] = true;
    }
  }
  const std::vector<BoundTable> bound =
      BindColumns(stmt, tables, joins, keep_all);
  const NameResolver resolver(&bound);

  std::vector<std::string> explain_lines;

  const int chosen = ChooseAccessPredicate(stmt, tables[0]);
  std::string description;
  int consumed_index = -1;
  exec::OperatorPtr plan =
      BuildAccess(stmt, bound[0], chosen, &description, &consumed_index);
  explain_lines.push_back(description);

  std::set<int> consumed;
  if (consumed_index >= 0) consumed.insert(consumed_index);

  // Left-deep joins in textual order: the combined schema after join i is
  // the concatenation of the pruned schemas of tables 0..i+1.
  for (const BoundJoin& join : joins) {
    const BoundTable& right = bound[join.right_table];
    const int left_key = resolver.Offset(join.left_table) +
                         bound[join.left_table].KeptIndexOf(join.left_column);
    if (UseIndexedNLJoin(stmt, join, tables)) {
      explain_lines.push_back("IndexedNLJoin(" + right.table->table_name() +
                              ")");
      plan = std::make_unique<exec::IndexedNLJoinOp>(
          std::move(plan), left_key,
          MakeIndexLookup(right.table, join.right_column),
          right.table->schema());
    } else {
      explain_lines.push_back("HashJoin(build=" + right.table->table_name() +
                              ")");
      plan = std::make_unique<exec::HashJoinOp>(
          std::move(plan), right.table->ScanBatches(right.kept), left_key,
          right.KeptIndexOf(join.right_column));
    }
  }

  // Residuals in textual order; the adaptive filter reorders at runtime.
  std::vector<int> order;
  for (size_t i = 0; i < stmt.where.size(); ++i) {
    order.push_back(static_cast<int>(i));
  }
  IMPLIANCE_ASSIGN_OR_RETURN(
      UpperPlanSpec spec,
      ResolveUpper(stmt, resolver, consumed, order, /*adaptive_filter=*/true));
  plan = planning::BuildSerialUpper(spec, std::move(plan), &explain_lines);
  return PlanResult{std::move(plan), RenderExplain(explain_lines), {}};
}

Result<std::optional<ParallelPlan>> SimplePlanner::PlanParallel(
    const SelectStatement& stmt, const Catalog& catalog) {
  IMPLIANCE_ASSIGN_OR_RETURN(std::vector<const Table*> tables,
                             BindTables(stmt, catalog));
  IMPLIANCE_ASSIGN_OR_RETURN(std::vector<BoundJoin> joins,
                             BindJoins(stmt, tables));

  // The top-k indexed-NL-join rule stays serial: its benefit is streaming
  // the first rows, and index lookups are not guaranteed thread-safe.
  for (const BoundJoin& join : joins) {
    if (UseIndexedNLJoin(stmt, join, tables)) {
      return std::optional<ParallelPlan>();
    }
  }

  const std::vector<BoundTable> bound = BindColumns(
      stmt, tables, joins, std::vector<bool>(tables.size(), false));
  const NameResolver resolver(&bound);

  // Same access-path rule as the serial plan.
  const int chosen = ChooseAccessPredicate(stmt, tables[0]);
  std::string description;
  int consumed_index = -1;
  ParallelPlan parallel;
  parallel.segment.source =
      BuildAccess(stmt, bound[0], chosen, &description, &consumed_index);

  std::set<int> consumed;
  if (consumed_index >= 0) consumed.insert(consumed_index);
  std::vector<int> order;
  for (size_t i = 0; i < stmt.where.size(); ++i) {
    order.push_back(static_cast<int>(i));
  }
  IMPLIANCE_ASSIGN_OR_RETURN(
      UpperPlanSpec spec,
      ResolveUpper(stmt, resolver, consumed, order, /*adaptive_filter=*/true));

  // Shared build sides: built once when the segment runs, probed from
  // every worker.
  std::vector<planning::SharedProbe> probes;
  for (const BoundJoin& join : joins) {
    const BoundTable& right = bound[join.right_table];
    auto table = std::make_shared<exec::JoinHashTable>(
        right.schema, right.KeptIndexOf(join.right_column));
    parallel.segment.builds.push_back(
        {right.table->ScanBatches(right.kept), table});
    probes.push_back(planning::SharedProbe{
        std::move(table),
        resolver.Offset(join.left_table) +
            bound[join.left_table].KeptIndexOf(join.left_column)});
  }

  planning::AttachParallelUpper(spec, /*source_filter=*/{}, std::move(probes),
                                /*reorder=*/{}, /*reorder_names=*/{},
                                &parallel);
  return std::optional<ParallelPlan>(std::move(parallel));
}

Result<std::vector<exec::Row>> RunSql(const SelectStatement& stmt,
                                      const Catalog& catalog, Planner* planner,
                                      const exec::ExecOptions& options) {
  if (options.dop > 1) {
    IMPLIANCE_ASSIGN_OR_RETURN(std::optional<ParallelPlan> parallel,
                               planner->PlanParallel(stmt, catalog));
    if (parallel.has_value()) {
      exec::Schema merged_schema = parallel->segment.OutputSchema();
      std::vector<exec::Row> merged = exec::ParallelExecutor::Shared().Run(
          std::move(parallel->segment), options);
      if (!parallel->tail) return merged;
      auto source = std::make_unique<exec::RowSourceOp>(
          std::move(merged_schema), std::move(merged));
      exec::OperatorPtr tail = parallel->tail(std::move(source));
      return exec::Execute(tail.get());
    }
  }
  IMPLIANCE_ASSIGN_OR_RETURN(PlanResult plan, planner->Plan(stmt, catalog));
  return exec::Execute(plan.root.get());
}

Result<std::vector<exec::Row>> RunSql(std::string_view sql,
                                      const Catalog& catalog, Planner* planner,
                                      const exec::ExecOptions& options) {
  IMPLIANCE_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSql(sql));
  return RunSql(stmt, catalog, planner, options);
}

}  // namespace impliance::query
