#ifndef IMPLIANCE_QUERY_PLAN_COMMON_H_
#define IMPLIANCE_QUERY_PLAN_COMMON_H_

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/operators.h"
#include "query/ast.h"
#include "query/planner.h"
#include "query/table.h"

// Shared multi-table plan-building machinery used by both SimplePlanner and
// the cost-aware optimizer: binding tables and join keys, projection-pushdown
// column selection, name resolution over (possibly pruned) schemas, and the
// resolution/construction of everything above the joins (residual filter,
// aggregate, select-list projection, order/limit). Keeping one copy here is
// what guarantees the two planners cannot drift semantically — they differ
// only in access-path, join-order, and join-method decisions.
namespace impliance::query::planning {

bool IsRangeOp(exec::CompareOp op);

// Resolution of a column name against ONE table's full schema: accepts the
// bare column name or "<table>.<column>"; -1 when it does not resolve here.
int ResolveInTable(const Table* table, const std::string& name);

// A table bound into a plan together with its projection-pushdown column
// subset. `kept` holds full-schema indices in ascending order; `schema` is
// the pruned schema over exactly those columns.
struct BoundTable {
  const Table* table = nullptr;
  std::vector<int> kept;
  exec::Schema schema;

  bool pruned() const { return kept.size() < table->schema().size(); }
  // Position of full-schema column `column` within `kept`, or -1.
  int KeptIndexOf(int column) const;
};

BoundTable MakeBoundTable(const Table* table, std::vector<int> kept);

// One resolved join edge: connects the JOIN clause's table
// (`right_table`, always clause index + 1 in textual order) to some
// earlier table through full-schema key columns.
struct BoundJoin {
  int left_table = 0;
  int right_table = 0;
  int left_column = -1;   // full-schema index in tables[left_table]
  int right_column = -1;  // full-schema index in tables[right_table]
};

// Looks up the FROM table and every JOIN table, in textual order.
Result<std::vector<const Table*>> BindTables(const SelectStatement& stmt,
                                             const Catalog& catalog);

// Resolves every join clause against the bound tables. The JOIN side is
// always the clause's own table; the other side may live in any earlier
// table (first match in textual order; the parser's left/right assignment
// is heuristic, so both orientations are tried).
Result<std::vector<BoundJoin>> BindJoins(const SelectStatement& stmt,
                                         const std::vector<const Table*>& tables);

// Projection pushdown: computes, per table, the full-schema columns the
// query actually references (select list, WHERE, join keys, GROUP BY,
// ORDER BY). SELECT * keeps everything; tables flagged in `keep_all` keep
// everything regardless (index lookups return full rows, so an
// IndexedNLJoin build side cannot be pruned). A bare name that exists in
// several tables is kept only where the combined-schema resolution binds
// it, preserving first-occurrence-wins semantics after pruning.
// Unresolvable names are ignored here — ResolveUpper reports them.
std::vector<BoundTable> BindColumns(const SelectStatement& stmt,
                                    const std::vector<const Table*>& tables,
                                    const std::vector<BoundJoin>& joins,
                                    const std::vector<bool>& keep_all);

// Leaf over an index fetch's full-schema rows, pruned to `bound.kept`.
exec::OperatorPtr FetchedRowsOp(const BoundTable& bound,
                                std::vector<exec::Row> rows);

// Column resolution over the combined (joined) schema: the concatenation of
// the bound tables' pruned schemas in the given order. Qualified names match
// the owning table's columns; bare names match the first occurrence across
// the whole combined schema.
class NameResolver {
 public:
  explicit NameResolver(const std::vector<BoundTable>* tables);

  // Index in the combined schema, or -1.
  int Resolve(const std::string& name) const;
  // (table index, position within that table's kept columns), or (-1, -1).
  std::pair<int, int> Locate(const std::string& name) const;
  // Combined-schema offset of `table_index`'s first column.
  int Offset(int table_index) const { return offsets_[table_index]; }
  // Unqualified output name for the combined schema position.
  const std::string& NameAt(int index) const { return names_[index]; }
  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::vector<std::string> qualified_;
  std::vector<std::pair<int, int>> located_;  // (table, kept position)
  std::vector<int> offsets_;
};

// Everything above the access path / join, fully resolved against schemas
// but not yet bound to operators. One resolution feeds the serial operator
// tree, the morsel-parallel segment, and the optimizer's costed tree, so
// the paths cannot drift semantically.
struct UpperPlanSpec {
  std::vector<exec::Predicate> predicates;  // residual, in evaluation order
  bool adaptive_filter = false;

  bool has_aggregate = false;
  std::vector<int> group_columns;
  std::vector<exec::AggSpec> aggregates;

  // Projection onto the select list: after the aggregate when present,
  // directly on the join/filter output otherwise. false => SELECT *.
  bool project = false;
  std::vector<int> project_columns;
  std::vector<std::string> project_names;

  // Resolved against the final (projected) schema.
  std::vector<exec::SortKey> sort_keys;
  std::optional<size_t> limit;
};

// Resolves residual filter, aggregate, projection, and order/limit against
// the combined schema. `consumed_predicates` (indices into stmt.where) were
// absorbed by an access path or pushed below a join; `filter_order` gives
// the residual evaluation order.
Result<UpperPlanSpec> ResolveUpper(const SelectStatement& stmt,
                                   const NameResolver& resolver,
                                   const std::set<int>& consumed_predicates,
                                   const std::vector<int>& filter_order,
                                   bool adaptive_filter);

// Stacks the resolved upper plan onto `plan` as serial batched operators,
// appending bottom-up explain lines to `explain_lines`.
exec::OperatorPtr BuildSerialUpper(const UpperPlanSpec& spec,
                                   exec::OperatorPtr plan,
                                   std::vector<std::string>* explain_lines);

// A join build shared read-only by every morsel worker, probed with the
// morsel rows' `left_key` column.
struct SharedProbe {
  std::shared_ptr<const exec::JoinHashTable> table;
  int left_key = -1;
};

// Completes a morsel-parallel plan whose segment source is set. Each morsel
// runs `source_filter` (the source table's own predicates, over its
// schema; skipped when empty), then `probes` in order, then `reorder` (a
// projection restoring the textual column layout after a join reorder;
// skipped when empty), then the spec's residual filter and — unless an
// aggregate reshapes the rows — its select-list projection. The spec's sink
// and serial tail follow (partial aggregate / partial top-k / collect, then
// the serial remainder).
void AttachParallelUpper(const UpperPlanSpec& spec,
                         std::vector<exec::Predicate> source_filter,
                         std::vector<SharedProbe> probes,
                         std::vector<int> reorder,
                         std::vector<std::string> reorder_names,
                         ParallelPlan* parallel);

std::string RenderExplain(const std::vector<std::string>& lines);

// Shared lookup-callback builder for IndexedNLJoin. `column` is a
// full-schema index (index lookups return full rows).
exec::IndexedNLJoinOp::LookupFn MakeIndexLookup(const Table* table,
                                                int column);

// One index-backed (or degenerate) fetch of base rows. Strict range bounds
// stay residual: Table::IndexRange is inclusive, so kGt/kLt fetch the
// inclusive superset and report consumed=false.
struct IndexFetch {
  std::vector<exec::Row> rows;  // FULL-schema rows
  std::string description;
  bool consumed = false;  // predicate fully absorbed by the fetch
};

IndexFetch FetchViaIndex(const Table* table, const std::string& display_name,
                         int column, exec::CompareOp op,
                         const model::Value& literal);

}  // namespace impliance::query::planning

#endif  // IMPLIANCE_QUERY_PLAN_COMMON_H_
