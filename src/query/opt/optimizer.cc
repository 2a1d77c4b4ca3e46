#include "query/opt/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/operators.h"
#include "query/plan_common.h"

namespace impliance::query::opt {

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
using planning::MakeBoundTable;
using planning::MakeIndexLookup;
using planning::NameResolver;
using planning::ResolveUpper;
using planning::UpperPlanSpec;

// ------------------------------------------------------------ explain tree

// In-construction plan tree node; flattened pre-order into ExplainNodes and
// rendered as the indented EXPLAIN text.
struct Node {
  std::string name;
  std::string detail;
  double rows = 0;
  double cost = 0;
  std::vector<Node> children;
};

void FlattenNode(const Node& node, uint32_t depth,
                 std::vector<ExplainNode>* out) {
  out->push_back(ExplainNode{depth, node.name, node.detail, node.rows,
                             node.cost});
  for (const Node& child : node.children) FlattenNode(child, depth + 1, out);
}

std::string FormatEst(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

void RenderNode(const Node& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(node.name);
  if (!node.detail.empty()) *out += "(" + node.detail + ")";
  *out += " [rows~" + FormatEst(node.rows) + " cost~" + FormatEst(node.cost) +
          "]";
  for (const Node& child : node.children) {
    *out += "\n";
    RenderNode(child, depth + 1, out);
  }
}

std::string PredicateLabel(const std::string& column, exec::CompareOp op,
                           const model::Value& literal) {
  return column + " " + exec::CompareOpName(op) + " " + literal.AsString();
}

// ----------------------------------------------------------- logical phase

// A predicate pushed down onto one table, in that table's full schema.
struct LocalPredicate {
  int column = -1;
  exec::CompareOp op = exec::CompareOp::kEq;
  model::Value literal;
  double selectivity = 1.0;
};

struct TableLogical {
  std::vector<LocalPredicate> predicates;  // folded
  bool contradiction = false;
};

struct RangeBound {
  model::Value value;
  bool strict = false;
};

// Folds the conjuncts on one (table, column): duplicate equalities
// collapse, ranges tighten to the narrowest interval, conjuncts implied by
// an equality drop, and unsatisfiable combinations mark the table
// contradictory. Literal-vs-literal decisions use Value::Compare — the same
// total order Predicate::Eval applies at runtime — so folding can never
// disagree with execution. CONTAINS conjuncts pass through untouched.
void FoldColumn(
    int column,
    const std::vector<std::pair<exec::CompareOp, model::Value>>& conjuncts,
    TableLogical* out) {
  std::optional<model::Value> eq;
  std::optional<RangeBound> lo;
  std::optional<RangeBound> hi;
  std::vector<model::Value> nes;
  for (const auto& [op, literal] : conjuncts) {
    if (literal.is_null() && op != exec::CompareOp::kContains) {
      // No value satisfies a comparison against NULL.
      out->contradiction = true;
      return;
    }
    switch (op) {
      case exec::CompareOp::kEq:
        if (eq.has_value() && eq->Compare(literal) != 0) {
          out->contradiction = true;
          return;
        }
        eq = literal;
        break;
      case exec::CompareOp::kGt:
      case exec::CompareOp::kGe: {
        const bool strict = op == exec::CompareOp::kGt;
        const int cmp = lo.has_value() ? literal.Compare(lo->value) : 1;
        if (cmp > 0 || (cmp == 0 && strict)) lo = RangeBound{literal, strict};
        break;
      }
      case exec::CompareOp::kLt:
      case exec::CompareOp::kLe: {
        const bool strict = op == exec::CompareOp::kLt;
        const int cmp = hi.has_value() ? literal.Compare(hi->value) : -1;
        if (cmp < 0 || (cmp == 0 && strict)) hi = RangeBound{literal, strict};
        break;
      }
      case exec::CompareOp::kNe: {
        const bool dup = std::any_of(
            nes.begin(), nes.end(),
            [&](const model::Value& v) { return v.Compare(literal) == 0; });
        if (!dup) nes.push_back(literal);
        break;
      }
      case exec::CompareOp::kContains:
        out->predicates.push_back(
            LocalPredicate{column, op, literal});
        break;
    }
  }
  if (eq.has_value()) {
    if (lo.has_value()) {
      const int cmp = eq->Compare(lo->value);
      if (!(cmp > 0 || (cmp == 0 && !lo->strict))) {
        out->contradiction = true;
        return;
      }
    }
    if (hi.has_value()) {
      const int cmp = eq->Compare(hi->value);
      if (!(cmp < 0 || (cmp == 0 && !hi->strict))) {
        out->contradiction = true;
        return;
      }
    }
    for (const model::Value& ne : nes) {
      if (eq->Compare(ne) == 0) {
        out->contradiction = true;
        return;
      }
    }
    // Ranges and inequalities are implied by the equality: drop them.
    out->predicates.push_back(
        LocalPredicate{column, exec::CompareOp::kEq, *eq});
    return;
  }
  if (lo.has_value() && hi.has_value()) {
    const int cmp = lo->value.Compare(hi->value);
    if (cmp > 0 || (cmp == 0 && (lo->strict || hi->strict))) {
      out->contradiction = true;
      return;
    }
  }
  if (lo.has_value()) {
    out->predicates.push_back(LocalPredicate{
        column, lo->strict ? exec::CompareOp::kGt : exec::CompareOp::kGe,
        lo->value});
  }
  if (hi.has_value()) {
    out->predicates.push_back(LocalPredicate{
        column, hi->strict ? exec::CompareOp::kLt : exec::CompareOp::kLe,
        hi->value});
  }
  for (model::Value& ne : nes) {
    out->predicates.push_back(
        LocalPredicate{column, exec::CompareOp::kNe, std::move(ne)});
  }
}

// ---------------------------------------------------------- physical phase

struct TablePhysical {
  std::shared_ptr<const TableStats> stats;
  double base_rows = 0;
  double est_rows = 0;    // after every local predicate
  double fetch_rows = 0;  // rows the chosen access path fetches
  double access_cost = 0;
  int access_predicate = -1;  // into TableLogical::predicates; -1 = scan
};

struct JoinStep {
  enum class Method { kHash, kInlj, kSortMerge };
  int table = -1;          // newly attached table (textual index)
  int placed_table = -1;   // key owner on the intermediate side
  int placed_column = -1;  // full-schema index in placed_table
  int new_column = -1;     // full-schema index in `table`
  Method method = Method::kHash;
  double est_out = 0;
  double matched = 0;  // pre-residual-filter rows (INLJ)
  double cost = 0;
};

struct Optimized {
  std::vector<const Table*> tables;
  std::vector<BoundJoin> joins;
  std::vector<TableLogical> locals;
  bool contradiction = false;
  std::vector<TablePhysical> phys;
  int driver = 0;
  std::vector<JoinStep> steps;  // in execution order
  bool all_hash = true;
  bool elide_sort = false;  // final ORDER BY absorbed by a sort-merge join
  std::vector<BoundTable> bound;
};

double NdvOf(const TablePhysical& phys, int column, const CostParams& params) {
  const ColumnStats* stats =
      phys.stats == nullptr ? nullptr : phys.stats->Column(column);
  return stats != nullptr && stats->ndv > 0 ? static_cast<double>(stats->ndv)
                                            : params.default_ndv;
}

// Whether the single-key ascending ORDER BY (with no aggregate and no
// LIMIT) resolves to full-schema column `(table, column)` — if a final
// sort-merge join keys on it, the output already carries the order.
struct OrderTarget {
  bool eligible = false;
  int table = -1;
  int column = -1;
};

OrderTarget ResolveOrderTarget(const SelectStatement& stmt,
                               const NameResolver& full_resolver,
                               const std::vector<BoundTable>& full_bound) {
  OrderTarget target;
  const bool has_aggregate =
      !stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const SelectItem& item) {
                    return item.kind == SelectItem::Kind::kAggregate;
                  });
  if (has_aggregate || stmt.limit.has_value() || stmt.order_by.size() != 1 ||
      !stmt.order_by[0].ascending) {
    return target;
  }
  const auto [table, kept] = full_resolver.Locate(stmt.order_by[0].column);
  if (table < 0) return target;
  target.eligible = true;
  target.table = table;
  target.column = full_bound[table].kept[kept];
  return target;
}

Result<Optimized> Optimize(const SelectStatement& stmt, const Catalog& catalog,
                           TableStatsCache* cache, const CostParams& params) {
  Optimized opt;
  IMPLIANCE_ASSIGN_OR_RETURN(opt.tables, BindTables(stmt, catalog));
  IMPLIANCE_ASSIGN_OR_RETURN(opt.joins, BindJoins(stmt, opt.tables));

  // Full-schema bound tables give predicate ownership the same
  // first-occurrence-wins resolution SimplePlanner applies post-join.
  std::vector<BoundTable> full_bound;
  for (const Table* table : opt.tables) {
    std::vector<int> all(table->schema().size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
    full_bound.push_back(MakeBoundTable(table, std::move(all)));
  }
  const NameResolver full_resolver(&full_bound);

  // --- logical phase: push every conjunct onto its table and fold.
  std::map<std::pair<int, int>,
           std::vector<std::pair<exec::CompareOp, model::Value>>>
      groups;
  for (const WhereClause& clause : stmt.where) {
    const auto [table, column] = full_resolver.Locate(clause.column);
    if (table < 0) {
      return Status::InvalidArgument("unknown column in WHERE: " +
                                     clause.column);
    }
    groups[{table, column}].emplace_back(clause.op, clause.literal);
  }
  opt.locals.resize(opt.tables.size());
  for (const auto& [key, conjuncts] : groups) {
    FoldColumn(key.second, conjuncts, &opt.locals[key.first]);
    if (opt.locals[key.first].contradiction) opt.contradiction = true;
  }
  if (opt.contradiction) {
    opt.bound = BindColumns(stmt, opt.tables, opt.joins,
                            std::vector<bool>(opt.tables.size(), false));
    return opt;
  }

  // --- physical phase: statistics, selectivities, access paths.
  opt.phys.resize(opt.tables.size());
  for (size_t t = 0; t < opt.tables.size(); ++t) {
    TablePhysical& phys = opt.phys[t];
    TableLogical& local = opt.locals[t];
    phys.stats = cache->Get(*opt.tables[t]);
    phys.base_rows = static_cast<double>(phys.stats->row_count);
    double est = phys.base_rows;
    for (LocalPredicate& pred : local.predicates) {
      pred.selectivity = EstimateSelectivity(
          phys.stats->Column(pred.column), pred.op, pred.literal, params);
      est *= pred.selectivity;
    }
    phys.est_rows = est;
    phys.fetch_rows = phys.base_rows;
    phys.access_cost = phys.base_rows * params.scan_row;
    // Zone-mapped backends skip blocks their scan hints refute, so a
    // selective eq/range predicate makes the full scan proportionally
    // cheaper (floored: skipping is best-case-clustered, not guaranteed).
    if (opt.tables[t]->SupportsZoneMapSkipping()) {
      double best = 1.0;
      for (const LocalPredicate& pred : local.predicates) {
        if (pred.op != exec::CompareOp::kEq && !IsRangeOp(pred.op)) continue;
        best = std::min(best, pred.selectivity);
      }
      phys.access_cost *= std::max(best, params.zone_map_min_fraction);
    }
    for (size_t i = 0; i < local.predicates.size(); ++i) {
      const LocalPredicate& pred = local.predicates[i];
      if (pred.op != exec::CompareOp::kEq && !IsRangeOp(pred.op)) continue;
      if (!opt.tables[t]->HasIndexOn(pred.column)) continue;
      const double fetch = phys.base_rows * pred.selectivity;
      const double cost = fetch * params.index_row;
      if (cost < phys.access_cost) {
        phys.access_cost = cost;
        phys.fetch_rows = fetch;
        phys.access_predicate = static_cast<int>(i);
      }
    }
  }

  // --- greedy join ordering: smallest filtered table first, then always
  // attach the partner minimizing the estimated intermediate cardinality.
  const size_t n = opt.tables.size();
  opt.driver = 0;
  for (size_t t = 1; t < n; ++t) {
    if (opt.phys[t].est_rows < opt.phys[opt.driver].est_rows) {
      opt.driver = static_cast<int>(t);
    }
  }
  std::vector<bool> placed(n, false);
  std::vector<bool> used(opt.joins.size(), false);
  placed[opt.driver] = true;
  double current = opt.phys[opt.driver].est_rows;
  while (opt.steps.size() < opt.joins.size()) {
    int best_edge = -1;
    JoinStep best;
    for (size_t e = 0; e < opt.joins.size(); ++e) {
      if (used[e]) continue;
      const BoundJoin& edge = opt.joins[e];
      JoinStep step;
      if (placed[edge.left_table] && !placed[edge.right_table]) {
        step.table = edge.right_table;
        step.placed_table = edge.left_table;
        step.placed_column = edge.left_column;
        step.new_column = edge.right_column;
      } else if (placed[edge.right_table] && !placed[edge.left_table]) {
        step.table = edge.left_table;
        step.placed_table = edge.right_table;
        step.placed_column = edge.right_column;
        step.new_column = edge.left_column;
      } else {
        continue;
      }
      step.est_out = EstimateJoinRows(
          current, opt.phys[step.table].est_rows,
          NdvOf(opt.phys[step.placed_table], step.placed_column, params),
          NdvOf(opt.phys[step.table], step.new_column, params));
      if (best_edge < 0 || step.est_out < best.est_out ||
          (step.est_out == best.est_out && step.table < best.table)) {
        best_edge = static_cast<int>(e);
        best = step;
      }
    }
    if (best_edge < 0) {
      return Status::InvalidArgument("join graph is disconnected");
    }
    used[best_edge] = true;
    placed[best.table] = true;
    current = best.est_out;
    opt.steps.push_back(best);
  }

  // --- join methods, walking the chosen chain.
  const OrderTarget order_target =
      ResolveOrderTarget(stmt, full_resolver, full_bound);
  double left_rows = opt.phys[opt.driver].est_rows;
  for (size_t s = 0; s < opt.steps.size(); ++s) {
    JoinStep& step = opt.steps[s];
    const TablePhysical& phys = opt.phys[step.table];
    const double ndv_placed =
        NdvOf(opt.phys[step.placed_table], step.placed_column, params);
    const double ndv_new = NdvOf(phys, step.new_column, params);
    step.matched =
        EstimateJoinRows(left_rows, phys.base_rows, ndv_placed, ndv_new);

    step.method = JoinStep::Method::kHash;
    step.cost = phys.access_cost + phys.est_rows * params.hash_build_row +
                left_rows * params.hash_probe_row;
    if (opt.tables[step.table]->HasIndexOn(step.new_column)) {
      const double inlj_cost = left_rows * params.index_probe +
                               step.matched * params.index_row;
      if (inlj_cost < step.cost) {
        step.method = JoinStep::Method::kInlj;
        step.cost = inlj_cost;
      }
    }
    // Sort-merge on the last join when it would absorb the final ORDER BY.
    const bool last = s + 1 == opt.steps.size();
    if (last && order_target.eligible &&
        ((order_target.table == step.placed_table &&
          order_target.column == step.placed_column) ||
         (order_target.table == step.table &&
          order_target.column == step.new_column))) {
      const double smj_cost = phys.access_cost + SortCost(left_rows, params) +
                              SortCost(phys.est_rows, params) +
                              (left_rows + phys.est_rows) * params.scan_row;
      const double rival_with_sort = step.cost + SortCost(step.est_out, params);
      if (smj_cost < rival_with_sort) {
        step.method = JoinStep::Method::kSortMerge;
        step.cost = smj_cost;
        opt.elide_sort = true;
      }
    }
    left_rows = step.est_out;
  }

  for (const JoinStep& step : opt.steps) {
    if (step.method != JoinStep::Method::kHash) opt.all_hash = false;
  }

  // Index lookups return full rows: IndexedNLJoin targets stay unpruned.
  std::vector<bool> keep_all(n, false);
  for (const JoinStep& step : opt.steps) {
    if (step.method == JoinStep::Method::kInlj) keep_all[step.table] = true;
  }
  opt.bound = BindColumns(stmt, opt.tables, opt.joins, keep_all);
  return opt;
}

// ----------------------------------------------------------- plan building

// One table's access path: an index fetch (pruned rows) or a scan leaf
// carrying every local predicate as a hint, plus the local predicates its
// rows still have to pass, over the leaf's schema.
struct Access {
  exec::OperatorPtr leaf;
  std::vector<exec::Predicate> residual;

  // The leaf with a Filter of the residual predicates above it.
  exec::OperatorPtr Filtered() && {
    if (residual.empty()) return std::move(leaf);
    return std::make_unique<exec::FilterOp>(std::move(leaf),
                                            std::move(residual));
  }
};

// `node` (optional; the parallel path has no explain tree) receives the
// access (+ filter) subtree.
Access BuildAccess(const Optimized& opt, int t, Node* node) {
  const TablePhysical& phys = opt.phys[t];
  const TableLogical& local = opt.locals[t];
  const BoundTable& bound = opt.bound[t];
  const Table* table = opt.tables[t];

  Access access;
  bool consumed = false;
  if (phys.access_predicate >= 0) {
    const LocalPredicate& pred = local.predicates[phys.access_predicate];
    const std::string& column_name = table->schema().columns[pred.column];
    IndexFetch fetch = FetchViaIndex(table, column_name, pred.column, pred.op,
                                     pred.literal);
    consumed = fetch.consumed;
    access.leaf = FetchedRowsOp(bound, std::move(fetch.rows));
    if (node != nullptr) {
      *node = Node{pred.op == exec::CompareOp::kEq ? "IndexLookup"
                                                   : "IndexRange",
                   table->table_name() + "." + column_name, phys.fetch_rows,
                   phys.access_cost,
                   {}};
    }
  } else {
    // Every local predicate rides along as a scan hint: zone-mapped
    // backends skip refuted blocks, everyone else ignores them. The
    // residual Filter above re-applies all of them either way.
    std::vector<exec::Predicate> hints;
    for (const LocalPredicate& pred : local.predicates) {
      hints.push_back(exec::Predicate{pred.column, pred.op, pred.literal});
    }
    if (node != nullptr) {
      *node = Node{table->SupportsZoneMapSkipping() && !hints.empty()
                       ? "ColumnarScan"
                       : "Scan",
                   table->table_name(), phys.fetch_rows, phys.access_cost,
                   {}};
    }
    access.leaf = table->ScanBatches(bound.kept, std::move(hints));
  }

  std::string label;
  for (size_t i = 0; i < local.predicates.size(); ++i) {
    if (consumed && static_cast<int>(i) == phys.access_predicate) continue;
    const LocalPredicate& pred = local.predicates[i];
    access.residual.push_back(exec::Predicate{bound.KeptIndexOf(pred.column),
                                              pred.op, pred.literal});
    if (node == nullptr) continue;
    if (!label.empty()) label += " AND ";
    label += PredicateLabel(table->schema().columns[pred.column], pred.op,
                            pred.literal);
  }
  if (node != nullptr && !access.residual.empty()) {
    Node filter{"Filter", label, phys.est_rows,
                phys.fetch_rows * 0.1 *
                    static_cast<double>(access.residual.size()),
                {}};
    filter.children.push_back(std::move(*node));
    *node = std::move(filter);
  }
  return access;
}

// Combined-layout bookkeeping while the join chain is assembled: position
// of each (table, full column) pair in the current row layout.
class Layout {
 public:
  void Append(int table, int column) { slots_.emplace_back(table, column); }
  void AppendTable(const BoundTable& bound, int table) {
    for (int column : bound.kept) Append(table, column);
  }
  int PositionOf(int table, int column) const {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i] == std::make_pair(table, column)) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
  size_t size() const { return slots_.size(); }

 private:
  std::vector<std::pair<int, int>> slots_;
};

// Select-list / aggregate / order-limit operators with explain nodes.
// `group_ndv` estimates the distinct count of a combined-schema column for
// aggregate output sizing.
struct UpperBuild {
  exec::OperatorPtr plan;
  Node node;
};

UpperBuild BuildUpperWithNodes(const UpperPlanSpec& spec,
                               exec::OperatorPtr plan, Node node, double rows,
                               const std::function<double(int)>& group_ndv,
                               const CostParams& params) {
  if (spec.has_aggregate) {
    double groups = 1.0;
    for (int column : spec.group_columns) groups *= group_ndv(column);
    groups = std::min(groups, std::max(rows, 1.0));
    Node agg{"HashAggregate",
             "groups=" + std::to_string(spec.group_columns.size()) +
                 ", aggs=" + std::to_string(spec.aggregates.size()),
             groups, rows * params.scan_row,
             {}};
    agg.children.push_back(std::move(node));
    node = std::move(agg);
    plan = std::make_unique<exec::HashAggregateOp>(
        std::move(plan), spec.group_columns, spec.aggregates);
    rows = groups;
  }
  if (spec.project) {
    std::string names;
    for (const std::string& name : spec.project_names) {
      if (!names.empty()) names += ", ";
      names += name;
    }
    Node project{"Project", names, rows, 0, {}};
    project.children.push_back(std::move(node));
    node = std::move(project);
    plan = std::make_unique<exec::ProjectOp>(
        std::move(plan), spec.project_columns, spec.project_names);
  }
  if (!spec.sort_keys.empty()) {
    if (spec.limit.has_value()) {
      const double k = static_cast<double>(*spec.limit);
      Node top{"TopK", "k=" + std::to_string(*spec.limit), std::min(rows, k),
               rows * std::log2(std::max(k, 2.0)) * params.sort_row,
               {}};
      top.children.push_back(std::move(node));
      node = std::move(top);
      plan = std::make_unique<exec::TopKOp>(std::move(plan), spec.sort_keys,
                                            *spec.limit);
    } else {
      Node sort{"Sort", "", rows, SortCost(rows, params), {}};
      sort.children.push_back(std::move(node));
      node = std::move(sort);
      plan = std::make_unique<exec::SortOp>(std::move(plan), spec.sort_keys);
    }
  } else if (spec.limit.has_value()) {
    const double k = static_cast<double>(*spec.limit);
    Node limit{"Limit", std::to_string(*spec.limit), std::min(rows, k), 0, {}};
    limit.children.push_back(std::move(node));
    node = std::move(limit);
    plan = std::make_unique<exec::LimitOp>(std::move(plan), *spec.limit);
  }
  return UpperBuild{std::move(plan), std::move(node)};
}

exec::Schema CombinedSchema(const NameResolver& resolver) {
  exec::Schema schema;
  for (size_t i = 0; i < resolver.size(); ++i) {
    schema.AddColumn(resolver.NameAt(static_cast<int>(i)));
  }
  return schema;
}

}  // namespace

Result<PlanResult> CostAwarePlanner::Plan(const SelectStatement& stmt,
                                          const Catalog& catalog) {
  IMPLIANCE_ASSIGN_OR_RETURN(Optimized opt,
                             Optimize(stmt, catalog, stats_, params_));
  const NameResolver resolver(&opt.bound);
  IMPLIANCE_ASSIGN_OR_RETURN(
      UpperPlanSpec spec,
      ResolveUpper(stmt, resolver, /*consumed_predicates=*/{},
                   /*filter_order=*/{}, /*adaptive_filter=*/false));

  // Maps a combined-schema position to the NDV of its backing column.
  auto group_ndv = [&](int combined) {
    int t = 0;
    while (t + 1 < static_cast<int>(opt.bound.size()) &&
           resolver.Offset(t + 1) <= combined) {
      ++t;
    }
    if (opt.phys.empty()) return params_.default_ndv;
    const int column = opt.bound[t].kept[combined - resolver.Offset(t)];
    return NdvOf(opt.phys[t], column, params_);
  };

  if (opt.contradiction) {
    Node empty{"EmptyResult", "contradictory WHERE clauses", 0, 0, {}};
    exec::OperatorPtr plan = std::make_unique<exec::RowSourceOp>(
        CombinedSchema(resolver), std::vector<exec::Row>{});
    UpperBuild upper = BuildUpperWithNodes(spec, std::move(plan),
                                           std::move(empty), 0, group_ndv,
                                           params_);
    std::string text;
    RenderNode(upper.node, 0, &text);
    std::vector<ExplainNode> nodes;
    FlattenNode(upper.node, 0, &nodes);
    return PlanResult{std::move(upper.plan), std::move(text),
                      std::move(nodes)};
  }

  if (opt.elide_sort) spec.sort_keys.clear();

  // Driver access.
  Node chain_node;
  exec::OperatorPtr plan =
      BuildAccess(opt, opt.driver, &chain_node).Filtered();
  Layout layout;
  layout.AppendTable(opt.bound[opt.driver], opt.driver);
  double rows = opt.phys[opt.driver].est_rows;

  // Join chain in the optimized order.
  for (const JoinStep& step : opt.steps) {
    const BoundTable& right = opt.bound[step.table];
    const Table* right_table = opt.tables[step.table];
    const int left_key = layout.PositionOf(step.placed_table,
                                           step.placed_column);
    const std::string key_label =
        right_table->table_name() + "." +
        right_table->schema().columns[step.new_column];
    if (step.method == JoinStep::Method::kInlj) {
      const TableLogical& local = opt.locals[step.table];
      plan = std::make_unique<exec::IndexedNLJoinOp>(
          std::move(plan), left_key,
          MakeIndexLookup(right_table, step.new_column),
          right_table->schema());
      Node join{"IndexedNLJoin", key_label,
                local.predicates.empty() ? step.est_out : step.matched,
                step.cost,
                {}};
      join.children.push_back(std::move(chain_node));
      join.children.push_back(
          Node{"IndexProbe", key_label, step.matched, 0, {}});
      chain_node = std::move(join);
      layout.AppendTable(right, step.table);
      // The lookup returns unfiltered rows; the table's local predicates
      // become a post-join residual filter.
      if (!local.predicates.empty()) {
        std::vector<exec::Predicate> residual;
        std::string label;
        for (const LocalPredicate& pred : local.predicates) {
          residual.push_back(
              exec::Predicate{layout.PositionOf(step.table, pred.column),
                              pred.op, pred.literal});
          if (!label.empty()) label += " AND ";
          label += PredicateLabel(
              right_table->schema().columns[pred.column], pred.op,
              pred.literal);
        }
        plan = std::make_unique<exec::FilterOp>(std::move(plan), residual,
                                                /*adaptive=*/false);
        Node filter{"Filter", label, step.est_out,
                    step.matched * 0.1 *
                        static_cast<double>(residual.size()),
                    {}};
        filter.children.push_back(std::move(chain_node));
        chain_node = std::move(filter);
      }
    } else {
      Node build_node;
      exec::OperatorPtr build =
          BuildAccess(opt, step.table, &build_node).Filtered();
      const int right_key = right.KeptIndexOf(step.new_column);
      Node join;
      if (step.method == JoinStep::Method::kSortMerge) {
        plan = std::make_unique<exec::SortMergeJoinOp>(
            std::move(plan), std::move(build), left_key, right_key);
        join = Node{"SortMergeJoin",
                    "key=" + key_label +
                        (opt.elide_sort ? ", emits ORDER BY order" : ""),
                    step.est_out, step.cost,
                    {}};
      } else {
        plan = std::make_unique<exec::HashJoinOp>(
            std::move(plan), std::move(build), left_key, right_key);
        join = Node{"HashJoin", "build=" + right_table->table_name(),
                    step.est_out, step.cost,
                    {}};
      }
      join.children.push_back(std::move(chain_node));
      join.children.push_back(std::move(build_node));
      chain_node = std::move(join);
      layout.AppendTable(right, step.table);
    }
    rows = step.est_out;
  }

  // Restore the textual column layout when the join order permuted it, so
  // the (shared) upper resolution stays planner-independent.
  std::vector<int> perm;
  std::vector<std::string> perm_names;
  bool identity = true;
  for (size_t t = 0; t < opt.bound.size(); ++t) {
    for (size_t i = 0; i < opt.bound[t].kept.size(); ++i) {
      const int pos =
          layout.PositionOf(static_cast<int>(t), opt.bound[t].kept[i]);
      if (pos != static_cast<int>(perm.size())) identity = false;
      perm.push_back(pos);
      perm_names.push_back(opt.bound[t].schema.columns[i]);
    }
  }
  if (!identity) {
    plan = std::make_unique<exec::ProjectOp>(std::move(plan), perm,
                                             perm_names);
    Node reorder{"Reorder", "textual column layout", rows, 0, {}};
    reorder.children.push_back(std::move(chain_node));
    chain_node = std::move(reorder);
  }

  UpperBuild upper = BuildUpperWithNodes(spec, std::move(plan),
                                         std::move(chain_node), rows,
                                         group_ndv, params_);
  std::string text;
  RenderNode(upper.node, 0, &text);
  std::vector<ExplainNode> nodes;
  FlattenNode(upper.node, 0, &nodes);
  return PlanResult{std::move(upper.plan), std::move(text), std::move(nodes)};
}

Result<std::optional<ParallelPlan>> CostAwarePlanner::PlanParallel(
    const SelectStatement& stmt, const Catalog& catalog) {
  IMPLIANCE_ASSIGN_OR_RETURN(Optimized opt,
                             Optimize(stmt, catalog, stats_, params_));
  // Contradictions are trivially cheap serially; indexed-NL and sort-merge
  // shapes stay serial (streaming / ordered-output benefits).
  if (opt.contradiction || !opt.all_hash) {
    return std::optional<ParallelPlan>();
  }
  const NameResolver resolver(&opt.bound);
  IMPLIANCE_ASSIGN_OR_RETURN(
      UpperPlanSpec spec,
      ResolveUpper(stmt, resolver, /*consumed_predicates=*/{},
                   /*filter_order=*/{}, /*adaptive_filter=*/false));

  ParallelPlan parallel;
  Access driver = BuildAccess(opt, opt.driver, /*node=*/nullptr);
  parallel.segment.source = std::move(driver.leaf);

  Layout layout;
  layout.AppendTable(opt.bound[opt.driver], opt.driver);

  // Build sides are built once when the segment runs, then probed from
  // every worker.
  std::vector<planning::SharedProbe> probes;
  for (const JoinStep& step : opt.steps) {
    const BoundTable& right = opt.bound[step.table];
    auto table = std::make_shared<exec::JoinHashTable>(
        right.schema, right.KeptIndexOf(step.new_column));
    parallel.segment.builds.push_back(
        {BuildAccess(opt, step.table, /*node=*/nullptr).Filtered(), table});
    probes.push_back(planning::SharedProbe{
        std::move(table),
        layout.PositionOf(step.placed_table, step.placed_column)});
    layout.AppendTable(right, step.table);
  }

  // Restore the textual layout inside the pipeline when reordered; an
  // identity permutation is left out.
  std::vector<int> perm;
  std::vector<std::string> perm_names;
  bool identity = true;
  for (size_t t = 0; t < opt.bound.size(); ++t) {
    for (size_t i = 0; i < opt.bound[t].kept.size(); ++i) {
      const int pos =
          layout.PositionOf(static_cast<int>(t), opt.bound[t].kept[i]);
      if (pos != static_cast<int>(perm.size())) identity = false;
      perm.push_back(pos);
      perm_names.push_back(opt.bound[t].schema.columns[i]);
    }
  }
  if (identity) {
    perm.clear();
    perm_names.clear();
  }

  planning::AttachParallelUpper(spec, std::move(driver.residual),
                                std::move(probes), std::move(perm),
                                std::move(perm_names), &parallel);
  return std::optional<ParallelPlan>(std::move(parallel));
}

}  // namespace impliance::query::opt
