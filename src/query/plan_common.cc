#include "query/plan_common.h"

#include <algorithm>

namespace impliance::query::planning {

bool IsRangeOp(exec::CompareOp op) {
  return op == exec::CompareOp::kLt || op == exec::CompareOp::kLe ||
         op == exec::CompareOp::kGt || op == exec::CompareOp::kGe;
}

int ResolveInTable(const Table* table, const std::string& name) {
  std::string bare = name;
  const std::string prefix = table->table_name() + ".";
  if (bare.rfind(prefix, 0) == 0) bare = bare.substr(prefix.size());
  if (bare.find('.') != std::string::npos) return -1;  // other qualifier
  return table->schema().IndexOf(bare);
}

int BoundTable::KeptIndexOf(int column) const {
  for (size_t i = 0; i < kept.size(); ++i) {
    if (kept[i] == column) return static_cast<int>(i);
  }
  return -1;
}

BoundTable MakeBoundTable(const Table* table, std::vector<int> kept) {
  BoundTable bound;
  bound.table = table;
  bound.kept = std::move(kept);
  for (int column : bound.kept) {
    bound.schema.AddColumn(table->schema().columns[column]);
  }
  return bound;
}

Result<std::vector<const Table*>> BindTables(const SelectStatement& stmt,
                                             const Catalog& catalog) {
  std::vector<const Table*> tables;
  for (const std::string& name : stmt.TableNames()) {
    const Table* table = catalog.Lookup(name);
    if (table == nullptr) return Status::NotFound("unknown table: " + name);
    tables.push_back(table);
  }
  return tables;
}

Result<std::vector<BoundJoin>> BindJoins(
    const SelectStatement& stmt, const std::vector<const Table*>& tables) {
  std::vector<BoundJoin> joins;
  for (size_t i = 0; i < stmt.joins.size(); ++i) {
    const JoinClause& clause = stmt.joins[i];
    const int right = static_cast<int>(i) + 1;
    BoundJoin bound;
    bound.right_table = right;
    // Try both orientations of the ON clause against every earlier table,
    // in textual order.
    for (int left = 0; left < right && bound.left_column < 0; ++left) {
      int lk = ResolveInTable(tables[left], clause.left_column);
      int rk = ResolveInTable(tables[right], clause.right_column);
      if (lk < 0 || rk < 0) {
        lk = ResolveInTable(tables[left], clause.right_column);
        rk = ResolveInTable(tables[right], clause.left_column);
      }
      if (lk >= 0 && rk >= 0) {
        bound.left_table = left;
        bound.left_column = lk;
        bound.right_column = rk;
      }
    }
    if (bound.left_column < 0 || bound.right_column < 0) {
      return Status::InvalidArgument("cannot resolve join columns " +
                                     clause.left_column + " = " +
                                     clause.right_column);
    }
    joins.push_back(bound);
  }
  return joins;
}

std::vector<BoundTable> BindColumns(const SelectStatement& stmt,
                                    const std::vector<const Table*>& tables,
                                    const std::vector<BoundJoin>& joins,
                                    const std::vector<bool>& keep_all) {
  const bool star =
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const SelectItem& item) {
                    return item.kind == SelectItem::Kind::kStar;
                  });

  std::vector<std::set<int>> kept(tables.size());
  if (!star) {
    // Resolve every referenced name against the FULL combined schema, then
    // keep exactly the column each name binds to. This preserves
    // first-occurrence-wins for bare names that exist in several tables.
    std::vector<BoundTable> full;
    for (const Table* table : tables) {
      std::vector<int> all(table->schema().size());
      for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
      full.push_back(MakeBoundTable(table, std::move(all)));
    }
    NameResolver resolver(&full);
    auto keep = [&](const std::string& name) {
      const auto [table, column] = resolver.Locate(name);
      if (table >= 0) kept[table].insert(column);
    };
    for (const SelectItem& item : stmt.items) {
      if (!item.column.empty()) keep(item.column);
    }
    for (const WhereClause& clause : stmt.where) keep(clause.column);
    for (const std::string& column : stmt.group_by) keep(column);
    for (const OrderItem& item : stmt.order_by) keep(item.column);
    for (const BoundJoin& join : joins) {
      kept[join.left_table].insert(join.left_column);
      kept[join.right_table].insert(join.right_column);
    }
  }

  std::vector<BoundTable> bound;
  for (size_t t = 0; t < tables.size(); ++t) {
    std::vector<int> columns;
    if (star || (t < keep_all.size() && keep_all[t])) {
      columns.resize(tables[t]->schema().size());
      for (size_t i = 0; i < columns.size(); ++i) {
        columns[i] = static_cast<int>(i);
      }
    } else {
      columns.assign(kept[t].begin(), kept[t].end());  // sets are ascending
    }
    bound.push_back(MakeBoundTable(tables[t], std::move(columns)));
  }
  return bound;
}

exec::OperatorPtr FetchedRowsOp(const BoundTable& bound,
                                std::vector<exec::Row> rows) {
  if (bound.pruned()) {
    for (exec::Row& row : rows) {
      exec::Row pruned;
      pruned.reserve(bound.kept.size());
      for (int column : bound.kept) pruned.push_back(std::move(row[column]));
      row = std::move(pruned);
    }
  }
  return std::make_unique<exec::RowSourceOp>(bound.schema, std::move(rows));
}

NameResolver::NameResolver(const std::vector<BoundTable>* tables) {
  for (size_t t = 0; t < tables->size(); ++t) {
    const BoundTable& bound = (*tables)[t];
    offsets_.push_back(static_cast<int>(names_.size()));
    for (size_t i = 0; i < bound.schema.size(); ++i) {
      names_.push_back(bound.schema.columns[i]);
      qualified_.push_back(bound.table->table_name() + "." +
                           bound.schema.columns[i]);
      located_.emplace_back(static_cast<int>(t), static_cast<int>(i));
    }
  }
}

int NameResolver::Resolve(const std::string& name) const {
  for (size_t i = 0; i < qualified_.size(); ++i) {
    if (qualified_[i] == name) return static_cast<int>(i);
  }
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::pair<int, int> NameResolver::Locate(const std::string& name) const {
  const int index = Resolve(name);
  return index < 0 ? std::pair<int, int>{-1, -1} : located_[index];
}

Result<UpperPlanSpec> ResolveUpper(const SelectStatement& stmt,
                                   const NameResolver& resolver,
                                   const std::set<int>& consumed_predicates,
                                   const std::vector<int>& filter_order,
                                   bool adaptive_filter) {
  UpperPlanSpec spec;
  spec.adaptive_filter = adaptive_filter;
  spec.limit = stmt.limit;

  // Residual predicates.
  for (int index : filter_order) {
    if (consumed_predicates.count(index)) continue;
    const WhereClause& clause = stmt.where[index];
    const int column = resolver.Resolve(clause.column);
    if (column < 0) {
      return Status::InvalidArgument("unknown column in WHERE: " +
                                     clause.column);
    }
    spec.predicates.push_back(
        exec::Predicate{column, clause.op, clause.literal});
  }

  // The combined (post-join) input schema.
  exec::Schema input_schema;
  for (size_t i = 0; i < resolver.size(); ++i) {
    input_schema.AddColumn(resolver.NameAt(static_cast<int>(i)));
  }

  // Aggregation.
  spec.has_aggregate =
      !stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const SelectItem& item) {
                    return item.kind == SelectItem::Kind::kAggregate;
                  });
  exec::Schema pre_order_schema;  // schema ORDER BY resolves against
  if (spec.has_aggregate) {
    for (const std::string& column : stmt.group_by) {
      const int index = resolver.Resolve(column);
      if (index < 0) {
        return Status::InvalidArgument("unknown GROUP BY column: " + column);
      }
      spec.group_columns.push_back(index);
    }
    for (const SelectItem& item : stmt.items) {
      if (item.kind != SelectItem::Kind::kAggregate) continue;
      exec::AggSpec agg;
      agg.fn = item.agg_fn;
      agg.output_name = item.alias;
      if (!item.column.empty()) {
        agg.column = resolver.Resolve(item.column);
        if (agg.column < 0) {
          return Status::InvalidArgument("unknown aggregate column: " +
                                         item.column);
        }
      }
      spec.aggregates.push_back(std::move(agg));
    }
    const exec::Schema agg_schema = exec::GroupByAggregator::OutputSchema(
        input_schema, spec.group_columns, spec.aggregates);

    // Project the select list onto the aggregate's output order.
    spec.project = true;
    for (const SelectItem& item : stmt.items) {
      std::string wanted;
      if (item.kind == SelectItem::Kind::kAggregate) {
        wanted = item.alias;
      } else if (item.kind == SelectItem::Kind::kColumn) {
        // Must be a group-by column; match by bare name.
        wanted = item.column;
        size_t dot = wanted.rfind('.');
        if (dot != std::string::npos) wanted = wanted.substr(dot + 1);
      } else {
        return Status::InvalidArgument("SELECT * with aggregation");
      }
      const int index = agg_schema.IndexOf(wanted);
      if (index < 0) {
        return Status::InvalidArgument(
            "SELECT column not in GROUP BY or aggregates: " + wanted);
      }
      spec.project_columns.push_back(index);
      spec.project_names.push_back(item.alias.empty() ? wanted : item.alias);
    }
    pre_order_schema = exec::Schema(spec.project_names);
  } else {
    // Plain projection (unless SELECT *).
    const bool star = stmt.items.size() == 1 &&
                      stmt.items[0].kind == SelectItem::Kind::kStar;
    if (!star) {
      spec.project = true;
      for (const SelectItem& item : stmt.items) {
        const int index = resolver.Resolve(item.column);
        if (index < 0) {
          return Status::InvalidArgument("unknown SELECT column: " +
                                         item.column);
        }
        spec.project_columns.push_back(index);
        spec.project_names.push_back(
            item.alias.empty() ? resolver.NameAt(index) : item.alias);
      }
      pre_order_schema = exec::Schema(spec.project_names);
    } else {
      pre_order_schema = input_schema;
    }
  }

  // ORDER BY against the final output schema.
  for (const OrderItem& item : stmt.order_by) {
    int index = pre_order_schema.IndexOf(item.column);
    if (index < 0) {
      // Allow bare-name match against qualified select items.
      std::string bare = item.column;
      size_t dot = bare.rfind('.');
      if (dot != std::string::npos) {
        index = pre_order_schema.IndexOf(bare.substr(dot + 1));
      }
    }
    if (index < 0) {
      return Status::InvalidArgument("unknown ORDER BY column: " +
                                     item.column);
    }
    spec.sort_keys.push_back(exec::SortKey{index, item.ascending});
  }
  return spec;
}

namespace {

// ORDER BY / LIMIT as serial operators: a bounded top-k heap when both are
// present, else a full sort or a plain limit. `explain_lines` may be null.
exec::OperatorPtr AddOrderAndLimit(const UpperPlanSpec& spec,
                                   exec::OperatorPtr plan,
                                   std::vector<std::string>* explain_lines) {
  auto explain = [explain_lines](std::string line) {
    if (explain_lines != nullptr) explain_lines->push_back(std::move(line));
  };
  if (!spec.sort_keys.empty()) {
    if (spec.limit.has_value()) {
      explain("TopK(k=" + std::to_string(*spec.limit) + ")");
      return std::make_unique<exec::TopKOp>(std::move(plan), spec.sort_keys,
                                            *spec.limit);
    }
    explain("Sort");
    return std::make_unique<exec::SortOp>(std::move(plan), spec.sort_keys);
  }
  if (spec.limit.has_value()) {
    explain("Limit(" + std::to_string(*spec.limit) + ")");
    return std::make_unique<exec::LimitOp>(std::move(plan), *spec.limit);
  }
  return plan;
}

}  // namespace

exec::OperatorPtr BuildSerialUpper(const UpperPlanSpec& spec,
                                   exec::OperatorPtr plan,
                                   std::vector<std::string>* explain_lines) {
  if (!spec.predicates.empty()) {
    explain_lines->push_back(
        std::string(spec.adaptive_filter ? "AdaptiveFilter" : "Filter") + "(" +
        std::to_string(spec.predicates.size()) + " predicates)");
    plan = std::make_unique<exec::FilterOp>(std::move(plan), spec.predicates,
                                            spec.adaptive_filter);
  }
  if (spec.has_aggregate) {
    explain_lines->push_back(
        "HashAggregate(groups=" + std::to_string(spec.group_columns.size()) +
        ", aggs=" + std::to_string(spec.aggregates.size()) + ")");
    plan = std::make_unique<exec::HashAggregateOp>(
        std::move(plan), spec.group_columns, spec.aggregates);
  }
  if (spec.project) {
    plan = std::make_unique<exec::ProjectOp>(
        std::move(plan), spec.project_columns, spec.project_names);
  }
  return AddOrderAndLimit(spec, std::move(plan), explain_lines);
}

void AttachParallelUpper(const UpperPlanSpec& spec,
                         std::vector<exec::Predicate> source_filter,
                         std::vector<SharedProbe> probes,
                         std::vector<int> reorder,
                         std::vector<std::string> reorder_names,
                         ParallelPlan* parallel) {
  const bool project = !spec.has_aggregate && spec.project;
  parallel->segment.make_pipeline = [source_filter = std::move(source_filter),
                                     probes = std::move(probes),
                                     reorder = std::move(reorder),
                                     reorder_names = std::move(reorder_names),
                                     spec, project](exec::OperatorPtr op) {
    if (!source_filter.empty()) {
      op = std::make_unique<exec::FilterOp>(std::move(op), source_filter);
    }
    for (const SharedProbe& probe : probes) {
      op = std::make_unique<exec::HashProbeOp>(std::move(op), probe.table,
                                               probe.left_key);
    }
    if (!reorder.empty()) {
      op = std::make_unique<exec::ProjectOp>(std::move(op), reorder,
                                             reorder_names);
    }
    if (!spec.predicates.empty()) {
      op = std::make_unique<exec::FilterOp>(std::move(op), spec.predicates,
                                            spec.adaptive_filter);
    }
    if (project) {
      op = std::make_unique<exec::ProjectOp>(
          std::move(op), spec.project_columns, spec.project_names);
    }
    return op;
  };
  if (spec.has_aggregate) {
    parallel->segment.sink = exec::MorselPlan::Sink::kAggregate;
    parallel->segment.group_columns = spec.group_columns;
    parallel->segment.aggregates = spec.aggregates;
    // Post-aggregate select-list projection, then order/limit, run serially
    // on the merged groups.
    parallel->tail = [spec](exec::OperatorPtr source) {
      return AddOrderAndLimit(
          spec,
          std::make_unique<exec::ProjectOp>(
              std::move(source), spec.project_columns, spec.project_names),
          /*explain_lines=*/nullptr);
    };
  } else if (!spec.sort_keys.empty() && spec.limit.has_value()) {
    parallel->segment.sink = exec::MorselPlan::Sink::kTopK;
    parallel->segment.sort_keys = spec.sort_keys;
    parallel->segment.top_k = *spec.limit;
  } else {
    // Collected in morsel order; a sort or a limit runs on the merge.
    parallel->segment.sink = exec::MorselPlan::Sink::kCollect;
    if (!spec.sort_keys.empty() || spec.limit.has_value()) {
      parallel->tail = [spec](exec::OperatorPtr source) {
        return AddOrderAndLimit(spec, std::move(source),
                                /*explain_lines=*/nullptr);
      };
    }
  }
}

std::string RenderExplain(const std::vector<std::string>& lines) {
  // Lines were appended bottom-up; render root-first.
  std::string out;
  for (auto it = lines.rbegin(); it != lines.rend(); ++it) {
    if (!out.empty()) out += "\n";
    out += *it;
  }
  return out;
}

exec::IndexedNLJoinOp::LookupFn MakeIndexLookup(const Table* table,
                                                int column) {
  return [table, column](const model::Value& key) {
    return table->IndexLookup(column, key);
  };
}

IndexFetch FetchViaIndex(const Table* table, const std::string& display_name,
                         int column, exec::CompareOp op,
                         const model::Value& literal) {
  IndexFetch fetch;
  if (op == exec::CompareOp::kEq) {
    fetch.rows = table->IndexLookup(column, literal);
    fetch.description =
        "IndexLookup(" + table->table_name() + "." + display_name + ")";
    fetch.consumed = true;
    return fetch;
  }
  const model::Value* lo = nullptr;
  const model::Value* hi = nullptr;
  if (op == exec::CompareOp::kGt || op == exec::CompareOp::kGe) {
    lo = &literal;
  } else {
    hi = &literal;
  }
  fetch.rows = table->IndexRange(column, lo, hi);
  fetch.description =
      "IndexRange(" + table->table_name() + "." + display_name + ")";
  // Range via index is inclusive; strict bounds keep the predicate as a
  // residual filter (cheap, correct).
  fetch.consumed =
      op == exec::CompareOp::kGe || op == exec::CompareOp::kLe;
  return fetch;
}

}  // namespace impliance::query::planning
