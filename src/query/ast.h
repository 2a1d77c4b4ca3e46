#ifndef IMPLIANCE_QUERY_AST_H_
#define IMPLIANCE_QUERY_AST_H_

#include <optional>
#include <string>
#include <vector>

#include "exec/operators.h"
#include "exec/predicate.h"
#include "model/value.h"

namespace impliance::query {

// Abstract syntax of the supported SQL subset:
//
//   SELECT <item> [, <item>]*
//   FROM <table>
//   [JOIN <table> ON <col> = <col>]*
//   [WHERE <col> <op> <literal> [AND ...]*]
//   [GROUP BY <col> [, <col>]*]
//   [ORDER BY <col|alias> [ASC|DESC] [, ...]*]
//   [LIMIT <n>]
//
// Column references may be qualified ("orders.total") or bare ("total").

struct SelectItem {
  enum class Kind { kColumn, kAggregate, kStar };
  Kind kind = Kind::kColumn;
  std::string column;             // empty for COUNT(*) / kStar
  exec::AggFn agg_fn = exec::AggFn::kCount;
  std::string alias;              // output name; defaults derived
};

struct JoinClause {
  std::string table;
  std::string left_column;   // from an earlier table (or qualified)
  std::string right_column;  // from the JOIN table
};

struct WhereClause {
  std::string column;
  exec::CompareOp op = exec::CompareOp::kEq;
  model::Value literal;
};

struct OrderItem {
  std::string column;  // may reference an output alias
  bool ascending = true;
};

struct SelectStatement {
  std::vector<SelectItem> items;
  std::string table;
  std::vector<JoinClause> joins;  // left-deep, in textual order
  std::vector<WhereClause> where;  // conjunctive
  std::vector<std::string> group_by;
  std::vector<OrderItem> order_by;
  std::optional<size_t> limit;

  // Every table the statement names: FROM's, then each join's.
  std::vector<std::string> TableNames() const {
    std::vector<std::string> names = {table};
    for (const JoinClause& join : joins) names.push_back(join.table);
    return names;
  }
};

}  // namespace impliance::query

#endif  // IMPLIANCE_QUERY_AST_H_
