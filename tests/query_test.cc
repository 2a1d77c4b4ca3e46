#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "index/facet_index.h"
#include "index/inverted_index.h"
#include "index/join_index.h"
#include "index/path_index.h"
#include "index/value_index.h"
#include "query/faceted.h"
#include "query/graph_query.h"
#include "query/opt/optimizer.h"
#include "query/opt/stats_cache.h"
#include "query/planner.h"
#include "query/sql_parser.h"
#include "query/table.h"

namespace impliance::query {
namespace {

using exec::CompareOp;
using exec::Row;
using model::Document;
using model::MakeRecordDocument;
using model::Value;

// ------------------------------------------------------------------ Parser

TEST(SqlParserTest, SimpleSelect) {
  auto stmt = ParseSql("SELECT name, age FROM people");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->items.size(), 2u);
  EXPECT_EQ(stmt->items[0].column, "name");
  EXPECT_EQ(stmt->table, "people");
  EXPECT_TRUE(stmt->where.empty());
}

TEST(SqlParserTest, StarAndLimit) {
  auto stmt = ParseSql("select * from t limit 7");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->items[0].kind, SelectItem::Kind::kStar);
  EXPECT_EQ(*stmt->limit, 7u);
}

TEST(SqlParserTest, WhereConjunction) {
  auto stmt = ParseSql(
      "SELECT * FROM orders WHERE total > 100 AND city = 'london' "
      "AND notes CONTAINS 'urgent' AND flag != true");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->where.size(), 4u);
  EXPECT_EQ(stmt->where[0].op, CompareOp::kGt);
  EXPECT_EQ(stmt->where[0].literal.int_value(), 100);
  EXPECT_EQ(stmt->where[1].literal.string_value(), "london");
  EXPECT_EQ(stmt->where[2].op, CompareOp::kContains);
  EXPECT_EQ(stmt->where[3].op, CompareOp::kNe);
}

TEST(SqlParserTest, JoinGroupOrder) {
  auto stmt = ParseSql(
      "SELECT city, COUNT(*), SUM(total) AS revenue FROM orders "
      "JOIN customers ON customer_id = customers.id "
      "WHERE total >= 10 GROUP BY city ORDER BY revenue DESC, city LIMIT 5");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->joins.size(), 1u);
  EXPECT_EQ(stmt->joins[0].table, "customers");
  EXPECT_EQ(stmt->joins[0].left_column, "customer_id");
  EXPECT_EQ(stmt->joins[0].right_column, "customers.id");
  EXPECT_EQ(stmt->group_by, (std::vector<std::string>{"city"}));
  ASSERT_EQ(stmt->order_by.size(), 2u);
  EXPECT_FALSE(stmt->order_by[0].ascending);
  EXPECT_TRUE(stmt->order_by[1].ascending);
  EXPECT_EQ(stmt->items[2].alias, "revenue");
  EXPECT_EQ(stmt->items[1].agg_fn, exec::AggFn::kCount);
}

TEST(SqlParserTest, MultipleJoins) {
  auto stmt = ParseSql(
      "SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->joins.size(), 2u);
  EXPECT_EQ(stmt->joins[0].table, "b");
  EXPECT_EQ(stmt->joins[0].left_column, "a.x");
  EXPECT_EQ(stmt->joins[1].table, "c");
  EXPECT_EQ(stmt->joins[1].left_column, "b.y");
  EXPECT_EQ(stmt->joins[1].right_column, "c.y");
}

TEST(SqlParserTest, QuotedStringEscapes) {
  auto stmt = ParseSql("SELECT * FROM t WHERE name = 'O''Brien'");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where[0].literal.string_value(), "O'Brien");
}

TEST(SqlParserTest, RejectsMalformed) {
  EXPECT_FALSE(ParseSql("").ok());
  EXPECT_FALSE(ParseSql("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT * WHERE x = 1").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t WHERE x").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t extra garbage").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t WHERE x = 'unterminated").ok());
  EXPECT_FALSE(ParseSql("SELECT sum(x FROM t").ok());
}

// ------------------------------------------------------------------ Tables

std::shared_ptr<MemTable> MakeOrders() {
  auto table = std::make_shared<MemTable>(
      "orders", exec::Schema{{"id", "customer_id", "city", "total"}});
  const std::vector<std::tuple<int, int, const char*, double>> data = {
      {1, 100, "london", 25.0}, {2, 101, "paris", 75.0},
      {3, 100, "london", 125.0}, {4, 102, "rome", 10.0},
      {5, 101, "paris", 200.0}, {6, 103, "london", 55.0},
  };
  for (const auto& [id, cid, city, total] : data) {
    table->AddRow({Value::Int(id), Value::Int(cid), Value::String(city),
                   Value::Double(total)});
  }
  table->BuildIndex(0);
  table->BuildIndex(2);
  return table;
}

std::shared_ptr<MemTable> MakeCustomers() {
  auto table = std::make_shared<MemTable>(
      "customers", exec::Schema{{"id", "name"}});
  for (int i = 0; i < 5; ++i) {
    table->AddRow({Value::Int(100 + i),
                   Value::String("cust" + std::to_string(i))});
  }
  table->BuildIndex(0);
  return table;
}

Catalog MakeCatalog() {
  Catalog catalog;
  catalog.Register(MakeOrders());
  catalog.Register(MakeCustomers());
  return catalog;
}

TEST(MemTableTest, IndexLookupAndRange) {
  auto orders = MakeOrders();
  EXPECT_TRUE(orders->HasIndexOn(0));
  EXPECT_FALSE(orders->HasIndexOn(3));
  EXPECT_EQ(orders->IndexLookup(2, Value::String("london")).size(), 3u);
  Value lo = Value::Int(2), hi = Value::Int(4);
  EXPECT_EQ(orders->IndexRange(0, &lo, &hi).size(), 3u);
  EXPECT_EQ(orders->IndexRange(0, &lo, nullptr).size(), 5u);
  EXPECT_EQ(orders->RowCount(), 6u);
}

// ----------------------------------------------------------------- Planner

TEST(SimplePlannerTest, FullQueryCorrectness) {
  Catalog catalog = MakeCatalog();
  SimplePlanner planner;
  auto rows = RunSql(
      "SELECT city, COUNT(*) AS n, SUM(total) AS revenue FROM orders "
      "WHERE total > 20 GROUP BY city ORDER BY revenue DESC",
      catalog, &planner);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);  // rome filtered out (10 <= 20)
  EXPECT_EQ((*rows)[0][0].string_value(), "paris");    // 275
  EXPECT_DOUBLE_EQ((*rows)[0][2].double_value(), 275.0);
  EXPECT_EQ((*rows)[1][0].string_value(), "london");   // 205
  EXPECT_EQ((*rows)[1][1].int_value(), 3);
}

TEST(SimplePlannerTest, UsesIndexForEqualityPredicate) {
  Catalog catalog = MakeCatalog();
  SimplePlanner planner;
  auto stmt = ParseSql("SELECT id FROM orders WHERE city = 'london'");
  ASSERT_TRUE(stmt.ok());
  auto plan = planner.Plan(*stmt, catalog);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->explain.find("IndexLookup(orders.city)"), std::string::npos)
      << plan->explain;
  auto rows = exec::Execute(plan->root.get());
  EXPECT_EQ(rows.size(), 3u);
}

TEST(SimplePlannerTest, ScansWhenNoIndexApplies) {
  Catalog catalog = MakeCatalog();
  SimplePlanner planner;
  auto stmt = ParseSql("SELECT id FROM orders WHERE total > 50");
  ASSERT_TRUE(stmt.ok());
  auto plan = planner.Plan(*stmt, catalog);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->explain.find("Scan(orders)"), std::string::npos);
  // totals 75, 125, 200, 55 pass.
  EXPECT_EQ(exec::Execute(plan->root.get()).size(), 4u);
}

TEST(SimplePlannerTest, JoinMethodsByRule) {
  Catalog catalog = MakeCatalog();
  SimplePlanner planner;
  // No LIMIT -> hash join.
  auto stmt1 = ParseSql(
      "SELECT name FROM orders JOIN customers ON customer_id = customers.id");
  auto plan1 = planner.Plan(*stmt1, catalog);
  ASSERT_TRUE(plan1.ok());
  EXPECT_NE(plan1->explain.find("HashJoin"), std::string::npos);
  // LIMIT + index on join column -> indexed NL join.
  auto stmt2 = ParseSql(
      "SELECT name FROM orders JOIN customers ON customer_id = customers.id "
      "ORDER BY name LIMIT 3");
  auto plan2 = planner.Plan(*stmt2, catalog);
  ASSERT_TRUE(plan2.ok());
  EXPECT_NE(plan2->explain.find("IndexedNLJoin"), std::string::npos);
  // Both produce the same joined data.
  auto rows1 = exec::Execute(plan1->root.get());
  auto rows2 = exec::Execute(plan2->root.get());
  EXPECT_EQ(rows1.size(), 6u);
  EXPECT_EQ(rows2.size(), 3u);
}

TEST(SimplePlannerTest, ErrorsOnUnknownNames) {
  Catalog catalog = MakeCatalog();
  SimplePlanner planner;
  EXPECT_TRUE(RunSql("SELECT x FROM nope", catalog, &planner)
                  .status().IsNotFound());
  EXPECT_TRUE(RunSql("SELECT nope FROM orders", catalog, &planner)
                  .status().IsInvalidArgument());
  EXPECT_TRUE(RunSql("SELECT id FROM orders WHERE ghost = 1", catalog,
                     &planner).status().IsInvalidArgument());
  EXPECT_TRUE(RunSql("SELECT id FROM orders ORDER BY ghost", catalog,
                     &planner).status().IsInvalidArgument());
}

TEST(CostAwarePlannerTest, AgreesWithSimplePlannerOnResults) {
  Catalog catalog = MakeCatalog();
  SimplePlanner simple;
  opt::TableStatsCache stats;
  opt::CostAwarePlanner cost_aware(&stats);

  const std::vector<std::string> queries = {
      "SELECT id FROM orders WHERE city = 'london'",
      "SELECT city, COUNT(*) FROM orders GROUP BY city",
      "SELECT id, total FROM orders WHERE total > 20 ORDER BY total DESC",
      "SELECT name FROM orders JOIN customers ON customer_id = customers.id "
      "WHERE total >= 50",
      "SELECT id FROM orders ORDER BY id LIMIT 2",
  };
  for (const std::string& sql : queries) {
    auto a = RunSql(sql, catalog, &simple);
    auto b = RunSql(sql, catalog, &cost_aware);
    ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << sql;
  }
}

TEST(CostAwarePlannerTest, StatsSteerAccessPath) {
  // Two indexed columns with opposite statistics: `uniq` is unique (an
  // equality matches ~1 row — the index wins), `constant` has one distinct
  // value (an equality matches everything — a scan is cheaper than
  // fetching every row through the index).
  auto table = std::make_shared<MemTable>(
      "skew", exec::Schema{{"uniq", "constant"}});
  for (int i = 0; i < 50; ++i) {
    table->AddRow({Value::Int(i), Value::Int(7)});
  }
  table->BuildIndex(0);
  table->BuildIndex(1);
  Catalog catalog;
  catalog.Register(table);
  opt::TableStatsCache stats;
  opt::CostAwarePlanner planner(&stats);

  auto stmt = ParseSql("SELECT uniq FROM skew WHERE uniq = 3");
  auto plan = planner.Plan(*stmt, catalog);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->explain.find("IndexLookup(skew.uniq)"), std::string::npos)
      << plan->explain;

  auto stmt2 = ParseSql("SELECT uniq FROM skew WHERE constant = 7");
  auto plan2 = planner.Plan(*stmt2, catalog);
  ASSERT_TRUE(plan2.ok());
  EXPECT_NE(plan2->explain.find("Scan(skew)"), std::string::npos)
      << plan2->explain;
}

// Property sweep: both planners equal a brute-force oracle on random
// conjunctive filter + aggregate queries.
class PlannerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannerPropertyTest, PlannersMatchBruteForce) {
  Rng rng(GetParam());
  auto table = std::make_shared<MemTable>(
      "t", exec::Schema{{"a", "b", "c"}});
  std::vector<std::array<int64_t, 3>> raw;
  for (int i = 0; i < 500; ++i) {
    std::array<int64_t, 3> row = {rng.UniformInt(0, 20), rng.UniformInt(0, 5),
                                  rng.UniformInt(0, 1000)};
    raw.push_back(row);
    table->AddRow({Value::Int(row[0]), Value::Int(row[1]), Value::Int(row[2])});
  }
  table->BuildIndex(0);
  Catalog catalog;
  catalog.Register(table);

  SimplePlanner simple;
  opt::TableStatsCache stats;
  opt::CostAwarePlanner cost_aware(&stats);

  for (int q = 0; q < 20; ++q) {
    const int64_t av = rng.UniformInt(0, 20);
    const int64_t bv = rng.UniformInt(0, 5);
    std::string sql = "SELECT c FROM t WHERE a = " + std::to_string(av) +
                      " AND b = " + std::to_string(bv) + " ORDER BY c";
    auto rows_simple = RunSql(sql, catalog, &simple);
    auto rows_cost = RunSql(sql, catalog, &cost_aware);
    ASSERT_TRUE(rows_simple.ok());
    ASSERT_TRUE(rows_cost.ok());

    std::vector<int64_t> expected;
    for (const auto& row : raw) {
      if (row[0] == av && row[1] == bv) expected.push_back(row[2]);
    }
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(rows_simple->size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*rows_simple)[i][0].int_value(), expected[i]);
    }
    EXPECT_EQ(*rows_simple, *rows_cost);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerPropertyTest,
                         ::testing::Values(5, 15, 25, 35));

// ----------------------------------------------------------------- Faceted

struct FacetedFixture {
  index::InvertedIndex inverted;
  index::PathIndex paths;
  index::FacetIndex facets;
  index::ValueIndex values;

  void Add(const Document& doc) {
    inverted.AddDocument(doc.id, doc.Text());
    paths.AddDocument(doc);
    facets.AddDocument(doc);
    values.AddDocument(doc);
  }
};

TEST(FacetedSearchTest, KeywordWithDrilldownAndAggregates) {
  FacetedFixture fx;
  for (int i = 0; i < 10; ++i) {
    Document doc = MakeRecordDocument(
        "ticket",
        {{"text", Value::String(i % 2 == 0 ? "printer is broken"
                                           : "printer works great")},
         {"region", Value::String(i % 3 == 0 ? "emea" : "amer")},
         {"hours", Value::Int(i + 1)}});
    doc.id = static_cast<model::DocId>(i + 1);
    fx.Add(doc);
  }
  FacetedSearch search(&fx.inverted, &fx.paths, &fx.facets, &fx.values);

  FacetedQuery query;
  query.keywords = "printer broken";
  query.facet_paths = {"/doc/region"};
  query.aggregates = {{"/doc/hours", "sum"}, {"/doc/hours", "avg"}};
  query.top_k = 3;
  FacetedResult result = search.Run(query);

  // All 10 docs mention "printer"; broken docs rank first.
  EXPECT_EQ(result.total_matches, 10u);
  ASSERT_EQ(result.docs.size(), 3u);
  // Top hits are the "broken" ones (both query terms).
  EXPECT_EQ(result.docs[0] % 2, 1u);  // ids 1,3,5,... are broken (i even)

  // Drill down to emea only.
  query.drilldowns = {{"/doc/region", Value::String("emea")}};
  result = search.Run(query);
  EXPECT_EQ(result.total_matches, 4u);  // i = 0,3,6,9
  double sum = result.aggregate_values.at("sum(/doc/hours)");
  EXPECT_DOUBLE_EQ(sum, 1 + 4 + 7 + 10);
  EXPECT_DOUBLE_EQ(result.aggregate_values.at("avg(/doc/hours)"), 5.5);
}

TEST(FacetedSearchTest, KindRestrictionWithoutKeywords) {
  FacetedFixture fx;
  Document a = MakeRecordDocument("po", {{"x", Value::Int(1)}});
  a.id = 1;
  Document b = MakeRecordDocument("email", {{"x", Value::Int(2)}});
  b.id = 2;
  fx.Add(a);
  fx.Add(b);
  FacetedSearch search(&fx.inverted, &fx.paths, &fx.facets, &fx.values);
  FacetedQuery query;
  query.kind = "po";
  FacetedResult result = search.Run(query);
  ASSERT_EQ(result.docs.size(), 1u);
  EXPECT_EQ(result.docs[0], 1u);
}

// top_k counts answers: 0 returns none, 1 returns the best, in both the
// ranked and the id-order loop; total_matches does not depend on it.
TEST(FacetedSearchTest, TopKZeroAndOne) {
  FacetedFixture fx;
  for (int i = 0; i < 4; ++i) {
    Document doc = MakeRecordDocument(
        "ticket", {{"text", Value::String(i == 2 ? "refund refund late"
                                                 : "refund late")}});
    doc.id = static_cast<model::DocId>(i + 5);
    fx.Add(doc);
  }
  FacetedSearch search(&fx.inverted, &fx.paths, &fx.facets, &fx.values);
  for (const std::string keywords : {"", "refund"}) {
    SCOPED_TRACE("keywords: '" + keywords + "'");
    FacetedQuery query;
    query.keywords = keywords;
    query.kind = "ticket";
    query.top_k = 0;
    FacetedResult result = search.Run(query);
    EXPECT_TRUE(result.docs.empty());
    EXPECT_EQ(result.total_matches, 4u);
    query.top_k = 1;
    result = search.Run(query);
    ASSERT_EQ(result.docs.size(), 1u);
    EXPECT_EQ(result.docs[0], keywords.empty() ? 5u : 7u);
    EXPECT_EQ(result.total_matches, 4u);
  }
}

// The answer equals a brute-force evaluation of keywords, kind, exclusion
// and drill-downs, at DOP 1 and 8. Three kinds hold consecutive id ranges
// with gaps, so a kind's candidate range has value-index and facet entries
// below and above it, and an exclusion set names ids outside it.
TEST(FacetedSearchTest, MatchesBruteForceOracleAtAnyDop) {
  struct Truth {
    std::string kind, region, tier;
    std::vector<int64_t> totals;  // every /doc/total entry of the document
  };
  FacetedFixture fx;
  std::map<model::DocId, Truth> truth;
  Rng rng(18);
  const std::vector<std::string> kinds = {"order", "invoice", "note"};
  const std::vector<std::string> regions = {"emea", "amer", "apac", "latam"};
  const std::vector<std::string> tiers = {"gold", "silver"};
  const std::vector<std::string> words = {"printer", "broken", "refund",
                                          "late", "fine"};
  model::DocId next_id = 1;
  for (const std::string& kind : kinds) {
    for (int i = 0; i < 150; ++i) {
      Truth t{kind, rng.Pick(regions), rng.Pick(tiers), {}};
      std::vector<std::pair<std::string, Value>> fields = {
          {"region", Value::String(t.region)},
          {"tier", Value::String(t.tier)},
          {"text", Value::String(rng.Pick(words) + " " + rng.Pick(words))}};
      if (kind != "note") {
        t.totals.push_back(rng.UniformInt(-50, 500));
        if (rng.Bernoulli(0.2)) t.totals.push_back(rng.UniformInt(600, 1200));
      }
      for (int64_t total : t.totals) {
        fields.emplace_back("total", Value::Int(total));
      }
      Document doc = MakeRecordDocument(kind, std::move(fields));
      doc.id = next_id;
      next_id += rng.Bernoulli(0.1) ? 2 : 1;  // leave id gaps
      fx.Add(doc);
      truth[doc.id] = std::move(t);
    }
  }
  FacetedSearch search(&fx.inverted, &fx.paths, &fx.facets, &fx.values);
  const std::vector<double> boundaries = {0, 100, 250, 1000};
  const std::vector<std::string> fns = {"sum", "avg", "min", "max", "count"};

  size_t nonempty = 0;
  for (int q = 0; q < 60; ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    FacetedQuery query;
    if (rng.Bernoulli(0.5)) {
      query.keywords = rng.Pick(words);
      if (rng.Bernoulli(0.5)) query.keywords += " " + rng.Pick(words);
    }
    if (rng.Bernoulli(0.7)) query.kind = rng.Pick(kinds);
    if (rng.Bernoulli(0.4)) {
      query.drilldowns.emplace_back("/doc/region",
                                    Value::String(rng.Pick(regions)));
    }
    if (rng.Bernoulli(0.3)) {
      query.drilldowns.emplace_back("/doc/tier",
                                    Value::String(rng.Pick(tiers)));
    }
    if (rng.Bernoulli(0.5)) {
      auto exclude = std::make_shared<std::unordered_set<model::DocId>>();
      for (model::DocId id = 0; id < next_id + 10; ++id) {
        if (rng.Bernoulli(0.1)) exclude->insert(id);
      }
      query.exclude = std::move(exclude);
    }
    query.facet_paths = {"/doc/region", "/doc/tier"};
    query.range_facets = {{"/doc/total", boundaries}};
    for (const std::string& fn : fns) {
      query.aggregates.emplace_back("/doc/total", fn);
    }
    query.top_k = static_cast<size_t>(rng.UniformInt(0, 12));

    // Brute force: keyword hits in rank order (else id order), filtered.
    std::vector<model::DocId> order;
    if (!query.keywords.empty()) {
      for (const auto& hit :
           fx.inverted.Search(query.keywords, static_cast<size_t>(-1))) {
        order.push_back(hit.doc);
      }
    } else {
      for (const auto& [doc, t] : truth) order.push_back(doc);
    }
    std::vector<model::DocId> matching;
    for (model::DocId doc : order) {
      const Truth& t = truth.at(doc);
      if (!query.kind.empty() && t.kind != query.kind) continue;
      if (query.exclude != nullptr && query.exclude->contains(doc)) continue;
      bool drilled = true;
      for (const auto& [path, value] : query.drilldowns) {
        const std::string& have = path == "/doc/region" ? t.region : t.tier;
        drilled = drilled && have == value.string_value();
      }
      if (drilled) matching.push_back(doc);
    }
    nonempty += !matching.empty();
    const std::vector<model::DocId> expected_docs(
        matching.begin(),
        matching.begin() + std::min(query.top_k, matching.size()));
    std::map<std::string, std::map<std::string, size_t>> value_counts;
    std::vector<size_t> bucket_counts(boundaries.size() + 1);
    double sum = 0, min = 0, max = 0;
    size_t count = 0;
    for (model::DocId doc : matching) {
      const Truth& t = truth.at(doc);
      ++value_counts["/doc/region"][t.region];
      ++value_counts["/doc/tier"][t.tier];
      for (int64_t total : t.totals) {
        const double v = static_cast<double>(total);
        bucket_counts[std::upper_bound(boundaries.begin(), boundaries.end(),
                                       v) -
                      boundaries.begin()]++;
        min = count == 0 ? v : std::min(min, v);
        max = count == 0 ? v : std::max(max, v);
        sum += v;
        ++count;
      }
    }
    std::map<std::string, double> expected_aggregates = {
        {"sum(/doc/total)", sum},
        {"avg(/doc/total)", count == 0 ? 0.0 : sum / count},
        {"min(/doc/total)", min},
        {"max(/doc/total)", max},
        {"count(/doc/total)", static_cast<double>(count)}};

    for (size_t dop : {1u, 8u}) {
      SCOPED_TRACE("dop " + std::to_string(dop));
      search.set_parallelism(dop);
      const FacetedResult result = search.Run(query);
      EXPECT_EQ(result.total_matches, matching.size());
      EXPECT_EQ(result.docs, expected_docs);
      for (const std::string& path : query.facet_paths) {
        std::vector<std::pair<size_t, std::string>> expected;
        for (const auto& [value, n] : value_counts[path]) {
          expected.emplace_back(n, value);
        }
        std::sort(expected.begin(), expected.end(),
                  [](const auto& a, const auto& b) {
                    if (a.first != b.first) return a.first > b.first;
                    return a.second < b.second;
                  });
        const auto& counts = result.facets.at(path);
        ASSERT_EQ(counts.size(), expected.size()) << path;
        for (size_t i = 0; i < counts.size(); ++i) {
          EXPECT_EQ(counts[i].count, expected[i].first) << path;
          EXPECT_EQ(counts[i].value.string_value(), expected[i].second);
        }
      }
      const auto& buckets = result.range_facet_buckets.at("/doc/total");
      ASSERT_EQ(buckets.size(), bucket_counts.size());
      for (size_t b = 0; b < buckets.size(); ++b) {
        EXPECT_EQ(buckets[b].count, bucket_counts[b]) << "bucket " << b;
      }
      for (const auto& [name, value] : expected_aggregates) {
        EXPECT_DOUBLE_EQ(result.aggregate_values.at(name), value) << name;
      }
    }
  }
  EXPECT_GE(nonempty, 30u);  // the queries are not vacuous
}

// ------------------------------------------------------------------- Graph

TEST(GraphQueryTest, HowConnectedAndExplain) {
  index::JoinIndex join_index;
  join_index.AddEdge(1, 2, "references_customer");
  join_index.AddEdge(3, 2, "references_customer");
  join_index.AddEdge(3, 4, "references_product");

  GraphQuery graph(&join_index, [](model::DocId doc) {
    return "d" + std::to_string(doc);
  });
  auto connection = graph.HowConnected(1, 4);
  ASSERT_TRUE(connection.has_value());
  EXPECT_EQ(connection->hops, 3u);
  std::string explain = graph.ExplainConnection(1, *connection);
  EXPECT_EQ(explain,
            "d1 -[references_customer]-> d2 <-[references_customer]- d3 "
            "-[references_product]-> d4");
  EXPECT_FALSE(graph.HowConnected(1, 99).has_value());
}

TEST(GraphQueryTest, RelatedWithinAndRelatedBy) {
  index::JoinIndex join_index;
  join_index.AddEdge(1, 2, "partner");
  join_index.AddEdge(2, 3, "partner");
  join_index.AddEdge(1, 5, "supplier");
  GraphQuery graph(&join_index);
  EXPECT_EQ(graph.RelatedWithin(1, 1), (std::vector<model::DocId>{1, 2, 5}));
  EXPECT_EQ(graph.RelatedBy(1, "partner"), (std::vector<model::DocId>{2}));
  EXPECT_EQ(graph.RelatedBy(2, "partner"), (std::vector<model::DocId>{1, 3}));
}

}  // namespace
}  // namespace impliance::query
