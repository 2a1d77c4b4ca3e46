#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "exec/operators.h"
#include "exec/parallel.h"
#include "obs/metrics.h"
#include "query/opt/optimizer.h"
#include "query/planner.h"
#include "query/sql_parser.h"
#include "query/table.h"

namespace impliance::exec {
namespace {

using model::Value;

// Deterministic synthetic table: id, group (8 distinct), score.
std::vector<Row> MakeRows(size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  Rng rng(42);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::Int(static_cast<int64_t>(rng.Next() % 8)),
                    Value::Double(static_cast<double>(rng.Next() % 10000))});
  }
  return rows;
}

Schema BaseSchema() { return Schema{{"id", "grp", "score"}}; }

// Rows enough for 20 source batches: every worker at DOP 8 claims several.
constexpr size_t kManyBatches = 20 * kDefaultBatchRows;

// Order-insensitive row-set equality.
void ExpectSameRows(std::vector<Row> a, std::vector<Row> b) {
  ASSERT_EQ(a.size(), b.size());
  auto less = [](const Row& x, const Row& y) {
    return std::lexicographical_compare(x.begin(), x.end(), y.begin(), y.end());
  };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  EXPECT_EQ(a, b);
}

ExecOptions Opts(size_t dop) {
  ExecOptions options;
  options.dop = dop;
  return options;
}

// Plans are single-use, so each run gets a fresh one over the same rows.
MorselPlan PlanOver(const std::vector<Row>& rows) {
  MorselPlan plan;
  plan.source = std::make_unique<RowSourceOp>(BaseSchema(), rows);
  return plan;
}

MorselPlan FilterProjectPlan(const std::vector<Row>& rows) {
  MorselPlan plan = PlanOver(rows);
  plan.make_pipeline = [](OperatorPtr source) {
    std::vector<Predicate> predicates{
        {2, CompareOp::kGt, Value::Double(2500.0)},
        {1, CompareOp::kNe, Value::Int(3)},
    };
    OperatorPtr op = std::make_unique<FilterOp>(std::move(source),
                                                std::move(predicates),
                                                /*adaptive=*/true);
    return std::make_unique<ProjectOp>(std::move(op), std::vector<int>{0, 2},
                                       std::vector<std::string>{"id", "score"});
  };
  return plan;
}

MorselPlan AggregatePlan(const std::vector<Row>& rows) {
  MorselPlan plan = PlanOver(rows);
  plan.make_pipeline = [](OperatorPtr source) {
    std::vector<Predicate> predicates{{2, CompareOp::kLt, Value::Double(9000.0)}};
    return std::make_unique<FilterOp>(std::move(source), std::move(predicates));
  };
  plan.sink = MorselPlan::Sink::kAggregate;
  plan.group_columns = {1};
  plan.aggregates = {{AggFn::kCount, -1, "n"},
                     {AggFn::kSum, 2, "total"},
                     {AggFn::kAvg, 2, "mean"},
                     {AggFn::kMin, 2, "lo"},
                     {AggFn::kMax, 2, "hi"}};
  return plan;
}

MorselPlan TopKPlan(const std::vector<Row>& rows) {
  MorselPlan plan = PlanOver(rows);
  plan.sink = MorselPlan::Sink::kTopK;
  plan.sort_keys = {{2, /*ascending=*/false}, {0, true}};
  plan.top_k = 25;
  return plan;
}

// Build side: grp -> label, built when the plan runs and probed by every
// worker.
MorselPlan JoinPlan(const std::vector<Row>& rows) {
  MorselPlan plan = PlanOver(rows);
  Schema build_schema{{"g", "label"}};
  std::vector<Row> build_rows;
  for (int g = 0; g < 8; ++g) {
    build_rows.push_back(
        {Value::Int(g), Value::String("g" + std::to_string(g))});
  }
  auto table = std::make_shared<JoinHashTable>(build_schema, 0);
  plan.builds.push_back(
      {std::make_unique<RowSourceOp>(build_schema, std::move(build_rows)),
       table});
  plan.make_pipeline = [table](OperatorPtr source) {
    OperatorPtr probe =
        std::make_unique<HashProbeOp>(std::move(source), table, 1);
    std::vector<Predicate> predicates{{2, CompareOp::kGe, Value::Double(5000.0)}};
    return std::make_unique<FilterOp>(std::move(probe), std::move(predicates));
  };
  return plan;
}

std::vector<Row> RunPlan(MorselPlan plan, size_t dop) {
  return ParallelExecutor::Shared().Run(std::move(plan), Opts(dop));
}

// ------------------------------------------------- serial/parallel parity

TEST(ParallelCollectTest, MatchesSerialAtAllDops) {
  const std::vector<Row> rows = MakeRows(kManyBatches);
  const std::vector<Row> serial = RunPlan(FilterProjectPlan(rows), 1);
  ASSERT_FALSE(serial.empty());
  for (size_t dop : {2u, 8u}) {
    // Collect sinks concatenate per-claim outputs in claim order, so the
    // result is byte-identical to serial — not just a permutation.
    EXPECT_EQ(RunPlan(FilterProjectPlan(rows), dop), serial) << "dop=" << dop;
  }
}

TEST(ParallelAggregateTest, MatchesSerialAtAllDops) {
  const std::vector<Row> rows = MakeRows(kManyBatches);
  const std::vector<Row> serial = RunPlan(AggregatePlan(rows), 1);
  ASSERT_EQ(serial.size(), 8u);
  for (size_t dop : {2u, 8u}) {
    // Partial merge is exact (avg divides only at finalize) and groups emit
    // in key order, so parallel output is identical, not just equivalent.
    EXPECT_EQ(RunPlan(AggregatePlan(rows), dop), serial) << "dop=" << dop;
  }
}

TEST(ParallelTopKTest, MatchesSerialAtAllDops) {
  const std::vector<Row> rows = MakeRows(kManyBatches);
  const std::vector<Row> serial = RunPlan(TopKPlan(rows), 1);
  ASSERT_EQ(serial.size(), 25u);
  for (size_t dop : {2u, 8u}) {
    EXPECT_EQ(RunPlan(TopKPlan(rows), dop), serial) << "dop=" << dop;
  }
}

TEST(ParallelJoinTest, SharedTableProbeMatchesSerial) {
  const std::vector<Row> rows = MakeRows(kManyBatches);
  const std::vector<Row> serial = RunPlan(JoinPlan(rows), 1);
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial.front().size(), 5u);  // probe schema = left ++ build
  for (size_t dop : {2u, 8u}) {
    ExpectSameRows(RunPlan(JoinPlan(rows), dop), serial);
  }
}

// ------------------------------------------------------------ edge cases

TEST(ParallelEdgeTest, EmptyInputAllSinks) {
  const std::vector<Row> empty;
  for (size_t dop : {1u, 2u, 8u}) {
    EXPECT_TRUE(RunPlan(FilterProjectPlan(empty), dop).empty());

    MorselPlan agg = PlanOver(empty);
    agg.sink = MorselPlan::Sink::kAggregate;
    agg.group_columns = {1};
    agg.aggregates = {{AggFn::kCount, -1, "n"}};
    EXPECT_TRUE(RunPlan(std::move(agg), dop).empty());

    MorselPlan topk = PlanOver(empty);
    topk.sink = MorselPlan::Sink::kTopK;
    topk.sort_keys = {{0, true}};
    topk.top_k = 5;
    EXPECT_TRUE(RunPlan(std::move(topk), dop).empty());
  }
}

TEST(ParallelEdgeTest, SingleMorselRunsInlineEvenAtHighDop) {
  const std::vector<Row> rows = MakeRows(100);  // one source batch
  EXPECT_EQ(RunPlan(FilterProjectPlan(rows), 8), RunPlan(FilterProjectPlan(rows), 1));
}

TEST(ParallelEdgeTest, GlobalAggregateSingleGroup) {
  const std::vector<Row> rows = MakeRows(5000);
  auto plan = [&rows] {
    MorselPlan plan = PlanOver(rows);
    plan.sink = MorselPlan::Sink::kAggregate;
    plan.aggregates = {{AggFn::kCount, -1, "n"}, {AggFn::kSum, 2, "total"}};
    return plan;
  };
  const std::vector<Row> serial = RunPlan(plan(), 1);
  ASSERT_EQ(serial.size(), 1u);
  EXPECT_EQ(serial[0][0], Value::Int(5000));
  for (size_t dop : {2u, 8u}) {
    EXPECT_EQ(RunPlan(plan(), dop), serial);
  }
}

// ------------------------------------------------ claiming & executor

// Skewed pipeline: the first half of the source batches pass the filter
// whole, the second half not at all, so workers that claim early batches
// do all the output work. Dynamic claiming must still emit every passing
// row exactly once, in the serial order.
TEST(ParallelClaimTest, SkewedBatchesComeOutOnceInSerialOrder) {
  const size_t batches = 16;
  const std::vector<Row> rows = MakeRows(batches * kDefaultBatchRows);
  const int64_t cutoff = static_cast<int64_t>(batches / 2 * kDefaultBatchRows);
  auto plan = [&] {
    MorselPlan plan = PlanOver(rows);
    plan.make_pipeline = [cutoff](OperatorPtr source) {
      std::vector<Predicate> predicates{
          {0, CompareOp::kLt, Value::Int(cutoff)}};
      return std::make_unique<FilterOp>(std::move(source),
                                        std::move(predicates));
    };
    return plan;
  };
  const std::vector<Row> serial = RunPlan(plan(), 1);
  ASSERT_EQ(serial.size(), static_cast<size_t>(cutoff));
  for (int repeat = 0; repeat < 5; ++repeat) {
    const std::vector<Row> parallel = RunPlan(plan(), 8);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < parallel.size(); ++i) {
      ASSERT_EQ(parallel[i][0], Value::Int(static_cast<int64_t>(i)));
    }
    EXPECT_EQ(parallel, serial);
  }
}

TEST(RunTasksTest, RunsEveryTaskOnceAtAnyDop) {
  for (size_t dop : {1u, 3u, 8u}) {
    std::atomic<int> counter{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 37; ++i) {
      tasks.push_back([&counter] { counter.fetch_add(1); });
    }
    ParallelExecutor::Shared().RunTasks(std::move(tasks), dop);
    EXPECT_EQ(counter.load(), 37);
  }
}

// ----------------------------------------------------------- SQL parity

TEST(ParallelSqlTest, RunSqlMatchesSerialAcrossShapes) {
  query::Catalog catalog;
  auto orders = std::make_shared<query::MemTable>(
      "orders", Schema{{"id", "customer", "total"}});
  auto customers = std::make_shared<query::MemTable>(
      "customers", Schema{{"cid", "region"}});
  Rng rng(7);
  for (size_t i = 0; i < kManyBatches; ++i) {
    orders->AddRow({Value::Int(static_cast<int64_t>(i)),
                    Value::Int(static_cast<int64_t>(rng.Next() % 50)),
                    Value::Double(static_cast<double>(rng.Next() % 1000))});
  }
  for (int c = 0; c < 50; ++c) {
    customers->AddRow(
        {Value::Int(c), Value::String(c % 2 ? "east" : "west")});
  }
  catalog.Register(orders);
  catalog.Register(customers);

  const std::vector<std::string> queries = {
      "SELECT id, total FROM orders WHERE total > 500",
      "SELECT customer, SUM(total) AS s, COUNT(*) AS n FROM orders "
      "GROUP BY customer ORDER BY s DESC",
      // `id` tiebreak: top-k under duplicate keys may keep any of the tied
      // rows, so parity needs a total order on the sort keys.
      "SELECT id, total FROM orders WHERE total >= 100 "
      "ORDER BY total DESC, id LIMIT 10",
      "SELECT region, AVG(total) AS a FROM orders "
      "JOIN customers ON customer = cid GROUP BY region",
      "SELECT * FROM orders WHERE total < 50 LIMIT 7",
  };
  query::SimplePlanner planner;
  for (const std::string& sql : queries) {
    auto serial = query::RunSql(sql, catalog, &planner);
    ASSERT_TRUE(serial.ok()) << sql << ": " << serial.status().message();
    for (size_t dop : {2u, 8u}) {
      ExecOptions options;
      options.dop = dop;
      auto parallel = query::RunSql(sql, catalog, &planner, options);
      ASSERT_TRUE(parallel.ok()) << sql;
      EXPECT_EQ(*parallel, *serial) << sql << " dop=" << dop;
    }
  }
}

// Building a plan — serial or morsel-parallel, by either planner — reads
// no rows: scans and hash-join builds run only when the plan does.
TEST(ParallelSqlTest, PlanningReadsNoRows) {
  query::Catalog catalog;
  auto orders = std::make_shared<query::MemTable>(
      "orders", Schema{{"id", "customer", "total"}});
  auto customers = std::make_shared<query::MemTable>(
      "customers", Schema{{"cid", "region"}});
  for (int i = 0; i < 3000; ++i) {
    orders->AddRow({Value::Int(i), Value::Int(i % 50), Value::Double(i % 97)});
  }
  for (int c = 0; c < 50; ++c) {
    customers->AddRow({Value::Int(c), Value::String(c % 2 ? "east" : "west")});
  }
  catalog.Register(orders);
  catalog.Register(customers);
  const std::string sql =
      "SELECT region, SUM(total) AS s FROM orders JOIN customers "
      "ON customer = cid WHERE total > 10 GROUP BY region";
  auto stmt = query::ParseSql(sql);
  ASSERT_TRUE(stmt.ok());

  query::opt::TableStatsCache stats;
  query::opt::CostAwarePlanner optimizer(&stats);
  query::SimplePlanner simple;
  // The optimizer's first sight of a table collects its statistics; that
  // sample is not part of planning.
  ASSERT_TRUE(query::RunSql(sql, catalog, &optimizer).ok());

  auto scanned = [] {
    uint64_t total = 0;
    for (const char* name :
         {"scan.segments_visited", "scan.segments_skipped",
          "scan.blocks_decoded", "scan.blocks_skipped", "scan.rows_decoded"}) {
      total += obs::Registry::Global().GetCounter(name)->Value();
    }
    return total;
  };
  for (query::Planner* planner :
       std::vector<query::Planner*>{&simple, &optimizer}) {
    const uint64_t before = scanned();
    auto plan = planner->Plan(*stmt, catalog);
    ASSERT_TRUE(plan.ok());
    auto parallel = planner->PlanParallel(*stmt, catalog);
    ASSERT_TRUE(parallel.ok());
    ASSERT_TRUE(parallel->has_value());
    EXPECT_EQ(scanned(), before);
    ParallelExecutor::Shared().Run(std::move((*parallel)->segment), Opts(2));
    EXPECT_GE(scanned(), before + 3000 + 50);
  }
}

}  // namespace
}  // namespace impliance::exec
