// E20: cost-aware optimizer vs the paper-faithful simple planner.
//
// Two workloads where plan choice, not executor speed, dominates:
//
//   join-reorder: orders (100k) JOIN customers (10k) JOIN regions (8) with
//     a selective predicate on regions. The simple planner drives from the
//     textual first table and streams every order through two hash joins
//     before filtering; the optimizer starts from the one matching region
//     row and probes outward, touching ~1/8th of the data.
//
//   pushdown: an equality on a joined table naming one customer. The
//     simple planner again scans all orders; the optimizer drives from the
//     single customer row and uses the orders.customer_id index.
//
// Every query is executed with BOTH planners and the result sets must be
// identical (modulo row order, which SQL leaves unspecified) — the bench
// exits nonzero on any divergence, so CI catches an optimizer that gets
// fast by being wrong.
//
// A closing demo keeps E2's lesson: a manual-mode statistics cache (the
// RDBMS comparator) plans from whatever ANALYZE last saw, while the
// appliance's auto cache tracks the data version on its own.

#include <algorithm>
#include <cstring>

#include "bench_util.h"
#include "common/clock.h"
#include "common/rng.h"
#include "query/opt/optimizer.h"
#include "query/opt/stats_cache.h"
#include "query/planner.h"
#include "query/sql_parser.h"
#include "query/table.h"

using namespace impliance;
using bench::Fmt;
using model::Value;
using query::Catalog;
using query::MemTable;
using query::SimplePlanner;
using query::opt::CostAwarePlanner;
using query::opt::TableStatsCache;

namespace {

constexpr size_t kOrders = 100000;
constexpr size_t kCustomers = 10000;
constexpr int kRegions = 8;
constexpr int kRepeats = 3;

std::shared_ptr<MemTable> BuildOrders(Rng* rng, size_t count) {
  auto orders = std::make_shared<MemTable>(
      "orders",
      exec::Schema{{"order_no", "customer_id", "region_id", "total"}});
  for (size_t i = 0; i < count; ++i) {
    orders->AddRow({Value::Int(static_cast<int64_t>(9000 + i)),
                    Value::Int(static_cast<int64_t>(rng->Uniform(kCustomers))),
                    Value::Int(static_cast<int64_t>(rng->Uniform(kRegions))),
                    Value::Double(rng->NextDouble() * 1000)});
  }
  orders->BuildIndex(1);  // customer_id
  orders->BuildIndex(2);  // region_id
  return orders;
}

Catalog BuildCatalog(Rng* rng) {
  Catalog catalog;
  catalog.Register(BuildOrders(rng, kOrders));

  auto customers =
      std::make_shared<MemTable>("customers", exec::Schema{{"id", "name"}});
  for (size_t i = 0; i < kCustomers; ++i) {
    customers->AddRow({Value::Int(static_cast<int64_t>(i)),
                       Value::String("customer_" + std::to_string(i))});
  }
  customers->BuildIndex(0);
  customers->BuildIndex(1);
  catalog.Register(customers);

  auto regions = std::make_shared<MemTable>(
      "regions", exec::Schema{{"id", "region_name"}});
  for (int i = 0; i < kRegions; ++i) {
    regions->AddRow({Value::Int(i),
                     Value::String("region_" + std::to_string(i))});
  }
  regions->BuildIndex(0);
  catalog.Register(regions);
  return catalog;
}

// Rows sorted into a canonical order so unordered results compare equal.
std::vector<std::string> Canonical(const std::vector<exec::Row>& rows) {
  std::vector<std::string> flat;
  flat.reserve(rows.size());
  for (const exec::Row& row : rows) {
    std::string line;
    for (const Value& value : row) line += value.AsString() + "\t";
    flat.push_back(std::move(line));
  }
  std::sort(flat.begin(), flat.end());
  return flat;
}

struct WorkloadResult {
  std::string name;
  double simple_ms = 0;
  double optimized_ms = 0;
  size_t rows = 0;
  bool diverged = false;
};

WorkloadResult RunWorkload(const std::string& name,
                           const std::vector<std::string>& queries,
                           const Catalog& catalog, SimplePlanner* simple,
                           CostAwarePlanner* optimized) {
  WorkloadResult result;
  result.name = name;
  bench::Samples simple_ms, optimized_ms;
  for (const std::string& sql : queries) {
    std::vector<std::string> baseline;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      Stopwatch watch;
      auto a = query::RunSql(sql, catalog, simple);
      simple_ms.Add(watch.ElapsedMillis());
      IMPLIANCE_CHECK(a.ok()) << a.status().ToString();
      watch = Stopwatch();
      auto b = query::RunSql(sql, catalog, optimized);
      optimized_ms.Add(watch.ElapsedMillis());
      IMPLIANCE_CHECK(b.ok()) << b.status().ToString();
      baseline = Canonical(*a);
      result.rows = baseline.size();
      if (baseline != Canonical(*b)) {
        std::fprintf(stderr, "DIVERGENCE on %s\n", sql.c_str());
        result.diverged = true;
      }
    }
  }
  result.simple_ms = simple_ms.Mean();
  result.optimized_ms = optimized_ms.Mean();
  return result;
}

std::string PlanOf(query::Planner* planner, const Catalog& catalog,
                   const std::string& sql) {
  auto stmt = query::ParseSql(sql);
  auto plan = planner->Plan(*stmt, catalog);
  IMPLIANCE_CHECK(plan.ok()) << plan.status().ToString();
  std::string flat = plan->explain;
  for (char& c : flat) {
    if (c == '\n') c = ' ';
  }
  return flat;
}

void StaleStatsDemo() {
  // E2's lesson survives inside the new subsystem: manual-mode statistics
  // describe the table ANALYZE last saw; auto mode tracks the version.
  Rng rng(7);
  auto orders = BuildOrders(&rng, 5000);
  TableStatsCache manual(TableStatsCache::Mode::kManual);
  TableStatsCache automatic;
  manual.Refresh(*orders);  // the one ANALYZE the admin remembered to run
  (void)automatic.Get(*orders);
  // The table grows 20x; nobody re-runs ANALYZE.
  Rng more(8);
  for (size_t i = 0; i < 95000; ++i) {
    orders->AddRow(
        {Value::Int(static_cast<int64_t>(i)),
         Value::Int(static_cast<int64_t>(more.Uniform(kCustomers))),
         Value::Int(static_cast<int64_t>(more.Uniform(kRegions))),
         Value::Double(more.NextDouble())});
  }
  const auto stale = manual.Get(*orders);
  const auto fresh = automatic.Get(*orders);
  std::printf(
      "\nstale-stats demo (table grew 5k -> 100k rows, no ANALYZE):\n"
      "  manual-mode cache believes row_count=%llu; auto cache sees %llu\n"
      "  (the appliance never exposes the manual knob — Section 2.1)\n",
      static_cast<unsigned long long>(stale->row_count),
      static_cast<unsigned long long>(fresh->row_count));
}

void WriteJson(const std::string& path,
               const std::vector<WorkloadResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"planner\",\n  \"workloads\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"simple_ms\": %.3f, "
                 "\"optimized_ms\": %.3f, \"speedup\": %.2f, "
                 "\"rows\": %zu, \"diverged\": %s}%s\n",
                 r.name.c_str(), r.simple_ms, r.optimized_ms,
                 r.simple_ms / std::max(0.001, r.optimized_ms), r.rows,
                 r.diverged ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }

  bench::Banner("E20", "cost-aware optimizer vs simple planner");
  Rng rng(11);
  Catalog catalog = BuildCatalog(&rng);

  SimplePlanner simple;
  TableStatsCache stats;
  CostAwarePlanner optimized(&stats);

  const std::string reorder_sql =
      "SELECT name, total FROM orders "
      "JOIN customers ON customer_id = customers.id "
      "JOIN regions ON region_id = regions.id "
      "WHERE region_name = 'region_3'";
  const std::string pushdown_sql =
      "SELECT order_no, total FROM orders "
      "JOIN customers ON customer_id = customers.id "
      "WHERE name = 'customer_42'";

  std::printf("\nchosen plans:\n");
  std::printf("  reorder/simple    : %s\n",
              PlanOf(&simple, catalog, reorder_sql).c_str());
  std::printf("  reorder/optimized : %s\n",
              PlanOf(&optimized, catalog, reorder_sql).c_str());
  std::printf("  pushdown/simple   : %s\n",
              PlanOf(&simple, catalog, pushdown_sql).c_str());
  std::printf("  pushdown/optimized: %s\n\n",
              PlanOf(&optimized, catalog, pushdown_sql).c_str());

  std::vector<std::string> reorder_queries;
  for (int region = 0; region < 4; ++region) {
    reorder_queries.push_back(
        "SELECT name, total FROM orders "
        "JOIN customers ON customer_id = customers.id "
        "JOIN regions ON region_id = regions.id "
        "WHERE region_name = 'region_" + std::to_string(region) + "'");
  }
  std::vector<std::string> pushdown_queries;
  for (int customer = 40; customer < 44; ++customer) {
    pushdown_queries.push_back(
        "SELECT order_no, total FROM orders "
        "JOIN customers ON customer_id = customers.id "
        "WHERE name = 'customer_" + std::to_string(customer) + "'");
  }

  std::vector<WorkloadResult> results;
  results.push_back(RunWorkload("join-reorder", reorder_queries, catalog,
                                &simple, &optimized));
  results.push_back(RunWorkload("pushdown", pushdown_queries, catalog,
                                &simple, &optimized));

  bench::TablePrinter table(
      {"workload", "simple_ms", "optimized_ms", "speedup", "rows", "match"});
  bool diverged = false;
  for (const WorkloadResult& r : results) {
    diverged = diverged || r.diverged;
    table.AddRow({r.name, Fmt("%.2f", r.simple_ms),
                  Fmt("%.2f", r.optimized_ms),
                  Fmt("%.2fx", r.simple_ms / std::max(0.001, r.optimized_ms)),
                  bench::FmtInt(r.rows), r.diverged ? "DIVERGED" : "ok"});
  }
  table.Print();

  StaleStatsDemo();

  std::printf(
      "\nExpected shape: identical result sets from both planners on every\n"
      "query (\"match\" column), with the optimizer >= 2x on the reorder\n"
      "workload because it drives the join from the filtered small table\n"
      "instead of the textual first one.\n");

  if (!json_path.empty()) WriteJson(json_path, results);
  return diverged ? 1 : 0;
}
