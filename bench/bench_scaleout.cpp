// E1 (Section 3.3, Figure 3): simple, massive parallelism.
//
// Claim: an Impliance instance scales data and processing independently —
// "add more data nodes to provide additional data capacity or throughput;
// add more computing [grid] nodes to support additional users".
//
// Methodology note: simulated nodes are threads, and the host may have
// fewer cores than simulated nodes (this box may have just one). Wall-clock
// time therefore serializes node work and says nothing about appliance
// latency. We report the bulk-synchronous CRITICAL PATH instead: per query
// phase, the slowest node's measured task time, summed across phases — the
// latency the same task placement would have with one core per node.
//
// Part A sweeps data nodes with corpus and query fixed: the critical path
// falls as each node's owned partition shrinks.
// Part B fixes data nodes and sweeps grid nodes under an analytic load
// whose work happens at the grid (no-pushdown aggregation): modeled
// throughput = grid_nodes / grid_task_time rises linearly.

#include "bench_util.h"
#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/rng.h"
#include "model/document.h"

using namespace impliance;
using bench::Fmt;
using bench::FmtInt;
using cluster::SimulatedCluster;
using model::Value;

namespace {

constexpr size_t kDocs = 4000;
constexpr int kQueries = 20;

// An order document with enough text that per-node scan work is real.
model::Document MakeDoc(Rng* rng, int i) {
  std::string text = "order memo";
  for (int w = 0; w < 150; ++w) {
    text += ' ';
    text += rng->Word(2 + rng->Uniform(8));
  }
  return model::MakeRecordDocument(
      "order", {{"city", Value::String(rng->Pick(
                             std::vector<std::string>{"london", "paris",
                                                      "rome", "berlin"}))},
                {"total", Value::Double(static_cast<double>(i % 500))},
                {"memo", Value::String(std::move(text))}});
}

void FillCluster(SimulatedCluster* sim, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < kDocs; ++i) {
    auto id = sim->Ingest(MakeDoc(&rng, static_cast<int>(i)));
    IMPLIANCE_CHECK(id.ok());
  }
}

SimulatedCluster::AggQuery HeavyQuery() {
  // CPU-heavy predicate: substring scan over every owned document's memo.
  SimulatedCluster::AggQuery query;
  query.kind = "order";
  query.filter_path = "/doc/memo";
  query.op = exec::CompareOp::kContains;
  query.literal = Value::String("zzzz needle");
  query.group_path = "/doc/city";
  query.agg_path = "/doc/total";
  return query;
}

}  // namespace

int main() {
  bench::Banner("E1", "scale-out: data nodes and grid nodes independently");

  std::printf("\nPart A: fixed corpus (%zu docs), data nodes swept; modeled\n"
              "(critical-path) latency of a scan-heavy aggregate and a "
              "keyword query\n\n",
              kDocs);
  bench::TablePrinter part_a({"data_nodes", "agg_cp_ms", "search_cp_ms",
                              "speedup_vs_1", "max_docs_per_node"});
  double base_agg = 0;
  for (size_t nodes : {1u, 2u, 4u, 8u, 16u}) {
    SimulatedCluster sim({.num_data_nodes = nodes, .num_grid_nodes = 2});
    FillCluster(&sim, 7);
    SimulatedCluster::AggQuery query = HeavyQuery();

    bench::Samples agg_cp, search_cp;
    for (int q = 0; q < kQueries; ++q) {
      SimulatedCluster::AggResult result =
          sim.FilterAggregate(query, /*pushdown=*/true);
      agg_cp.Add(result.stats.critical_path_micros / 1000.0);
      cluster::ShipStats stats;
      sim.KeywordSearch("memo order", 10, &stats);
      search_cp.Add(stats.critical_path_micros / 1000.0);
    }
    size_t max_owned = 0;
    for (const auto& [node, count] : sim.OwnedCounts()) {
      max_owned = std::max(max_owned, count);
    }
    if (nodes == 1) base_agg = agg_cp.Mean();
    part_a.AddRow({FmtInt(nodes), Fmt("%.3f", agg_cp.Mean()),
                   Fmt("%.3f", search_cp.Mean()),
                   Fmt("%.1fx", base_agg / std::max(1e-6, agg_cp.Mean())),
                   FmtInt(max_owned)});
  }
  part_a.Print();

  std::printf("\nPart B: 4 data nodes fixed, grid nodes swept; grid-heavy\n"
              "(no-pushdown) aggregation — modeled throughput = grid_nodes / "
              "grid_task_time\n\n");
  bench::TablePrinter part_b(
      {"grid_nodes", "grid_task_ms", "modeled_qps", "speedup_vs_1"});
  double base_qps = 0;
  for (size_t grids : {1u, 2u, 4u, 8u}) {
    SimulatedCluster sim({.num_data_nodes = 4, .num_grid_nodes = grids});
    FillCluster(&sim, 7);
    SimulatedCluster::AggQuery query = HeavyQuery();

    bench::Samples grid_ms;
    for (int q = 0; q < kQueries; ++q) {
      SimulatedCluster::AggResult result =
          sim.FilterAggregate(query, /*pushdown=*/false);
      grid_ms.Add(result.stats.grid_task_micros / 1000.0);
    }
    // Each grid node can process one merge task at a time; with `grids`
    // nodes, queries pipeline across them.
    const double qps = grids / (grid_ms.Mean() / 1000.0);
    if (grids == 1) base_qps = qps;
    part_b.AddRow({FmtInt(grids), Fmt("%.2f", grid_ms.Mean()),
                   Fmt("%.0f", qps), Fmt("%.1fx", qps / base_qps)});
  }
  part_b.Print();
  std::printf(
      "\nExpected shape: Part A critical path falls roughly as 1/nodes\n"
      "(the slowest partition shrinks); Part B modeled throughput rises\n"
      "linearly with grid nodes while data nodes are unchanged — the two\n"
      "resources scale independently, as the paper claims.\n");
  return 0;
}
