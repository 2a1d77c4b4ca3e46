// E7 (Section 3.3): "given a keyword-search interface that requires only
// the top-k results, indexed nested-loop joins may always be the preferred
// join method."
//
// Left input: a ranked candidate stream (what a keyword query produces).
// The query wants the first k joined rows. The indexed NL join streams —
// it probes only until k rows have been emitted; the hash join must build
// its entire build side before the first row comes out. Sweeping k exposes
// the crossover.

#include <memory>

#include "bench_util.h"
#include "common/clock.h"
#include "common/rng.h"
#include "exec/operators.h"
#include "query/table.h"

using namespace impliance;
using bench::Fmt;
using bench::FmtInt;
using exec::Row;
using model::Value;

namespace {

constexpr size_t kCandidates = 50000;  // ranked left stream
constexpr size_t kDimension = 200000;  // customers (right side)

std::vector<Row> MakeCandidates(Rng* rng) {
  std::vector<Row> rows;
  rows.reserve(kCandidates);
  for (size_t i = 0; i < kCandidates; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),  // rank
                    Value::Int(static_cast<int64_t>(
                        rng->Uniform(kDimension)))});      // customer_id
  }
  return rows;
}

}  // namespace

int main() {
  bench::Banner("E7", "top-k: indexed NL join vs hash join crossover");

  Rng rng(21);
  std::vector<Row> candidates = MakeCandidates(&rng);

  query::MemTable customers("customers", exec::Schema{{"id", "name"}});
  for (size_t i = 0; i < kDimension; ++i) {
    customers.AddRow({Value::Int(static_cast<int64_t>(i)),
                      Value::String("customer_" + std::to_string(i))});
  }
  customers.BuildIndex(0);

  const exec::Schema left_schema{{"rank", "customer_id"}};

  bench::TablePrinter table(
      {"k", "inlj_ms", "inlj_probes", "hash_ms", "hash_build_rows", "winner"});
  for (size_t k : {1u, 10u, 100u, 1000u, 10000u, 50000u}) {
    // Indexed NL join under a limit: stops after k output rows.
    double inlj_ms;
    uint64_t probes;
    {
      auto left =
          std::make_unique<exec::RowSourceOp>(left_schema, candidates);
      auto join = std::make_unique<exec::IndexedNLJoinOp>(
          std::move(left), 1,
          [&customers](const Value& key) {
            return customers.IndexLookup(0, key);
          },
          customers.schema());
      exec::IndexedNLJoinOp* join_ptr = join.get();
      exec::LimitOp limit(std::move(join), k);
      Stopwatch watch;
      std::vector<Row> rows = exec::Execute(&limit);
      inlj_ms = watch.ElapsedMillis();
      probes = join_ptr->index_probes();
      IMPLIANCE_CHECK(rows.size() <= k);
    }

    // Hash join: builds all of `customers` before emitting anything.
    double hash_ms;
    size_t build_rows;
    {
      auto left =
          std::make_unique<exec::RowSourceOp>(left_schema, candidates);
      auto right = std::make_unique<exec::RowSourceOp>(
          customers.schema(), exec::Execute(customers.ScanBatches({}).get()));
      auto join = std::make_unique<exec::HashJoinOp>(std::move(left),
                                                     std::move(right), 1, 0);
      exec::HashJoinOp* join_ptr = join.get();
      exec::LimitOp limit(std::move(join), k);
      Stopwatch watch;
      std::vector<Row> rows = exec::Execute(&limit);
      hash_ms = watch.ElapsedMillis();
      build_rows = join_ptr->build_rows();
      IMPLIANCE_CHECK(rows.size() <= k);
    }

    table.AddRow({FmtInt(k), Fmt("%.2f", inlj_ms), FmtInt(probes),
                  Fmt("%.2f", hash_ms), FmtInt(build_rows),
                  inlj_ms < hash_ms ? "INLJ" : "hash"});
  }
  table.Print();
  std::printf(
      "\nExpected shape: for small k the indexed NL join wins by orders of\n"
      "magnitude (it probes ~k times; the hash join always builds %zu\n"
      "rows first). The crossover sits near k where probe cost equals the\n"
      "build — for a top-k retrieval interface, INLJ-always is a sound\n"
      "rule, which is why the simple planner can skip join optimization.\n",
      kDimension);
  return 0;
}
