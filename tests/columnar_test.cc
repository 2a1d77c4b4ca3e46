// Columnar segment storage: encodings round-trip bit-identically, zone-map
// refutation is never less conservative than row-wise Predicate::Eval, and
// a ColumnarTable answers every query exactly like a MemTable holding the
// same rows — at any selectivity, any encoding mix, and any DOP — while
// actually skipping blocks the predicates refute.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/batch_source.h"
#include "exec/parallel.h"
#include "exec/predicate.h"
#include "obs/metrics.h"
#include "query/columnar_table.h"
#include "query/opt/optimizer.h"
#include "query/opt/stats.h"
#include "query/opt/stats_cache.h"
#include "query/planner.h"
#include "query/sql_parser.h"
#include "query/table.h"
#include "storage/columnar/column_segment.h"
#include "storage/columnar/encoding.h"
#include "storage/columnar/zone_map.h"

namespace impliance::storage::columnar {
namespace {

using exec::CompareOp;
using model::Value;

// ----------------------------------------------------------- helpers

std::vector<Value> RoundTrip(Encoding encoding,
                             const std::vector<Value>& values,
                             const std::vector<Value>& dict = {}) {
  std::string payload;
  EncodeBlock(encoding, values, 0, values.size(), dict, &payload);
  std::string_view input = payload;
  std::vector<Value> decoded;
  EXPECT_TRUE(DecodeBlock(encoding, &input, dict, &decoded));
  EXPECT_TRUE(input.empty()) << "trailing bytes after decode";
  return decoded;
}

void ExpectSameValues(const std::vector<Value>& a, const std::vector<Value>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].Compare(b[i]), 0) << "row " << i;
    EXPECT_EQ(a[i].type(), b[i].type()) << "row " << i;
  }
}

std::vector<std::string> Canonical(const std::vector<exec::Row>& rows) {
  std::vector<std::string> flat;
  flat.reserve(rows.size());
  for (const exec::Row& row : rows) {
    std::string line;
    for (const Value& value : row) line += value.AsString() + "\x1f";
    flat.push_back(std::move(line));
  }
  std::sort(flat.begin(), flat.end());
  return flat;
}

// --------------------------------------------------- encoding round-trips

TEST(ColumnarEncodingTest, PlainRoundTripsMixedTypes) {
  const std::vector<Value> values = {Value::Int(7), Value::String("x"),
                                     Value::Double(2.5), Value::Bool(true),
                                     Value::Timestamp(123456)};
  ExpectSameValues(values, RoundTrip(Encoding::kPlain, values));
}

TEST(ColumnarEncodingTest, RleRoundTripsRuns) {
  std::vector<Value> values;
  for (int run = 0; run < 5; ++run) {
    for (int i = 0; i < 100; ++i) values.push_back(Value::Int(run));
  }
  ExpectSameValues(values, RoundTrip(Encoding::kRle, values));
}

TEST(ColumnarEncodingTest, DictRoundTripsStrings) {
  const std::vector<Value> dict = {Value::String("london"),
                                   Value::String("paris"),
                                   Value::String("rome")};
  std::vector<Value> values;
  for (int i = 0; i < 200; ++i) values.push_back(dict[i % 3]);
  ExpectSameValues(values, RoundTrip(Encoding::kDict, values, dict));
}

TEST(ColumnarEncodingTest, DeltaRoundTripsIntsAndTimestamps) {
  std::vector<Value> ints;
  for (int64_t i = 0; i < 300; ++i) ints.push_back(Value::Int(i * 17 - 2000));
  ExpectSameValues(ints, RoundTrip(Encoding::kDelta, ints));

  std::vector<Value> stamps;
  for (int64_t i = 0; i < 300; ++i) {
    stamps.push_back(Value::Timestamp(1700000000 + i * 60));
  }
  const std::vector<Value> decoded = RoundTrip(Encoding::kDelta, stamps);
  ExpectSameValues(stamps, decoded);
  EXPECT_EQ(decoded[0].type(), model::ValueType::kTimestamp);
}

TEST(ColumnarEncodingTest, NullsInterleaveThroughEveryEncoding) {
  std::vector<Value> values;
  for (int i = 0; i < 128; ++i) {
    values.push_back(i % 3 == 0 ? Value::Null() : Value::Int(i / 4));
  }
  for (Encoding encoding :
       {Encoding::kPlain, Encoding::kRle, Encoding::kDelta}) {
    ExpectSameValues(values, RoundTrip(encoding, values));
  }
}

TEST(ColumnarEncodingTest, AllNullAndEmptyBlocks) {
  const std::vector<Value> all_null(50, Value::Null());
  for (Encoding encoding : {Encoding::kPlain, Encoding::kRle, Encoding::kDict,
                            Encoding::kDelta}) {
    ExpectSameValues(all_null, RoundTrip(encoding, all_null));
    ExpectSameValues({}, RoundTrip(encoding, {}));
  }
}

TEST(ColumnarEncodingTest, ChoosesExpectedEncodings) {
  std::vector<Value> monotonic;
  for (int i = 0; i < 1000; ++i) monotonic.push_back(Value::Int(i));
  EXPECT_EQ(ChooseEncoding(monotonic, 0, monotonic.size()).encoding,
            Encoding::kDelta);

  std::vector<Value> runs;
  for (int i = 0; i < 1000; ++i) runs.push_back(Value::String(i < 600 ? "a" : "b"));
  EXPECT_EQ(ChooseEncoding(runs, 0, runs.size()).encoding, Encoding::kRle);

  std::vector<Value> cities;
  for (int i = 0; i < 1000; ++i) {
    cities.push_back(Value::String("city" + std::to_string(i % 37)));
  }
  const EncodingChoice choice = ChooseEncoding(cities, 0, cities.size());
  EXPECT_EQ(choice.encoding, Encoding::kDict);
  EXPECT_EQ(choice.dict.size(), 37u);
  EXPECT_TRUE(std::is_sorted(choice.dict.begin(), choice.dict.end(),
                             [](const Value& a, const Value& b) {
                               return a.Compare(b) < 0;
                             }));

  std::vector<Value> mixed;
  for (int i = 0; i < 100; ++i) {
    mixed.push_back(i % 2 == 0 ? Value::Double(i * 0.5)
                               : Value::String(std::to_string(i)));
  }
  EXPECT_EQ(ChooseEncoding(mixed, 0, mixed.size()).encoding, Encoding::kPlain);
}

// ------------------------------------------------------ zone-map semantics

// Refutation must be sound against Predicate::Eval: whenever the zone map
// says "skip", row-wise evaluation must reject every value in the zone.
TEST(ZoneMapTest, RefutationNeverDisagreesWithEval) {
  Rng rng(20260809);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Value> values;
    ZoneMap zone;
    const size_t n = rng.Uniform(20);
    for (size_t i = 0; i < n; ++i) {
      Value v;
      switch (rng.Uniform(3)) {
        case 0: v = Value::Null(); break;
        case 1: v = Value::Int(rng.UniformInt(-5, 5)); break;
        default: v = Value::String(std::string(1, 'a' + rng.Uniform(6))); break;
      }
      zone.Note(v);
      values.push_back(std::move(v));
    }
    const Value literals[] = {Value::Null(), Value::Int(rng.UniformInt(-5, 5)),
                              Value::String(std::string(1, 'a' + rng.Uniform(6)))};
    for (const Value& literal : literals) {
      for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe,
                           CompareOp::kContains}) {
        if (!ZoneMapRefutes(zone, op, literal)) continue;
        const exec::Predicate pred{0, op, literal};
        for (const Value& value : values) {
          EXPECT_FALSE(pred.Eval(exec::Row{value}))
              << "zone refuted op " << static_cast<int>(op) << " but a row matches";
        }
      }
    }
  }
}

TEST(ZoneMapTest, EmptyAndAllNullZonesRefuteComparisons) {
  ZoneMap empty;
  EXPECT_TRUE(ZoneMapRefutes(empty, CompareOp::kEq, Value::Int(1)));
  EXPECT_TRUE(ZoneMapRefutes(empty, CompareOp::kContains, Value::String("x")));

  ZoneMap nulls;
  nulls.Note(Value::Null());
  nulls.Note(Value::Null());
  EXPECT_TRUE(ZoneMapRefutes(nulls, CompareOp::kEq, Value::Int(1)));
  EXPECT_TRUE(ZoneMapRefutes(nulls, CompareOp::kNe, Value::Int(1)));
  EXPECT_TRUE(ZoneMapRefutes(nulls, CompareOp::kContains, Value::String("x")));

  ZoneMap some;
  some.Note(Value::Null());
  some.Note(Value::String("abc"));
  // Substring matches cannot be refuted from bounds once a value exists.
  EXPECT_FALSE(ZoneMapRefutes(some, CompareOp::kContains, Value::String("zz")));
  // A null literal fails every comparison row-wise, so it always refutes.
  EXPECT_TRUE(ZoneMapRefutes(some, CompareOp::kEq, Value::Null()));
}

// --------------------------------------------------- segment scan behavior

query::ColumnarTable MakeClustered(size_t rows, size_t segment_rows,
                                   size_t block_rows) {
  query::ColumnarTable table(
      "events", exec::Schema{{"id", "city", "flag"}}, segment_rows, block_rows);
  for (size_t i = 0; i < rows; ++i) {
    table.AddRow({Value::Int(static_cast<int64_t>(i)),
                  Value::String("city" + std::to_string(i % 5)),
                  i % 7 == 0 ? Value::Null() : Value::Int(static_cast<int64_t>(i % 2))});
  }
  return table;
}

TEST(ColumnarScanTest, SkipsBlocksOutsideRangeAndStaysExact) {
  // 4096 rows, segments of 1024, blocks of 128 -> 4 segments x 8 blocks.
  query::ColumnarTable table = MakeClustered(4096, 1024, 128);
  ASSERT_EQ(table.num_segments(), 4u);

  std::vector<exec::Predicate> hints = {
      {0, CompareOp::kGe, Value::Int(1000)}, {0, CompareOp::kLt, Value::Int(1100)}};
  auto scan = table.ScanBatches({0, 1}, hints);
  const query::TableScan* source = scan.get();
  exec::FilterOp filter(std::move(scan), hints);
  std::vector<exec::Row> rows = exec::Execute(&filter);
  ASSERT_EQ(rows.size(), 100u);
  for (const exec::Row& row : rows) {
    EXPECT_GE(row[0].int_value(), 1000);
    EXPECT_LT(row[0].int_value(), 1100);
  }
  const exec::ScanStats stats = source->stats();
  EXPECT_EQ(stats.segments_visited, 4u);
  EXPECT_GE(stats.segments_skipped, 2u);  // ids 0-1023 and 2048+ refuted
  EXPECT_GT(stats.blocks_skipped, 0u);
  EXPECT_LT(stats.blocks_decoded, 4u);  // clustered: ~2 blocks cover the range
  // rows_decoded counts pre-filter rows out of decoded blocks, a full 128
  // rows per surviving block.
  EXPECT_EQ(stats.rows_decoded, stats.blocks_decoded * 128u);
}

TEST(ColumnarScanTest, AllPrunedSegmentsYieldNoRows) {
  query::ColumnarTable table = MakeClustered(2048, 1024, 128);
  std::vector<exec::Predicate> hints = {{0, CompareOp::kGt, Value::Int(999999)}};
  auto scan = table.ScanBatches({0}, hints);
  const query::TableScan* source = scan.get();
  exec::FilterOp filter(std::move(scan), hints);
  std::vector<exec::Row> rows = exec::Execute(&filter);
  EXPECT_TRUE(rows.empty());
  const exec::ScanStats stats = source->stats();
  EXPECT_EQ(stats.blocks_decoded, 0u);
  EXPECT_EQ(stats.segments_skipped, 2u);
}

TEST(ColumnarScanTest, TailShorterThanSegmentScansCorrectly) {
  query::ColumnarTable table = MakeClustered(100, 1024, 128);
  EXPECT_EQ(table.num_segments(), 0u);
  EXPECT_EQ(table.staged_rows(), 100u);
  auto source = table.ScanBatches({});
  std::vector<exec::Row> rows = exec::Execute(source.get());
  ASSERT_EQ(rows.size(), 100u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0].int_value(), static_cast<int64_t>(i));
  }
}

TEST(ColumnarScanTest, EmptyTableScansEmpty) {
  query::ColumnarTable table("empty", exec::Schema{{"x"}});
  auto source = table.ScanBatches({0});
  source->Open();
  exec::RowBatch batch;
  EXPECT_FALSE(source->NextBatch(&batch));
  EXPECT_TRUE(batch.empty());
}

TEST(ColumnarScanTest, ProjectionDecodesOnlyRequestedColumns) {
  query::ColumnarTable table = MakeClustered(2048, 1024, 2048);
  auto source = table.ScanBatches({1});
  std::vector<exec::Row> rows = exec::Execute(source.get());
  ASSERT_EQ(rows.size(), 2048u);
  ASSERT_EQ(rows[0].size(), 1u);
  EXPECT_EQ(rows[0][0].AsString(), "city0");
  ASSERT_EQ(source->schema().columns.size(), 1u);
  EXPECT_EQ(source->schema().columns[0], "city");
}

TEST(ColumnarScanTest, ScanEmitsObsCountersAndSkips) {
  const uint64_t skipped_before =
      obs::Registry::Global().GetCounter("scan.blocks_skipped")->Value();
  query::ColumnarTable table = MakeClustered(2048, 1024, 128);
  std::vector<exec::Predicate> hints = {{0, CompareOp::kLt, Value::Int(10)}};
  auto source = table.ScanBatches({0}, hints);
  (void)exec::Execute(source.get());
  source.reset();  // the scan flushes at end of stream, Close or destruction
  const uint64_t skipped_after =
      obs::Registry::Global().GetCounter("scan.blocks_skipped")->Value();
  EXPECT_GT(skipped_after, skipped_before);
}

TEST(ColumnarTableTest, SummarizeColumnIsExactAcrossSegmentsAndTail) {
  query::ColumnarTable table = MakeClustered(2500, 1024, 128);
  EXPECT_EQ(table.num_segments(), 2u);
  EXPECT_EQ(table.staged_rows(), 452u);
  const auto id = table.SummarizeColumn(0);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(id->row_count, 2500u);
  EXPECT_EQ(id->null_count, 0u);
  EXPECT_EQ(id->min.int_value(), 0);
  EXPECT_EQ(id->max.int_value(), 2499);
  const auto flag = table.SummarizeColumn(2);
  ASSERT_TRUE(flag.has_value());
  EXPECT_EQ(flag->null_count, (2500u + 6u) / 7u);
  EXPECT_EQ(table.SummarizeColumn(99), std::nullopt);
}

TEST(ColumnarTableTest, StatsCollectorUsesExactSummaries) {
  query::ColumnarTable table = MakeClustered(20000, 4096, 512);
  query::opt::StatsOptions options;
  options.sample_rows = 100;  // tiny sample; min/max must still be exact
  const query::opt::TableStats stats =
      query::opt::CollectTableStats(table, options);
  EXPECT_EQ(stats.row_count, 20000u);
  EXPECT_EQ(stats.columns[0].min.int_value(), 0);
  EXPECT_EQ(stats.columns[0].max.int_value(), 19999);
  EXPECT_EQ(stats.columns[2].null_count, (20000u + 6u) / 7u);
}

// Direct zero-column scan: a COUNT(*)-style consumer needs row counts
// without decoding any column.
TEST(ColumnarScanTest, ZeroColumnScanCountsRows) {
  SegmentBuilder builder(1, 16, 4);
  std::vector<std::unique_ptr<ColumnSegment>> segments;
  for (int i = 0; i < 40; ++i) {
    if (auto segment = builder.Append({Value::Int(i)})) {
      segments.push_back(std::move(segment));
    }
  }
  ColumnarBatchSource source(exec::Schema{}, &segments, &builder.staged(),
                             builder.staged_rows(), {}, {});
  exec::RowBatch batch;
  size_t rows = 0;
  while (source.NextBatch(&batch)) rows += batch.size();
  rows += batch.size();
  EXPECT_EQ(rows, 40u);
}

// ----------------------------------------- MemTable / ColumnarTable parity

// The core acceptance property: for a seeded random table exercising every
// encoding, ColumnarTable answers exactly like MemTable for every planner,
// selectivity, and DOP combination.
TEST(ColumnarParityTest, MatchesMemTableAcrossSelectivitiesAndDops) {
  Rng rng(7);
  const size_t kRows = 6000;
  // Small segments/blocks so the data spans many segments plus a tail.
  auto columnar = std::make_shared<query::ColumnarTable>(
      "events", exec::Schema{{"id", "city", "bucket", "score", "note"}}, 1024,
      128);
  auto mem = std::make_shared<query::MemTable>(
      "events", exec::Schema{{"id", "city", "bucket", "score", "note"}});
  for (size_t i = 0; i < kRows; ++i) {
    exec::Row row = {
        Value::Int(static_cast<int64_t>(i)),                    // delta
        Value::String("city" + std::to_string(rng.Uniform(20))),  // dict
        Value::Int(static_cast<int64_t>(i / 500)),              // rle
        Value::Double(rng.NextDouble() * 100.0),                // plain
        rng.Bernoulli(0.2) ? Value::Null()
                           : Value::String("n" + std::to_string(rng.Uniform(3))),
    };
    columnar->AddRow(row);
    mem->AddRow(std::move(row));
  }
  query::Catalog columnar_catalog, mem_catalog;
  columnar_catalog.Register(columnar);
  mem_catalog.Register(mem);

  const std::vector<std::string> queries = {
      // ~0.2% selectivity, clustered range: zone maps skip nearly all.
      "SELECT id, city FROM events WHERE id >= 100 AND id < 112",
      // ~10% selectivity.
      "SELECT id, score FROM events WHERE id < 600",
      // ~50% selectivity plus a dict-column equality.
      "SELECT id, bucket FROM events WHERE id < 3000 AND city = 'city7'",
      // Full scan with aggregate over the RLE column.
      "SELECT bucket, COUNT(*), SUM(score) FROM events GROUP BY bucket",
      // Nullable-column predicate (nulls must never match).
      "SELECT id FROM events WHERE note = 'n1' AND id < 2000",
      // No predicate, ordered with limit.
      "SELECT id, city FROM events ORDER BY id DESC LIMIT 17",
  };
  query::SimplePlanner simple;
  query::opt::TableStatsCache stats;
  query::opt::CostAwarePlanner cost_aware(&stats);
  for (const std::string& sql : queries) {
    for (size_t dop : {size_t{1}, size_t{2}, size_t{8}}) {
      exec::ExecOptions options;
      options.dop = dop;
      for (query::Planner* planner :
           std::initializer_list<query::Planner*>{&simple, &cost_aware}) {
        auto from_mem = query::RunSql(sql, mem_catalog, planner, options);
        auto from_col = query::RunSql(sql, columnar_catalog, planner, options);
        ASSERT_TRUE(from_mem.ok()) << sql;
        ASSERT_TRUE(from_col.ok()) << sql;
        EXPECT_EQ(Canonical(*from_mem), Canonical(*from_col))
            << sql << " dop=" << dop;
      }
    }
  }
}

// ------------------------------------------------------- planner surfaces

TEST(ColumnarPlannerTest, ExplainShowsColumnarScanWithDiscountedCost) {
  auto columnar = std::make_shared<query::ColumnarTable>(
      "events", exec::Schema{{"id", "v"}}, 1024, 128);
  for (int i = 0; i < 8192; ++i) {
    columnar->AddRow({Value::Int(i), Value::Int(i % 10)});
  }
  query::Catalog catalog;
  catalog.Register(columnar);
  query::opt::TableStatsCache stats;
  query::opt::CostAwarePlanner planner(&stats);
  auto stmt = query::ParseSql("SELECT id FROM events WHERE id < 100");
  ASSERT_TRUE(stmt.ok());
  auto plan = planner.Plan(*stmt, catalog);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->explain.find("ColumnarScan"), std::string::npos)
      << plan->explain;
}

}  // namespace
}  // namespace impliance::storage::columnar
