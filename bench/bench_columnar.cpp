// E21: columnar segment scans vs the row path.
//
// One table, two physical layouts: a MemTable (the row path every scan used
// before this subsystem: a full-width scan materializes the vector, then
// predicates filter it) and a ColumnarTable over the same rows (dictionary / RLE /
// delta-encoded blocks with zone maps). A selectivity sweep over a range
// predicate on the clustered id column measures three scan strategies —
// row-path materialize+filter, columnar decode without hints, and columnar
// with zone-map skipping — and a second table reports per-encoding decode
// throughput on single-column tables.
//
// Also a correctness gate: every strategy must return the SAME rows in the
// same order at every selectivity (and per-encoding decode must round-trip
// every row), so the speedups can never come from dropping data. Exits
// nonzero on any divergence.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "exec/operators.h"
#include "exec/predicate.h"
#include "query/columnar_table.h"
#include "query/table.h"
#include "storage/columnar/encoding.h"

namespace impliance {
namespace {

using exec::CompareOp;
using model::Value;
using Clock = std::chrono::steady_clock;

constexpr size_t kRows = 1 << 20;  // 1M rows, 16 full segments
constexpr int kCities = 50;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Schema: id (monotonic -> delta, clustered), city (low NDV -> dict),
// bucket (long runs -> rle), score (random doubles -> plain).
exec::Row MakeRow(size_t i, Rng* rng) {
  return {Value::Int(static_cast<int64_t>(i)),
          Value::String("city" + std::to_string(rng->Uniform(kCities))),
          Value::Int(static_cast<int64_t>(i / 10000)),
          Value::Double(rng->NextDouble() * 1000.0)};
}

bool SameRows(const std::vector<exec::Row>& a, const std::vector<exec::Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); ++c) {
      if (a[i][c].type() != b[i][c].type()) return false;
      if (a[i][c].Compare(b[i][c]) != 0) return false;
    }
  }
  return true;
}

struct SweepResult {
  double selectivity = 0;
  size_t rows_out = 0;
  double row_ms = 0;
  double col_ms = 0;       // columnar decode, no hints
  double col_skip_ms = 0;  // columnar decode with zone-map hints
  uint64_t blocks_skipped = 0;
  uint64_t blocks_decoded = 0;
  bool diverged = false;
};

// The pre-columnar scan shape: materialize every full row, then prune to
// the projected columns while filtering.
std::vector<exec::Row> RowPathScan(const query::MemTable& table,
                                   const std::vector<int>& columns,
                                   const std::vector<exec::Predicate>& preds) {
  std::vector<exec::Row> rows = exec::Execute(table.ScanBatches({}).get());
  std::vector<exec::Row> out;
  for (exec::Row& row : rows) {
    if (!exec::EvalAll(preds, row)) continue;
    exec::Row pruned;
    pruned.reserve(columns.size());
    for (int c : columns) pruned.push_back(std::move(row[c]));
    out.push_back(std::move(pruned));
  }
  return out;
}

std::vector<exec::Row> ColumnarScan(const query::ColumnarTable& table,
                                    const std::vector<int>& columns,
                                    const std::vector<exec::Predicate>& hints,
                                    bool pass_hints, exec::ScanStats* stats) {
  auto scan = table.ScanBatches(
      columns, pass_hints ? hints : std::vector<exec::Predicate>{});
  const query::TableScan* source = scan.get();
  // Hints reference full-schema indices; the scan carries only the
  // projected columns, so re-map the residual predicates.
  std::vector<exec::Predicate> residual = hints;
  for (exec::Predicate& pred : residual) {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i] == pred.column) pred.column = static_cast<int>(i);
    }
  }
  exec::FilterOp filter(std::move(scan), std::move(residual));
  std::vector<exec::Row> out = exec::Execute(&filter);
  if (stats != nullptr) *stats = source->stats();
  return out;
}

SweepResult RunSelectivity(const query::MemTable& mem,
                           const query::ColumnarTable& col,
                           double selectivity) {
  const std::vector<int> columns = {0, 3};  // id, score
  const auto bound = static_cast<int64_t>(selectivity * kRows);
  const std::vector<exec::Predicate> preds = {
      {0, CompareOp::kLt, Value::Int(bound)}};
  // Predicates over the pruned layout for the row path (id is column 0
  // there too).
  SweepResult r;
  r.selectivity = selectivity;

  auto start = Clock::now();
  std::vector<exec::Row> from_rows = RowPathScan(mem, columns, preds);
  r.row_ms = MsSince(start);

  start = Clock::now();
  std::vector<exec::Row> from_col = ColumnarScan(col, columns, preds,
                                                 /*pass_hints=*/false, nullptr);
  r.col_ms = MsSince(start);

  exec::ScanStats stats;
  start = Clock::now();
  std::vector<exec::Row> from_skip =
      ColumnarScan(col, columns, preds, /*pass_hints=*/true, &stats);
  r.col_skip_ms = MsSince(start);

  r.rows_out = from_rows.size();
  r.blocks_skipped = stats.blocks_skipped;
  r.blocks_decoded = stats.blocks_decoded;
  r.diverged = !SameRows(from_rows, from_col) || !SameRows(from_rows, from_skip);
  return r;
}

struct DecodeResult {
  std::string encoding;
  double ms = 0;
  double mrows_s = 0;
  size_t encoded_bytes = 0;
  bool diverged = false;
};

DecodeResult RunDecode(const std::string& name,
                       const std::vector<Value>& values) {
  query::ColumnarTable table("t", exec::Schema{{"v"}});
  for (const Value& value : values) table.AddRow({value});
  DecodeResult r;
  r.encoding = name;
  r.encoded_bytes = table.EncodedBytes();
  const auto start = Clock::now();
  std::vector<exec::Row> rows = exec::Execute(table.ScanBatches({}).get());
  r.ms = MsSince(start);
  r.mrows_s = static_cast<double>(values.size()) / 1e3 / std::max(0.001, r.ms);
  r.diverged = rows.size() != values.size();
  for (size_t i = 0; !r.diverged && i < rows.size(); ++i) {
    r.diverged = rows[i][0].type() != values[i].type() ||
                 rows[i][0].Compare(values[i]) != 0;
  }
  return r;
}

void WriteJson(const std::string& path, const std::vector<SweepResult>& sweep,
               const std::vector<DecodeResult>& decode) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"columnar\",\n  \"rows\": %zu,\n", kRows);
  std::fprintf(f, "  \"selectivity_sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepResult& r = sweep[i];
    std::fprintf(f,
                 "    {\"selectivity\": %.4f, \"rows_out\": %zu, "
                 "\"row_ms\": %.3f, \"columnar_ms\": %.3f, "
                 "\"columnar_skip_ms\": %.3f, \"speedup_vs_row\": %.2f, "
                 "\"blocks_skipped\": %llu, \"blocks_decoded\": %llu, "
                 "\"diverged\": %s}%s\n",
                 r.selectivity, r.rows_out, r.row_ms, r.col_ms, r.col_skip_ms,
                 r.row_ms / std::max(0.001, r.col_skip_ms),
                 static_cast<unsigned long long>(r.blocks_skipped),
                 static_cast<unsigned long long>(r.blocks_decoded),
                 r.diverged ? "true" : "false",
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"decode_throughput\": [\n");
  for (size_t i = 0; i < decode.size(); ++i) {
    const DecodeResult& r = decode[i];
    std::fprintf(f,
                 "    {\"encoding\": \"%s\", \"ms\": %.3f, "
                 "\"mrows_per_s\": %.2f, \"encoded_bytes\": %zu, "
                 "\"diverged\": %s}%s\n",
                 r.encoding.c_str(), r.ms, r.mrows_s, r.encoded_bytes,
                 r.diverged ? "true" : "false",
                 i + 1 < decode.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace impliance

int main(int argc, char** argv) {
  using namespace impliance;
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }

  bench::Banner("E21", "columnar scans with zone-map skipping vs row path");

  std::printf("\nloading %zu rows into both layouts...\n", kRows);
  Rng rng(42);
  query::MemTable mem("events", exec::Schema{{"id", "city", "bucket", "score"}});
  query::ColumnarTable col("events",
                           exec::Schema{{"id", "city", "bucket", "score"}});
  for (size_t i = 0; i < kRows; ++i) {
    exec::Row row = MakeRow(i, &rng);
    col.AddRow(row);
    mem.AddRow(std::move(row));
  }
  std::printf("  %zu segments, %.1f MB encoded (%.1f bytes/row)\n",
              col.num_segments(), col.EncodedBytes() / 1e6,
              static_cast<double>(col.EncodedBytes()) / kRows);

  bool diverged = false;

  std::vector<SweepResult> sweep;
  for (double s : {0.001, 0.01, 0.1, 0.5, 1.0}) {
    sweep.push_back(RunSelectivity(mem, col, s));
    diverged = diverged || sweep.back().diverged;
  }
  bench::TablePrinter table({"selectivity", "rows_out", "row_ms", "col_ms",
                             "col_skip_ms", "speedup", "blk_skip", "blk_dec",
                             "match"});
  for (const SweepResult& r : sweep) {
    table.AddRow({bench::Fmt("%.1f%%", r.selectivity * 100),
                  bench::FmtInt(r.rows_out), bench::Fmt("%.1f", r.row_ms),
                  bench::Fmt("%.1f", r.col_ms),
                  bench::Fmt("%.1f", r.col_skip_ms),
                  bench::Fmt("%.1fx", r.row_ms / std::max(0.001, r.col_skip_ms)),
                  bench::FmtInt(r.blocks_skipped),
                  bench::FmtInt(r.blocks_decoded),
                  r.diverged ? "DIVERGED" : "ok"});
  }
  std::printf("\nselectivity sweep (id range on the clustered column, "
              "projecting id+score):\n");
  table.Print();

  std::printf("\nper-encoding decode throughput (1M single-column rows):\n");
  std::vector<DecodeResult> decode;
  {
    Rng drng(7);
    std::vector<Value> delta, dict, rle, plain;
    for (size_t i = 0; i < kRows; ++i) {
      delta.push_back(Value::Int(static_cast<int64_t>(i * 3)));
      dict.push_back(Value::String("city" + std::to_string(drng.Uniform(40))));
      rle.push_back(Value::Int(static_cast<int64_t>(i / 5000)));
      plain.push_back(drng.Bernoulli(0.5)
                          ? Value::Double(drng.NextDouble())
                          : Value::String(std::to_string(drng.Next())));
    }
    decode.push_back(RunDecode("delta", delta));
    decode.push_back(RunDecode("dict", dict));
    decode.push_back(RunDecode("rle", rle));
    decode.push_back(RunDecode("plain", plain));
  }
  bench::TablePrinter dtable(
      {"encoding", "ms", "mrows/s", "bytes/row", "match"});
  for (const DecodeResult& r : decode) {
    diverged = diverged || r.diverged;
    dtable.AddRow({r.encoding, bench::Fmt("%.1f", r.ms),
                   bench::Fmt("%.2f", r.mrows_s),
                   bench::Fmt("%.2f", static_cast<double>(r.encoded_bytes) / kRows),
                   r.diverged ? "DIVERGED" : "ok"});
  }
  dtable.Print();

  std::printf(
      "\nExpected shape: identical rows from all three strategies at every\n"
      "selectivity, with columnar+skip >= 3x over the row path at <= 10%%\n"
      "selectivity (zone maps on the clustered id column refute most\n"
      "blocks; the row path always materializes all %zu rows).\n",
      kRows);

  if (!json_path.empty()) WriteJson(json_path, sweep, decode);
  return diverged ? 1 : 0;
}
