// E22: autonomic rebalancing under skewed ingest. Sequential document ids
// with key-range partitioning drive every new document into the lowest
// tablet, so without intervention one node absorbs nearly the whole load.
// Runs the identical workload twice — balancer off (static partitions) and
// balancer on (split hot tablets, migrate off hot nodes, deterministic
// RebalanceOnce every few hundred docs) — and reports:
//
//   spread      max(owned)/mean(owned) across data nodes after ingest
//   ingest      sustained ingest throughput (docs/s)
//   query p99   KeywordSearch latency over a post-ingest query storm
//   splits/moves/docs_moved   what the balancer actually did
//
// Gates (exit nonzero on violation): both configs return the identical
// sorted doc-id set for every probe query, no degraded answers, integrity
// clean after every balancer pass (no duplicate holders, no directory
// holder missing its bytes, gapless table), and the balancer cuts
// ownership spread by at least 2x.
//
// Emits JSON (--json PATH) for CI archiving. Deterministic for a fixed
// --seed (the seed only varies probe-query order).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "cluster/node.h"
#include "model/document.h"

using namespace impliance;
using bench::Fmt;
using bench::FmtInt;
using cluster::ShipStats;
using cluster::SimulatedCluster;

namespace {

constexpr int kDocs = 2400;
constexpr int kRebalanceEvery = 200;  // docs between deterministic passes
constexpr int kQueryRounds = 120;
constexpr size_t kDataNodes = 6;

// The probe vocabulary: every doc matches "memo"; each probe term selects
// a deterministic subset so result-set equality is a real comparison.
const char* kProbeTerms[] = {"memo", "alpha", "bravo", "charlie", "delta"};

model::Document Memo(int i) {
  static const char* kTags[] = {"alpha", "bravo", "charlie", "delta"};
  return model::MakeTextDocument(
      "memo", "memo " + std::to_string(i),
      std::string("rebalance memo number ") + std::to_string(i) + " tag " +
          kTags[i % 4]);
}

struct RunResult {
  double spread = 0;
  double ingest_docs_per_sec = 0;
  double query_p50_ms = 0;
  double query_p99_ms = 0;
  size_t splits = 0;
  size_t merges = 0;
  size_t moves = 0;
  size_t docs_moved = 0;
  size_t degraded = 0;
  size_t silent = 0;        // complete-flagged but short answers
  size_t integrity_bad = 0; // balancer passes leaving a broken invariant
  size_t duplicate_holders = 0;
  size_t directory_phantoms = 0;  // listed holders without the bytes
  // Sorted doc-id answer per probe term, for cross-config equality.
  std::vector<std::vector<model::DocId>> answers;
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(v.size() - 1,
                              static_cast<size_t>(p * (v.size() - 1) + 0.5));
  return v[idx];
}

RunResult RunWorkload(uint64_t seed, bool balancer_on) {
  RunResult out;
  SimulatedCluster::Options opt;
  opt.num_data_nodes = kDataNodes;
  opt.num_grid_nodes = 2;
  opt.replication = 2;
  opt.key_range_partitioning = true;  // sequential ids = worst-case skew
  if (balancer_on) {
    opt.split_doc_threshold = 64;
    opt.balance_tolerance = 1.2;
    opt.max_moves_per_pass = 8;
  }
  SimulatedCluster cluster(opt);

  size_t ingested = 0;
  double audit_secs = 0;
  const auto ingest_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kDocs; ++i) {
    if (cluster.Ingest(Memo(i)).ok()) ++ingested;
    if (balancer_on && (i + 1) % kRebalanceEvery == 0) {
      const SimulatedCluster::RebalanceReport r = cluster.RebalanceOnce();
      out.splits += r.splits;
      out.merges += r.merges;
      out.moves += r.moves;
      out.docs_moved += r.docs_moved;
      // The audit is a check, not ingest work: keep it off the clock.
      const auto audit_start = std::chrono::steady_clock::now();
      const SimulatedCluster::IntegrityReport integ = cluster.CheckIntegrity();
      audit_secs += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - audit_start)
                        .count();
      if (!integ.ok()) ++out.integrity_bad;
      out.duplicate_holders += integ.duplicate_holders;
      out.directory_phantoms += integ.directory_phantoms;
    }
  }
  const double ingest_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    ingest_start)
          .count() -
      audit_secs;
  out.ingest_docs_per_sec = ingest_secs > 0 ? ingested / ingest_secs : 0;
  out.spread = cluster.OwnershipSpread();

  // Post-ingest query storm: latency distribution plus silent-partial
  // detection ("memo" matches every document).
  std::vector<double> latencies;
  uint64_t rng = seed | 1;
  for (int round = 0; round < kQueryRounds; ++round) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const char* term = kProbeTerms[(rng >> 33) % 5];
    ShipStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    auto hits = cluster.KeywordSearch(term, kDocs * 2, &stats);
    latencies.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (stats.degraded) {
      ++out.degraded;
    } else if (std::strcmp(term, "memo") == 0 && hits.size() < ingested) {
      ++out.silent;
    }
  }
  out.query_p50_ms = Percentile(latencies, 0.50);
  out.query_p99_ms = Percentile(latencies, 0.99);

  // Canonical answers for cross-config equality: which documents answer
  // each probe must not depend on where the balancer put them.
  for (const char* term : kProbeTerms) {
    ShipStats stats;
    auto hits = cluster.KeywordSearch(term, kDocs * 2, &stats);
    std::vector<model::DocId> ids;
    ids.reserve(hits.size());
    for (const auto& h : hits) ids.push_back(h.doc);
    std::sort(ids.begin(), ids.end());
    out.answers.push_back(std::move(ids));
    if (stats.degraded) ++out.degraded;
  }

  const SimulatedCluster::IntegrityReport integ = cluster.CheckIntegrity();
  if (!integ.ok()) ++out.integrity_bad;
  out.duplicate_holders += integ.duplicate_holders;
  out.directory_phantoms += integ.directory_phantoms;
  return out;
}

void WriteJson(const std::string& path, const RunResult& off,
               const RunResult& on, double reduction, bool identical,
               uint64_t seed, bool pass) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  auto row = [&](const char* name, const RunResult& r, const char* tail) {
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"spread\": %.3f, "
                 "\"ingest_docs_per_sec\": %.0f, \"query_p50_ms\": %.3f, "
                 "\"query_p99_ms\": %.3f, \"splits\": %zu, \"merges\": %zu, "
                 "\"moves\": %zu, \"docs_moved\": %zu, \"degraded\": %zu, "
                 "\"silent_partials\": %zu, \"integrity_violations\": %zu, "
                 "\"duplicate_holders\": %zu, "
                 "\"directory_phantoms\": %zu}%s\n",
                 name, r.spread, r.ingest_docs_per_sec, r.query_p50_ms,
                 r.query_p99_ms, r.splits, r.merges, r.moves, r.docs_moved,
                 r.degraded, r.silent, r.integrity_bad, r.duplicate_holders,
                 r.directory_phantoms, tail);
  };
  std::fprintf(f, "{\n  \"bench\": \"rebalance\",\n  \"seed\": %llu,\n",
               static_cast<unsigned long long>(seed));
  std::fprintf(f, "  \"docs\": %d,\n  \"configs\": [\n", kDocs);
  row("balancer_off", off, ",");
  row("balancer_on", on, "");
  std::fprintf(f,
               "  ],\n  \"spread_reduction\": %.3f,\n"
               "  \"identical_results\": %s,\n  \"pass\": %s\n}\n",
               reduction, identical ? "true" : "false",
               pass ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  uint64_t seed = 0xC0FFEEull;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
    if (std::strcmp(argv[i], "--seed") == 0)
      seed = std::strtoull(argv[i + 1], nullptr, 0);
  }

  bench::Banner("E22", "Autonomic rebalancing under skewed ingest");
  std::printf(
      "  %d sequential-key docs on %zu data nodes (key-range tablets), "
      "replication 2\n  balancer: split>64 docs, tolerance 1.2, pass every "
      "%d docs; seed %llu\n\n",
      kDocs, kDataNodes, kRebalanceEvery,
      static_cast<unsigned long long>(seed));

  const RunResult off = RunWorkload(seed, /*balancer_on=*/false);
  const RunResult on = RunWorkload(seed, /*balancer_on=*/true);

  bench::TablePrinter table({"config", "spread", "ingest/s", "q p50",
                             "q p99", "splits", "moves", "docs_moved",
                             "degraded", "silent"});
  auto add = [&](const char* name, const RunResult& r) {
    table.AddRow({name, Fmt("%.2f", r.spread),
                  Fmt("%.0f", r.ingest_docs_per_sec),
                  Fmt("%.2fms", r.query_p50_ms), Fmt("%.2fms", r.query_p99_ms),
                  FmtInt(r.splits), FmtInt(r.moves), FmtInt(r.docs_moved),
                  FmtInt(r.degraded), FmtInt(r.silent)});
  };
  add("balancer off", off);
  add("balancer on", on);
  table.Print();

  const double reduction = on.spread > 0 ? off.spread / on.spread : 0;
  const bool identical = off.answers == on.answers;
  std::printf("\n  ownership spread reduction: %.2fx (gate: >= 2.0x)\n",
              reduction);
  std::printf("  identical sorted doc-id answers across configs: %s\n",
              identical ? "yes" : "NO");
  std::printf("  silent partials: %zu, integrity violations: %zu, "
              "duplicate holders: %zu, directory phantoms: %zu (all must be "
              "0)\n",
              off.silent + on.silent, off.integrity_bad + on.integrity_bad,
              off.duplicate_holders + on.duplicate_holders,
              off.directory_phantoms + on.directory_phantoms);

  const bool pass = identical && reduction >= 2.0 &&
                    off.silent + on.silent == 0 &&
                    off.degraded + on.degraded == 0 &&
                    off.integrity_bad + on.integrity_bad == 0 &&
                    off.duplicate_holders + on.duplicate_holders == 0 &&
                    off.directory_phantoms + on.directory_phantoms == 0;
  if (!json_path.empty())
    WriteJson(json_path, off, on, reduction, identical, seed, pass);
  return pass ? 0 : 1;
}
