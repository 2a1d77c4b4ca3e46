// E13 (Section 3.1): compression pushed down into the storage software.
// "The former [compression] is crucial for dealing with large amounts of
// data ... the push-down logic is implemented in the software component of
// a storage unit, and thus can be deployed on any type of commodity
// hardware."
//
// Measures segment bytes on disk, flush throughput, and point-read latency
// with the storage-level LZ codec on vs off, over a realistic mixed corpus
// (enterprise text compresses well; random keys do not).

#include <filesystem>

#include "bench_util.h"
#include "common/clock.h"
#include "common/compression.h"
#include "common/rng.h"
#include "storage/document_store.h"
#include "workload/corpus.h"

using namespace impliance;
using bench::Fmt;
using bench::FmtInt;

namespace {

namespace fs = std::filesystem;

uint64_t SegmentBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".seg") total += fs::file_size(entry);
  }
  return total;
}

}  // namespace

int main() {
  bench::Banner("E13", "storage-software compression pushdown");

  // Codec microbenchmark on corpus text first.
  workload::CorpusOptions options;
  options.num_customers = 50;
  options.num_transcripts = 100;
  options.num_claims = 50;
  options.num_orders_csv = 100;
  options.num_orders_xml = 50;
  options.num_orders_email = 50;
  options.num_contract_emails = 20;
  workload::GroundTruth truth;
  std::vector<workload::RawItem> items =
      workload::CorpusGenerator(options).GenerateRaw(&truth);
  {
    std::string all;
    for (const auto& item : items) all += item.content;
    std::string compressed;
    Stopwatch compress_watch;
    LzCompress(all, &compressed);
    const double compress_s = compress_watch.ElapsedSeconds();
    Stopwatch decompress_watch;
    auto restored = LzDecompress(compressed);
    const double decompress_s = decompress_watch.ElapsedSeconds();
    IMPLIANCE_CHECK(restored.ok() && *restored == all);
    std::printf("\ncodec on %zu KB of corpus text: ratio %.2fx, compress "
                "%.0f MB/s, decompress %.0f MB/s\n\n",
                all.size() / 1024,
                static_cast<double>(all.size()) / compressed.size(),
                all.size() / 1e6 / compress_s,
                all.size() / 1e6 / decompress_s);
  }

  // Store-level ablation over two document populations: small mixed
  // documents (little per-record redundancy — compression is applied per
  // record) and boilerplate-heavy form documents (the claims/forms case
  // the paper's use cases revolve around).
  auto make_forms = [] {
    std::vector<std::string> forms;
    Rng rng(17);
    for (int i = 0; i < 300; ++i) {
      std::string form;
      for (int section = 0; section < 12; ++section) {
        form += "SECTION " + std::to_string(section) +
                " -- CLAIMANT INFORMATION (complete all fields; attach "
                "supporting documentation as described in the policy "
                "handbook)\n  field_name: value_" +
                rng.Word(6) +
                "\n  reviewed_by: adjuster\n  status: pending\n";
      }
      forms.push_back(std::move(form));
    }
    return forms;
  };
  std::vector<std::string> forms = make_forms();

  bench::TablePrinter table({"corpus", "segments", "disk_bytes", "flush_ms",
                             "point_read_us (cold)", "ratio"});
  for (int population = 0; population < 2; ++population) {
    const bool use_forms = population == 1;
    uint64_t plain_bytes = 0;
    for (bool compress : {false, true}) {
      const std::string dir = std::string("/tmp/impliance_bench_comp_") +
                              (use_forms ? "forms_" : "mixed_") +
                              (compress ? "on" : "off");
      fs::remove_all(dir);
      auto opened = storage::DocumentStore::Open(
          {.dir = dir,
           .memtable_max_docs = 1 << 20,  // manual flush
           .block_cache_bytes = 0,        // cold reads
           .compress_segments = compress});
      IMPLIANCE_CHECK(opened.ok());
      auto store = std::move(opened).value();

      size_t count = 0;
      if (use_forms) {
        for (const std::string& form : forms) {
          IMPLIANCE_CHECK(
              store->Insert(model::MakeTextDocument("claim_form", "", form))
                  .ok());
          ++count;
        }
      } else {
        for (const auto& item : items) {
          IMPLIANCE_CHECK(store->Insert(model::MakeTextDocument(
                                            item.kind, "", item.content))
                              .ok());
          ++count;
        }
      }
      Stopwatch flush_watch;
      IMPLIANCE_CHECK_OK(store->Flush());
      const double flush_ms = flush_watch.ElapsedMillis();

      bench::Samples read_us;
      Rng rng(9);
      for (int probe = 0; probe < 200; ++probe) {
        const model::DocId id = 1 + rng.Uniform(count);
        Stopwatch watch;
        IMPLIANCE_CHECK(store->Get(id).ok());
        read_us.Add(static_cast<double>(watch.ElapsedMicros()));
      }
      const uint64_t disk = SegmentBytes(dir);
      if (!compress) plain_bytes = disk;
      table.AddRow({use_forms ? "form docs" : "mixed small",
                    compress ? "LZ-compressed" : "raw", FmtInt(disk),
                    Fmt("%.1f", flush_ms), Fmt("%.1f", read_us.Mean()),
                    compress ? Fmt("%.2fx smaller",
                                   static_cast<double>(plain_bytes) / disk)
                             : "1x"});
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape: per-record compression wins little on small mixed\n"
      "documents (each record is its own window) but several-fold on the\n"
      "boilerplate-heavy forms of the paper's claims use case, at\n"
      "microsecond read cost — the software compression pushdown on\n"
      "commodity hardware that the paper contrasts with Netezza's\n"
      "proprietary disk controllers.\n");
  return 0;
}
