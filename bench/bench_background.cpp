// E11 (Sections 3.3/3.4): "an Impliance cluster will run a series of
// continuous background tasks" and execution management must interleave
// them with "queries with more stringent response-time requirements".
//
// A worker pool is saturated with long-running analysis tasks (annotation
// batches over a text corpus) while interactive keyword queries arrive.
// With priority scheduling, interactive p99 stays near its unloaded value;
// with plain FIFO, interactive queries wait behind the analysis queue.
// Background completion time is the price paid — nearly nothing.

#include "bench_util.h"
#include "common/clock.h"
#include "common/rng.h"
#include "discovery/pattern_annotator.h"
#include "index/inverted_index.h"
#include "model/document.h"
#include "obs/metrics.h"
#include "virt/execution_manager.h"

using namespace impliance;
using bench::Fmt;
using bench::FmtInt;

namespace {

constexpr size_t kCorpusDocs = 2400;
constexpr size_t kAnnotationBatches = 24;
constexpr int kInteractiveQueries = 40;

std::vector<model::Document> MakeCorpus(Rng* rng) {
  std::vector<model::Document> corpus;
  for (size_t i = 0; i < kCorpusDocs; ++i) {
    std::string text = "report for client" + std::to_string(i % 50) +
                       "@example.com dated 2006-0" +
                       std::to_string(1 + i % 9) + "-15 totalling $" +
                       std::to_string(100 + i) + ".00 ";
    for (int w = 0; w < 250; ++w) {
      text += rng->Word(3 + rng->Uniform(6));
      text += ' ';
    }
    model::Document doc = model::MakeTextDocument("report", "", text);
    doc.id = i + 1;
    corpus.push_back(std::move(doc));
  }
  return corpus;
}

struct RunResult {
  obs::HistogramSnapshot interactive_ms;
  double background_wall_s = 0;
};

RunResult RunScenario(bool priority_scheduling,
                      const std::vector<model::Document>& corpus,
                      const index::InvertedIndex& idx) {
  virt::ExecutionManager manager(2, priority_scheduling);
  discovery::PatternAnnotator annotator;

  Stopwatch wall;
  // Background: annotation batches (each scans 1/kAnnotationBatches of the
  // corpus with every pattern matcher).
  for (size_t batch = 0; batch < kAnnotationBatches; ++batch) {
    manager.SubmitBackground([&corpus, &annotator, batch] {
      const size_t begin = batch * corpus.size() / kAnnotationBatches;
      const size_t end = (batch + 1) * corpus.size() / kAnnotationBatches;
      size_t spans = 0;
      // Several analysis passes per batch (entity extraction is one of a
      // pipeline of annotators in practice).
      for (int pass = 0; pass < 6; ++pass) {
        for (size_t i = begin; i < end; ++i) {
          spans += annotator.Annotate(corpus[i]).size();
        }
      }
      IMPLIANCE_CHECK(spans > 0);
    });
  }
  // Interactive: keyword searches trickling in while analysis runs.
  Rng rng(77);
  for (int q = 0; q < kInteractiveQueries; ++q) {
    manager.RunInteractive([&idx, &rng] {
      idx.Search("report client example", 10);
    });
  }
  manager.WaitIdle();
  RunResult result;
  result.interactive_ms = manager.interactive_latency_ms();
  result.background_wall_s = wall.ElapsedSeconds();
  return result;
}

}  // namespace

int main() {
  bench::Banner("E11",
                "background discovery vs interactive latency (priority "
                "interleaving)");

  Rng rng(71);
  std::vector<model::Document> corpus = MakeCorpus(&rng);
  index::InvertedIndex idx;
  for (const model::Document& doc : corpus) {
    idx.AddDocument(doc.id, doc.Text());
  }

  // Unloaded reference: interactive latency with no background work.
  bench::Samples unloaded;
  for (int q = 0; q < kInteractiveQueries; ++q) {
    Stopwatch watch;
    idx.Search("report client example", 10);
    unloaded.Add(watch.ElapsedMillis());
  }

  RunResult with_priority = RunScenario(true, corpus, idx);
  RunResult fifo = RunScenario(false, corpus, idx);

  bench::TablePrinter table({"scheduling", "interactive_p50_ms",
                             "interactive_p99_ms", "background_wall_s"});
  table.AddRow({"(unloaded reference)", Fmt("%.2f", unloaded.Percentile(50)),
                Fmt("%.2f", unloaded.Percentile(99)), "-"});
  table.AddRow({"priority interleaving",
                Fmt("%.2f", with_priority.interactive_ms.Percentile(50)),
                Fmt("%.2f", with_priority.interactive_ms.Percentile(99)),
                Fmt("%.2f", with_priority.background_wall_s)});
  table.AddRow({"plain FIFO",
                Fmt("%.2f", fifo.interactive_ms.Percentile(50)),
                Fmt("%.2f", fifo.interactive_ms.Percentile(99)),
                Fmt("%.2f", fifo.background_wall_s)});
  table.Print();
  std::printf(
      "\nExpected shape: under FIFO, interactive queries inherit the full\n"
      "depth of the analysis queue (p99 ~ batch runtime x queue depth);\n"
      "with priority interleaving they wait at most for one in-flight\n"
      "batch, while background completion time is essentially unchanged.\n");
  return 0;
}
