// Micro-benchmarks (google-benchmark) for the core data structures: the
// numbers behind the system-level experiments. One binary, stable units.

#include <benchmark/benchmark.h>

#include "cluster/cluster.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "index/btree.h"
#include "index/facet_index.h"
#include "index/inverted_index.h"
#include "index/path_index.h"
#include "index/value_index.h"
#include "model/document.h"
#include "query/faceted.h"
#include "storage/bloom.h"

namespace impliance {
namespace {

// ----------------------------------------------------------------- hashing

void BM_Hash64(benchmark::State& state) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hash64(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Hash64)->Arg(16)->Arg(256)->Arg(4096);

void BM_Crc32c(benchmark::State& state) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(256)->Arg(4096);

// --------------------------------------------------------------- tokenizer

void BM_Tokenize(benchmark::State& state) {
  Rng rng(1);
  std::string text;
  for (int i = 0; i < state.range(0); ++i) {
    text += rng.Word(3 + rng.Uniform(7));
    text += ' ';
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Tokenize(text));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Tokenize)->Arg(50)->Arg(500);

// ------------------------------------------------------------------ bloom

void BM_BloomAddQuery(benchmark::State& state) {
  storage::BloomFilter bloom(100000);
  Rng rng(2);
  for (int i = 0; i < 100000; ++i) bloom.Add(rng.Next());
  uint64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bloom.MayContain(probe++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomAddQuery);

// ------------------------------------------------------------------ btree

void BM_BTreeInsert(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    index::BPlusTree tree;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      tree.Insert(model::Value::Int(static_cast<int64_t>(rng.Next() >> 40)),
                  i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(10000);

void BM_BTreeLookup(benchmark::State& state) {
  index::BPlusTree tree;
  Rng rng(4);
  constexpr int kKeys = 100000;
  for (int i = 0; i < kKeys; ++i) {
    tree.Insert(model::Value::Int(i), static_cast<model::DocId>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Lookup(model::Value::Int(static_cast<int64_t>(rng.Uniform(kKeys)))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup);

// ---------------------------------------------------------------- inverted

void BM_InvertedIndexAdd(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::string> docs;
  for (int i = 0; i < 1000; ++i) {
    std::string text;
    for (int w = 0; w < 40; ++w) {
      text += rng.Word(3 + rng.Uniform(6));
      text += ' ';
    }
    docs.push_back(std::move(text));
  }
  for (auto _ : state) {
    index::InvertedIndex idx;
    for (size_t i = 0; i < docs.size(); ++i) {
      idx.AddDocument(i + 1, docs[i]);
    }
    benchmark::DoNotOptimize(idx.num_postings());
  }
  state.SetItemsProcessed(state.iterations() * docs.size());
}
BENCHMARK(BM_InvertedIndexAdd);

void BM_InvertedIndexSearch(benchmark::State& state) {
  Rng rng(6);
  index::InvertedIndex idx;
  for (int i = 0; i < 20000; ++i) {
    std::string text;
    for (int w = 0; w < 30; ++w) {
      text += rng.Word(3 + rng.Uniform(4));  // small vocab -> long postings
      text += ' ';
    }
    idx.AddDocument(i + 1, text);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.Search("abc def ghi", 10));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InvertedIndexSearch);

// ----------------------------------------------------------------- faceted

// One facet over a kind: 20k orders, /doc/city counts over 8 cities and
// sum(/doc/total), candidates from the kind alone (no keywords), DOP 1.
void BM_FacetedSearch(benchmark::State& state) {
  Rng rng(8);
  index::InvertedIndex inverted;
  index::PathIndex paths;
  index::FacetIndex facets;
  index::ValueIndex values;
  for (int i = 0; i < 20000; ++i) {
    model::Document doc = model::MakeRecordDocument(
        "order",
        {{"city", model::Value::String("city" + std::to_string(rng.Uniform(8)))},
         {"total", model::Value::Double(rng.UniformInt(1, 100000) / 100.0)}});
    doc.id = static_cast<model::DocId>(i + 1);
    paths.AddDocument(doc);
    facets.AddDocument(doc);
    values.AddDocument(doc);
  }
  query::FacetedSearch search(&inverted, &paths, &facets, &values);
  query::FacetedQuery query;
  query.kind = "order";
  query.facet_paths = {"/doc/city"};
  query.aggregates = {{"/doc/total", "sum"}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.Run(query));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FacetedSearch)->Unit(benchmark::kMicrosecond);

// --------------------------------------------------------------- scale-out

// One scale-out availability check (SimulatedCluster::AvailableDocs, which
// every scale-out SQL, facet and search call runs first) over 4 blades at
// replication 2, after the ownership snapshot is cached. With no document
// removed from a blade since, the check costs O(blades), so the time
// should not grow with the corpus.
void BM_AvailableDocs(benchmark::State& state) {
  cluster::SimulatedCluster cluster({.num_data_nodes = 4, .replication = 2});
  std::vector<model::Document> docs;
  for (int64_t i = 0; i < state.range(0); ++i) {
    docs.push_back(model::MakeRecordDocument(
        "order",
        {{"order_no", model::Value::Int(i)},
         {"city", model::Value::String("city" + std::to_string(i % 8))}}));
  }
  if (!cluster.IngestBatch(std::move(docs)).unplaced.empty()) {
    state.SkipWithError("ingest left documents unplaced");
    return;
  }
  cluster.AvailableDocs();  // builds and caches the ownership snapshot
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.AvailableDocs());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AvailableDocs)
    ->Arg(10000)
    ->Arg(20000)
    ->UseRealTime()  // the check runs on the blades' threads
    ->Unit(benchmark::kMicrosecond);

// --------------------------------------------------------------- document

void BM_DocumentEncodeDecode(benchmark::State& state) {
  Rng rng(7);
  model::Document doc = model::MakeRecordDocument(
      "order", {{"order_no", model::Value::Int(9001)},
                {"customer", model::Value::String("Ada Lovelace")},
                {"total", model::Value::Double(129.99)},
                {"memo", model::Value::String(rng.Word(200))}});
  doc.id = 42;
  for (auto _ : state) {
    std::string buf;
    doc.Encode(&buf);
    model::Document decoded;
    benchmark::DoNotOptimize(model::Document::Decode(buf, &decoded));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DocumentEncodeDecode);

// ----------------------------------------------------------- string sims

void BM_JaroWinkler(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaroWinkler("jonathan smithson", "jonathon smithsen"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JaroWinkler);

}  // namespace
}  // namespace impliance

BENCHMARK_MAIN();
