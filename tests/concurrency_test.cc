// Thread-safety tests: hammer the concurrent surfaces (store, cache,
// cluster, facade) from multiple threads and verify invariants afterwards.
// These are most valuable under TSan, but also catch ordering bugs and
// deadlocks in normal runs.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "core/impliance.h"
#include "storage/block_cache.h"
#include "storage/document_store.h"

namespace impliance {
namespace {

namespace fs = std::filesystem;
using model::Document;
using model::MakeRecordDocument;
using model::MakeTextDocument;
using model::Value;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("impliance_conc_" + name + "_" +
               std::to_string(reinterpret_cast<uintptr_t>(this)))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string path() const { return path_.string(); }

 private:
  fs::path path_;
};

TEST(ConcurrencyTest, BlockCacheParallelMixedOps) {
  storage::BlockCache cache(1 << 16);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 5000;
  std::atomic<uint64_t> total_gets{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &total_gets, t] {
      Rng rng(1000 + t);
      uint64_t gets = 0;
      for (int op = 0; op < kOpsPerThread; ++op) {
        const uint64_t file = rng.Uniform(4);
        const uint64_t offset = rng.Uniform(256) * 64;
        if (rng.Bernoulli(0.5)) {
          cache.Put(file, offset, std::string(32, static_cast<char>('a' + t)));
        } else {
          ++gets;
          auto hit = cache.Get(file, offset);
          if (hit != nullptr) {
            // Whatever thread wrote it, the value is intact.
            ASSERT_EQ(hit->size(), 32u);
          }
        }
      }
      total_gets.fetch_add(gets);
    });
  }
  for (auto& t : threads) t.join();
  // Every Get is accounted exactly once as a hit or a miss.
  EXPECT_EQ(cache.hits() + cache.misses(), total_gets.load());
  EXPECT_LE(cache.charged_bytes(), (1u << 16) + 8 * 64);
}

TEST(ConcurrencyTest, DocumentStoreParallelWritersAndReaders) {
  TempDir dir("store");
  auto opened = storage::DocumentStore::Open(
      {.dir = dir.path(), .memtable_max_docs = 64});
  ASSERT_TRUE(opened.ok());
  auto store = std::move(opened).value();

  constexpr int kWriters = 3;
  constexpr int kDocsPerWriter = 300;
  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, w] {
      for (int i = 0; i < kDocsPerWriter; ++i) {
        auto id = store->Insert(MakeRecordDocument(
            "k", {{"writer", Value::Int(w)}, {"seq", Value::Int(i)}}));
        ASSERT_TRUE(id.ok());
        if (i % 10 == 0) {
          auto version = store->AddVersion(
              *id, MakeRecordDocument("k", {{"writer", Value::Int(w)},
                                            {"seq", Value::Int(i + 10000)}}));
          ASSERT_TRUE(version.ok());
        }
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&store, &stop_readers, r] {
      Rng rng(2000 + r);
      while (!stop_readers.load()) {
        auto ids = store->AllIds();
        if (ids.empty()) continue;
        const model::DocId id = ids[rng.Uniform(ids.size())];
        auto doc = store->Get(id);
        // A listed id must be readable (no partially-registered docs).
        ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop_readers.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  storage::StoreStats stats = store->GetStats();
  EXPECT_EQ(stats.num_documents,
            static_cast<size_t>(kWriters) * kDocsPerWriter);
  // Every document readable at the end, including historical versions.
  for (model::DocId id : store->AllIds()) {
    ASSERT_TRUE(store->Get(id).ok());
  }
}

TEST(ConcurrencyTest, ClusterParallelIngestAndQueries) {
  cluster::SimulatedCluster sim(
      {.num_data_nodes = 4, .num_grid_nodes = 2, .replication = 2});
  constexpr int kIngesters = 2;
  constexpr int kDocsEach = 150;
  std::atomic<bool> stop_queries{false};
  std::vector<std::thread> threads;

  for (int w = 0; w < kIngesters; ++w) {
    threads.emplace_back([&sim, w] {
      for (int i = 0; i < kDocsEach; ++i) {
        auto id = sim.Ingest(MakeTextDocument(
            "note", "", "payload from writer " + std::to_string(w) +
                            " item shared_term " + std::to_string(i)));
        ASSERT_TRUE(id.ok());
      }
    });
  }
  threads.emplace_back([&sim, &stop_queries] {
    while (!stop_queries.load()) {
      auto hits = sim.KeywordSearch("shared_term", 10, nullptr);
      ASSERT_LE(hits.size(), 10u);
      cluster::SimulatedCluster::AggQuery query;
      query.kind = "note";
      sim.FilterAggregate(query, true);
    }
  });
  for (int w = 0; w < kIngesters; ++w) threads[w].join();
  stop_queries.store(true);
  threads.back().join();

  EXPECT_EQ(sim.num_documents(),
            static_cast<size_t>(kIngesters) * kDocsEach);
  auto all = sim.KeywordSearch("shared_term", 1000, nullptr);
  EXPECT_EQ(all.size(), static_cast<size_t>(kIngesters) * kDocsEach);
}

TEST(ConcurrencyTest, ImplianceParallelInfuseSearchSql) {
  TempDir dir("facade");
  auto impliance =
      std::move(core::Impliance::Open({.data_dir = dir.path()})).value();

  constexpr int kDocs = 200;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < kDocs; ++i) {
      auto ids = impliance->InfuseContent(
          "ticket", "id,text\n" + std::to_string(i) + ",issue with printer\n");
      ASSERT_TRUE(ids.ok());
    }
  });
  std::thread searcher([&] {
    while (!stop.load()) {
      auto hits = impliance->Search("printer", 5);
      ASSERT_LE(hits.size(), 5u);
    }
  });
  std::thread sql_runner([&] {
    while (!stop.load()) {
      auto rows = impliance->Sql("SELECT COUNT(*) FROM ticket");
      if (rows.ok()) {
        ASSERT_EQ(rows->size(), 1u);
        ASSERT_GE((*rows)[0][0].int_value(), 0);
      }
      // NotFound is fine before the first infuse lands.
    }
  });
  writer.join();
  stop.store(true);
  searcher.join();
  sql_runner.join();

  auto rows = impliance->Sql("SELECT COUNT(*) FROM ticket");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][0].int_value(), kDocs);
}

// Concurrent statements on one kind while a writer ingests into it: the
// statements share the core's read lock, so the view cache, its dirty set
// and the kind's columnar projection are filled by several readers at once
// (ThreadSanitizer checks that this is race-free). Each batch lands under
// the write lock, so every answer must count whole batches only.
TEST(ConcurrencyTest, SqlOnAKindWhileIngestingIntoIt) {
  TempDir dir("sql_ingest");
  auto impliance =
      std::move(core::Impliance::Open({.data_dir = dir.path()})).value();
  constexpr int kBatches = 60;
  constexpr int kBatchRows = 20;
  auto batch = [](int b) {
    // Early batches add a column, so the re-inferred view changes while
    // the kind is under 32 documents.
    std::string csv = b < 2 ? "order_no,city,total,region\n"
                            : "order_no,city,total\n";
    for (int i = 0; i < kBatchRows; ++i) {
      const int n = b * kBatchRows + i;
      csv += std::to_string(n) + (n % 3 == 0 ? ",paris," : ",lima,") +
             std::to_string(n % 100) + (b < 2 ? ",emea\n" : "\n");
    }
    return csv;
  };
  ASSERT_TRUE(impliance->InfuseContent("order", batch(0)).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> answers{0};
  std::thread writer([&] {
    while (answers.load() == 0) std::this_thread::yield();
    for (int b = 1; b < kBatches; ++b) {
      ASSERT_TRUE(impliance->InfuseContent("order", batch(b)).ok());
      if (b % 10 == 0) {
        // An update drops the projection; the next scan rebuilds it.
        const model::DocId first = impliance->DocsOfKind("order")[0];
        ASSERT_TRUE(impliance
                        ->Update(first, model::MakeRecordDocument(
                                            "order",
                                            {{"order_no", Value::Int(0)},
                                             {"city", Value::String("paris")},
                                             {"total", Value::Int(0)}}))
                        .ok());
      }
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load()) {
        if (t == 2) {
          ASSERT_TRUE(impliance->ExplainSql("SELECT * FROM order").ok());
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        auto rows = impliance->Sql(
            t == 0 ? "SELECT COUNT(*) FROM order"
                   : "SELECT city, COUNT(*) FROM order GROUP BY city");
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        int64_t total = 0;
        for (const exec::Row& row : *rows) total += row.back().int_value();
        ASSERT_EQ(total % kBatchRows, 0) << total;
        ++answers;
        // The core's lock prefers readers; leave the writer a gap.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  writer.join();
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(answers.load(), 0);

  auto rows = impliance->Sql("SELECT COUNT(*) FROM order");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][0].int_value(), kBatches * kBatchRows);
  auto all = impliance->Sql("SELECT * FROM order");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), static_cast<size_t>(kBatches * kBatchRows));
}

TEST(ConcurrencyTest, BackgroundDiscoveryConcurrentWithQueries) {
  TempDir dir("bg");
  auto impliance =
      std::move(core::Impliance::Open({.data_dir = dir.path()})).value();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(impliance
                    ->Infuse(MakeTextDocument(
                        "email", "",
                        "invoice " + std::to_string(i) + " for $" +
                            std::to_string(100 + i) + ".00 send to user" +
                            std::to_string(i) + "@example.com"))
                    .ok());
  }
  impliance->StartBackgroundDiscovery();
  // Queries keep working while discovery churns.
  for (int q = 0; q < 50; ++q) {
    auto hits = impliance->Search("invoice", 10);
    ASSERT_EQ(hits.size(), 10u);
  }
  impliance->WaitForDiscovery();
  // Discovery completed: annotations exist for the e-mails.
  auto docs = impliance->DocsOfKind("email");
  ASSERT_FALSE(docs.empty());
  EXPECT_FALSE(impliance->AnnotationsFor(docs[0]).empty());
}

}  // namespace
}  // namespace impliance
