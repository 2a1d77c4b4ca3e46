// Seeded chaos tests for the distributed query layer. The contract under
// test (cluster/cluster.h): a query result is either complete or carries
// degraded=true with a nonzero missing count — node deaths must never
// produce a silently partial answer. Faults are injected through the
// seeded common/fault_injector.h points, so every failing run replays
// exactly from its seed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/node.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "core/impliance.h"
#include "model/document.h"

namespace impliance::cluster {
namespace {

using model::Document;
using model::MakeRecordDocument;
using model::Value;

// One corpus serves both KeywordSearch (the "note" text leaf) and
// FilterAggregate (the city/total record fields).
Document Order(const std::string& city, double total, int i) {
  return MakeRecordDocument(
      "order",
      {{"city", Value::String(city)},
       {"total", Value::Double(total)},
       {"note", Value::String("order shipment number " + std::to_string(i))}});
}

SimulatedCluster::AggQuery TotalsByCity() {
  SimulatedCluster::AggQuery query;
  query.kind = "order";
  query.group_path = "/doc/city";
  query.agg_path = "/doc/total";
  return query;
}

// degraded and missing_partitions must move together: degraded without a
// count (or a count without the flag) is exactly the silent-partial bug.
void ExpectCoherent(const ShipStats& stats) {
  EXPECT_EQ(stats.degraded, stats.missing_partitions > 0)
      << "degraded=" << stats.degraded
      << " missing=" << stats.missing_partitions;
}

class ChaosTest : public ::testing::TestWithParam<uint64_t> {};

// Kill a data node deterministically in the submit window of the first
// scatter task of a query. With a surviving replica the failover path must
// return the complete answer; in every case the result must be complete or
// explicitly degraded.
TEST_P(ChaosTest, NodeKilledMidQueryFailsOverWithReplication) {
  SimulatedCluster cluster(
      {.num_data_nodes = 4, .num_grid_nodes = 2, .replication = 2});
  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE(
        cluster.Ingest(Order(i % 2 == 0 ? "london" : "paris", i, i)).ok());
  }
  ShipStats baseline_stats;
  auto baseline = cluster.KeywordSearch("shipment", 100, &baseline_stats);
  ASSERT_EQ(baseline.size(), 48u);
  ASSERT_FALSE(baseline_stats.degraded);
  std::set<model::DocId> expected;
  for (const auto& hit : baseline) expected.insert(hit.doc);

  ScopedFaultInjection fi(GetParam());
  // The next Submit after arming is the query's first scatter task: that
  // node dies with the task still queued.
  fi->ArmAtHit("node.submit.crash", fi->hits("node.submit.crash") + 1);
  ShipStats stats;
  auto hits = cluster.KeywordSearch("shipment", 100, &stats);
  EXPECT_EQ(fi->triggers("node.submit.crash"), 1u);
  ExpectCoherent(stats);
  if (!stats.degraded) {
    // Failover answered for the dead node: the result is byte-for-byte the
    // failure-free answer, and at least one task was re-routed.
    std::set<model::DocId> got;
    for (const auto& hit : hits) got.insert(hit.doc);
    EXPECT_EQ(got, expected);
    EXPECT_GE(stats.failovers, 1u);
  } else {
    EXPECT_GT(stats.missing_partitions, 0u);
  }

  // Heal: recover the victim, re-replicate, and the complete answer is back.
  fi->Disarm("node.submit.crash");
  for (const auto& node : cluster.data_nodes()) {
    if (!node->alive()) cluster.RecoverNode(node->id());
  }
  cluster.DetectFailures();
  cluster.ReReplicate();
  ShipStats healed_stats;
  auto healed = cluster.KeywordSearch("shipment", 100, &healed_stats);
  EXPECT_FALSE(healed_stats.degraded);
  std::set<model::DocId> healed_ids;
  for (const auto& hit : healed) healed_ids.insert(hit.doc);
  EXPECT_EQ(healed_ids, expected);
}

// Without replication the killed node's documents have no surviving
// holder, so the only honest answer is a degraded one.
TEST_P(ChaosTest, NodeKilledMidQueryWithoutReplicationDegradesExplicitly) {
  SimulatedCluster cluster(
      {.num_data_nodes = 4, .num_grid_nodes = 2, .replication = 1});
  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE(cluster.Ingest(Order("city", i, i)).ok());
  }
  ScopedFaultInjection fi(GetParam());
  fi->ArmAtHit("node.submit.crash", fi->hits("node.submit.crash") + 1);
  ShipStats stats;
  auto hits = cluster.KeywordSearch("shipment", 100, &stats);
  EXPECT_EQ(fi->triggers("node.submit.crash"), 1u);
  EXPECT_TRUE(stats.degraded);
  EXPECT_GT(stats.missing_partitions, 0u);
  EXPECT_LT(hits.size(), 48u);
}

// Probabilistic storm: seeded crashes and drops fire during a stream of
// mixed queries. Whatever happens, every result honors the contract.
TEST_P(ChaosTest, SeededFaultStormNeverYieldsSilentPartials) {
  SimulatedCluster cluster(
      {.num_data_nodes = 5, .num_grid_nodes = 2, .replication = 2});
  constexpr int kDocs = 60;
  double expected_total = 0;
  for (int i = 0; i < kDocs; ++i) {
    ASSERT_TRUE(cluster.Ingest(Order("c" + std::to_string(i % 3), i, i)).ok());
    expected_total += i;
  }
  SimulatedCluster::AggQuery query = TotalsByCity();

  ScopedFaultInjection fi(GetParam());
  fi->Arm("node.submit.crash", 0.01, /*max_triggers=*/3);
  fi->Arm("node.submit.drop", 0.02, /*max_triggers=*/6);

  size_t degraded_seen = 0;
  for (int round = 0; round < 30; ++round) {
    ShipStats stats;
    auto hits = cluster.KeywordSearch("shipment", 100, &stats);
    ExpectCoherent(stats);
    EXPECT_LE(hits.size(), static_cast<size_t>(kDocs));
    if (!stats.degraded) {
      EXPECT_EQ(hits.size(), static_cast<size_t>(kDocs));
    }
    degraded_seen += stats.degraded ? 1 : 0;

    auto agg = cluster.FilterAggregate(query, /*pushdown=*/round % 2 == 0);
    ExpectCoherent(agg.stats);
    double total = 0;
    for (const auto& [group, value] : agg.groups) total += value;
    EXPECT_LE(total, expected_total + 1e-6);
    if (!agg.stats.degraded) {
      EXPECT_NEAR(total, expected_total, 1e-6);
    }

    // Operator repairs the appliance mid-storm, as one would.
    if (round % 7 == 6) {
      cluster.DetectFailures();
      for (const auto& node : cluster.data_nodes()) {
        if (!node->alive()) cluster.RecoverNode(node->id());
      }
      cluster.ReReplicate();
    }
  }
  // The storm is probabilistic per seed; what matters is that any loss was
  // always declared. (degraded_seen is legitimately 0 for lucky seeds.)
  SUCCEED() << "degraded results: " << degraded_seen;
}

// Concurrent kill/recover while ingest, search, and aggregation run in
// parallel threads. No crashes, no silent partials, and after the chaos
// stops and the cluster heals, queries are complete again.
TEST_P(ChaosTest, ConcurrentIngestAndQueriesSurviveKillRecoverCycles) {
  SimulatedCluster cluster(
      {.num_data_nodes = 4, .num_grid_nodes = 2, .replication = 2});
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster.Ingest(Order("seedcity", i, i)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> ingested{30};

  std::thread ingest_thread([&] {
    int i = 30;
    while (!stop.load()) {
      auto id = cluster.Ingest(Order("c" + std::to_string(i % 4), i, i));
      // Under a kill window ingest may fail cleanly; it must never lie.
      if (id.ok()) ingested.fetch_add(1);
      ++i;
    }
  });
  std::thread search_thread([&] {
    while (!stop.load()) {
      ShipStats stats;
      auto hits = cluster.KeywordSearch("shipment", 200, &stats);
      ExpectCoherent(stats);
      // Never more hits than documents ever acknowledged.
      EXPECT_LE(hits.size(), ingested.load() + 1);
    }
  });
  std::thread agg_thread([&] {
    SimulatedCluster::AggQuery query = TotalsByCity();
    while (!stop.load()) {
      auto agg = cluster.FilterAggregate(query, /*pushdown=*/true);
      ExpectCoherent(agg.stats);
      for (const auto& [group, value] : agg.groups) EXPECT_GE(value, 0.0);
    }
  });

  // Chaos driver: one node at a time dies, is detected, recovers, and the
  // cluster re-replicates — while the workload threads keep running.
  Rng rng(GetParam());
  for (int cycle = 0; cycle < 6; ++cycle) {
    const NodeId victim = static_cast<NodeId>(rng.Uniform(4));
    cluster.FailNode(victim);
    cluster.DetectFailures();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cluster.RecoverNode(victim);
    cluster.ReReplicate();
  }
  stop.store(true);
  ingest_thread.join();
  search_thread.join();
  agg_thread.join();

  // Quiesce: with every node alive and replicas restored, the answer must
  // be complete (everything ever acknowledged is searchable) — unless a
  // document lost every holder during the storm, in which case the loss
  // must be declared, never papered over.
  cluster.DetectFailures();
  cluster.ReReplicate();
  // Ask for more hits than documents were ever acknowledged, so the
  // answer's size is the number of matching documents, not the cutoff.
  ShipStats stats;
  auto hits = cluster.KeywordSearch("shipment", ingested.load() + 1, &stats);
  ExpectCoherent(stats);
  if (!stats.degraded) {
    EXPECT_EQ(hits.size(), ingested.load());
  } else {
    EXPECT_LT(hits.size(), ingested.load());
  }
}

// The autonomic balancer and the repair loop run concurrently with
// kill/recover cycles and a live query stream: every result stays
// complete-or-degraded, the directory never lists one node twice for a
// document, and the partition table stays a gapless cover — after every
// chaos step, not just at the end.
TEST_P(ChaosTest, BalancerAndRepairSurviveKillRecoverCycles) {
  SimulatedCluster cluster({.num_data_nodes = 4,
                            .num_grid_nodes = 2,
                            .replication = 2,
                            .key_range_partitioning = true,
                            .split_doc_threshold = 24,
                            .balance_tolerance = 1.2,
                            .max_moves_per_pass = 4});
  constexpr int kDocs = 60;
  for (int i = 0; i < kDocs; ++i) {
    ASSERT_TRUE(cluster.Ingest(Order("c" + std::to_string(i % 3), i, i)).ok());
  }
  // Sequential ids + key-range tablets: the corpus starts maximally
  // skewed, so the balancer has real splitting and migrating to do while
  // the chaos runs.
  cluster.StartBalancer(1);
  ASSERT_TRUE(cluster.balancer_running());

  std::atomic<bool> stop{false};
  std::thread repair_thread([&] {
    while (!stop.load()) {
      cluster.DetectFailures();
      cluster.ReReplicate();
    }
  });
  std::thread search_thread([&] {
    while (!stop.load()) {
      ShipStats stats;
      auto hits = cluster.KeywordSearch("shipment", 200, &stats);
      ExpectCoherent(stats);
      EXPECT_LE(hits.size(), static_cast<size_t>(kDocs));
      if (!stats.degraded) {
        EXPECT_EQ(hits.size(), static_cast<size_t>(kDocs));
      }
    }
  });
  std::thread agg_thread([&] {
    SimulatedCluster::AggQuery query = TotalsByCity();
    while (!stop.load()) {
      auto agg = cluster.FilterAggregate(query, /*pushdown=*/true);
      ExpectCoherent(agg.stats);
    }
  });

  Rng rng(GetParam());
  for (int cycle = 0; cycle < 6; ++cycle) {
    const NodeId victim = static_cast<NodeId>(rng.Uniform(4));
    cluster.FailNode(victim);
    cluster.DetectFailures();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    cluster.RecoverNode(victim);
    cluster.ReReplicate();
    // Invariants after every chaos step, with balancer and repair racing.
    const SimulatedCluster::IntegrityReport integrity =
        cluster.CheckIntegrity();
    EXPECT_EQ(integrity.duplicate_holders, 0u) << "cycle " << cycle;
    EXPECT_TRUE(integrity.ok()) << "cycle " << cycle;
  }
  stop.store(true);
  repair_thread.join();
  search_thread.join();
  agg_thread.join();
  cluster.StopBalancer();
  EXPECT_GT(cluster.balancer_passes(), 0u);

  // Heal and verify the final answer is complete or the loss is declared.
  cluster.DetectFailures();
  cluster.ReReplicate();
  ShipStats stats;
  auto hits = cluster.KeywordSearch("shipment", 10'000, &stats);
  ExpectCoherent(stats);
  if (!stats.degraded) {
    EXPECT_EQ(hits.size(), static_cast<size_t>(kDocs));
  } else {
    EXPECT_LT(hits.size(), static_cast<size_t>(kDocs));
  }
  EXPECT_TRUE(cluster.CheckIntegrity().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(0xC0FFEEull, 42ull, 7ull, 1337ull));

// ------------------------------------------------- Appliance facet/SQL paths

// The same complete-or-degraded contract, one layer up: the appliance's
// faceted and SQL interfaces run against local indexes that can outlive a
// dead blade, so without the availability restriction they would happily
// count a locally-indexed ghost of a lost partition. These tests kill a
// node mid-query and require the loss to be declared through QueryHealth.

class ApplianceTempDir {
 public:
  explicit ApplianceTempDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              ("impliance_chaos_" + name + "_" +
               std::to_string(reinterpret_cast<uintptr_t>(this)))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ApplianceTempDir() { std::filesystem::remove_all(path_); }
  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

std::unique_ptr<core::Impliance> OpenScaleOut(const std::string& dir) {
  auto impliance = core::Impliance::Open({.data_dir = dir,
                                          .scale_out_data_nodes = 4,
                                          .scale_out_replication = 1});
  EXPECT_TRUE(impliance.ok()) << impliance.status().ToString();
  return std::move(impliance).value();
}

// Every valid holder the directory lists physically holds the document:
// the invariant that lets a blade skip the per-document presence probe.
void ExpectNoDirectoryPhantoms(core::Impliance* impliance) {
  ASSERT_NE(impliance->scale_out(), nullptr);
  EXPECT_EQ(impliance->scale_out()->CheckIntegrity().directory_phantoms, 0u);
}

class ApplianceChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ApplianceChaosTest, NodeKilledMidFacetDegradesExplicitly) {
  ApplianceTempDir dir("facet");
  auto impliance = OpenScaleOut(dir.path());
  std::string csv = "order_no,city,total\n";
  for (int i = 0; i < 40; ++i) {
    csv += std::to_string(i) + (i % 2 == 0 ? ",london," : ",paris,") +
           std::to_string(i) + "\n";
  }
  ASSERT_TRUE(impliance->InfuseContent("order", csv).ok());

  query::FacetedQuery facet;
  facet.kind = "order";
  facet.facet_paths = {"/doc/city"};
  facet.aggregates = {{"/doc/total", "sum"}};

  // Failure-free baseline: complete, every document counted.
  core::QueryHealth baseline_health;
  query::FacetedResult baseline = impliance->Faceted(facet, &baseline_health);
  ASSERT_EQ(baseline.total_matches, 40u);
  ASSERT_FALSE(baseline_health.degraded);
  const double baseline_sum = baseline.aggregate_values.at("sum(/doc/total)");

  // Kill a node in the submit window of the facet's availability scatter
  // (replication=1, so the lost partition has no surviving holder).
  ScopedFaultInjection fi(GetParam());
  fi->ArmAtHit("node.submit.crash", fi->hits("node.submit.crash") + 1);
  core::QueryHealth health;
  query::FacetedResult degraded = impliance->Faceted(facet, &health);
  EXPECT_EQ(fi->triggers("node.submit.crash"), 1u);
  EXPECT_TRUE(health.degraded);
  EXPECT_GT(health.missing_partitions, 0u);
  // The unreachable documents are excluded, not silently hallucinated
  // from the local index.
  EXPECT_LT(degraded.total_matches, 40u);
  EXPECT_LT(degraded.aggregate_values.at("sum(/doc/total)"), baseline_sum);

  // Recover the node. At replication=1 it rejoins *empty* (its contents
  // died with it), so the honest answer is still degraded — the appliance
  // must keep declaring the loss rather than quietly serving the local
  // index's ghost of the lost partition.
  fi->Disarm("node.submit.crash");
  SimulatedCluster* cluster = impliance->scale_out();
  ASSERT_NE(cluster, nullptr);
  for (const auto& node : cluster->data_nodes()) {
    if (!node->alive()) cluster->RecoverNode(node->id());
  }
  cluster->DetectFailures();
  cluster->ReReplicate();
  core::QueryHealth recovered_health;
  query::FacetedResult recovered = impliance->Faceted(facet, &recovered_health);
  EXPECT_TRUE(recovered_health.degraded);
  EXPECT_GT(recovered_health.missing_partitions, 0u);
  EXPECT_LT(recovered.total_matches, 40u);
  ExpectNoDirectoryPhantoms(impliance.get());
}

// Keyword and field search rank from the core's own index, which keeps the
// documents of a lost partition: the availability check must drop them
// from the hits and declare the loss.
TEST_P(ApplianceChaosTest, NodeKilledMidSearchDegradesExplicitly) {
  ApplianceTempDir dir("search");
  auto impliance = OpenScaleOut(dir.path());
  std::string csv = "order_no,city,total\n";
  for (int i = 0; i < 40; ++i) {
    csv += std::to_string(i) + ",london," + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(impliance->InfuseContent("order", csv).ok());

  core::QueryHealth baseline_health;
  ASSERT_EQ(impliance->Search("london", 40, &baseline_health).size(), 40u);
  ASSERT_FALSE(baseline_health.degraded);

  // Kill a node in the submit window of the search's availability scatter
  // (replication=1, so the lost partition has no surviving holder).
  ScopedFaultInjection fi(GetParam());
  fi->ArmAtHit("node.submit.crash", fi->hits("node.submit.crash") + 1);
  core::QueryHealth health;
  const std::vector<core::SearchHit> hits =
      impliance->Search("london", 40, &health);
  EXPECT_EQ(fi->triggers("node.submit.crash"), 1u);
  fi->Disarm("node.submit.crash");
  EXPECT_TRUE(health.degraded);
  EXPECT_GT(health.missing_partitions, 0u);

  // The documents no live holder can serve: exactly those not returned.
  SimulatedCluster* cluster = impliance->scale_out();
  ASSERT_NE(cluster, nullptr);
  std::set<model::DocId> lost;
  for (model::DocId id : impliance->DocsOfKind("order")) {
    if (!cluster->Get(id).ok()) lost.insert(id);
  }
  EXPECT_FALSE(lost.empty());
  EXPECT_EQ(hits.size() + lost.size(), 40u);
  for (const core::SearchHit& hit : hits) {
    EXPECT_FALSE(lost.contains(hit.doc)) << "doc " << hit.doc;
  }
  core::QueryHealth field_health;
  for (const core::SearchHit& hit :
       impliance->SearchField("/doc/city", "london", 40, &field_health)) {
    EXPECT_FALSE(lost.contains(hit.doc)) << "doc " << hit.doc;
  }
  EXPECT_TRUE(field_health.degraded);
  EXPECT_EQ(field_health.missing_partitions, health.missing_partitions);
  ExpectNoDirectoryPhantoms(impliance.get());
}

TEST_P(ApplianceChaosTest, NodeKilledMidSqlDegradesExplicitly) {
  ApplianceTempDir dir("sql");
  auto impliance = OpenScaleOut(dir.path());
  std::string csv = "order_no,city,total\n";
  for (int i = 0; i < 40; ++i) {
    csv += std::to_string(i) + ",london," + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(impliance->InfuseContent("order", csv).ok());

  core::QueryHealth baseline_health;
  auto baseline =
      impliance->Sql("SELECT order_no FROM order", &baseline_health);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->size(), 40u);
  ASSERT_FALSE(baseline_health.degraded);

  ScopedFaultInjection fi(GetParam());
  fi->ArmAtHit("node.submit.crash", fi->hits("node.submit.crash") + 1);
  core::QueryHealth health;
  auto rows = impliance->Sql("SELECT order_no FROM order", &health);
  EXPECT_EQ(fi->triggers("node.submit.crash"), 1u);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE(health.degraded);
  EXPECT_GT(health.missing_partitions, 0u);
  EXPECT_LT(rows->size(), 40u);
  ExpectNoDirectoryPhantoms(impliance.get());
}

// A blade dies in the submit window of an InfuseContent batch's mirror
// (replication=1). The write fails, and every row is then served or
// explicitly excluded: the earlier batch's rows on the dead blade are
// declared missing, this batch's rows routed to it are excluded as
// unmirrored, and the SQL and facet answers hold exactly the rest.
TEST_P(ApplianceChaosTest, NodeKilledMidBatchIngest) {
  ApplianceTempDir dir("batch");
  auto impliance = OpenScaleOut(dir.path());
  const auto orders = [](int begin, int end) {
    std::string csv = "order_no,city,total\n";
    for (int i = begin; i < end; ++i) {
      csv += std::to_string(i) + (i % 2 == 0 ? ",london," : ",paris,") +
             std::to_string(i) + "\n";
    }
    return csv;
  };
  ASSERT_TRUE(impliance->InfuseContent("order", orders(0, 40)).ok());

  ScopedFaultInjection fi(GetParam());
  fi->ArmAtHit("node.submit.crash", fi->hits("node.submit.crash") + 1);
  EXPECT_FALSE(impliance->InfuseContent("order", orders(40, 80)).ok());
  EXPECT_EQ(fi->triggers("node.submit.crash"), 1u);
  fi->Disarm("node.submit.crash");

  // Oracle from the blade tier: the rows a valid holder can serve, and the
  // directory's documents with none.
  SimulatedCluster* cluster = impliance->scale_out();
  ASSERT_NE(cluster, nullptr);
  const std::vector<model::DocId> ids = impliance->DocsOfKind("order");
  ASSERT_EQ(ids.size(), 80u);
  std::set<int64_t> servable;
  for (model::DocId id : ids) {
    if (!cluster->Get(id).ok()) continue;
    auto doc = impliance->Get(id);
    ASSERT_TRUE(doc.ok());
    servable.insert(static_cast<int64_t>(
        model::ResolvePath(doc->root, "/doc/order_no")->AsDouble()));
  }
  const uint64_t missing =
      cluster->num_documents() - cluster->num_available_documents();
  EXPECT_GT(missing, 0u);
  EXPECT_GT(ids.size() - servable.size() - missing, 0u);  // unmirrored rows

  core::QueryHealth health;
  auto rows = impliance->Sql("SELECT order_no FROM order", &health);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::set<int64_t> served;
  for (const exec::Row& row : *rows) {
    served.insert(static_cast<int64_t>(row[0].AsDouble()));
  }
  EXPECT_EQ(rows->size(), served.size());
  EXPECT_EQ(served, servable);
  EXPECT_TRUE(health.degraded);
  EXPECT_EQ(health.missing_partitions, missing);

  query::FacetedQuery facet;
  facet.kind = "order";
  facet.facet_paths = {"/doc/city"};
  core::QueryHealth facet_health;
  const query::FacetedResult faceted = impliance->Faceted(facet, &facet_health);
  EXPECT_EQ(faceted.total_matches, servable.size());
  EXPECT_TRUE(facet_health.degraded);
  EXPECT_EQ(facet_health.missing_partitions, missing);
  EXPECT_TRUE(cluster->CheckIntegrity().ok());
}

// SQL through the appliance with the background balancer armed: splits and
// migrations run underneath kill/recover cycles, and QueryHealth stays
// coherent (degraded iff a nonzero missing count) on every answer.
TEST_P(ApplianceChaosTest, SqlStaysCoherentWithBalancerArmed) {
  ApplianceTempDir dir("balancer");
  auto opened = core::Impliance::Open({.data_dir = dir.path(),
                                       .scale_out_data_nodes = 4,
                                       .scale_out_replication = 2,
                                       .scale_out_balancer_interval_ms = 1,
                                       .scale_out_split_docs = 8});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto impliance = std::move(opened).value();
  std::string csv = "order_no,city,total\n";
  for (int i = 0; i < 40; ++i) {
    csv += std::to_string(i) + ",london," + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(impliance->InfuseContent("order", csv).ok());
  SimulatedCluster* cluster = impliance->scale_out();
  ASSERT_NE(cluster, nullptr);
  ASSERT_TRUE(cluster->balancer_running());

  Rng rng(GetParam());
  for (int cycle = 0; cycle < 4; ++cycle) {
    const NodeId victim = static_cast<NodeId>(rng.Uniform(4));
    cluster->FailNode(victim);
    cluster->DetectFailures();
    core::QueryHealth health;
    auto rows = impliance->Sql("SELECT order_no FROM order", &health);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(health.degraded, health.missing_partitions > 0)
        << "cycle " << cycle;
    if (!health.degraded) {
      EXPECT_EQ(rows->size(), 40u) << "cycle " << cycle;
    }
    cluster->RecoverNode(victim);
    cluster->ReReplicate();
    const SimulatedCluster::IntegrityReport integrity =
        cluster->CheckIntegrity();
    EXPECT_EQ(integrity.duplicate_holders, 0u) << "cycle " << cycle;
    EXPECT_TRUE(integrity.ok()) << "cycle " << cycle;
  }

  // Healed: at replication=2, every kill had a surviving replica, so the
  // final answer must be complete.
  cluster->DetectFailures();
  cluster->ReReplicate();
  core::QueryHealth health;
  auto rows = impliance->Sql("SELECT order_no FROM order", &health);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_FALSE(health.degraded);
  EXPECT_EQ(rows->size(), 40u);
  // Quiesce stops the balancer before teardown.
  impliance->Quiesce();
  EXPECT_FALSE(cluster->balancer_running());
  ExpectNoDirectoryPhantoms(impliance.get());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApplianceChaosTest,
                         ::testing::Values(0xC0FFEEull, 42ull, 7ull, 1337ull));

}  // namespace
}  // namespace impliance::cluster
