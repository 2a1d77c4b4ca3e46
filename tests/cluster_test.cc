#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/node.h"
#include "cluster/scheduler.h"
#include "common/fault_injector.h"
#include "discovery/pattern_annotator.h"
#include "model/document.h"
#include "obs/trace.h"

namespace impliance::cluster {
namespace {

using model::Document;
using model::MakeRecordDocument;
using model::MakeTextDocument;
using model::Value;

// ------------------------------------------------------------------- Node

TEST(NodeTest, RunsSubmittedTasks) {
  Node node(0, NodeKind::kData);
  int counter = 0;
  EXPECT_EQ(node.Run([&counter] { ++counter; }), TaskOutcome::kExecuted);
  EXPECT_EQ(node.Run([&counter] { ++counter; }), TaskOutcome::kExecuted);
  EXPECT_EQ(counter, 2);
  EXPECT_EQ(node.tasks_executed(), 2u);
  EXPECT_GE(node.heartbeats(), 2u);
}

TEST(NodeTest, FailedNodeRejectsWork) {
  Node node(1, NodeKind::kGrid);
  node.Fail();
  EXPECT_FALSE(node.alive());
  EXPECT_EQ(node.Run([] {}), TaskOutcome::kNodeDead);
  node.Recover();
  EXPECT_EQ(node.Run([] {}), TaskOutcome::kExecuted);
}

TEST(NodeTest, TasksRunInFifoOrder) {
  Node node(2, NodeKind::kData);
  std::vector<int> order;
  std::future<TaskOutcome> last;
  for (int i = 0; i < 10; ++i) {
    std::future<TaskOutcome> done;
    ASSERT_TRUE(node.Submit([&order, i] { order.push_back(i); }, &done));
    if (i == 9) last = std::move(done);
  }
  EXPECT_EQ(last.get(), TaskOutcome::kExecuted);
  ASSERT_EQ(order.size(), 10u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(NodeTest, FailResolvesQueuedTasksAsDropped) {
  Node node(3, NodeKind::kData);
  // Stall the worker so follow-up tasks are still queued when Fail() hits.
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::future<TaskOutcome> first;
  ASSERT_TRUE(node.Submit(
      [gate, &started] {
        started.set_value();
        gate.wait();
      },
      &first));
  std::vector<std::future<TaskOutcome>> queued;
  for (int i = 0; i < 4; ++i) {
    std::future<TaskOutcome> done;
    ASSERT_TRUE(node.Submit([] {}, &done));
    queued.push_back(std::move(done));
  }
  // Only fail once the first task is definitely in flight — otherwise it
  // would (correctly) be dropped along with the queued ones.
  started.get_future().wait();
  node.Fail();
  release.set_value();
  // The in-flight task ran to completion; the queued ones were dropped —
  // and every caller learns its task's definitive fate.
  EXPECT_EQ(first.get(), TaskOutcome::kExecuted);
  for (auto& done : queued) {
    EXPECT_EQ(done.get(), TaskOutcome::kDropped);
  }
  EXPECT_EQ(node.tasks_dropped(), 4u);
}

// ---------------------------------------------------------------- Cluster

Document Order(const std::string& city, double total) {
  return MakeRecordDocument("order", {{"city", Value::String(city)},
                                      {"total", Value::Double(total)}});
}

TEST(ClusterTest, IngestAndGet) {
  SimulatedCluster cluster({.num_data_nodes = 4});
  auto id = cluster.Ingest(Order("london", 10));
  ASSERT_TRUE(id.ok());
  auto doc = cluster.Get(*id);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->kind, "order");
  EXPECT_TRUE(cluster.Get(999).status().IsNotFound());
  EXPECT_EQ(cluster.num_documents(), 1u);
}

TEST(ClusterTest, KeywordSearchFindsAcrossPartitions) {
  SimulatedCluster cluster({.num_data_nodes = 4, .num_grid_nodes = 2});
  std::vector<model::DocId> needle_ids;
  for (int i = 0; i < 40; ++i) {
    Document doc = MakeTextDocument(
        "note", "", i % 10 == 0 ? "the rare xylophone concert" : "ordinary text");
    auto id = cluster.Ingest(std::move(doc));
    ASSERT_TRUE(id.ok());
    if (i % 10 == 0) needle_ids.push_back(*id);
  }
  ShipStats stats;
  auto hits = cluster.KeywordSearch("xylophone", 10, &stats);
  ASSERT_EQ(hits.size(), 4u);
  std::set<model::DocId> got;
  for (const auto& hit : hits) got.insert(hit.doc);
  EXPECT_EQ(got, std::set<model::DocId>(needle_ids.begin(), needle_ids.end()));
  EXPECT_GT(stats.tasks, 1u);
}

// Blade work runs on node threads; the request's trace rides into each
// task, so the data nodes' index.search spans land in the caller's trace
// next to the per-node execute spans.
TEST(ClusterTest, TracedKeywordSearchRecordsBladeIndexSpans) {
  SimulatedCluster cluster({.num_data_nodes = 4, .num_grid_nodes = 2});
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(cluster
                    .Ingest(MakeTextDocument("note", "",
                                             "traced blade search " +
                                                 std::to_string(i)))
                    .ok());
  }
  obs::TracePtr trace = obs::StartTrace("search");
  {
    obs::ScopedTraceAttach attach(trace);
    EXPECT_EQ(cluster.KeywordSearch("blade", 10).size(), 10u);
  }
  obs::FinishTrace(trace);
  size_t index_spans = 0;
  size_t execute_spans = 0;
  for (const obs::FinishedTrace& finished : obs::RecentTraces(16)) {
    if (finished.trace_id != trace->trace_id()) continue;
    for (const obs::Span& span : finished.spans) {
      if (span.name == "index.search") ++index_spans;
      if (span.name.ends_with(".execute")) ++execute_spans;
    }
  }
  EXPECT_EQ(execute_spans, 4u);
  EXPECT_EQ(index_spans, 4u);
}

TEST(ClusterTest, FilterAggregatePushdownMatchesNoPushdown) {
  SimulatedCluster cluster({.num_data_nodes = 4});
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(cluster
                    .Ingest(Order(i % 3 == 0 ? "london" : "paris",
                                  10.0 * (i % 7)))
                    .ok());
  }
  SimulatedCluster::AggQuery query;
  query.kind = "order";
  query.filter_path = "/doc/total";
  query.op = exec::CompareOp::kGt;
  query.literal = Value::Double(20.0);
  query.group_path = "/doc/city";
  query.agg_path = "/doc/total";

  auto with = cluster.FilterAggregate(query, /*pushdown=*/true);
  auto without = cluster.FilterAggregate(query, /*pushdown=*/false);
  EXPECT_EQ(with.groups, without.groups);
  ASSERT_TRUE(with.groups.count("london"));
  // Pushdown ships far fewer bytes.
  EXPECT_LT(with.stats.bytes_shipped, without.stats.bytes_shipped / 4);
}

TEST(ClusterTest, CountAggregateNoFilter) {
  SimulatedCluster cluster({.num_data_nodes = 2});
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster.Ingest(Order("x", i)).ok());
  }
  SimulatedCluster::AggQuery query;
  query.kind = "order";
  auto result = cluster.FilterAggregate(query, true);
  ASSERT_EQ(result.groups.size(), 1u);
  EXPECT_DOUBLE_EQ(result.groups.at(""), 30.0);
}

TEST(ClusterTest, AnnotationPassCreatesAnnotationDocs) {
  SimulatedCluster cluster({.num_data_nodes = 3, .num_cluster_nodes = 1});
  for (int i = 0; i < 10; ++i) {
    std::string body = i % 2 == 0 ? "contact me at user" + std::to_string(i) +
                                        "@acme.com please"
                                  : "no contact info here";
    ASSERT_TRUE(cluster.Ingest(MakeTextDocument("email", "", body)).ok());
  }
  discovery::PatternAnnotator annotator;
  ShipStats stats;
  size_t created = cluster.RunAnnotationPass(annotator, "", &stats);
  EXPECT_EQ(created, 5u);
  EXPECT_EQ(cluster.num_documents(), 15u);
  EXPECT_GT(cluster.total_lock_acquisitions(), 0u);
  EXPECT_GT(stats.bytes_shipped, 0u);
  // Annotation documents must not be re-annotated (kBase check): a second
  // pass creates the same number again only for base docs.
  size_t again = cluster.RunAnnotationPass(annotator, "", nullptr);
  EXPECT_EQ(again, 5u);
}

TEST(ClusterTest, ReplicationSurvivesNodeFailure) {
  SimulatedCluster cluster({.num_data_nodes = 4, .replication = 2});
  std::vector<model::DocId> ids;
  for (int i = 0; i < 50; ++i) {
    auto id = cluster.Ingest(Order("c" + std::to_string(i), i));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  EXPECT_EQ(cluster.num_fully_replicated_documents(), 50u);

  cluster.FailNode(0);
  auto dead = cluster.DetectFailures();
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0], 0u);
  // Everything still readable through surviving replicas.
  EXPECT_EQ(cluster.num_available_documents(), 50u);
  for (model::DocId id : ids) {
    EXPECT_TRUE(cluster.Get(id).ok()) << id;
  }
  // But some documents lost a copy.
  EXPECT_LT(cluster.num_fully_replicated_documents(), 50u);

  // Re-replication restores full redundancy.
  SimulatedCluster::ReReplicateReport report = cluster.ReReplicate();
  EXPECT_GT(report.bytes_copied, 0u);
  EXPECT_EQ(report.docs_unrestored, 0u);
  EXPECT_EQ(cluster.num_fully_replicated_documents(), 50u);
}

TEST(ClusterTest, UnreplicatedDataIsLostOnFailure) {
  SimulatedCluster cluster({.num_data_nodes = 4, .replication = 1});
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(cluster.Ingest(Order("x", i)).ok());
  }
  cluster.FailNode(1);
  cluster.DetectFailures();
  EXPECT_LT(cluster.num_available_documents(), 40u);
  EXPECT_GT(cluster.num_available_documents(), 0u);
}

TEST(ClusterTest, QueriesStillWorkAfterFailover) {
  SimulatedCluster cluster({.num_data_nodes = 3, .replication = 2});
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster
                    .Ingest(MakeTextDocument("note", "",
                                             "keyword alpha item " +
                                                 std::to_string(i)))
                    .ok());
  }
  auto before = cluster.KeywordSearch("alpha", 100, nullptr);
  EXPECT_EQ(before.size(), 30u);
  cluster.FailNode(2);
  cluster.DetectFailures();
  auto after = cluster.KeywordSearch("alpha", 100, nullptr);
  EXPECT_EQ(after.size(), 30u);  // replicas answer for the dead node
}

TEST(ClusterTest, RecoveredNodeRejoinsEmptyAndReceivesNewData) {
  SimulatedCluster cluster({.num_data_nodes = 2, .replication = 2});
  ASSERT_TRUE(cluster.Ingest(Order("a", 1)).ok());
  cluster.FailNode(0);
  cluster.DetectFailures();
  cluster.RecoverNode(0);
  EXPECT_EQ(cluster.num_data_nodes_alive(), 2u);
  // New ingest replicates to both nodes again.
  auto id = cluster.Ingest(Order("b", 2));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(cluster.Get(*id).ok());
  // Old doc is still served by node 1.
  EXPECT_EQ(cluster.num_available_documents(), 2u);
}

// A store task already running when its node fails and rejoins empty
// writes into the partition recovery just replaced. Its node, alive again,
// must not be recorded as the holder: that copy is gone.
TEST(ClusterTest, StoreIntoReplacedPartitionIsNotRecorded) {
  SimulatedCluster cluster({.num_data_nodes = 1, .replication = 1});
  ScopedFaultInjection fi(1);
  fi->Arm("node.task.delay", 1.0, -1, /*delay_micros=*/300'000);
  std::thread chaos([&cluster] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cluster.FailNode(0);
    cluster.RecoverNode(0);
  });
  auto id = cluster.Ingest(Order("a", 1));
  chaos.join();
  fi->Disarm("node.task.delay");
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(cluster.num_documents(), 0u);
}


// --------------------------------------------------------------- Scheduler

TEST(SchedulerTest, AffinityRules) {
  Scheduler scheduler;
  Scheduler::LoadSnapshot idle;
  auto scan = scheduler.Place(Scheduler::OperatorClass::kScanFilter, idle);
  EXPECT_EQ(scan.kind, NodeKind::kData);
  EXPECT_TRUE(scan.pushdown);
  auto join =
      scheduler.Place(Scheduler::OperatorClass::kJoinSortAggregate, idle);
  EXPECT_EQ(join.kind, NodeKind::kGrid);
  auto update =
      scheduler.Place(Scheduler::OperatorClass::kConsistentUpdate, idle);
  EXPECT_EQ(update.kind, NodeKind::kCluster);
}

TEST(SchedulerTest, BusyDataNodesShiftScanWorkToGrid) {
  Scheduler scheduler;
  Scheduler::LoadSnapshot busy;
  busy.data_queue_depth = 10;
  busy.grid_queue_depth = 1;
  auto decision =
      scheduler.Place(Scheduler::OperatorClass::kScanFilter, busy);
  EXPECT_EQ(decision.kind, NodeKind::kGrid);
  EXPECT_FALSE(decision.pushdown);
  // Equal load: stay pushed down.
  busy.grid_queue_depth = 10;
  decision = scheduler.Place(Scheduler::OperatorClass::kScanFilter, busy);
  EXPECT_TRUE(decision.pushdown);
}

TEST(ClusterTest, FilterAggregateAutoUsesPushdownWhenIdle) {
  SimulatedCluster cluster({.num_data_nodes = 2});
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.Ingest(Order("c", i)).ok());
  }
  SimulatedCluster::AggQuery query;
  query.kind = "order";
  auto out = cluster.FilterAggregateAuto(query);
  EXPECT_TRUE(out.decision.pushdown);
  EXPECT_DOUBLE_EQ(out.result.groups.at(""), 20.0);
}

// ----------------------------------------------------- Figure 3 pipeline

TEST(ClusterTest, SearchJoinUpdatePipeline) {
  SimulatedCluster cluster({.num_data_nodes = 3, .num_grid_nodes = 2,
                            .num_cluster_nodes = 1});
  // Dimension: customers keyed by id.
  std::map<int64_t, model::DocId> customer_docs;
  for (int i = 0; i < 5; ++i) {
    auto id = cluster.Ingest(MakeRecordDocument(
        "customer", {{"id", Value::Int(100 + i)},
                     {"name", Value::String("cust" + std::to_string(i))}}));
    ASSERT_TRUE(id.ok());
    customer_docs[100 + i] = *id;
  }
  // Facts: complaint notes referencing customers; only some say "refund".
  std::vector<model::DocId> refund_docs;
  for (int i = 0; i < 12; ++i) {
    model::Document doc = MakeRecordDocument(
        "note", {{"customer_id", Value::Int(100 + i % 5)},
                 {"text", Value::String(i % 3 == 0
                                            ? "customer demands refund now"
                                            : "routine status update")}});
    auto id = cluster.Ingest(std::move(doc));
    ASSERT_TRUE(id.ok());
    if (i % 3 == 0) refund_docs.push_back(*id);
  }

  SimulatedCluster::PipelineQuery query;
  query.keywords = "refund";
  query.k = 10;
  query.left_ref_path = "/doc/customer_id";
  query.dim_kind = "customer";
  query.dim_key_path = "/doc/id";
  query.tag_name = "escalated";
  SimulatedCluster::PipelineResult result = cluster.SearchJoinUpdate(query);

  // Every refund note matched, joined to the right customer, and tagged.
  ASSERT_EQ(result.matches.size(), refund_docs.size());
  for (const auto& match : result.matches) {
    auto doc = cluster.Get(match.doc);
    ASSERT_TRUE(doc.ok());
    const model::Value* cid =
        model::ResolvePath(doc->root, "/doc/customer_id");
    ASSERT_NE(cid, nullptr);
    EXPECT_EQ(match.dim_doc, customer_docs.at(cid->int_value()));
    // Stage 3 applied the consistent update: the tag is visible and the
    // version advanced.
    EXPECT_NE(model::ResolvePath(doc->root, "/doc/escalated"), nullptr);
    EXPECT_EQ(doc->version, 2u);
  }
  EXPECT_EQ(result.updates_applied, refund_docs.size());
  EXPECT_GT(cluster.total_lock_acquisitions(), 0u);
  EXPECT_GT(result.stats.bytes_shipped, 0u);

  // The update stage re-indexed: tagged docs are now searchable by tag.
  auto tagged = cluster.KeywordSearch("escalated", 20, nullptr);
  EXPECT_EQ(tagged.size(), 0u);  // tag is a bool value, not text
}

TEST(ClusterTest, PipelineSurvivesDataNodeFailure) {
  SimulatedCluster cluster({.num_data_nodes = 3, .replication = 2});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster
                    .Ingest(MakeRecordDocument(
                        "customer", {{"id", Value::Int(100 + i)}}))
                    .ok());
  }
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(cluster
                    .Ingest(MakeRecordDocument(
                        "note", {{"customer_id", Value::Int(100 + i % 5)},
                                 {"text", Value::String("refund please")}}))
                    .ok());
  }
  cluster.FailNode(1);
  cluster.DetectFailures();

  SimulatedCluster::PipelineQuery query;
  query.keywords = "refund";
  query.k = 20;
  query.left_ref_path = "/doc/customer_id";
  query.dim_kind = "customer";
  query.dim_key_path = "/doc/id";
  query.tag_name = "seen";
  auto result = cluster.SearchJoinUpdate(query);
  EXPECT_EQ(result.matches.size(), 9u);  // replicas answered
  EXPECT_EQ(result.updates_applied, 9u);
}

TEST(ClusterTest, ScaleOutSpreadsOwnershipEvenly) {
  // More data nodes spread the same corpus thinner (per-node ownership
  // drops roughly proportionally); this is the structural property behind
  // experiment E1.
  constexpr int kDocs = 400;
  for (size_t nodes : {1u, 2u, 4u, 8u}) {
    SimulatedCluster cluster({.num_data_nodes = nodes});
    for (int i = 0; i < kDocs; ++i) {
      ASSERT_TRUE(cluster.Ingest(Order("x", i)).ok());
    }
    std::map<NodeId, size_t> counts = cluster.OwnedCounts();
    ASSERT_EQ(counts.size(), nodes);
    size_t total = 0;
    const size_t expected = kDocs / nodes;
    for (const auto& [node, count] : counts) {
      total += count;
      // Hash partitioning balances within a factor of two at this scale.
      EXPECT_GT(count, expected / 2) << "nodes=" << nodes;
      EXPECT_LT(count, expected * 2) << "nodes=" << nodes;
    }
    EXPECT_EQ(total, static_cast<size_t>(kDocs));
  }
}

// ------------------------------------- Dynamic partition management

TEST(PartitionTableTest, InitialTableCoversKeySpace) {
  SimulatedCluster cluster({.num_data_nodes = 4,
                            .replication = 2,
                            .initial_partitions_per_node = 2});
  const auto table = cluster.PartitionTable();
  ASSERT_EQ(table.size(), 8u);
  EXPECT_EQ(table.front().lo, 0u);
  for (size_t i = 0; i + 1 < table.size(); ++i) {
    EXPECT_EQ(table[i].hi, table[i + 1].lo) << "gap at tablet " << i;
  }
  EXPECT_EQ(table.back().hi, UINT64_MAX);
  for (const auto& desc : table) {
    EXPECT_EQ(desc.replicas.size(), 2u);
  }
  EXPECT_TRUE(cluster.CheckIntegrity().ok());
}

TEST(PartitionTableTest, KeyRangeSplitSeparatesHotRange) {
  SimulatedCluster cluster({.num_data_nodes = 4,
                            .key_range_partitioning = true});
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cluster.Ingest(Order("x", i)).ok());
  }
  // Sequential ids all land in the first tablet.
  auto table = cluster.PartitionTable();
  ASSERT_EQ(table.size(), 4u);
  EXPECT_EQ(table[0].doc_count, 100u);
  ASSERT_TRUE(cluster.SplitPartition(table[0].pid));
  table = cluster.PartitionTable();
  ASSERT_EQ(table.size(), 5u);
  // Median split separates the documents into two non-empty children.
  EXPECT_GT(table[0].doc_count, 0u);
  EXPECT_GT(table[1].doc_count, 0u);
  EXPECT_EQ(table[0].doc_count + table[1].doc_count, 100u);
  // The parent id is retired.
  for (const auto& desc : cluster.PartitionTable()) {
    EXPECT_NE(desc.pid, 0u);
  }
  EXPECT_TRUE(cluster.CheckIntegrity().ok());
  // Splitting a retired pid is a clean no-op.
  EXPECT_FALSE(cluster.SplitPartition(0));
}

TEST(PartitionTableTest, MergeAbsorbsRightNeighbor) {
  SimulatedCluster cluster({.num_data_nodes = 4});
  const auto before = cluster.PartitionTable();
  ASSERT_EQ(before.size(), 4u);
  ASSERT_TRUE(cluster.MergeWithRightNeighbor(before[1].pid));
  const auto after = cluster.PartitionTable();
  ASSERT_EQ(after.size(), 3u);
  // Survivor keeps the left id and absorbs the right range.
  EXPECT_EQ(after[1].pid, before[1].pid);
  EXPECT_EQ(after[1].lo, before[1].lo);
  EXPECT_EQ(after[1].hi, before[2].hi);
  EXPECT_TRUE(cluster.CheckIntegrity().ok());
  // The last tablet has no right neighbor.
  EXPECT_FALSE(cluster.MergeWithRightNeighbor(after.back().pid));
}

TEST(PartitionTableTest, MoveShiftsOwnershipAndQueriesStayComplete) {
  SimulatedCluster cluster({.num_data_nodes = 4,
                            .key_range_partitioning = true});
  std::vector<model::DocId> ids;
  for (int i = 0; i < 50; ++i) {
    auto id = cluster.Ingest(MakeTextDocument(
        "memo", "memo " + std::to_string(i),
        "migration memo number " + std::to_string(i)));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // Everything routed to the first tablet's primary.
  const auto table = cluster.PartitionTable();
  const NodeId from = table[0].replicas[0];
  const NodeId to = (from + 2) % 4;
  ShipStats before_stats;
  const auto before = cluster.KeywordSearch("migration", 100, &before_stats);
  ASSERT_FALSE(before_stats.degraded);
  ASSERT_EQ(before.size(), 50u);

  EXPECT_EQ(cluster.MovePartitionReplica(table[0].pid, from, to), 50u);
  std::map<NodeId, size_t> counts = cluster.OwnedCounts();
  EXPECT_EQ(counts[to], 50u);
  EXPECT_EQ(counts.count(from), 0u);

  // Point reads and scatter queries stay complete after the migration.
  for (model::DocId id : ids) {
    EXPECT_TRUE(cluster.Get(id).ok()) << id;
  }
  ShipStats after_stats;
  const auto after = cluster.KeywordSearch("migration", 100, &after_stats);
  EXPECT_FALSE(after_stats.degraded);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].doc, before[i].doc);
    EXPECT_DOUBLE_EQ(after[i].score, before[i].score);
  }
  EXPECT_TRUE(cluster.CheckIntegrity().ok());
}

TEST(PartitionTableTest, RebalanceReducesSkewWithIdenticalResults) {
  SimulatedCluster cluster({.num_data_nodes = 4,
                            .key_range_partitioning = true,
                            .split_doc_threshold = 32,
                            .balance_tolerance = 1.1,
                            .max_moves_per_pass = 8});
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(cluster
                    .Ingest(MakeTextDocument(
                        "memo", "memo " + std::to_string(i),
                        "skewed corpus entry " + std::to_string(i)))
                    .ok());
  }
  // Sequential keys: everything owned by the first tablet's primary.
  const double spread_before = cluster.OwnershipSpread();
  EXPECT_GE(spread_before, 3.9);
  ShipStats before_stats;
  const auto before = cluster.KeywordSearch("skewed", 500, &before_stats);
  ASSERT_FALSE(before_stats.degraded);
  ASSERT_EQ(before.size(), 400u);

  for (int pass = 0; pass < 10; ++pass) {
    cluster.RebalanceOnce();
    ASSERT_TRUE(cluster.CheckIntegrity().ok()) << "pass " << pass;
  }
  const double spread_after = cluster.OwnershipSpread();
  EXPECT_GE(spread_before / spread_after, 2.0)
      << "before=" << spread_before << " after=" << spread_after;

  // The served document set is identical after autonomic rebalancing.
  // (BM25 scores are computed from partition-local statistics, so the
  // per-document scores legitimately shift as documents redistribute —
  // the completeness contract is about which documents answer.)
  ShipStats after_stats;
  const auto after = cluster.KeywordSearch("skewed", 500, &after_stats);
  EXPECT_FALSE(after_stats.degraded);
  std::set<model::DocId> before_ids;
  std::set<model::DocId> after_ids;
  for (const auto& hit : before) before_ids.insert(hit.doc);
  for (const auto& hit : after) after_ids.insert(hit.doc);
  EXPECT_EQ(before_ids, after_ids);
}

TEST(PartitionTableTest, ConcurrentMigrationNeverSilentlyPartial) {
  SimulatedCluster cluster({.num_data_nodes = 4,
                            .key_range_partitioning = true});
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(cluster
                    .Ingest(MakeTextDocument(
                        "memo", "memo " + std::to_string(i),
                        "inflight corpus entry " + std::to_string(i)))
                    .ok());
  }
  const auto table = cluster.PartitionTable();
  const PartitionId pid = table[0].pid;
  const NodeId home = table[0].replicas[0];
  std::atomic<bool> stop{false};
  // Shuttle the hot tablet between nodes while queries are in flight: an
  // in-flight scatter must either see the old holder's bytes or re-route
  // through the directory — never a silent hole.
  std::thread mover([&] {
    NodeId from = home;
    while (!stop.load()) {
      const NodeId to = (from + 1) % 4;
      cluster.MovePartitionReplica(pid, from, to);
      from = to;
    }
  });
  for (int i = 0; i < 50; ++i) {
    ShipStats stats;
    const auto hits = cluster.KeywordSearch("inflight", 100, &stats);
    EXPECT_FALSE(stats.degraded) << "query " << i;
    EXPECT_EQ(hits.size(), 60u) << "query " << i;
    ShipStats avail_stats;
    const auto missing = cluster.AvailableDocs(&avail_stats);
    EXPECT_FALSE(avail_stats.degraded) << "query " << i;
    EXPECT_EQ(missing, nullptr) << "query " << i;
    EXPECT_EQ(cluster.num_documents() - (missing ? missing->size() : 0), 60u)
        << "query " << i;
  }
  stop.store(true);
  mover.join();
  EXPECT_TRUE(cluster.CheckIntegrity().ok());
}

TEST(ClusterTest, ConcurrentReReplicatePassesRecordNoDuplicateHolders) {
  SimulatedCluster cluster({.num_data_nodes = 4, .replication = 2});
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(cluster.Ingest(Order("x", i)).ok());
  }
  cluster.FailNode(0);
  cluster.DetectFailures();
  // Concurrent repair passes race to re-add the same targets; the
  // directory must still never list one node twice for a document.
  std::vector<std::thread> repairers;
  for (int t = 0; t < 3; ++t) {
    repairers.emplace_back([&cluster] { cluster.ReReplicate(); });
  }
  for (std::thread& thread : repairers) thread.join();
  EXPECT_EQ(cluster.CheckIntegrity().duplicate_holders, 0u);
  EXPECT_EQ(cluster.num_fully_replicated_documents(), 80u);
}

TEST(ClusterTest, ReReplicateReportsUnrestorableDocs) {
  SimulatedCluster cluster({.num_data_nodes = 3, .replication = 3});
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.Ingest(Order("x", i)).ok());
  }
  cluster.FailNode(0);
  cluster.DetectFailures();
  // Two alive nodes cannot hold three distinct copies: the pass must say
  // so instead of faking completion from a stale copy count.
  const SimulatedCluster::ReReplicateReport report = cluster.ReReplicate();
  EXPECT_EQ(report.docs_unrestored, 20u);
  EXPECT_EQ(cluster.num_fully_replicated_documents(), 0u);
  // Capacity restored: the next pass finishes the job and reports clean.
  cluster.RecoverNode(0);
  const SimulatedCluster::ReReplicateReport healed = cluster.ReReplicate();
  EXPECT_EQ(healed.docs_unrestored, 0u);
  EXPECT_EQ(cluster.num_fully_replicated_documents(), 20u);
}

TEST(ClusterTest, BackgroundBalancerRunsAndStops) {
  SimulatedCluster cluster({.num_data_nodes = 4,
                            .key_range_partitioning = true,
                            .split_doc_threshold = 16,
                            .balance_tolerance = 1.1});
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(cluster.Ingest(Order("x", i)).ok());
  }
  cluster.StartBalancer(1);
  EXPECT_TRUE(cluster.balancer_running());
  while (cluster.balancer_passes() < 3) {
    std::this_thread::yield();
  }
  cluster.StopBalancer();
  EXPECT_FALSE(cluster.balancer_running());
  const uint64_t passes = cluster.balancer_passes();
  EXPECT_GE(passes, 3u);
  // No passes after stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(cluster.balancer_passes(), passes);
  EXPECT_TRUE(cluster.CheckIntegrity().ok());
}

TEST(SchedulerTest, PickMoveLeavesBalancedClusterAlone) {
  Scheduler scheduler;
  EXPECT_FALSE(scheduler.PickMove({{0, 100}, {1, 100}, {2, 100}}, 1.25).move);
  EXPECT_FALSE(scheduler.PickMove({{0, 110}, {1, 100}, {2, 90}}, 1.25).move);
  EXPECT_FALSE(scheduler.PickMove({}, 1.25).move);
  EXPECT_FALSE(scheduler.PickMove({{0, 500}}, 1.25).move);
}

TEST(SchedulerTest, PickMoveTargetsHotAndColdNodes) {
  Scheduler scheduler;
  const auto choice =
      scheduler.PickMove({{0, 10}, {1, 400}, {2, 40}, {3, 50}}, 1.25);
  ASSERT_TRUE(choice.move);
  EXPECT_EQ(choice.hot, 1u);
  EXPECT_EQ(choice.cold, 0u);
  EXPECT_EQ(choice.excess, 400u - 125u);  // mean = 125
}

TEST(SchedulerTest, PickMoveIgnoresNoiseGaps) {
  Scheduler scheduler;
  // Hot exceeds tolerance * mean but the hot/cold gap is 1 document:
  // moving it would just rename the hot node.
  EXPECT_FALSE(scheduler.PickMove({{0, 2}, {1, 1}}, 1.25).move);
}

TEST(SchedulerDopTest, FullParallelismWhenIdle) {
  Scheduler scheduler;
  Scheduler::LoadSnapshot idle;
  EXPECT_EQ(scheduler.ChooseDop(8, idle), 8u);
  EXPECT_EQ(scheduler.ChooseDop(1, idle), 1u);
  EXPECT_EQ(scheduler.ChooseDop(0, idle), 1u);
}

TEST(SchedulerDopTest, GridLoadSqueezesDopToSerial) {
  Scheduler scheduler;
  Scheduler::LoadSnapshot load;
  // Within the busy margin: still full DOP.
  load.grid_queue_depth = 2.0;
  EXPECT_EQ(scheduler.ChooseDop(8, load), 8u);
  // One worker's worth of queued work past the margin costs one DOP.
  load.grid_queue_depth = 5.0;
  EXPECT_EQ(scheduler.ChooseDop(8, load), 5u);
  // Saturated grid: intra-query parallelism yields entirely.
  load.grid_queue_depth = 100.0;
  EXPECT_EQ(scheduler.ChooseDop(8, load), 1u);
}

}  // namespace
}  // namespace impliance::cluster
