#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "core/impliance.h"
#include "workload/corpus.h"

namespace impliance::core {
namespace {

namespace fs = std::filesystem;
using model::DocId;
using model::Document;
using model::MakeRecordDocument;
using model::MakeTextDocument;
using model::Value;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("impliance_core_" + name + "_" +
               std::to_string(reinterpret_cast<uintptr_t>(this)))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string path() const { return path_.string(); }

 private:
  fs::path path_;
};

std::unique_ptr<Impliance> OpenAt(const std::string& dir) {
  auto impliance = Impliance::Open({.data_dir = dir});
  EXPECT_TRUE(impliance.ok()) << impliance.status().ToString();
  return std::move(impliance).value();
}

// ---------------------------------------------------------------- Ingest

TEST(ImplianceTest, InfuseAnythingAndSearchImmediately) {
  TempDir dir("infuse");
  auto impliance = OpenAt(dir.path());

  // CSV, XML, e-mail, free text — all in, no schema, no preparation.
  auto csv = impliance->InfuseContent(
      "order", "order_no,city,total\n1,london,10\n2,paris,30\n");
  ASSERT_TRUE(csv.ok()) << csv.status().ToString();
  EXPECT_EQ(csv->size(), 2u);
  ASSERT_TRUE(impliance
                  ->InfuseContent("claim",
                                  "<claim><patient>Ada Lovelace</patient>"
                                  "<amount>450.5</amount></claim>")
                  .ok());
  ASSERT_TRUE(impliance
                  ->InfuseContent("email",
                                  "From: bob@x.com\nSubject: hi\n\n"
                                  "the xylophone arrived broken")
                  .ok());
  ASSERT_TRUE(impliance->InfuseContent("note", "plain xylophone note").ok());

  // Immediately searchable — no index DDL, no load phase.
  auto hits = impliance->Search("xylophone", 10);
  EXPECT_EQ(hits.size(), 2u);
  hits = impliance->Search("lovelace", 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].kind, "claim");
  EXPECT_EQ(impliance->GetStats().admin_steps, 0u);
}

// k=0 asks for nothing: no hits and an audit entry naming no documents,
// on a single node and through the scale-out tier alike.
TEST(ImplianceTest, SearchWithZeroLimitReturnsNoHits) {
  for (size_t nodes : {0u, 4u}) {
    SCOPED_TRACE("data nodes: " + std::to_string(nodes));
    TempDir dir("search_k0_" + std::to_string(nodes));
    auto opened = Impliance::Open(
        {.data_dir = dir.path(), .scale_out_data_nodes = nodes});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto impliance = std::move(opened).value();
    ASSERT_TRUE(impliance
                    ->InfuseContent("ticket",
                                    "id,text\n1,refund is late\n"
                                    "2,second refund request\n")
                    .ok());
    EXPECT_EQ(impliance->Search("refund", 10).size(), 2u);
    EXPECT_EQ(impliance->Search("refund", 1).size(), 1u);
    EXPECT_TRUE(impliance->Search("refund", 0).empty());
    EXPECT_TRUE(impliance->SearchField("/doc/text", "refund", 0).empty());
    const auto entries =
        impliance->audit_log().ByPrincipal(AccessController::kAdmin);
    ASSERT_EQ(entries.size(), 4u);
    EXPECT_TRUE(entries[2].docs_accessed.empty());
    EXPECT_TRUE(entries[3].docs_accessed.empty());
  }
}

// A single node is always complete: search overwrites a caller's stale
// health with {false, 0}.
TEST(ImplianceTest, SingleNodeSearchResetsHealth) {
  TempDir dir("search_health");
  auto impliance = OpenAt(dir.path());
  ASSERT_TRUE(
      impliance->InfuseContent("ticket", "id,text\n1,refund is late\n").ok());
  const auto expect_reset = [](const QueryHealth& health) {
    EXPECT_FALSE(health.degraded);
    EXPECT_EQ(health.missing_partitions, 0u);
  };
  QueryHealth health{true, 5};
  EXPECT_EQ(impliance->Search("refund", 10, &health).size(), 1u);
  expect_reset(health);
  health = QueryHealth{true, 5};
  auto hits =
      impliance->SearchAs(AccessController::kAdmin, "refund", 10, &health);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(hits->size(), 1u);
  expect_reset(health);
  health = QueryHealth{true, 5};
  EXPECT_EQ(impliance->SearchField("/doc/text", "refund", 10, &health).size(),
            1u);
  expect_reset(health);
}

TEST(ImplianceTest, SqlOverInferredViews) {
  TempDir dir("sql");
  auto impliance = OpenAt(dir.path());
  ASSERT_TRUE(impliance
                  ->InfuseContent("order",
                                  "order_no,city,total\n"
                                  "1,london,10\n2,paris,30\n3,london,25\n")
                  .ok());
  auto rows = impliance->Sql(
      "SELECT city, SUM(total) AS revenue FROM order GROUP BY city "
      "ORDER BY revenue DESC");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][0].string_value(), "london");
  EXPECT_DOUBLE_EQ((*rows)[0][1].double_value(), 35.0);
}

TEST(ImplianceTest, UpdateCreatesNewVersionAndReindexes) {
  TempDir dir("update");
  auto impliance = OpenAt(dir.path());
  auto id = impliance->Infuse(MakeTextDocument("note", "", "original falcon"));
  ASSERT_TRUE(id.ok());
  auto version = impliance->Update(
      *id, MakeTextDocument("note", "", "updated osprey"));
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 2u);

  // Search reflects only the latest version.
  EXPECT_TRUE(impliance->Search("falcon", 10).empty());
  EXPECT_EQ(impliance->Search("osprey", 10).size(), 1u);
  // Time travel still works.
  auto v1 = impliance->GetVersion(*id, 1);
  ASSERT_TRUE(v1.ok());
  EXPECT_NE(v1->Text().find("falcon"), std::string::npos);
}

TEST(ImplianceTest, RecoveryRebuildsIndexes) {
  TempDir dir("recovery");
  DocId note_id;
  {
    auto impliance = OpenAt(dir.path());
    auto id = impliance->Infuse(
        MakeTextDocument("note", "", "persistent pelican"));
    ASSERT_TRUE(id.ok());
    note_id = *id;
    ASSERT_TRUE(impliance
                    ->InfuseContent("order", "order_no,total\n7,70\n")
                    .ok());
  }
  auto impliance = OpenAt(dir.path());
  auto hits = impliance->Search("pelican", 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc, note_id);
  auto rows = impliance->Sql("SELECT total FROM order WHERE order_no = 7");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].int_value(), 70);
}

TEST(ImplianceTest, RecoveryFailsOpenWhenScaleOutMirrorCannotStore) {
  TempDir dir("recovery_mirror");
  {
    auto impliance = OpenAt(dir.path());
    ASSERT_TRUE(
        impliance->Infuse(MakeTextDocument("note", "", "mirrored magpie"))
            .ok());
  }
  // Reopen with a blade tier while every store task is dropped: the mirror
  // cannot record any holder, so the document would be invisible to every
  // distributed query with degraded=false — Open must fail, not warn.
  {
    FaultInjector injector(/*seed=*/7);
    injector.Arm("node.submit.drop", /*probability=*/1.0);
    FaultInjector::Install(&injector);
    auto broken = Impliance::Open(
        {.data_dir = dir.path(), .scale_out_data_nodes = 4});
    FaultInjector::Install(nullptr);
    ASSERT_FALSE(broken.ok());
  }
  // Without the fault the same reopen succeeds and serves the document,
  // complete.
  auto recovered = Impliance::Open(
      {.data_dir = dir.path(), .scale_out_data_nodes = 4});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  QueryHealth health;
  auto hits = (*recovered)->Search("magpie", 10, &health);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_FALSE(health.degraded);
  EXPECT_EQ(health.missing_partitions, 0u);
}

// -------------------------------------------------------------- Discovery

TEST(ImplianceTest, DiscoveryAnnotatesAndIsIdempotent) {
  TempDir dir("discovery");
  auto impliance = OpenAt(dir.path());
  auto id = impliance->Infuse(MakeTextDocument(
      "email", "", "wire $250.00 to alice@acme.com by 2007-01-09"));
  ASSERT_TRUE(id.ok());

  auto report = impliance->RunDiscovery();
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->annotations_created, 1u);

  std::vector<Document> annotations = impliance->AnnotationsFor(*id);
  ASSERT_FALSE(annotations.empty());
  std::set<std::string> entity_types;
  for (const Document& annotation : annotations) {
    for (const auto& span :
         discovery::SpansFromAnnotationDocument(annotation)) {
      entity_types.insert(span.entity_type);
    }
  }
  EXPECT_TRUE(entity_types.count("email"));
  EXPECT_TRUE(entity_types.count("money"));
  EXPECT_TRUE(entity_types.count("date"));

  // Second pass: nothing new to do.
  auto again = impliance->RunDiscovery();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->annotations_created, 0u);
  EXPECT_EQ(again->documents_annotated, 0u);
}

TEST(ImplianceTest, DiscoveredAnnotationsImproveSearch) {
  TempDir dir("discovery_search");
  auto impliance = OpenAt(dir.path());
  impliance->AddDictionaryEntries("product", {"WidgetPro"});
  auto id = impliance->Infuse(MakeTextDocument(
      "call", "", "customer says the widgetpro keeps rebooting"));
  ASSERT_TRUE(id.ok());

  ASSERT_TRUE(impliance->RunDiscovery().ok());
  // The annotation document mentions the product entity; entity-targeted
  // search can find it via annotations.
  auto annotations = impliance->AnnotationsFor(*id);
  bool product_found = false;
  for (const Document& annotation : annotations) {
    for (const auto& span :
         discovery::SpansFromAnnotationDocument(annotation)) {
      if (span.entity_type == "product" && span.text == "widgetpro") {
        product_found = true;
      }
    }
  }
  EXPECT_TRUE(product_found);
}

TEST(ImplianceTest, DiscoveryConsolidatesSchemasAcrossFormats) {
  TempDir dir("schema");
  auto impliance = OpenAt(dir.path());
  ASSERT_TRUE(impliance
                  ->InfuseContent("po_csv",
                                  "order_no,customer_id,total\n1,100,10\n"
                                  "2,101,20\n")
                  .ok());
  ASSERT_TRUE(impliance
                  ->InfuseContent("po_xml",
                                  "<po><order_no>3</order_no>"
                                  "<customer_id>100</customer_id>"
                                  "<total>30</total></po>")
                  .ok());
  ASSERT_TRUE(impliance->RunDiscovery().ok());

  std::vector<discovery::SchemaClass> classes = impliance->SchemaClasses();
  const discovery::SchemaClass* po_class = nullptr;
  for (const auto& schema_class : classes) {
    if (schema_class.kinds.size() == 2) po_class = &schema_class;
  }
  ASSERT_NE(po_class, nullptr);

  // The consolidated view is queryable as one relation.
  auto rows = impliance->Sql("SELECT COUNT(*) FROM " + po_class->name);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][0].int_value(), 3);
}

TEST(ImplianceTest, DiscoveryFindsJoinsAndGraphAnswersConnections) {
  TempDir dir("joins");
  auto impliance = OpenAt(dir.path());
  // Customers and orders referencing them.
  std::string customers = "id,name,city\n";
  for (int i = 0; i < 6; ++i) {
    customers += std::to_string(100 + i) + ",cust" + std::to_string(i) +
                 ",london\n";
  }
  auto customer_ids = impliance->InfuseContent("customer", customers);
  ASSERT_TRUE(customer_ids.ok());
  std::string orders = "order_no,customer_id,total\n";
  for (int i = 0; i < 8; ++i) {
    orders += std::to_string(9000 + i) + "," + std::to_string(100 + i % 6) +
              "," + std::to_string(i * 10) + "\n";
  }
  auto order_ids = impliance->InfuseContent("order", orders);
  ASSERT_TRUE(order_ids.ok());

  auto report = impliance->RunDiscovery();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->join_edges_added, 0u);

  // Graph: an order connects to its customer in one hop.
  impliance->WaitForDiscovery();
  query::GraphQuery graph = impliance->Graph();
  auto connection = graph.HowConnected((*order_ids)[0], (*customer_ids)[0], 3);
  ASSERT_TRUE(connection.has_value());
  EXPECT_EQ(connection->hops, 1u);
  std::string explain =
      graph.ExplainConnection((*order_ids)[0], *connection);
  EXPECT_NE(explain.find("joins:customer_id"), std::string::npos);
}

TEST(ImplianceTest, EntityResolutionLinksDuplicateCustomers) {
  TempDir dir("er");
  auto impliance = OpenAt(dir.path());
  auto a = impliance->Infuse(MakeRecordDocument(
      "customer", {{"name", Value::String("Jon Smith")},
                   {"city", Value::String("london")}}));
  auto b = impliance->Infuse(MakeRecordDocument(
      "customer", {{"name", Value::String("Jon Smyth")},
                   {"city", Value::String("london")}}));
  auto c = impliance->Infuse(MakeRecordDocument(
      "customer", {{"name", Value::String("Alice Jones")},
                   {"city", Value::String("paris")}}));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  auto report = impliance->RunDiscovery();
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->entity_clusters_merged, 1u);

  impliance->WaitForDiscovery();
  query::GraphQuery graph = impliance->Graph();
  EXPECT_EQ(graph.RelatedBy(*a, "same_entity"),
            (std::vector<DocId>{*b}));
  EXPECT_TRUE(graph.RelatedBy(*c, "same_entity").empty());
}

TEST(ImplianceTest, BackgroundDiscoveryRunsAsynchronously) {
  TempDir dir("background");
  auto impliance = OpenAt(dir.path());
  ASSERT_TRUE(impliance
                  ->Infuse(MakeTextDocument("email", "",
                                            "ping bob@x.com about $5.00"))
                  .ok());
  impliance->StartBackgroundDiscovery();
  impliance->WaitForDiscovery();
  auto hits = impliance->Search("bob", 10);
  ASSERT_FALSE(hits.empty());
  EXPECT_FALSE(impliance->AnnotationsFor(hits[0].doc).empty());
}

// ---------------------------------------------------------------- Faceted

TEST(ImplianceTest, FacetedSearchWithDrilldown) {
  TempDir dir("faceted");
  auto impliance = OpenAt(dir.path());
  ASSERT_TRUE(impliance
                  ->InfuseContent("ticket",
                                  "region,hours,text\n"
                                  "emea,3,printer broken\n"
                                  "amer,5,printer fine\n"
                                  "emea,2,printer broken again\n")
                  .ok());
  query::FacetedQuery faceted;
  faceted.keywords = "printer";
  faceted.facet_paths = {"/doc/region"};
  faceted.aggregates = {{"/doc/hours", "sum"}};
  auto result = impliance->Faceted(faceted);
  EXPECT_EQ(result.total_matches, 3u);
  ASSERT_EQ(result.facets.at("/doc/region").size(), 2u);
  EXPECT_EQ(result.facets.at("/doc/region")[0].count, 2u);  // emea
  EXPECT_DOUBLE_EQ(result.aggregate_values.at("sum(/doc/hours)"), 10.0);

  faceted.drilldowns = {{"/doc/region", Value::String("emea")}};
  result = impliance->Faceted(faceted);
  EXPECT_EQ(result.total_matches, 2u);
  EXPECT_DOUBLE_EQ(result.aggregate_values.at("sum(/doc/hours)"), 5.0);
}

// top_k = 0 returns no documents and top_k = 1 returns one, with and
// without keywords, on a single node and through the scale-out tier alike.
TEST(ImplianceTest, FacetedTopKZeroAndOne) {
  for (size_t nodes : {0u, 4u}) {
    SCOPED_TRACE("data nodes: " + std::to_string(nodes));
    TempDir dir("faceted_k0_" + std::to_string(nodes));
    auto opened = Impliance::Open(
        {.data_dir = dir.path(), .scale_out_data_nodes = nodes});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto impliance = std::move(opened).value();
    ASSERT_TRUE(impliance
                    ->InfuseContent("ticket",
                                    "region,text\n"
                                    "emea,refund is late\n"
                                    "amer,second refund request\n")
                    .ok());
    for (const std::string keywords : {"", "refund"}) {
      SCOPED_TRACE("keywords: '" + keywords + "'");
      query::FacetedQuery faceted;
      faceted.keywords = keywords;
      faceted.kind = "ticket";
      faceted.facet_paths = {"/doc/region"};
      faceted.top_k = 0;
      auto result = impliance->Faceted(faceted);
      EXPECT_TRUE(result.docs.empty());
      EXPECT_EQ(result.total_matches, 2u);
      EXPECT_EQ(result.facets.at("/doc/region").size(), 2u);
      faceted.top_k = 1;
      result = impliance->Faceted(faceted);
      EXPECT_EQ(result.docs.size(), 1u);
      EXPECT_EQ(result.total_matches, 2u);
    }
  }
}

// ------------------------------------------------------- End-to-end corpus

TEST(ImplianceTest, FullCorpusEndToEnd) {
  TempDir dir("corpus");
  auto impliance = OpenAt(dir.path());
  impliance->AddDictionaryEntries("product",
                                  workload::CorpusGenerator::ProductNames());
  impliance->AddDictionaryEntries("location",
                                  workload::CorpusGenerator::CityNames());

  workload::CorpusOptions options;
  options.num_customers = 30;
  options.num_orders_csv = 20;
  options.num_orders_xml = 10;
  options.num_orders_email = 10;
  options.num_transcripts = 15;
  options.num_claims = 10;
  options.num_contract_emails = 8;
  workload::GroundTruth truth;
  std::vector<workload::RawItem> items =
      workload::CorpusGenerator(options).GenerateRaw(&truth);
  for (const auto& item : items) {
    auto ids = impliance->InfuseContent(item.kind, item.content);
    ASSERT_TRUE(ids.ok()) << item.kind << ": " << ids.status().ToString();
  }

  // Everything searchable pre-discovery.
  EXPECT_FALSE(impliance->Search("transcript", 5).empty());

  auto report = impliance->RunDiscovery();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->annotations_created, 0u);
  EXPECT_GT(report->join_edges_added, 0u);
  EXPECT_GE(report->entity_clusters_merged, 1u);

  // SQL over the customer view: duplicates + originals all loaded.
  auto rows = impliance->Sql("SELECT COUNT(*) FROM customer");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(static_cast<size_t>((*rows)[0][0].int_value()),
            truth.customer_names.size());
}

}  // namespace
}  // namespace impliance::core
