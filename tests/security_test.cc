#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "core/impliance.h"

namespace impliance::core {
namespace {

namespace fs = std::filesystem;
using model::MakeRecordDocument;
using model::MakeTextDocument;
using model::Value;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("impliance_sec_" + name + "_" +
               std::to_string(reinterpret_cast<uintptr_t>(this)))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string path() const { return path_.string(); }

 private:
  fs::path path_;
};

// --------------------------------------------------------- AccessController

TEST(AccessControllerTest, AdminCanReadEverything) {
  AccessController access;
  EXPECT_TRUE(access.CanRead(AccessController::kAdmin, "anything"));
  EXPECT_TRUE(access.HasPrincipal(AccessController::kAdmin));
}

TEST(AccessControllerTest, GrantsAndRevokes) {
  AccessController access;
  access.CreatePrincipal("alice");
  EXPECT_FALSE(access.CanRead("alice", "claims"));
  ASSERT_TRUE(access.GrantRead("alice", "claims").ok());
  EXPECT_TRUE(access.CanRead("alice", "claims"));
  EXPECT_FALSE(access.CanRead("alice", "orders"));
  ASSERT_TRUE(access.RevokeRead("alice", "claims").ok());
  EXPECT_FALSE(access.CanRead("alice", "claims"));
}

TEST(AccessControllerTest, WildcardGrant) {
  AccessController access;
  access.CreatePrincipal("auditor");
  ASSERT_TRUE(access.GrantRead("auditor", "*").ok());
  EXPECT_TRUE(access.CanRead("auditor", "claims"));
  EXPECT_TRUE(access.CanRead("auditor", "transcripts"));
}

TEST(AccessControllerTest, UnknownPrincipalDeniedEverywhere) {
  AccessController access;
  EXPECT_FALSE(access.CanRead("mallory", "anything"));
  EXPECT_TRUE(access.GrantRead("mallory", "x").IsNotFound());
  EXPECT_FALSE(access.HasPrincipal("mallory"));
}

// ----------------------------------------------------------------- AuditLog

TEST(AuditLogTest, RecordsAndQueriesBack) {
  AuditLog audit;
  audit.Record("alice", "keyword", "find claims", {1, 2, 3});
  audit.Record("bob", "sql", "SELECT *", {2});
  EXPECT_EQ(audit.size(), 2u);

  auto touching = audit.QueriesTouching(2);
  ASSERT_EQ(touching.size(), 2u);
  EXPECT_EQ(touching[0].principal, "alice");
  EXPECT_EQ(touching[1].principal, "bob");
  EXPECT_TRUE(audit.QueriesTouching(99).empty());

  auto by_alice = audit.ByPrincipal("alice");
  ASSERT_EQ(by_alice.size(), 1u);
  EXPECT_EQ(by_alice[0].interface, "keyword");
  EXPECT_GT(by_alice[0].seq, 0u);
}

// ------------------------------------------------------- Facade integration

TEST(ImplianceSecurityTest, SearchFilteredByPrincipal) {
  TempDir dir("search");
  auto impliance = std::move(Impliance::Open({.data_dir = dir.path()})).value();
  ASSERT_TRUE(impliance
                  ->Infuse(MakeTextDocument("hr_review", "",
                                            "confidential salary memo"))
                  .ok());
  ASSERT_TRUE(impliance
                  ->Infuse(MakeTextDocument("newsletter", "",
                                            "public salary survey results"))
                  .ok());

  impliance->access_control().CreatePrincipal("intern");
  ASSERT_TRUE(
      impliance->access_control().GrantRead("intern", "newsletter").ok());

  // Admin sees both; intern sees only the newsletter.
  EXPECT_EQ(impliance->Search("salary", 10).size(), 2u);
  auto intern_hits = impliance->SearchAs("intern", "salary", 10);
  ASSERT_TRUE(intern_hits.ok());
  ASSERT_EQ(intern_hits->size(), 1u);
  EXPECT_EQ((*intern_hits)[0].kind, "newsletter");

  // Unknown principal is rejected outright.
  EXPECT_TRUE(impliance->SearchAs("nobody", "salary", 10)
                  .status().IsInvalidArgument());
}

// One hit loop serves both tiers, so the principal filter must hold on the
// scale-out branch too: every hit is readable, the count is min(k, readable
// matches), and the audit entry lists exactly the returned ids.
TEST(ImplianceSecurityTest, SearchAsFiltersOnSingleNodeAndScaleOut) {
  constexpr size_t kReadable = 12;
  for (size_t nodes : {0u, 4u}) {
    SCOPED_TRACE("data nodes: " + std::to_string(nodes));
    TempDir dir("search_as_" + std::to_string(nodes));
    auto opened = Impliance::Open({.data_dir = dir.path(),
                                   .scale_out_data_nodes = nodes,
                                   .scale_out_replication = 2});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto impliance = std::move(opened).value();
    for (size_t i = 0; i < kReadable; ++i) {
      const std::string n = std::to_string(i);
      ASSERT_TRUE(impliance
                      ->Infuse(MakeTextDocument(
                          "hr_review", "", "confidential salary memo " + n))
                      .ok());
      ASSERT_TRUE(impliance
                      ->Infuse(MakeTextDocument(
                          "newsletter", "", "public salary survey " + n))
                      .ok());
    }
    impliance->access_control().CreatePrincipal("intern");
    ASSERT_TRUE(
        impliance->access_control().GrantRead("intern", "newsletter").ok());

    for (size_t k : {0u, 1u, 5u, 12u, 20u}) {
      SCOPED_TRACE("k = " + std::to_string(k));
      auto hits = impliance->SearchAs("intern", "salary", k);
      ASSERT_TRUE(hits.ok()) << hits.status().ToString();
      EXPECT_EQ(hits->size(), std::min(k, kReadable));
      std::vector<model::DocId> returned;
      for (const SearchHit& hit : *hits) {
        EXPECT_TRUE(impliance->access_control().CanRead("intern", hit.kind))
            << hit.kind;
        returned.push_back(hit.doc);
      }
      const auto entries = impliance->audit_log().ByPrincipal("intern");
      ASSERT_FALSE(entries.empty());
      EXPECT_EQ(entries.back().interface, "keyword");
      EXPECT_EQ(entries.back().docs_accessed, returned);
    }
  }
}

TEST(ImplianceSecurityTest, SqlDeniedOnUnreadableKind) {
  TempDir dir("sql");
  auto impliance = std::move(Impliance::Open({.data_dir = dir.path()})).value();
  ASSERT_TRUE(impliance->InfuseContent("salaries", "name,amount\nada,100\n")
                  .ok());
  impliance->access_control().CreatePrincipal("intern");

  auto denied = impliance->SqlAs("intern", "SELECT amount FROM salaries");
  EXPECT_TRUE(denied.status().IsAborted());

  ASSERT_TRUE(
      impliance->access_control().GrantRead("intern", "salaries").ok());
  auto allowed = impliance->SqlAs("intern", "SELECT amount FROM salaries");
  ASSERT_TRUE(allowed.ok());
  EXPECT_EQ(allowed->size(), 1u);
}

TEST(ImplianceSecurityTest, GetAsEnforcesKindPolicy) {
  TempDir dir("get");
  auto impliance = std::move(Impliance::Open({.data_dir = dir.path()})).value();
  auto id = impliance->Infuse(MakeTextDocument("secret", "", "classified"));
  ASSERT_TRUE(id.ok());
  impliance->access_control().CreatePrincipal("intern");
  EXPECT_TRUE(impliance->GetAs("intern", *id).status().IsAborted());
  ASSERT_TRUE(impliance->access_control().GrantRead("intern", "secret").ok());
  EXPECT_TRUE(impliance->GetAs("intern", *id).ok());
}

TEST(ImplianceSecurityTest, QueriesAreAudited) {
  TempDir dir("audit");
  auto impliance = std::move(Impliance::Open({.data_dir = dir.path()})).value();
  auto id = impliance->Infuse(MakeTextDocument("memo", "", "project kestrel"));
  ASSERT_TRUE(id.ok());

  impliance->Search("kestrel", 5);
  ASSERT_TRUE(impliance->Sql("SELECT COUNT(*) FROM memo").ok());

  // Who touched this document?
  auto touching = impliance->audit_log().QueriesTouching(*id);
  ASSERT_EQ(touching.size(), 1u);  // the keyword search surfaced it
  EXPECT_EQ(touching[0].interface, "keyword");
  EXPECT_EQ(touching[0].principal, AccessController::kAdmin);
  EXPECT_EQ(touching[0].query, "kestrel");
  // SQL was audited too (without row-level ids).
  EXPECT_GE(impliance->audit_log().size(), 2u);
}

TEST(ImplianceSecurityTest, DeniedSqlIsAuditedAsDenied) {
  TempDir dir("audit_denied");
  auto impliance = std::move(Impliance::Open({.data_dir = dir.path()})).value();
  ASSERT_TRUE(impliance->InfuseContent("x", "a,b\n1,2\n").ok());
  impliance->access_control().CreatePrincipal("intern");
  EXPECT_FALSE(impliance->SqlAs("intern", "SELECT a FROM x").ok());
  auto entries = impliance->audit_log().ByPrincipal("intern");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].interface, "sql(denied)");
}

// A name that is both a kind and a schema class is checked as the table SQL
// serves: the class, readable only when every member kind is. A grant on
// the kind of that name must not open the class's members.
TEST(ImplianceSecurityTest, SqlOnANameThatIsBothAKindAndAClass) {
  TempDir dir("kind_and_class");
  auto impliance = std::move(Impliance::Open({.data_dir = dir.path()})).value();
  ASSERT_TRUE(
      impliance->InfuseContent("order", "city,total\nlondon,30\nparis,10\n")
          .ok());
  ASSERT_TRUE(
      impliance->InfuseContent("class_order", "name,region\nann,emea\n").ok());
  ASSERT_TRUE(impliance->RunDiscovery().ok());
  // No shared leaf names, so discovery keeps one class per kind, and the
  // class built around `order` is named like the second kind.
  const std::vector<discovery::SchemaClass> classes =
      impliance->SchemaClasses();
  auto order_class = std::ranges::find(classes, std::string("class_order"),
                                       &discovery::SchemaClass::name);
  ASSERT_NE(order_class, classes.end());
  ASSERT_EQ(order_class->kinds, std::vector<std::string>{"order"});

  impliance->access_control().CreatePrincipal("p");
  ASSERT_TRUE(impliance->access_control().GrantRead("p", "class_order").ok());
  const std::string sql = "SELECT * FROM class_order";
  auto denied = impliance->SqlAs("p", sql);
  EXPECT_TRUE(denied.status().IsAborted())
      << "served " << (denied.ok() ? denied->size() : 0) << " rows";
  auto entries = impliance->audit_log().ByPrincipal("p");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].interface, "sql(denied)");

  // Admin still reads the class: the two orders.
  auto admin = impliance->Sql(sql);
  ASSERT_TRUE(admin.ok()) << admin.status().ToString();
  EXPECT_EQ(admin->size(), 2u);
  // A grant on the member kind opens the class.
  ASSERT_TRUE(impliance->access_control().GrantRead("p", "order").ok());
  auto allowed = impliance->SqlAs("p", sql);
  ASSERT_TRUE(allowed.ok()) << allowed.status().ToString();
  EXPECT_EQ(*allowed, *admin);
}

// ------------------------------------------------------------------ Lineage

TEST(ImplianceLineageTest, AnnotationTracesToBase) {
  TempDir dir("lineage");
  auto impliance = std::move(Impliance::Open({.data_dir = dir.path()})).value();
  auto base = impliance->Infuse(
      MakeTextDocument("email", "", "wire $99.00 to pay@acme.com"));
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(impliance->RunDiscovery().ok());

  auto annotations = impliance->AnnotationsFor(*base);
  ASSERT_FALSE(annotations.empty());

  auto lineage = impliance->Lineage(annotations[0].id);
  ASSERT_EQ(lineage.size(), 2u);
  EXPECT_EQ(lineage[0].doc, annotations[0].id);
  EXPECT_EQ(lineage[0].relation, "");
  EXPECT_EQ(lineage[1].doc, *base);
  EXPECT_EQ(lineage[1].relation, "annotates");

  // A base document's lineage is itself.
  auto base_lineage = impliance->Lineage(*base);
  ASSERT_EQ(base_lineage.size(), 1u);
  EXPECT_EQ(base_lineage[0].doc, *base);
}

}  // namespace
}  // namespace impliance::core
