// Identity tests for the appliance's SQL scan path: every kind's columnar
// projection must yield exactly the rows, in the same order, that reading
// each document of the kind from the store and projecting it through the
// kind's view yields — across kinds, ingest after the projection exists,
// updates, view changes, reopen, and scale-out with a lost blade.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/impliance.h"
#include "obs/trace.h"

namespace impliance::core {
namespace {

namespace fs = std::filesystem;
using model::DocId;
using model::MakeRecordDocument;
using model::MakeTextDocument;
using model::Value;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("impliance_projection_" + name + "_" +
               std::to_string(reinterpret_cast<uintptr_t>(this)))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string path() const { return path_.string(); }

 private:
  fs::path path_;
};

std::unique_ptr<Impliance> Open(ImplianceOptions options) {
  auto impliance = Impliance::Open(std::move(options));
  EXPECT_TRUE(impliance.ok()) << impliance.status().ToString();
  return std::move(impliance).value();
}

std::string OrdersCsv(int begin, int end) {
  static const char* kCities[] = {"london", "paris", "tokyo", "lima"};
  std::string csv = "order_no,city,total\n";
  for (int i = begin; i < end; ++i) {
    csv += std::to_string(i) + "," + kCities[(i * 7) % 4] + "," +
           std::to_string((i * 37) % 1000) + "\n";
  }
  return csv;
}

// The row path the projection replaces: Get + DocumentToRow over the
// kind's documents in ascending id order, optionally restricted to an
// availability set and filtered by `keep`.
std::vector<exec::Row> Oracle(
    const Impliance& impliance, const std::string& kind,
    const std::set<DocId>* available = nullptr,
    const std::function<bool(const exec::Row&)>& keep = nullptr) {
  Result<model::ViewDef> view = impliance.ViewFor(kind);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  std::vector<exec::Row> rows;
  for (DocId id : impliance.DocsOfKind(kind)) {
    if (available != nullptr && available->count(id) == 0) continue;
    Result<model::Document> doc = impliance.Get(id);
    EXPECT_TRUE(doc.ok());
    exec::Row row = model::DocumentToRow(*view, *doc);
    if (keep == nullptr || keep(row)) rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<exec::Row> RunSql(const Impliance& impliance,
                              const std::string& sql,
                              const std::string& planner = "",
                              QueryHealth* health = nullptr) {
  auto rows = impliance.Sql(sql, health, planner);
  EXPECT_TRUE(rows.ok()) << sql << ": " << rows.status().ToString();
  return rows.ok() ? std::move(rows).value() : std::vector<exec::Row>{};
}

// SELECT * through both planners equals the oracle, row for row.
void ExpectIdentity(const Impliance& impliance, const std::string& kind) {
  const std::vector<exec::Row> expected = Oracle(impliance, kind);
  ASSERT_FALSE(expected.empty()) << kind;
  for (const char* planner : {"cost", "simple"}) {
    EXPECT_EQ(RunSql(impliance, "SELECT * FROM " + kind, planner), expected)
        << kind << " via " << planner;
  }
}

int Column(const Impliance& impliance, const std::string& kind,
           const std::string& name) {
  return impliance.ViewFor(kind)->ColumnIndex(name);
}

// A range predicate selective enough that the cost planner scans (with
// zone-map hints) rather than fetching through the value index.
void ExpectFilteredIdentity(const Impliance& impliance, int from) {
  const int order_no = Column(impliance, "order", "order_no");
  ASSERT_GE(order_no, 0);
  const auto late = [order_no, from](const exec::Row& row) {
    return !row[order_no].is_null() &&
           row[order_no].Compare(Value::Int(from)) >= 0;
  };
  const std::vector<exec::Row> expected =
      Oracle(impliance, "order", nullptr, late);
  ASSERT_FALSE(expected.empty());
  const std::string sql =
      "SELECT * FROM order WHERE order_no >= " + std::to_string(from);
  for (const char* planner : {"cost", "simple"}) {
    EXPECT_EQ(RunSql(impliance, sql, planner), expected) << planner;
  }
}

// Several kinds, more than one encoded segment, and rows appended by
// ingest after the projection was built.
void LoadKinds(Impliance* impliance) {
  ASSERT_TRUE(impliance->InfuseContent("order", OrdersCsv(0, 5000)).ok());
  // Ragged records: every document lacks some of the view's columns.
  ASSERT_TRUE(impliance
                  ->Infuse(MakeRecordDocument(
                      "customer", {{"name", Value::String("ann")},
                                   {"city", Value::String("paris")},
                                   {"vip", Value::Bool(true)}}))
                  .ok());
  ASSERT_TRUE(impliance
                  ->Infuse(MakeRecordDocument(
                      "customer", {{"name", Value::String("bob")},
                                   {"city", Value::String("lima")}}))
                  .ok());
  ASSERT_TRUE(impliance
                  ->Infuse(MakeRecordDocument(
                      "customer", {{"name", Value::String("cy")},
                                   {"age", Value::Int(41)}}))
                  .ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(impliance
                    ->Infuse(MakeTextDocument("note", "n" + std::to_string(i),
                                              "body " + std::to_string(i)))
                    .ok());
  }
}

TEST(SqlProjectionTest, ScansMatchRowPathAcrossKindsAndIngest) {
  TempDir dir("kinds");
  auto impliance = Open({.data_dir = dir.path()});
  LoadKinds(impliance.get());
  for (const char* kind : {"order", "customer", "note"}) {
    ExpectIdentity(*impliance, kind);
  }
  // The projections now exist; ingest appends to them across segment
  // boundaries, in batches and one document at a time.
  ASSERT_TRUE(impliance->InfuseContent("order", OrdersCsv(5000, 9000)).ok());
  ASSERT_TRUE(impliance
                  ->Infuse(MakeRecordDocument(
                      "order", {{"order_no", Value::Int(9000)},
                                {"city", Value::String("oslo")},
                                {"total", Value::Double(12.5)}}))
                  .ok());
  ASSERT_TRUE(impliance
                  ->Infuse(MakeTextDocument("note", "late", "appended body"))
                  .ok());
  for (const char* kind : {"order", "customer", "note"}) {
    ExpectIdentity(*impliance, kind);
  }
  ExpectFilteredIdentity(*impliance, 6000);
  auto grouped = RunSql(
      *impliance, "SELECT city, COUNT(*), SUM(total) FROM order GROUP BY city");
  EXPECT_EQ(grouped.size(), 5u);
}

TEST(SqlProjectionTest, UpdateRebuildsProjection) {
  TempDir dir("update");
  auto impliance = Open({.data_dir = dir.path()});
  LoadKinds(impliance.get());
  ExpectIdentity(*impliance, "order");

  const DocId target = impliance->DocsOfKind("order")[17];
  ASSERT_TRUE(impliance
                  ->Update(target, MakeRecordDocument(
                                       "order",
                                       {{"order_no", Value::Int(17)},
                                        {"city", Value::String("updated")},
                                        {"total", Value::Int(4242)}}))
                  .ok());
  ExpectIdentity(*impliance, "order");
  auto updated =
      RunSql(*impliance, "SELECT total FROM order WHERE city = 'updated'");
  ASSERT_EQ(updated.size(), 1u);
  EXPECT_EQ(updated[0][0].AsDouble(), 4242);

  // An Update that moves a document to another kind: the old kind loses
  // the row, the new kind gains it, and both stay in id order.
  ExpectIdentity(*impliance, "note");
  const DocId moved = impliance->DocsOfKind("order")[3];
  ASSERT_TRUE(
      impliance->Update(moved, MakeTextDocument("note", "moved", "was order"))
          .ok());
  ExpectIdentity(*impliance, "order");
  ExpectIdentity(*impliance, "note");
}

TEST(SqlProjectionTest, ViewGainingAColumnRebuildsProjection) {
  TempDir dir("view");
  auto impliance = Open({.data_dir = dir.path()});
  ASSERT_TRUE(impliance->InfuseContent("lead", "name,score\na,1\nb,2\n").ok());
  ExpectIdentity(*impliance, "lead");
  ASSERT_EQ(impliance->ViewFor("lead")->columns.size(), 2u);

  // Under 32 documents, a new path joins the inferred view; the projection
  // laid out under the old view must not be served.
  ASSERT_TRUE(impliance
                  ->Infuse(MakeRecordDocument(
                      "lead", {{"name", Value::String("c")},
                               {"score", Value::Int(3)},
                               {"region", Value::String("emea")}}))
                  .ok());
  ASSERT_EQ(impliance->ViewFor("lead")->columns.size(), 3u);
  ExpectIdentity(*impliance, "lead");
  auto regions =
      RunSql(*impliance, "SELECT name FROM lead WHERE region = 'emea'");
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0][0].AsString(), "c");

  // Past 32 documents the view is fixed by its sample: a new path no longer
  // changes it, and the appended row simply lacks that column.
  std::string csv = "name,score\n";
  for (int i = 0; i < 40; ++i) csv += "n" + std::to_string(i) + ",5\n";
  ASSERT_TRUE(impliance->InfuseContent("lead", csv).ok());
  ExpectIdentity(*impliance, "lead");
  ASSERT_TRUE(impliance
                  ->Infuse(MakeRecordDocument("lead",
                                              {{"name", Value::String("z")},
                                               {"extra", Value::Int(9)}}))
                  .ok());
  EXPECT_EQ(impliance->ViewFor("lead")->columns.size(), 3u);
  ExpectIdentity(*impliance, "lead");
}

TEST(SqlProjectionTest, ReopenRebuildsFromTheStore) {
  TempDir dir("reopen");
  std::vector<exec::Row> before;
  {
    auto impliance = Open({.data_dir = dir.path()});
    LoadKinds(impliance.get());
    before = RunSql(*impliance, "SELECT * FROM order");
    ExpectIdentity(*impliance, "customer");
  }
  auto reopened = Open({.data_dir = dir.path()});
  for (const char* kind : {"order", "customer", "note"}) {
    ExpectIdentity(*reopened, kind);
  }
  EXPECT_EQ(RunSql(*reopened, "SELECT * FROM order"), before);
  ExpectFilteredIdentity(*reopened, 4000);
}

TEST(SqlProjectionTest, ScaleOutWithKilledBladeMatchesAvailableRows) {
  TempDir dir("scaleout");
  auto impliance = Open({.data_dir = dir.path(),
                         .scale_out_data_nodes = 4,
                         .scale_out_replication = 1});
  ASSERT_TRUE(impliance->InfuseContent("order", OrdersCsv(0, 7000)).ok());
  QueryHealth healthy;
  EXPECT_EQ(RunSql(*impliance, "SELECT * FROM order", "", &healthy),
            Oracle(*impliance, "order"));
  EXPECT_FALSE(healthy.degraded);

  // Replication 1: the killed blade's partitions have no other holder.
  cluster::SimulatedCluster* cluster = impliance->scale_out();
  cluster->FailNode(cluster->data_nodes()[1]->id());
  cluster::ShipStats ship;
  std::shared_ptr<const std::set<DocId>> available =
      cluster->AvailableDocs(&ship);
  ASSERT_TRUE(ship.degraded);

  const int order_no = Column(*impliance, "order", "order_no");
  const auto late = [order_no](const exec::Row& row) {
    return row[order_no].Compare(Value::Int(6000)) >= 0;
  };
  for (const char* planner : {"cost", "simple"}) {
    QueryHealth health;
    EXPECT_EQ(RunSql(*impliance, "SELECT * FROM order", planner, &health),
              Oracle(*impliance, "order", available.get()))
        << planner;
    EXPECT_EQ(health.degraded, ship.degraded);
    EXPECT_EQ(health.missing_partitions, ship.missing_partitions);

    QueryHealth filtered_health;
    EXPECT_EQ(RunSql(*impliance, "SELECT * FROM order WHERE order_no >= 6000",
                     planner, &filtered_health),
              Oracle(*impliance, "order", available.get(), late))
        << planner;
    EXPECT_EQ(filtered_health.degraded, ship.degraded);
    EXPECT_EQ(filtered_health.missing_partitions, ship.missing_partitions);
  }
}

// A trace of the first SQL on a kind shows the projection build; the next
// SQL on it reuses the projection and shows none.
TEST(SqlProjectionTest, FirstScanOfAKindIsTraced) {
  TempDir dir("trace");
  auto impliance = Open({.data_dir = dir.path()});
  ASSERT_TRUE(impliance->InfuseContent("order", OrdersCsv(0, 100)).ok());
  auto traced_spans = [&](const std::string& sql) {
    obs::TracePtr trace = obs::StartTrace("sql");
    {
      obs::ScopedTraceAttach attach(trace);
      EXPECT_TRUE(impliance->Sql(sql).ok());
    }
    obs::FinishTrace(trace);
    std::multiset<std::string> names;
    for (const obs::FinishedTrace& finished : obs::RecentTraces(16)) {
      if (finished.trace_id != trace->trace_id()) continue;
      for (const obs::Span& span : finished.spans) names.insert(span.name);
    }
    return names;
  };
  const std::string sql = "SELECT city, COUNT(*) FROM order GROUP BY city";
  EXPECT_EQ(traced_spans(sql).count("core.project"), 1u);
  EXPECT_EQ(traced_spans(sql).count("core.project"), 0u);
}

}  // namespace
}  // namespace impliance::core
