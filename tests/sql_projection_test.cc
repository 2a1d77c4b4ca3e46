// Identity tests for the appliance's SQL scan path: every kind's columnar
// projection must yield exactly the rows, in the same order, that reading
// each document of the kind from the store and projecting it through the
// kind's view yields — across kinds, ingest after the projection exists,
// updates, view changes, reopen, and scale-out with a lost blade — and, on
// the scale-out tier, every query interface excludes exactly the documents
// the cluster's directory says the blades cannot serve.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/fault_injector.h"
#include "common/hash.h"
#include "core/impliance.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace impliance::cluster {

// Test-only access to a blade's bytes and to the halves of a migration.
class SimulatedClusterTestPeer {
 public:
  // The first node the directory lists for `id`.
  static NodeId FirstHolder(SimulatedCluster* cluster, model::DocId id) {
    std::lock_guard<std::mutex> lock(cluster->directory_mutex_);
    return cluster->directory_.at(id).holders.front().node;
  }

  // Erases `id`'s bytes from its first directory holder through the
  // partition's own erase helper, on that blade's mailbox, and leaves the
  // directory untouched: it still names a holder that no longer has the
  // document.
  static void EraseBytes(SimulatedCluster* cluster, model::DocId id) {
    const NodeId node = FirstHolder(cluster, id);
    std::shared_ptr<SimulatedCluster::Partition> partition =
        cluster->PartitionFor(node);
    ASSERT_EQ(cluster->data_nodes_[node]->Run(
                  [partition, id] { partition->Erase(id); }),
              TaskOutcome::kExecuted);
  }

  // The version of `id` stored on `node`, read on its mailbox; 0 if none.
  static uint64_t StoredVersion(SimulatedCluster* cluster, NodeId node,
                                model::DocId id) {
    std::shared_ptr<SimulatedCluster::Partition> partition =
        cluster->PartitionFor(node);
    uint64_t version = 0;
    cluster->data_nodes_[node]->Run([&partition, id, &version] {
      auto it = partition->docs.find(id);
      if (it != partition->docs.end()) version = it->second->version;
    });
    return version;
  }

  // MovePartitionReplica's copy-and-swap for one document, without the
  // delete: the committed swaps, for DeleteMovedCopies.
  static std::vector<SimulatedCluster::MovedCopy> CopyAndSwap(
      SimulatedCluster* cluster, model::DocId id, NodeId from, NodeId to) {
    uint64_t bytes = 0;
    return cluster->CopyAndSwap({id}, from, to, &bytes);
  }
  static void DeleteMovedCopies(
      SimulatedCluster* cluster, NodeId from, NodeId to,
      const std::vector<SimulatedCluster::MovedCopy>& moved) {
    cluster->DeleteMovedCopies(from, to, moved);
  }
};

}  // namespace impliance::cluster

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
  std::shared_ptr<const std::unordered_set<DocId>> missing =
      cluster->AvailableDocs(&ship);
  ASSERT_TRUE(ship.degraded);
  ASSERT_NE(missing, nullptr);
  EXPECT_EQ(missing->size(), ship.missing_partitions);
  std::set<DocId> available;
  for (DocId id : impliance->DocsOfKind("order")) {
    if (!missing->contains(id)) available.insert(id);
  }

  const int order_no = Column(*impliance, "order", "order_no");
  const auto late = [order_no](const exec::Row& row) {
    return row[order_no].Compare(Value::Int(6000)) >= 0;
  };
  for (const char* planner : {"cost", "simple"}) {
    QueryHealth health;
    EXPECT_EQ(RunSql(*impliance, "SELECT * FROM order", planner, &health),
              Oracle(*impliance, "order", &available))
        << planner;
    EXPECT_EQ(health.degraded, ship.degraded);
    EXPECT_EQ(health.missing_partitions, ship.missing_partitions);

    QueryHealth filtered_health;
    EXPECT_EQ(RunSql(*impliance, "SELECT * FROM order WHERE order_no >= 6000",
                     planner, &filtered_health),
              Oracle(*impliance, "order", &available, late))
        << planner;
    EXPECT_EQ(filtered_health.degraded, ship.degraded);
    EXPECT_EQ(filtered_health.missing_partitions, ship.missing_partitions);
  }
}

// ------------------------------------------- Scale-out availability suite
//
// With a scale-out tier, every query excludes the documents the blades
// cannot serve and reports them through QueryHealth. The oracle reads the
// cluster's directory: a document is servable when Get finds it on a valid
// holder, and the expected missing count is the directory's documents with
// no valid holder. Documents whose mirror no blade acknowledged have no
// directory entry; they are excluded without counting as missing.

struct DirectoryOracle {
  std::set<DocId> servable;  // the order documents the blades can serve
  QueryHealth health;
};

DirectoryOracle OracleFromDirectory(const Impliance& impliance,
                                    cluster::SimulatedCluster* cluster) {
  DirectoryOracle oracle;
  for (DocId id : impliance.DocsOfKind("order")) {
    if (cluster->Get(id).ok()) oracle.servable.insert(id);
  }
  const uint64_t missing =
      cluster->num_documents() - cluster->num_available_documents();
  oracle.health = QueryHealth{missing > 0, missing};
  return oracle;
}

void ExpectHealth(const QueryHealth& got, const QueryHealth& want,
                  const std::string& what) {
  EXPECT_EQ(got.degraded, want.degraded) << what;
  EXPECT_EQ(got.missing_partitions, want.missing_partitions) << what;
}

// City -> (row count, sum of totals) over `rows` of the order view.
std::map<std::string, std::pair<double, double>> CityTotals(
    const Impliance& impliance, const std::vector<exec::Row>& rows) {
  const int city = Column(impliance, "order", "city");
  const int total = Column(impliance, "order", "total");
  std::map<std::string, std::pair<double, double>> totals;
  for (const exec::Row& row : rows) {
    auto& [count, sum] = totals[row[city].AsString()];
    count += 1;
    sum += row[total].AsDouble();
  }
  return totals;
}

// (doc, score) of each hit, in rank order.
std::vector<std::pair<DocId, double>> Ranked(
    const std::vector<SearchHit>& hits) {
  std::vector<std::pair<DocId, double>> ranked;
  for (const SearchHit& hit : hits) ranked.emplace_back(hit.doc, hit.score);
  return ranked;
}

// `all` (a complete ranking) restricted to `servable` and cut at `k`.
std::vector<std::pair<DocId, double>> ServableTopK(
    const std::vector<SearchHit>& all, const std::set<DocId>& servable,
    size_t k) {
  std::vector<std::pair<DocId, double>> top;
  for (const SearchHit& hit : all) {
    if (top.size() == k) break;
    if (servable.contains(hit.doc)) top.emplace_back(hit.doc, hit.score);
  }
  return top;
}

// SQL (both planners at the scheduler's DOP: full scan, GROUP BY, and point
// lookups through the value index), facet counts and sums, keyword and
// field search, and the exclusion set itself all agree with `oracle`.
// `reference` is a single-node appliance holding the same documents under
// the same ids: search must return its ranking filtered to the servable
// documents. `unmirrored` lists the order documents whose mirror failed.
void ExpectMatchesDirectory(Impliance* impliance, const Impliance& reference,
                            const DirectoryOracle& oracle,
                            const std::set<DocId>& unmirrored = {}) {
  cluster::SimulatedCluster* cluster = impliance->scale_out();
  cluster::ShipStats ship;
  const auto missing = cluster->AvailableDocs(&ship);
  ExpectHealth(QueryHealth{ship.degraded, ship.missing_partitions},
               oracle.health, "AvailableDocs");
  EXPECT_EQ(missing == nullptr ? 0 : missing->size(), ship.missing_partitions);
  for (DocId id : impliance->DocsOfKind("order")) {
    const bool excluded = missing != nullptr && missing->contains(id);
    EXPECT_EQ(excluded, !oracle.servable.contains(id) && !unmirrored.contains(id))
        << "doc " << id;
  }

  const std::vector<exec::Row> rows =
      Oracle(*impliance, "order", &oracle.servable);
  const auto totals = CityTotals(*impliance, rows);
  const int order_no = Column(*impliance, "order", "order_no");
  // Point lookups: the first and last servable orders, and every order the
  // blades cannot serve up to a handful.
  const auto number_of = [impliance](DocId id) {
    Result<model::Document> doc = impliance->Get(id);
    EXPECT_TRUE(doc.ok());
    return static_cast<int64_t>(
        model::ResolvePath(doc->root, "/doc/order_no")->AsDouble());
  };
  std::vector<int64_t> points;
  for (DocId id : {*oracle.servable.begin(), *oracle.servable.rbegin()}) {
    points.push_back(number_of(id));
  }
  for (DocId id : impliance->DocsOfKind("order")) {
    if (oracle.servable.contains(id) || points.size() >= 6) continue;
    points.push_back(number_of(id));
  }

  for (const char* planner : {"cost", "simple"}) {
    // Point queries fetch through the value index, i.e. DocumentTable's
    // RowsFor, not through a scan.
    auto explain = impliance->ExplainSql(
        "SELECT * FROM order WHERE order_no = " + std::to_string(points[0]),
        planner);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    EXPECT_NE(explain->text.find("IndexLookup"), std::string::npos)
        << planner << ": " << explain->text;
    const std::string where = planner;
    QueryHealth health;
    auto scan = impliance->Sql("SELECT * FROM order", &health, planner);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_EQ(*scan, rows) << where;
    ExpectHealth(health, oracle.health, "scan " + where);

    auto grouped = impliance->Sql(
        "SELECT city, COUNT(*), SUM(total) FROM order GROUP BY city",
        &health, planner);
    ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
    std::map<std::string, std::pair<double, double>> got;
    for (const exec::Row& row : *grouped) {
      got[row[0].AsString()] = {row[1].AsDouble(), row[2].AsDouble()};
    }
    EXPECT_EQ(got, totals) << where;
    ExpectHealth(health, oracle.health, "group by " + where);

    for (int64_t number : points) {
      const auto same = [order_no, number](const exec::Row& row) {
        return row[order_no].Compare(Value::Int(number)) == 0;
      };
      auto point = impliance->Sql(
          "SELECT * FROM order WHERE order_no = " + std::to_string(number),
          &health, planner);
      ASSERT_TRUE(point.ok()) << point.status().ToString();
      EXPECT_EQ(*point, Oracle(*impliance, "order", &oracle.servable, same))
          << where << " order_no=" << number;
      ExpectHealth(health, oracle.health, "point " + where);
    }
  }

  query::FacetedQuery facet;
  facet.kind = "order";
  facet.facet_paths = {"/doc/city"};
  facet.aggregates = {{"/doc/total", "sum"}};
  QueryHealth health;
  const query::FacetedResult faceted = impliance->Faceted(facet, &health);
  ExpectHealth(health, oracle.health, "facet");
  EXPECT_EQ(faceted.total_matches, oracle.servable.size());
  std::map<std::string, double> counts;
  for (const auto& count : faceted.facets.at("/doc/city")) {
    counts[count.value.AsString()] = static_cast<double>(count.count);
  }
  std::map<std::string, double> want_counts;
  double want_sum = 0;
  for (const auto& [city, count_sum] : totals) {
    want_counts[city] = count_sum.first;
    want_sum += count_sum.second;
  }
  EXPECT_EQ(counts, want_counts);
  EXPECT_DOUBLE_EQ(faceted.aggregate_values.at("sum(/doc/total)"), want_sum);

  const std::vector<DocId> orders = reference.DocsOfKind("order");
  ASSERT_EQ(orders, impliance->DocsOfKind("order"));
  for (const char* keywords : {"london", "paris lima", "tokyo"}) {
    const std::vector<SearchHit> all = reference.Search(keywords, orders.size());
    const std::vector<SearchHit> all_city =
        reference.SearchField("/doc/city", keywords, orders.size());
    for (size_t k : {10, 200}) {
      const std::string what =
          std::string("'") + keywords + "' k=" + std::to_string(k);
      QueryHealth search_health;
      EXPECT_EQ(Ranked(impliance->Search(keywords, k, &search_health)),
                ServableTopK(all, oracle.servable, k))
          << what;
      ExpectHealth(search_health, oracle.health, "search " + what);
      QueryHealth field_health;
      EXPECT_EQ(Ranked(impliance->SearchField("/doc/city", keywords, k,
                                              &field_health)),
                ServableTopK(all_city, oracle.servable, k))
          << what;
      ExpectHealth(field_health, oracle.health, "field search " + what);
    }
  }
}

std::unique_ptr<Impliance> OpenBlades(const TempDir& dir, size_t replication) {
  auto impliance = Open({.data_dir = dir.path(),
                         .scale_out_data_nodes = 4,
                         .scale_out_replication = replication});
  EXPECT_TRUE(impliance->InfuseContent("order", OrdersCsv(0, 5000)).ok());
  return impliance;
}

// A single-node appliance loaded like OpenBlades, under the same ids.
std::unique_ptr<Impliance> OpenReference(const TempDir& dir) {
  auto reference = Open({.data_dir = dir.path()});
  EXPECT_TRUE(reference->InfuseContent("order", OrdersCsv(0, 5000)).ok());
  return reference;
}

TEST(ScaleOutAvailabilityTest, HealthyReplicationTwoExcludesNothing) {
  TempDir dir("avail_healthy");
  auto impliance = OpenBlades(dir, 2);
  TempDir reference_dir("avail_healthy_reference");
  auto reference = OpenReference(reference_dir);
  const DirectoryOracle oracle =
      OracleFromDirectory(*impliance, impliance->scale_out());
  ASSERT_EQ(oracle.servable.size(), 5000u);
  ASSERT_FALSE(oracle.health.degraded);
  EXPECT_EQ(impliance->scale_out()->AvailableDocs(), nullptr);
  ExpectMatchesDirectory(impliance.get(), *reference, oracle);
}

TEST(ScaleOutAvailabilityTest, KilledBladeAtReplicationOneExcludesItsDocs) {
  TempDir dir("avail_killed");
  auto impliance = OpenBlades(dir, 1);
  TempDir reference_dir("avail_killed_reference");
  auto reference = OpenReference(reference_dir);
  cluster::SimulatedCluster* cluster = impliance->scale_out();
  // Check once while healthy, so the cached ownership snapshot still names
  // the victim: the next check loses its task, fails over, and finds no
  // other holder for the victim's documents.
  ASSERT_EQ(cluster->AvailableDocs(), nullptr);
  cluster->FailNode(cluster->data_nodes()[1]->id());
  const DirectoryOracle oracle = OracleFromDirectory(*impliance, cluster);
  ASSERT_TRUE(oracle.health.degraded);
  ASSERT_LT(oracle.servable.size(), 5000u);
  ExpectMatchesDirectory(impliance.get(), *reference, oracle);
}

TEST(ScaleOutAvailabilityTest, EmptyRejoinLeavesOrphansExcluded) {
  TempDir dir("avail_rejoin");
  auto impliance = OpenBlades(dir, 1);
  TempDir reference_dir("avail_rejoin_reference");
  auto reference = OpenReference(reference_dir);
  cluster::SimulatedCluster* cluster = impliance->scale_out();
  // The blade rejoins empty in a new incarnation: its directory entries
  // name a holder that no longer has the bytes, so those documents are
  // orphans of the ownership snapshot.
  const cluster::NodeId victim = cluster->data_nodes()[2]->id();
  cluster->FailNode(victim);
  cluster->RecoverNode(victim);
  const DirectoryOracle oracle = OracleFromDirectory(*impliance, cluster);
  ASSERT_TRUE(oracle.health.degraded);
  ASSERT_LT(oracle.servable.size(), 5000u);
  ExpectMatchesDirectory(impliance.get(), *reference, oracle);
}

TEST(ScaleOutAvailabilityTest, InFlightMigrationExcludesNothing) {
  TempDir dir("avail_move");
  auto impliance = OpenBlades(dir, 1);
  TempDir reference_dir("avail_move_reference");
  auto reference = OpenReference(reference_dir);
  cluster::SimulatedCluster* cluster = impliance->scale_out();
  const DirectoryOracle oracle = OracleFromDirectory(*impliance, cluster);
  ASSERT_EQ(oracle.servable.size(), 5000u);
  const auto table = cluster->PartitionTable();
  const cluster::PartitionId pid = table[0].pid;
  // Shuttle one tablet between blades while every query runs: each check
  // either finds the bytes on the old home or re-routes the moved
  // documents to the new one, so nothing is ever excluded.
  std::atomic<bool> stop{false};
  std::thread mover([&] {
    cluster::NodeId from = table[0].replicas[0];
    while (!stop.load()) {
      const cluster::NodeId to = (from + 1) % 4;
      cluster->MovePartitionReplica(pid, from, to);
      from = to;
    }
  });
  ExpectMatchesDirectory(impliance.get(), *reference, oracle);
  stop.store(true);
  mover.join();
  EXPECT_GT(cluster->PartitionTable()[0].epoch, table[0].epoch);
  EXPECT_TRUE(cluster->CheckIntegrity().ok());
}

TEST(ScaleOutAvailabilityTest, DocumentWhoseMirrorFailedStaysExcluded) {
  TempDir dir("avail_mirror");
  auto impliance = OpenBlades(dir, 2);
  TempDir reference_dir("avail_mirror_reference");
  auto reference = OpenReference(reference_dir);
  {
    // Every replica store is dropped: the core keeps the document, but no
    // blade acknowledged it, so the write fails and the directory has no
    // entry for it. Its city holds two query words, so it tops the local
    // ranking of "paris lima" and search must skip it.
    const model::Document extra =
        MakeRecordDocument("order", {{"order_no", Value::Int(9999)},
                                     {"city", Value::String("paris lima")},
                                     {"total", Value::Int(500)}});
    EXPECT_TRUE(reference->Infuse(extra).ok());
    ScopedFaultInjection fi(7);
    fi->Arm("node.submit.drop", 1.0);
    EXPECT_FALSE(impliance->Infuse(extra).ok());
  }
  const std::vector<DocId> orders = impliance->DocsOfKind("order");
  ASSERT_EQ(orders.size(), 5001u);
  const DocId unmirrored = orders.back();
  const DirectoryOracle oracle =
      OracleFromDirectory(*impliance, impliance->scale_out());
  ASSERT_FALSE(oracle.servable.contains(unmirrored));
  ASSERT_FALSE(oracle.health.degraded);
  ExpectMatchesDirectory(impliance.get(), *reference, oracle, {unmirrored});
}

// A blade loses one document's bytes while the directory still names it
// as the only holder (replication 1). The availability check runs against
// an ownership snapshot cached before the loss, so only the blade's moved
// removal count tells it to probe: it finds the hole, and no query serves
// the document. Without the probe, or without the erase bumping the
// count, the stale snapshot would vouch for the document.
TEST(ScaleOutAvailabilityTest, ErasedBytesAreProbedAndExcluded) {
  TempDir dir("avail_erased");
  auto impliance = OpenBlades(dir, 1);
  TempDir reference_dir("avail_erased_reference");
  auto reference = OpenReference(reference_dir);
  cluster::SimulatedCluster* cluster = impliance->scale_out();
  const obs::Counter* probes =
      obs::Registry::Global().GetCounter("cluster.presence_probes");

  // Steady state: the snapshot is cached, and no check probes a document.
  ASSERT_EQ(cluster->AvailableDocs(), nullptr);
  const uint64_t steady = probes->Value();
  for (int i = 0; i < 3; ++i) ASSERT_EQ(cluster->AvailableDocs(), nullptr);
  EXPECT_EQ(probes->Value(), steady);
  EXPECT_EQ(cluster->CheckIntegrity().directory_phantoms, 0u);

  const DocId erased = impliance->DocsOfKind("order")[1234];
  cluster::SimulatedClusterTestPeer::EraseBytes(cluster, erased);
  EXPECT_EQ(cluster->CheckIntegrity().directory_phantoms, 1u);
  cluster::ShipStats ship;
  const auto missing = cluster->AvailableDocs(&ship);
  EXPECT_GT(probes->Value(), steady);
  ASSERT_NE(missing, nullptr);
  EXPECT_EQ(*missing, std::unordered_set<DocId>{erased});
  EXPECT_TRUE(ship.degraded);
  EXPECT_EQ(ship.missing_partitions, 1u);

  // Get finds no bytes, so the oracle does not count the document as
  // servable; the directory still lists its holder, so unlike an
  // unmirrored document it counts as missing.
  DirectoryOracle oracle = OracleFromDirectory(*impliance, cluster);
  ASSERT_FALSE(oracle.servable.contains(erased));
  ASSERT_EQ(oracle.servable.size(), 4999u);
  oracle.health = QueryHealth{true, 1};
  ExpectMatchesDirectory(impliance.get(), *reference, oracle);
}

// An update re-mirrors a document through IngestBatch, which commits the
// new holders to the directory only after every store task of the batch
// has answered. Here the batch's store of the updated document lands on
// its blade before a migration swaps that blade out of the directory, and
// a second document's store, on a held-back blade, keeps the commit
// pending until after (or, in the other order, before) the migration's
// delete of the source copy. Either way the commit lists the source blade
// again, so its copy must survive: the document stays servable, and no
// availability check or search vouches for a holder without the bytes.
void RaceUpdateCommitWithMigrationDelete(bool commit_before_delete) {
  using Peer = cluster::SimulatedClusterTestPeer;
  cluster::SimulatedCluster::Options options;
  options.num_data_nodes = 4;
  options.replication = 1;
  cluster::SimulatedCluster cluster(options);
  std::vector<DocId> ids;
  for (int i = 0; i < 32; ++i) {
    auto id = cluster.Ingest(
        MakeTextDocument("memo", "", "memo " + std::to_string(i)));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  const DocId updated = ids.front();
  const cluster::NodeId from = Peer::FirstHolder(&cluster, updated);
  DocId held = 0;
  cluster::NodeId stalled = from;
  for (DocId id : ids) {
    stalled = Peer::FirstHolder(&cluster, id);
    if (stalled != from) {
      held = id;
      break;
    }
  }
  ASSERT_NE(held, 0u);
  cluster::NodeId to = 0;
  while (to == from || to == stalled) ++to;

  // Hold back the second blade's mailbox so the batch cannot commit.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::future<cluster::TaskOutcome> gate_outcome;
  ASSERT_TRUE(
      cluster.data_nodes()[stalled]->Submit([gate] { gate.wait(); },
                                            &gate_outcome));
  std::vector<model::Document> batch;
  for (DocId id : {updated, held}) {
    model::Document doc = MakeTextDocument("memo", "", "memo updated");
    doc.id = id;
    doc.version = 2;
    batch.push_back(std::move(doc));
  }
  cluster::SimulatedCluster::BatchIngest written;
  std::thread writer(
      [&] { written = cluster.IngestBatch(std::move(batch)); });
  while (Peer::StoredVersion(&cluster, from, updated) != 2) {
    std::this_thread::yield();
  }
  const auto moved = Peer::CopyAndSwap(&cluster, updated, from, to);
  if (commit_before_delete) {
    release.set_value();
    writer.join();
    Peer::DeleteMovedCopies(&cluster, from, to, moved);
  } else {
    Peer::DeleteMovedCopies(&cluster, from, to, moved);
    release.set_value();
    writer.join();
  }
  EXPECT_EQ(moved.size(), 1u);
  EXPECT_TRUE(written.unplaced.empty());

  EXPECT_TRUE(cluster.CheckIntegrity().ok());
  EXPECT_EQ(cluster.CheckIntegrity().directory_phantoms, 0u);
  const auto doc = cluster.Get(updated);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->version, 2u);
  cluster::ShipStats ship;
  EXPECT_EQ(cluster.AvailableDocs(&ship), nullptr);
  EXPECT_FALSE(ship.degraded);
  cluster::ShipStats search_ship;
  const auto hits = cluster.KeywordSearch("memo", 100, &search_ship);
  EXPECT_FALSE(search_ship.degraded);
  std::set<DocId> found;
  for (const auto& hit : hits) found.insert(hit.doc);
  EXPECT_EQ(found, std::set<DocId>(ids.begin(), ids.end()));
}

TEST(ScaleOutAvailabilityTest, UpdateCommittedAfterMigrationDeleteKeepsItsCopy) {
  RaceUpdateCommitWithMigrationDelete(/*commit_before_delete=*/false);
}

TEST(ScaleOutAvailabilityTest, UpdateCommittedBeforeMigrationDeleteKeepsItsCopy) {
  RaceUpdateCommitWithMigrationDelete(/*commit_before_delete=*/true);
}

// One batch whose rows route to live and dead blades fails as a whole
// write, yet only the rows routed to the dead blade (replication 1, so
// their only target) are excluded; every other row of the batch was
// acknowledged and is servable.
TEST(ScaleOutAvailabilityTest, PartlyMirroredBatchExcludesOnlyDeadBladeRows) {
  TempDir dir("avail_batch");
  auto impliance = OpenBlades(dir, 1);
  TempDir reference_dir("avail_batch_reference");
  auto reference = OpenReference(reference_dir);
  cluster::SimulatedCluster* cluster = impliance->scale_out();
  const cluster::NodeId victim = cluster->data_nodes()[1]->id();
  cluster->FailNode(victim);
  const std::vector<DocId> before = impliance->DocsOfKind("order");
  EXPECT_FALSE(impliance->InfuseContent("order", OrdersCsv(5000, 5200)).ok());
  ASSERT_TRUE(reference->InfuseContent("order", OrdersCsv(5000, 5200)).ok());

  // The batch's rows, and the ones whose routing tablet's only replica is
  // the dead blade (documents route by Mix64 of their id).
  const std::vector<DocId> after = impliance->DocsOfKind("order");
  ASSERT_EQ(after.size(), 5200u);
  const std::set<DocId> old_ids(before.begin(), before.end());
  const auto table = cluster->PartitionTable();
  std::set<DocId> batch;
  std::set<DocId> routed_to_victim;
  for (DocId id : after) {
    if (old_ids.contains(id)) continue;
    batch.insert(id);
    const uint64_t key = Mix64(id);
    auto tablet =
        std::find_if(table.rbegin(), table.rend(),
                     [key](const auto& desc) { return desc.lo <= key; });
    ASSERT_NE(tablet, table.rend());
    if (tablet->replicas.front() == victim) routed_to_victim.insert(id);
  }
  ASSERT_EQ(batch.size(), 200u);
  ASSERT_GT(routed_to_victim.size(), 0u);
  ASSERT_LT(routed_to_victim.size(), batch.size());

  const DirectoryOracle oracle = OracleFromDirectory(*impliance, cluster);
  for (DocId id : batch) {
    EXPECT_EQ(oracle.servable.contains(id), !routed_to_victim.contains(id))
        << "doc " << id;
  }
  ExpectMatchesDirectory(impliance.get(), *reference, oracle, routed_to_victim);
  EXPECT_TRUE(cluster->CheckIntegrity().ok());
}

// Mirroring one InfuseContent batch costs one store task per owning blade,
// not one round trip per document and replica.
TEST(ScaleOutIngestTest, BatchRunsAtMostOneStoreTaskPerBlade) {
  TempDir dir("ingest_tasks");
  auto impliance = Open({.data_dir = dir.path(),
                         .scale_out_data_nodes = 4,
                         .scale_out_replication = 2});
  cluster::SimulatedCluster* cluster = impliance->scale_out();
  const auto executed = [cluster] {
    uint64_t tasks = 0;
    for (const auto& node : cluster->data_nodes()) {
      tasks += node->tasks_executed();
    }
    return tasks;
  };
  const uint64_t before = executed();
  auto ids = impliance->InfuseContent("order", OrdersCsv(0, 50));
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids->size(), 50u);
  const uint64_t store_tasks = executed() - before;
  EXPECT_GE(store_tasks, 1u);
  EXPECT_LE(store_tasks, 4u);
  EXPECT_EQ(cluster->num_fully_replicated_documents(), 50u);
}

// A traced ingest shows its batch's mirror as one cluster.ingest span.
TEST(ScaleOutIngestTest, TracedBatchShowsOneMirrorSpan) {
  TempDir dir("ingest_trace");
  auto impliance = Open({.data_dir = dir.path(), .scale_out_data_nodes = 4});
  obs::TracePtr trace = obs::StartTrace("ingest");
  {
    obs::ScopedTraceAttach attach(trace);
    ASSERT_TRUE(impliance->InfuseContent("order", OrdersCsv(0, 50)).ok());
  }
  obs::FinishTrace(trace);
  size_t mirror_spans = 0;
  for (const obs::FinishedTrace& finished : obs::RecentTraces(16)) {
    if (finished.trace_id != trace->trace_id()) continue;
    for (const obs::Span& span : finished.spans) {
      if (span.name == "cluster.ingest") ++mirror_spans;
    }
  }
  EXPECT_EQ(mirror_spans, 1u);
}

// Writes whose mirror fails race with queries: a query must never serve a
// document that no blade acknowledged, even one stored after the query's
// availability check. With replication 1 and a dead blade, ghost orders
// routed to its partitions fail to mirror; every ghost a query returns
// must be one whose write succeeded.
TEST(ScaleOutAvailabilityTest, ConcurrentFailedMirrorsAreNeverServed) {
  TempDir dir("avail_mirror_race");
  auto impliance = OpenBlades(dir, 1);
  cluster::SimulatedCluster* cluster = impliance->scale_out();
  cluster->FailNode(cluster->data_nodes()[1]->id());

  constexpr int kGhosts = 300;
  std::set<DocId> mirrored_ids;
  std::set<int64_t> mirrored_numbers;
  int failed = 0;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kGhosts; ++i) {
      const int64_t number = 100000 + i;
      Result<DocId> id = impliance->Infuse(
          MakeRecordDocument("order", {{"order_no", Value::Int(number)},
                                       {"city", Value::String("ghost")},
                                       {"total", Value::Int(1)}}));
      if (id.ok()) {
        mirrored_ids.insert(*id);
        mirrored_numbers.insert(number);
      } else {
        ++failed;
      }
    }
    done.store(true);
  });

  std::set<int64_t> served_numbers;
  std::set<DocId> served_ids;
  query::FacetedQuery facet;
  facet.kind = "order";
  facet.drilldowns = {{"/doc/city", Value::String("ghost")}};
  facet.top_k = kGhosts;
  do {
    for (const char* planner : {"cost", "simple"}) {
      auto rows = impliance->Sql(
          "SELECT order_no FROM order WHERE city = 'ghost'", nullptr, planner);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      for (const exec::Row& row : *rows) {
        served_numbers.insert(static_cast<int64_t>(row[0].AsDouble()));
      }
    }
    const query::FacetedResult faceted = impliance->Faceted(facet);
    served_ids.insert(faceted.docs.begin(), faceted.docs.end());
    for (const SearchHit& hit : impliance->Search("ghost", kGhosts)) {
      served_ids.insert(hit.doc);
    }
    for (const SearchHit& hit :
         impliance->SearchField("/doc/city", "ghost", kGhosts)) {
      served_ids.insert(hit.doc);
    }
  } while (!done.load());
  writer.join();

  ASSERT_GT(failed, 0);
  ASSERT_GT(mirrored_ids.size(), 0u);
  for (int64_t number : served_numbers) {
    EXPECT_TRUE(mirrored_numbers.contains(number)) << "order_no " << number;
  }
  for (DocId id : served_ids) {
    EXPECT_TRUE(mirrored_ids.contains(id)) << "doc " << id;
  }
}

// The names of the spans one traced SQL statement records.
std::multiset<std::string> TracedSpans(const Impliance& impliance,
                                       const std::string& sql) {
  obs::TracePtr trace = obs::StartTrace("sql");
  {
    obs::ScopedTraceAttach attach(trace);
    EXPECT_TRUE(impliance.Sql(sql).ok()) << sql;
  }
  obs::FinishTrace(trace);
  std::multiset<std::string> names;
  for (const obs::FinishedTrace& finished : obs::RecentTraces(16)) {
    if (finished.trace_id != trace->trace_id()) continue;
    for (const obs::Span& span : finished.spans) names.insert(span.name);
  }
  return names;
}

// A trace of the first SQL on a kind shows the projection build; the next
// SQL on it reuses the projection and shows none.
TEST(SqlProjectionTest, FirstScanOfAKindIsTraced) {
  TempDir dir("trace");
  auto impliance = Open({.data_dir = dir.path()});
  ASSERT_TRUE(impliance->InfuseContent("order", OrdersCsv(0, 100)).ok());
  const std::string sql = "SELECT city, COUNT(*) FROM order GROUP BY city";
  EXPECT_EQ(TracedSpans(*impliance, sql).count("core.project"), 1u);
  EXPECT_EQ(TracedSpans(*impliance, sql).count("core.project"), 0u);
}

// Ingest past a kind's 32-document sample leaves its view as it is: a
// point SQL after it resolves its table under core.catalog and infers
// nothing.
TEST(SqlProjectionTest, IngestPastTheSampleInfersNoView) {
  TempDir dir("trace_catalog");
  auto impliance = Open({.data_dir = dir.path()});
  ASSERT_TRUE(impliance->InfuseContent("order", OrdersCsv(0, 40)).ok());
  ASSERT_FALSE(RunSql(*impliance, "SELECT * FROM order").empty());
  ASSERT_TRUE(impliance->InfuseContent("order", OrdersCsv(40, 50)).ok());
  const std::multiset<std::string> spans =
      TracedSpans(*impliance, "SELECT total FROM order WHERE order_no = 45");
  EXPECT_EQ(spans.count("core.catalog"), 1u);
  EXPECT_EQ(spans.count("core.infer_view"), 0u);
}

// An Update inside the sample re-infers the view, once.
TEST(SqlProjectionTest, UpdateInsideTheSampleInfersTheViewOnce) {
  TempDir dir("trace_update");
  auto impliance = Open({.data_dir = dir.path()});
  ASSERT_TRUE(impliance->InfuseContent("order", OrdersCsv(0, 40)).ok());
  ASSERT_FALSE(RunSql(*impliance, "SELECT * FROM order").empty());
  const DocId third = impliance->DocsOfKind("order")[2];
  ASSERT_TRUE(impliance
                  ->Update(third, MakeRecordDocument(
                                      "order", {{"order_no", Value::Int(2)},
                                                {"city", Value::String("oslo")},
                                                {"total", Value::Int(7)}}))
                  .ok());
  EXPECT_EQ(TracedSpans(*impliance, "SELECT total FROM order WHERE city = "
                                    "'oslo'")
                .count("core.infer_view"),
            1u);
}

// A statement resolves only the tables it names: with 50 kinds freshly
// written, SQL on one of them infers at most that one view.
TEST(SqlProjectionTest, SqlInfersOnlyTheViewsItNames) {
  TempDir dir("trace_kinds");
  auto impliance = Open({.data_dir = dir.path()});
  for (int k = 0; k < 50; ++k) {
    ASSERT_TRUE(impliance
                    ->InfuseContent("kind" + std::to_string(k),
                                    OrdersCsv(k * 3, k * 3 + 3))
                    .ok());
  }
  const std::multiset<std::string> spans =
      TracedSpans(*impliance, "SELECT COUNT(*) FROM kind7");
  EXPECT_EQ(spans.count("core.catalog"), 1u);
  EXPECT_LE(spans.count("core.infer_view"), 1u);
}

// The view depends only on a kind's first 32 documents by id. Over a seeded
// mix of ingests and updates across three kinds — some documents carrying
// a new path inside the sample, some past it, one update moving a document
// to another kind — every kind's view stays exactly the view inferred from
// its first 32 documents, and SELECT * stays identical to the row path.
TEST(SqlProjectionTest, ViewIsInferredFromTheFirst32DocumentsAfterEveryWrite) {
  TempDir dir("view_identity");
  auto impliance = Open({.data_dir = dir.path()});
  const std::vector<std::string> kinds = {"alpha", "beta", "gamma"};
  std::mt19937 rng(2207);
  auto below = [&rng](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  // Ragged records; `new_path` adds a leaf no document had before.
  int serial = 0;
  auto record = [&](const std::string& kind, bool new_path) {
    const int n = serial++;
    std::vector<std::pair<std::string, Value>> fields = {{"n", Value::Int(n)}};
    if (n % 3 != 0) {
      fields.push_back({"tag", Value::String("t" + std::to_string(n % 5))});
    }
    if (new_path) fields.push_back({"p" + std::to_string(n), Value::Int(n)});
    return MakeRecordDocument(kind, std::move(fields));
  };
  auto check = [&](int step) {
    for (const std::string& kind : kinds) {
      const std::vector<DocId> ids = impliance->DocsOfKind(kind);
      if (ids.empty()) continue;
      std::vector<model::Document> sample_docs;
      for (size_t i = 0; i < ids.size() && i < 32; ++i) {
        Result<model::Document> doc = impliance->Get(ids[i]);
        ASSERT_TRUE(doc.ok());
        sample_docs.push_back(std::move(doc).value());
      }
      std::vector<const model::Document*> sample;
      for (const model::Document& doc : sample_docs) sample.push_back(&doc);
      EXPECT_EQ(*impliance->ViewFor(kind), model::InferView(kind, kind, sample))
          << kind << " after step " << step;
      ExpectIdentity(*impliance, kind);
    }
  };
  // What the sequence exercised, so a reseed cannot quietly drop a case.
  std::map<std::string, int> covered;
  for (int step = 0; step < 40; ++step) {
    const size_t k = below(kinds.size());
    const std::vector<DocId> ids = impliance->DocsOfKind(kinds[k]);
    if (ids.size() < 40 || below(3) != 0) {
      // Ingest 1-60 documents; now and then one carries a new path, at
      // whatever sample position the kind's size puts it.
      const size_t count = 1 + below(60);
      const size_t with_path = below(3) == 0 ? below(count) : count;
      if (with_path < count) {
        ++covered[ids.size() + with_path < 32 ? "new path in sample"
                                              : "new path past sample"];
      }
      for (size_t i = 0; i < count; ++i) {
        ASSERT_TRUE(impliance->Infuse(record(kinds[k], i == with_path)).ok());
      }
    } else {
      // Update an early (inside the sample) or a late document, with or
      // without a new path; once, move one to another kind.
      const bool early = below(2) == 0;
      const size_t position = early ? below(32) : 32 + below(ids.size() - 32);
      ++covered[early ? "update in sample" : "update past sample"];
      size_t target = k;
      if (covered.count("move") == 0 && step >= 20) {
        target = (k + 1 + below(kinds.size() - 1)) % kinds.size();
        ++covered["move"];
      }
      ASSERT_TRUE(impliance
                      ->Update(ids[position],
                               record(kinds[target], below(2) == 0))
                      .ok());
    }
    check(step);
  }
  for (const char* kase :
       {"new path in sample", "new path past sample", "update in sample",
        "update past sample", "move"}) {
    EXPECT_GT(covered[kase], 0) << kase;
  }
}

// Planning reads no rows: EXPLAIN of a GROUP BY over 20,000 orders and of
// a hash join of two kinds decodes nothing — scans open only when a plan
// runs — and renders the same plan text as when planning drained them.
TEST(SqlProjectionTest, ExplainDecodesNoRows) {
  TempDir dir("explain");
  auto impliance = Open({.data_dir = dir.path()});
  ASSERT_TRUE(impliance->InfuseContent("order", OrdersCsv(0, 20000)).ok());
  ASSERT_TRUE(impliance
                  ->InfuseContent("region",
                                  "place,zone\nlondon,emea\nparis,emea\n"
                                  "tokyo,apac\nlima,latam\n")
                  .ok());
  const std::string group_by =
      "SELECT city, COUNT(*), SUM(total) FROM order GROUP BY city";
  // Selective enough on `order` that the cost planner builds the hash
  // table on it rather than probing the value index per region.
  const std::string join =
      "SELECT zone, SUM(total) FROM order JOIN region ON city = place "
      "WHERE total < 10 GROUP BY zone";
  const std::map<std::pair<std::string, std::string>, std::string> golden = {
      {{group_by, "cost"},
       "Project(city, count, sum_total) [rows~4 cost~0]\n"
       "  HashAggregate(groups=1, aggs=2) [rows~4 cost~20000]\n"
       "    Scan(order) [rows~20000 cost~20000]"},
      {{group_by, "simple"}, "HashAggregate(groups=1, aggs=2)\nScan(order)"},
      {{join, "cost"},
       "Project(zone, sum_total) [rows~3 cost~0]\n"
       "  HashAggregate(groups=1, aggs=1) [rows~3 cost~200]\n"
       "    Reorder(textual column layout) [rows~200 cost~0]\n"
       "      HashJoin(build=order) [rows~200 cost~705]\n"
       "        Scan(region) [rows~4 cost~4]\n"
       "        Filter(total < 10) [rows~200 cost~20]\n"
       "          IndexRange(order.total) [rows~200 cost~400]"},
      {{join, "simple"},
       "HashAggregate(groups=1, aggs=1)\nAdaptiveFilter(1 predicates)\n"
       "HashJoin(build=region)\nIndexRange(order.total)"},
  };
  // Running each statement first builds the projections and the
  // optimizer's statistics, which are not part of planning.
  for (const auto& [key, text] : golden) {
    ASSERT_FALSE(RunSql(*impliance, key.first, key.second).empty());
  }
  obs::Counter* decoded =
      obs::Registry::Global().GetCounter("scan.rows_decoded");
  const uint64_t before = decoded->Value();
  for (const auto& [key, text] : golden) {
    auto explain = impliance->ExplainSql(key.first, key.second);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    EXPECT_EQ(explain->text, text) << key.second << ": " << key.first;
  }
  EXPECT_EQ(decoded->Value(), before);
  // Running the plan does decode.
  RunSql(*impliance, group_by);
  EXPECT_GE(decoded->Value(), before + 20000);
}

}  // namespace
}  // namespace impliance::core
