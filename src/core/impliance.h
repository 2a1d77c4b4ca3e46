#ifndef IMPLIANCE_CORE_IMPLIANCE_H_
#define IMPLIANCE_CORE_IMPLIANCE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.h"
#include "common/result.h"
#include "discovery/annotator.h"
#include "discovery/dictionary_annotator.h"
#include "discovery/schema_mapper.h"
#include "index/facet_index.h"
#include "index/fielded_index.h"
#include "index/inverted_index.h"
#include "index/join_index.h"
#include "index/path_index.h"
#include "index/value_index.h"
#include "model/document.h"
#include "model/view.h"
#include "obs/metrics.h"
#include "query/faceted.h"
#include "query/graph_query.h"
#include "core/security.h"
#include "query/columnar_table.h"
#include "query/opt/stats_cache.h"
#include "query/planner.h"
#include "storage/document_store.h"
#include "virt/execution_manager.h"

namespace impliance::core {

struct ImplianceOptions {
  std::string data_dir;            // durable storage location (required)
  size_t discovery_threads = 2;    // background analysis workers
  size_t memtable_max_docs = 4096;
  bool sync_wal = false;
  // Scale-out tier (Section 3.3): when > 0 the appliance mirrors documents
  // onto a simulated blade cluster; every query answers from the local
  // indexes without the documents the blades cannot serve, so node loss
  // surfaces as a degraded answer instead of a wrong one. 0 = single node.
  size_t scale_out_data_nodes = 0;
  size_t scale_out_replication = 1;
  // Autonomic partition management on the scale-out tier (Section 3.4):
  // when > 0, a background balancer splits hot tablets, merges cold ones,
  // and migrates partitions off hot nodes every this-many milliseconds.
  // Stopped by Quiesce(). 0 = static partitions (default).
  uint64_t scale_out_balancer_interval_ms = 0;
  // Split/merge thresholds forwarded to the cluster (0 = disabled).
  size_t scale_out_split_docs = 0;
  size_t scale_out_merge_docs = 0;
};

struct SearchHit {
  model::DocId doc = model::kInvalidDocId;
  double score = 0.0;
  std::string kind;
  std::string snippet;
};

// Completeness of one query's answer. degraded=true means some partitions
// could not be reached even after failover; missing_partitions says how
// many units of work were lost. Complete answers are {false, 0}.
struct QueryHealth {
  bool degraded = false;
  uint64_t missing_partitions = 0;
};

// The documents a query must not read under partial failure of the
// scale-out tier: those the blades cannot serve, plus those whose mirror
// no blade acknowledged. nullptr means none (single node, or nothing lost),
// and then no row is filtered at all.
using ExcludedSet = std::shared_ptr<const std::unordered_set<model::DocId>>;

struct DiscoveryReport {
  size_t documents_annotated = 0;
  size_t annotations_created = 0;
  size_t schema_classes = 0;
  size_t join_edges_added = 0;
  size_t entity_clusters_merged = 0;
  // Edges linking base documents that mention the same extracted entity
  // ("additional references forming an association between this document
  // and others already stored", Section 3.2).
  size_t entity_link_edges = 0;
};

struct ImplianceStats {
  storage::StoreStats store;
  // Interactive-path latency (queue wait + execution) recorded by the
  // execution manager; exposed so the serving layer's Stats op can report
  // core p50/p95/p99 alongside end-to-end numbers. A bounded-histogram
  // snapshot: the source lives on the hot path and must not grow per query.
  obs::HistogramSnapshot interactive_latency_ms;
  size_t indexed_documents = 0;
  size_t indexed_terms = 0;
  size_t indexed_paths = 0;
  size_t join_edges = 0;
  size_t kinds = 0;
  // The "zero knobs" claim, measurably: count of mandatory administrative
  // actions (schema/index/statistics DDL) a user had to perform. Always 0.
  size_t admin_steps = 0;
};

// The appliance facade: a single-system-image information store that
// ingests any format with no preparation, indexes every value and path
// automatically, runs discovery in the background, and answers through
// four interfaces — keyword, faceted, SQL-over-views, and graph
// (Sections 2.2, 3.2). Thread-safe.
class Impliance {
 public:
  static Result<std::unique_ptr<Impliance>> Open(ImplianceOptions options);
  ~Impliance();

  Impliance(const Impliance&) = delete;
  Impliance& operator=(const Impliance&) = delete;

  // -------------------------------------------------------------- Infuse

  // Throw anything in: sniffs the format (CSV/XML/JSON/e-mail/text),
  // maps to the uniform model, persists, and indexes. Returns the ids.
  Result<std::vector<model::DocId>> InfuseContent(std::string_view kind,
                                                  std::string_view raw);

  // Infuses an already-structured document.
  Result<model::DocId> Infuse(model::Document doc);

  // Logical update: appends an immutable new version and re-indexes
  // (old versions remain retrievable).
  Result<uint32_t> Update(model::DocId id, model::Document doc);

  Result<model::Document> Get(model::DocId id) const;
  Result<model::Document> GetVersion(model::DocId id, uint32_t version) const;

  // --------------------------------------------------------------- Query

  // Interface 1a: ranked keyword search, works out of the box. BM25 over
  // the local index on both tiers, so blade placement never changes a rank;
  // with a scale-out tier, hits the blades cannot serve are skipped and
  // `health` (optional) reports them. Complete answers are {false, 0}.
  std::vector<SearchHit> Search(const std::string& keywords, size_t k,
                                QueryHealth* health = nullptr) const;

  // Hierarchy-aware search (Section 3.3's native-hierarchy indexing):
  // restrict ranking to the text under one document path, e.g. search
  // only e-mail subjects with path "/doc/subject". Availability and
  // `health` as in Search.
  std::vector<SearchHit> SearchField(const std::string& path,
                                     const std::string& keywords, size_t k,
                                     QueryHealth* health = nullptr) const;

  // Interface 1b: faceted/guided search with drill-down and aggregates.
  // With a scale-out tier, counts and aggregates are restricted to
  // documents the blades can currently serve; `health` (optional) reports
  // the unreachable remainder instead of silently counting a locally-
  // indexed ghost of a lost partition.
  query::FacetedResult Faceted(const query::FacetedQuery& faceted_query,
                               QueryHealth* health = nullptr) const;

  // SQL over system-supplied views: one view per kind (inferred), plus one
  // consolidated view per discovered schema class (Figure 2). `health` as
  // in Faceted: complete-or-degraded, never silently partial. `planner`
  // picks the engine: "" / "cost" = the cost-aware optimizer over
  // auto-maintained statistics (default), "simple" = the paper-faithful
  // baseline.
  Result<std::vector<exec::Row>> Sql(const std::string& sql,
                                     QueryHealth* health = nullptr,
                                     const std::string& planner = "") const;

  // EXPLAIN: plans `sql` without executing it and returns the costed plan
  // tree — text rendering plus structured nodes (empty for "simple", which
  // reports text only).
  struct ExplainResult {
    std::string text;
    std::vector<query::ExplainNode> nodes;
  };
  Result<ExplainResult> ExplainSql(const std::string& sql,
                                   const std::string& planner = "") const;

  // Interface 2: graph queries over ingested refs + discovered joins.
  // "How are these two pieces of data connected?"
  query::GraphQuery Graph() const;

  // ------------------------------------------------ Security & auditing

  // Policy-driven access control (Section 4): principal-scoped variants of
  // the query interfaces. Results are filtered to kinds the principal may
  // read, and every call is recorded in the audit log. The unscoped
  // methods act as the implicit "admin" principal (also audited).
  Result<std::vector<SearchHit>> SearchAs(const std::string& principal,
                                          const std::string& keywords,
                                          size_t k,
                                          QueryHealth* health = nullptr) const;
  Result<std::vector<exec::Row>> SqlAs(const std::string& principal,
                                       const std::string& sql,
                                       QueryHealth* health = nullptr,
                                       const std::string& planner = "") const;
  Result<model::Document> GetAs(const std::string& principal,
                                model::DocId id) const;

  AccessController& access_control() { return access_; }
  const AuditLog& audit_log() const { return audit_; }

  // Lineage (Section 4): the derivation chain of `id` — for an annotation,
  // the base document it annotates, recursively. Each element is
  // (document id, relation that produced it). The document itself is
  // first with an empty relation.
  struct LineageStep {
    model::DocId doc = model::kInvalidDocId;
    std::string relation;
  };
  std::vector<LineageStep> Lineage(model::DocId id) const;

  // ----------------------------------------------------------- Discovery

  // Additional annotators beyond the built-in pattern/sentiment pair.
  void RegisterAnnotator(std::unique_ptr<discovery::Annotator> annotator);
  // Convenience: feeds the built-in dictionary annotator.
  void AddDictionaryEntries(const std::string& entity_type,
                            const std::vector<std::string>& entries);

  // One full synchronous discovery pass: annotate new documents,
  // consolidate schemas, resolve entities, discover & materialize joins.
  Result<DiscoveryReport> RunDiscovery();

  // Queues the same pass at background priority; interactive queries keep
  // jumping the queue (Section 3.4 execution management). No-op once
  // Quiesce() has been called.
  void StartBackgroundDiscovery();
  void WaitForDiscovery();

  // Permanently stops accepting new background discovery work and blocks
  // until in-flight background tasks finish. Called by the serving layer
  // during graceful drain (and by the destructor) so discovery workers are
  // quiesced *before* the indexes and store they touch are torn down.
  void Quiesce();

  // -------------------------------------------------------- Introspection

  std::vector<std::string> Kinds() const;
  Result<model::ViewDef> ViewFor(const std::string& kind) const;
  std::vector<discovery::SchemaClass> SchemaClasses() const;
  // Annotation documents referencing `id`.
  std::vector<model::Document> AnnotationsFor(model::DocId id) const;
  // All documents of a kind (latest versions).
  std::vector<model::DocId> DocsOfKind(const std::string& kind) const;

  ImplianceStats GetStats() const;

  // Storage maintenance: merges segment files (all versions preserved).
  // Safe to run at any time; the appliance schedules it itself — exposed
  // for tests and operators who want to force it.
  Status CompactStorage() { return store_->Compact(); }

  // The scale-out tier, when configured (nullptr otherwise). Exposed so
  // operators and tests can drive membership (fail/recover/re-replicate).
  cluster::SimulatedCluster* scale_out() { return scale_out_.get(); }

 private:
  class DocumentTable;
  class ClassTable;

  explicit Impliance(ImplianceOptions options);

  // One kind's SQL state. The view is inferred from the kind's first 32
  // documents by id, so only a write at or below `sample_last` (every id
  // when the kind had fewer) makes it stale. The projection is the view
  // column-wise plus a hidden doc-id column, one row per document in id
  // order; built on first scan, dropped when a re-inferred view differs.
  struct KindSql {
    model::ViewDef view;
    model::DocId sample_last = model::kInvalidDocId;
    bool stale = true;
    std::shared_ptr<query::ColumnarTable> projection;
  };

  Status IndexDocumentLocked(const model::Document& doc);
  Status DeindexDocumentLocked(const model::Document& doc);
  // Stores and indexes `docs` in order, then mirrors the stored ones to the
  // scale-out tier as one batch. Returns their ids, or the first store
  // error or the mirror's IOError. A document whose mirror no blade
  // acknowledged stays stored and indexed but joins unmirrored_.
  Result<std::vector<model::DocId>> InfuseLocked(
      std::vector<model::Document> docs);
  model::ViewDef ViewForLocked(const std::string& kind) const;
  // The projection of `kind` under its current view. Caller holds mutex_
  // (shared suffices) and has read the view under it.
  std::shared_ptr<const query::ColumnarTable> ProjectionFor(
      const std::string& kind) const;
  // The catalog of the tables `stmt` names, each the schema class of that
  // name if any, else the kind (neither: left out, so planning reports an
  // unknown table); Aborted unless `principal` may read every kind behind
  // them. Tables skip `excluded` (the scale-out availability check).
  Result<query::Catalog> CatalogForLocked(const query::SelectStatement& stmt,
                                          const std::string& principal,
                                          const ExcludedSet& excluded) const;
  // The one loop that turns ranked index hits into answers: skips
  // `excluded` documents, fetches each body, drops kinds `principal` may
  // not read, stops at `k` hits, and audits the query under `interface`
  // with exactly the returned ids.
  std::vector<SearchHit> HitsFor(
      const std::string& principal, const std::string& interface,
      const std::string& query,
      const std::vector<index::InvertedIndex::SearchResult>& results,
      const ExcludedSet& excluded, size_t k) const;
  // Degree of parallelism for one query's fan-out: the cluster scheduler's
  // rule over the shared executor's workers, with queued background
  // discovery as grid load, so a busy appliance degrades to serial.
  size_t ChooseDop() const;
  // A query's view of the local indexes: `lock` holds mutex_ shared until
  // the query has read, and `excluded` is what it must not read — what the
  // blades cannot serve plus the unmirrored documents (nullptr when none).
  struct AvailableRead {
    std::shared_lock<std::shared_mutex> lock;
    ExcludedSet excluded;
    size_t excluded_count() const { return excluded ? excluded->size() : 0; }
  };
  // The one way every query interface reads: asks the blades what they
  // cannot serve (without mutex_), reports it through `health` ({false, 0}
  // on a single node), then takes the shared lock.
  AvailableRead ReadAvailable(QueryHealth* health) const;
  std::string LabelFor(model::DocId id) const;

  ImplianceOptions options_;
  std::unique_ptr<storage::DocumentStore> store_;
  // Mirrors documents under their store-assigned ids. Queries only ask it
  // what it cannot serve (ReadAvailable); the local store and indexes stay
  // authoritative for bodies, rankings and access checks.
  std::unique_ptr<cluster::SimulatedCluster> scale_out_;
  std::unique_ptr<virt::ExecutionManager> execution_;
  std::atomic<bool> quiesced_{false};

  mutable std::shared_mutex mutex_;
  index::FieldedTextIndex text_index_;
  index::PathIndex paths_;
  index::ValueIndex values_;
  index::FacetIndex facets_;
  index::JoinIndex joins_;

  std::vector<std::unique_ptr<discovery::Annotator>> annotators_;
  discovery::DictionaryAnnotator* dictionary_ = nullptr;  // owned via list
  // (annotator name, doc) pairs already processed.
  std::set<std::pair<std::string, model::DocId>> annotated_;
  std::vector<discovery::SchemaClass> schema_classes_;
  // Entity-resolution merges already recorded (doc pairs).
  std::set<std::pair<model::DocId, model::DocId>> merged_entities_;
  // Documents stored and indexed here whose mirror no blade acknowledged:
  // the scale-out tier has no directory entry for them, so queries exclude
  // them. A later successful re-mirror (Update) removes the id. Guarded by
  // mutex_.
  std::unordered_set<model::DocId> unmirrored_;

  // Per-kind SQL state. Queries fill it lazily under the shared mutex_,
  // so it has a lock of its own; ingest marks views stale and appends to
  // projections (and Update drops them) under the exclusive mutex_, so a
  // statement never sees its view or projection change underneath it.
  // Lock order: mutex_, then this.
  mutable std::mutex views_mutex_;
  mutable std::map<std::string, KindSql> kind_sql_;

  mutable AccessController access_;
  mutable AuditLog audit_;

  // Auto-maintained optimizer statistics (the appliance never asks anyone
  // to run ANALYZE — Section 2.1's zero-knobs claim). Keyed by view name;
  // freshness tracked against the store's change epoch.
  mutable query::opt::TableStatsCache stats_cache_;
};

}  // namespace impliance::core

#endif  // IMPLIANCE_CORE_IMPLIANCE_H_
