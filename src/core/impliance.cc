#include "core/impliance.h"

#include <algorithm>
#include <span>

#include "cluster/scheduler.h"
#include "discovery/entity_resolver.h"
#include "discovery/pattern_annotator.h"
#include "discovery/relationship_discovery.h"
#include "discovery/sentiment_annotator.h"
#include "common/string_util.h"
#include "ingest/ingest.h"
#include "obs/trace.h"
#include "query/planner_registry.h"
#include "query/sql_parser.h"
#include "model/item.h"

namespace impliance::core {

namespace {

std::string SnippetOf(const std::string& text) {
  constexpr size_t kSnippetChars = 100;
  if (text.size() <= kSnippetChars) return text;
  return text.substr(0, kSnippetChars) + "...";
}

// Rows per encoded segment of a kind projection. Rows past the last full
// segment stay staged unencoded (and unskippable), so this also bounds
// each projection's raw tail.
constexpr size_t kProjectionSegmentRows = 4096;

exec::Schema ProjectionSchema(const model::ViewDef& view) {
  exec::Schema schema;
  for (const model::ViewColumn& column : view.columns) {
    schema.AddColumn(column.name);
  }
  schema.AddColumn("$doc_id");  // hidden: the SQL view never exposes it
  return schema;
}

exec::Row ProjectionRow(const model::ViewDef& view,
                        const model::Document& doc) {
  exec::Row row = model::DocumentToRow(view, doc);
  row.push_back(model::Value::Int(static_cast<int64_t>(doc.id)));
  return row;
}

// Scan of a kind projection; keeps the projection alive while it streams.
// Under a scale-out exclusion set the inner stream also carries the hidden
// doc-id column, and rows whose document the blades cannot serve are
// dropped before that column is stripped again.
class ProjectionSource : public exec::BatchSource {
 public:
  ProjectionSource(std::shared_ptr<const query::ColumnarTable> projection,
                   exec::Schema schema, std::vector<int> columns,
                   std::vector<exec::Predicate> hints, ExcludedSet excluded)
      : projection_(std::move(projection)),
        schema_(std::move(schema)),
        excluded_(std::move(excluded)) {
    exec::Schema inner_schema = schema_;
    if (excluded_ != nullptr) {
      const exec::Schema& full = projection_->schema();
      columns.push_back(static_cast<int>(full.size()) - 1);
      inner_schema.AddColumn(full.columns.back());
    }
    inner_ = projection_->ScanBatchesImpl(
        std::move(inner_schema), std::move(columns), std::move(hints));
  }

  const exec::Schema& schema() const override { return schema_; }
  bool NextBatch(exec::RowBatch* batch) override {
    while (inner_->NextBatch(batch)) {
      if (excluded_ == nullptr) return true;
      auto unavailable = [this](const exec::Row& row) {
        const auto id = static_cast<model::DocId>(row.back().int_value());
        return excluded_->contains(id);
      };
      std::vector<exec::Row>& rows = batch->rows;
      rows.erase(std::remove_if(rows.begin(), rows.end(), unavailable),
                 rows.end());
      for (exec::Row& row : rows) row.pop_back();
      if (!rows.empty()) return true;
    }
    return false;
  }
  uint64_t EstimatedRows() const override { return inner_->EstimatedRows(); }
  exec::ScanStats stats() const override { return inner_->stats(); }

 private:
  std::shared_ptr<const query::ColumnarTable> projection_;
  exec::Schema schema_;
  ExcludedSet excluded_;
  exec::BatchSourcePtr inner_;
};

// Scan of a schema class: member kinds in order, each kind's documents in
// ascending id order, fetching every document from the store and
// resolving only the requested attributes.
class ClassBatchSource : public exec::BatchSource {
 public:
  // One member kind and, per requested column, the kind's path for that
  // attribute ("" when the kind has none, which reads as Null).
  struct Member {
    std::string kind;
    std::vector<std::string> paths;
  };

  ClassBatchSource(exec::Schema schema, std::vector<Member> members,
                   const index::PathIndex* paths,
                   const storage::DocumentStore* store, ExcludedSet excluded)
      : schema_(std::move(schema)),
        members_(std::move(members)),
        paths_(paths),
        store_(store),
        excluded_(std::move(excluded)) {
    if (!members_.empty()) docs_ = paths_->KindDocs(members_[0].kind);
  }

  const exec::Schema& schema() const override { return schema_; }
  bool NextBatch(exec::RowBatch* batch) override {
    batch->clear();
    while (member_ < members_.size() &&
           batch->size() < exec::kDefaultBatchRows) {
      if (cursor_ >= docs_.size()) {
        if (++member_ < members_.size()) {
          docs_ = paths_->KindDocs(members_[member_].kind);
        }
        cursor_ = 0;
        continue;
      }
      const model::DocId id = docs_[cursor_++];
      if (excluded_ != nullptr && excluded_->contains(id)) continue;
      Result<model::Document> doc = store_->Get(id);
      if (!doc.ok()) continue;
      exec::Row& row = batch->AppendRow();
      for (const std::string& path : members_[member_].paths) {
        const model::Value* value =
            path.empty() ? nullptr : model::ResolvePath(doc->root, path);
        row.push_back(value == nullptr ? model::Value::Null() : *value);
      }
    }
    stats_.rows_decoded += batch->size();
    return !batch->empty();
  }
  exec::ScanStats stats() const override { return stats_; }

 private:
  exec::Schema schema_;
  std::vector<Member> members_;
  const index::PathIndex* paths_;
  const storage::DocumentStore* store_;
  ExcludedSet excluded_;
  size_t member_ = 0;
  std::span<const model::DocId> docs_;
  size_t cursor_ = 0;
  exec::ScanStats stats_;
};

}  // namespace

// ----------------------------------------------------------------- Tables

// SQL view over the documents of one kind. Scans stream the kind's
// columnar projection; point and range predicates go to the value index,
// which covers every leaf path, so HasIndexOn is unconditionally true —
// "Impliance automatically indexes each document by its values as well as
// its structures" (Section 3.2).
class Impliance::DocumentTable : public query::Table {
 public:
  DocumentTable(const Impliance* owner, model::ViewDef view,
                ExcludedSet excluded)
      : owner_(owner), view_(std::move(view)), excluded_(std::move(excluded)) {
    for (const model::ViewColumn& column : view_.columns) {
      schema_.AddColumn(column.name);
    }
  }

  const std::string& table_name() const override { return view_.kind; }
  const exec::Schema& schema() const override { return schema_; }

  bool SupportsZoneMapSkipping() const override { return true; }

  // Answered from the whole projection: under an exclusion set that is a
  // superset of the servable rows, which statistics can live with.
  std::optional<query::ColumnSummary> SummarizeColumn(
      int column) const override {
    return owner_->ProjectionFor(view_.kind)->SummarizeColumn(column);
  }

  bool HasIndexOn(int column) const override { return true; }

  std::vector<exec::Row> IndexLookup(int column,
                                     const model::Value& value) const override {
    return RowsFor(owner_->values_.Lookup(view_.columns[column].path, value));
  }

  std::vector<exec::Row> IndexRange(int column, const model::Value* lo,
                                    const model::Value* hi) const override {
    return RowsFor(
        owner_->values_.Range(view_.columns[column].path, lo, true, hi, true));
  }

  size_t RowCount() const override {
    return owner_->paths_.KindSize(view_.kind);
  }

  // The store epoch is appliance-wide, so any ingest "moves" every view;
  // the stats cache's row-drift check keeps that from forcing recollection
  // on untouched kinds. +1 keeps a fresh store out of the 0 = "untracked"
  // convention.
  uint64_t DataVersion() const override {
    return owner_->store_->change_epoch() + 1;
  }

 protected:
  // The projection's columns share the view's indices, so `columns` and
  // `hints` pass through unchanged.
  exec::BatchSourcePtr ScanBatchesImpl(
      exec::Schema schema, std::vector<int> columns,
      std::vector<exec::Predicate> hints) const override {
    return std::make_unique<ProjectionSource>(
        owner_->ProjectionFor(view_.kind), std::move(schema),
        std::move(columns), std::move(hints), excluded_);
  }

 private:
  std::vector<exec::Row> RowsFor(const std::vector<model::DocId>& ids) const {
    std::vector<exec::Row> rows;
    for (model::DocId id : ids) {
      // Value-index hits may include other kinds sharing the path.
      if (!owner_->paths_.KindContains(view_.kind, id)) continue;
      // Excluded documents are on unreachable partitions (or were never
      // mirrored); the caller reports the unreachable ones as missing
      // rather than serving them from the local store as if the cluster
      // were healthy.
      if (excluded_ != nullptr && excluded_->contains(id)) continue;
      Result<model::Document> doc = owner_->store_->Get(id);
      if (doc.ok()) rows.push_back(model::DocumentToRow(view_, *doc));
    }
    return rows;
  }

  const Impliance* owner_;
  model::ViewDef view_;
  ExcludedSet excluded_;
  exec::Schema schema_;
};

// Consolidated view over a discovered schema class: purchase orders from
// CSV, XML, and e-mail queryable as ONE relation (Section 3.2).
class Impliance::ClassTable : public query::Table {
 public:
  ClassTable(const Impliance* owner, discovery::SchemaClass schema_class,
             ExcludedSet excluded)
      : owner_(owner),
        class_(std::move(schema_class)),
        excluded_(std::move(excluded)) {
    schema_ = exec::Schema(class_.attributes);
  }

  const std::string& table_name() const override { return class_.name; }
  const exec::Schema& schema() const override { return schema_; }

  size_t RowCount() const override {
    size_t count = 0;
    for (const std::string& kind : class_.kinds) {
      count += owner_->paths_.KindSize(kind);
    }
    return count;
  }
  uint64_t DataVersion() const override {
    return owner_->store_->change_epoch() + 1;
  }

 protected:
  exec::BatchSourcePtr ScanBatchesImpl(
      exec::Schema schema, std::vector<int> columns,
      std::vector<exec::Predicate> hints) const override {
    std::vector<ClassBatchSource::Member> members;
    for (const std::string& kind : class_.kinds) {
      // attribute -> path for this kind.
      std::map<std::string, std::string> attr_to_path;
      for (const auto& [path, attr] : class_.path_mapping.at(kind)) {
        attr_to_path[attr] = path;
      }
      ClassBatchSource::Member member{kind, {}};
      for (int column : columns) {
        auto it = attr_to_path.find(class_.attributes[column]);
        member.paths.push_back(it == attr_to_path.end() ? "" : it->second);
      }
      members.push_back(std::move(member));
    }
    return std::make_unique<ClassBatchSource>(
        std::move(schema), std::move(members), &owner_->paths_,
        owner_->store_.get(), excluded_);
  }

 private:
  const Impliance* owner_;
  discovery::SchemaClass class_;
  ExcludedSet excluded_;
  exec::Schema schema_;
};

// ------------------------------------------------------------------ Open

Impliance::Impliance(ImplianceOptions options) : options_(std::move(options)) {}

Impliance::~Impliance() {
  Quiesce();
  // Join the pool threads *now*: the index members are declared after
  // execution_ and would otherwise be destroyed while a late background
  // task could still be touching them.
  execution_.reset();
}

void Impliance::Quiesce() {
  quiesced_.store(true, std::memory_order_release);
  if (execution_ != nullptr) execution_->WaitIdle();
  // Stop the autonomic balancer before teardown: its passes run blocking
  // tasks on blade mailboxes that are about to be destroyed.
  if (scale_out_ != nullptr) scale_out_->StopBalancer();
}

Result<std::unique_ptr<Impliance>> Impliance::Open(ImplianceOptions options) {
  auto impliance = std::unique_ptr<Impliance>(new Impliance(options));

  storage::StoreOptions store_options;
  store_options.dir = options.data_dir;
  store_options.memtable_max_docs = options.memtable_max_docs;
  store_options.sync_wal = options.sync_wal;
  IMPLIANCE_ASSIGN_OR_RETURN(impliance->store_,
                             storage::DocumentStore::Open(store_options));
  if (options.scale_out_data_nodes > 0) {
    cluster::SimulatedCluster::Options cluster_options;
    cluster_options.num_data_nodes = options.scale_out_data_nodes;
    cluster_options.num_grid_nodes =
        std::max<size_t>(1, options.scale_out_data_nodes / 2);
    cluster_options.num_cluster_nodes = 1;
    cluster_options.replication =
        std::min(std::max<size_t>(1, options.scale_out_replication),
                 options.scale_out_data_nodes);
    cluster_options.split_doc_threshold = options.scale_out_split_docs;
    cluster_options.merge_doc_threshold = options.scale_out_merge_docs;
    impliance->scale_out_ =
        std::make_unique<cluster::SimulatedCluster>(cluster_options);
    if (options.scale_out_balancer_interval_ms > 0) {
      impliance->scale_out_->StartBalancer(
          options.scale_out_balancer_interval_ms);
    }
  }
  impliance->execution_ = std::make_unique<virt::ExecutionManager>(
      std::max<size_t>(1, options.discovery_threads),
      /*priority_scheduling=*/true);

  // Built-in annotators: pattern (emails, phones, money, dates, ids),
  // sentiment, and an initially-empty dictionary the user can extend.
  auto pattern = std::make_unique<discovery::PatternAnnotator>();
  pattern->AddIdPattern("PO-", "purchase_order_id");
  pattern->AddIdPattern("CLM-", "claim_id");
  impliance->annotators_.push_back(std::move(pattern));
  impliance->annotators_.push_back(
      std::make_unique<discovery::SentimentAnnotator>());
  auto dictionary = std::make_unique<discovery::DictionaryAnnotator>();
  impliance->dictionary_ = dictionary.get();
  impliance->annotators_.push_back(std::move(dictionary));

  // Recovery: the store is durable, the indexes are memory-resident —
  // rebuild them from the latest versions.
  std::unique_lock<std::shared_mutex> lock(impliance->mutex_);
  Impliance* raw = impliance.get();
  // Rebuild the mirror from the durable store (blade contents are
  // memory-resident and were lost with the process), one batch per chunk
  // of the scan. A failed mirror here would leave documents with no
  // directory entry, so every distributed query would silently omit them
  // while reporting degraded=false — fail Open instead, like InfuseLocked
  // and Update fail the write.
  constexpr size_t kRecoveryMirrorBatch = 256;
  std::vector<model::Document> chunk;
  Status mirror_status = Status::OK();
  const auto mirror_chunk = [raw, &chunk, &mirror_status] {
    if (chunk.empty()) return;
    const cluster::SimulatedCluster::BatchIngest mirrored =
        raw->scale_out_->IngestBatch(std::move(chunk));
    chunk.clear();
    if (!mirrored.unplaced.empty()) {
      mirror_status = Status::IOError(
          "recovery mirror failed for " +
          std::to_string(mirrored.unplaced.size()) + " documents, first " +
          std::to_string(mirrored.unplaced.front()));
    }
  };
  IMPLIANCE_RETURN_IF_ERROR(raw->store_->Scan(
      [raw, &chunk, &mirror_status, &mirror_chunk](const model::Document& doc) {
        IMPLIANCE_CHECK_OK(raw->IndexDocumentLocked(doc));
        if (raw->scale_out_ != nullptr) {
          chunk.push_back(doc);
          if (chunk.size() == kRecoveryMirrorBatch) mirror_chunk();
          if (!mirror_status.ok()) return false;
        }
        if (doc.kind == "annotation") {
          const model::Value* annotator =
              model::ResolvePath(doc.root, "/doc/annotator");
          const model::Value* base =
              model::ResolvePath(doc.root, "/doc/base_doc");
          if (annotator != nullptr && base != nullptr) {
            raw->annotated_.insert(
                {annotator->AsString(),
                 static_cast<model::DocId>(base->AsDouble())});
          }
        }
        return true;
      }));
  if (raw->scale_out_ != nullptr) mirror_chunk();
  // Scan stops early (returning OK) on a mirror failure; surface it.
  IMPLIANCE_RETURN_IF_ERROR(mirror_status);
  lock.unlock();
  return impliance;
}

// ---------------------------------------------------------------- Indexing

Status Impliance::IndexDocumentLocked(const model::Document& doc) {
  text_index_.AddDocument(doc);
  paths_.AddDocument(doc);
  values_.AddDocument(doc);
  facets_.AddDocument(doc);
  for (const model::DocRef& ref : doc.refs) {
    joins_.AddEdge(doc.id, ref.target, ref.relation);
  }
  std::lock_guard<std::mutex> views_lock(views_mutex_);
  KindSql& sql = kind_sql_[doc.kind];
  if (doc.id <= sql.sample_last) sql.stale = true;
  // Ingest extends a built projection in place: the store hands out ids in
  // ascending order, so the kind's newest row lands where a rebuild would
  // put it. Any other id (a re-kinded Update) drops it for a rebuild.
  if (sql.projection != nullptr && paths_.KindDocs(doc.kind).back() == doc.id) {
    sql.projection->AddRow(ProjectionRow(sql.view, doc));
  } else {
    sql.projection = nullptr;
  }
  return Status::OK();
}

Status Impliance::DeindexDocumentLocked(const model::Document& doc) {
  text_index_.RemoveDocument(doc);
  paths_.RemoveDocument(doc);
  values_.RemoveDocument(doc);
  facets_.RemoveDocument(doc);
  std::lock_guard<std::mutex> views_lock(views_mutex_);
  KindSql& sql = kind_sql_[doc.kind];
  if (doc.id <= sql.sample_last) sql.stale = true;
  // A removed row would need a tombstone; rebuilding on the next scan is
  // simpler and Updates are rare next to scans.
  sql.projection = nullptr;
  return Status::OK();
}

Result<std::vector<model::DocId>> Impliance::InfuseLocked(
    std::vector<model::Document> docs) {
  std::vector<model::DocId> ids;
  ids.reserve(docs.size());
  Status status = Status::OK();
  for (model::Document& doc : docs) {
    Result<model::DocId> id = store_->Insert(doc);
    if (!id.ok()) {
      status = id.status();
      break;
    }
    doc.id = *id;
    doc.version = 1;
    IMPLIANCE_CHECK_OK(IndexDocumentLocked(doc));
    ids.push_back(*id);
  }
  if (scale_out_ != nullptr && !ids.empty()) {
    // Mirror what was stored, under the store-assigned ids, even when a
    // later store failed. A failed mirror (no replica acked) is surfaced:
    // the cluster would otherwise silently omit the document from every
    // scatter-gather answer. The document stays in the store and indexes,
    // so queries exclude it by id.
    docs.resize(ids.size());
    const cluster::SimulatedCluster::BatchIngest mirrored =
        scale_out_->IngestBatch(std::move(docs));
    unmirrored_.insert(mirrored.unplaced.begin(), mirrored.unplaced.end());
    if (!mirrored.unplaced.empty() && status.ok()) {
      status = Status::IOError(
          "no replica target acknowledged " +
          std::to_string(mirrored.unplaced.size()) + " of " +
          std::to_string(ids.size()) + " documents");
    }
  }
  IMPLIANCE_RETURN_IF_ERROR(status);
  return ids;
}

// ------------------------------------------------------------------ Infuse

Result<std::vector<model::DocId>> Impliance::InfuseContent(
    std::string_view kind, std::string_view raw) {
  IMPLIANCE_ASSIGN_OR_RETURN(std::vector<model::Document> docs,
                             ingest::IngestAny(kind, raw));
  std::unique_lock<std::shared_mutex> lock(mutex_);
  return InfuseLocked(std::move(docs));
}

Result<model::DocId> Impliance::Infuse(model::Document doc) {
  std::vector<model::Document> batch;
  batch.push_back(std::move(doc));
  std::unique_lock<std::shared_mutex> lock(mutex_);
  IMPLIANCE_ASSIGN_OR_RETURN(std::vector<model::DocId> ids,
                             InfuseLocked(std::move(batch)));
  return ids.front();
}

Result<uint32_t> Impliance::Update(model::DocId id, model::Document doc) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  IMPLIANCE_ASSIGN_OR_RETURN(model::Document old_doc, store_->Get(id));
  IMPLIANCE_ASSIGN_OR_RETURN(uint32_t version,
                             store_->AddVersion(id, doc));
  IMPLIANCE_RETURN_IF_ERROR(DeindexDocumentLocked(old_doc));
  doc.id = id;
  doc.version = version;
  IMPLIANCE_RETURN_IF_ERROR(IndexDocumentLocked(doc));
  if (scale_out_ != nullptr) {
    // Re-mirror so the blades serve the latest version.
    Result<model::DocId> mirrored = scale_out_->Ingest(doc);
    if (!mirrored.ok()) return mirrored.status();
    unmirrored_.erase(id);
  }
  return version;
}

Result<model::Document> Impliance::Get(model::DocId id) const {
  return store_->Get(id);
}

Result<model::Document> Impliance::GetVersion(model::DocId id,
                                              uint32_t version) const {
  return store_->GetVersion(id, version);
}

// ------------------------------------------------------------------- Query

std::vector<SearchHit> Impliance::Search(const std::string& keywords, size_t k,
                                         QueryHealth* health) const {
  Result<std::vector<SearchHit>> hits =
      SearchAs(AccessController::kAdmin, keywords, k, health);
  IMPLIANCE_CHECK(hits.ok());  // admin is never denied
  return std::move(hits).value();
}

Result<std::vector<SearchHit>> Impliance::SearchAs(
    const std::string& principal, const std::string& keywords, size_t k,
    QueryHealth* health) const {
  if (!access_.HasPrincipal(principal)) {
    return Status::InvalidArgument("unknown principal: " + principal);
  }
  const AvailableRead read = ReadAvailable(health);
  // Over-fetch so the permission filter and the exclusion set can still
  // leave k results.
  const auto results =
      text_index_.Search(keywords, k * 4 + 16 + read.excluded_count());
  return HitsFor(principal, "keyword", keywords, results, read.excluded, k);
}

Result<model::Document> Impliance::GetAs(const std::string& principal,
                                         model::DocId id) const {
  if (!access_.HasPrincipal(principal)) {
    return Status::InvalidArgument("unknown principal: " + principal);
  }
  IMPLIANCE_ASSIGN_OR_RETURN(model::Document doc, store_->Get(id));
  if (!access_.CanRead(principal, doc.kind)) {
    return Status::Aborted("principal " + principal +
                           " may not read kind " + doc.kind);
  }
  audit_.Record(principal, "get", std::to_string(id), {id});
  return doc;
}

query::FacetedResult Impliance::Faceted(const query::FacetedQuery& faceted_query,
                                        QueryHealth* health) const {
  // The local indexes cover every document ever mirrored — including
  // documents whose partitions are down right now. Restrict counts and
  // aggregates to what the blades can actually serve and report the
  // unreachable remainder, instead of answering from ghosts.
  const AvailableRead read = ReadAvailable(health);
  query::FacetedQuery restricted = faceted_query;
  restricted.exclude = read.excluded;
  query::FacetedSearch search(&text_index_.global(), &paths_, &facets_,
                              &values_);
  // Facet counts / range buckets / aggregates fan out like a SQL segment.
  search.set_parallelism(ChooseDop());
  return search.Run(restricted);
}

std::vector<SearchHit> Impliance::SearchField(const std::string& path,
                                              const std::string& keywords,
                                              size_t k,
                                              QueryHealth* health) const {
  const AvailableRead read = ReadAvailable(health);
  const auto results =
      text_index_.SearchField(path, keywords, k + read.excluded_count());
  return HitsFor(AccessController::kAdmin, "keyword-field",
                 path + " : " + keywords, results, read.excluded, k);
}

std::vector<SearchHit> Impliance::HitsFor(
    const std::string& principal, const std::string& interface,
    const std::string& query,
    const std::vector<index::InvertedIndex::SearchResult>& results,
    const ExcludedSet& excluded, size_t k) const {
  std::vector<SearchHit> hits;
  std::vector<model::DocId> accessed;
  for (const auto& result : results) {
    if (hits.size() >= k) break;
    if (excluded != nullptr && excluded->contains(result.doc)) continue;
    Result<model::Document> doc = store_->Get(result.doc);
    if (!doc.ok()) continue;
    if (!access_.CanRead(principal, doc->kind)) continue;
    hits.push_back(SearchHit{result.doc, result.score, doc->kind,
                             SnippetOf(doc->Text())});
    accessed.push_back(result.doc);
  }
  audit_.Record(principal, interface, query, std::move(accessed));
  return hits;
}

size_t Impliance::ChooseDop() const {
  cluster::Scheduler::LoadSnapshot load;
  load.grid_queue_depth = static_cast<double>(execution_->pending_tasks());
  return cluster::Scheduler().ChooseDop(
      exec::ParallelExecutor::Shared().num_threads(), load);
}

Impliance::AvailableRead Impliance::ReadAvailable(QueryHealth* health) const {
  cluster::ShipStats ship;  // stays empty, i.e. complete, on a single node
  ExcludedSet missing;
  if (scale_out_ != nullptr) {
    obs::ScopedSpan availability_span("core.availability");
    missing = scale_out_->AvailableDocs(&ship);
  }
  if (health != nullptr) {
    *health = QueryHealth{ship.degraded, ship.missing_partitions};
  }
  AvailableRead read{std::shared_lock<std::shared_mutex>(mutex_), missing};
  if (!unmirrored_.empty()) {
    auto merged = std::make_shared<std::unordered_set<model::DocId>>(
        unmirrored_.begin(), unmirrored_.end());
    if (missing != nullptr) merged->insert(missing->begin(), missing->end());
    read.excluded = std::move(merged);
  }
  return read;
}

model::ViewDef Impliance::ViewForLocked(const std::string& kind) const {
  std::lock_guard<std::mutex> views_lock(views_mutex_);
  KindSql& sql = kind_sql_[kind];
  if (!sql.stale) return sql.view;
  obs::ScopedSpan infer_span("core.infer_view");
  std::vector<model::Document> sample_docs;
  std::vector<const model::Document*> sample;
  for (model::DocId id : paths_.KindDocs(kind)) {
    Result<model::Document> doc = store_->Get(id);
    if (doc.ok()) sample_docs.push_back(std::move(doc).value());
    if (sample_docs.size() >= 32) break;
  }
  for (const model::Document& doc : sample_docs) sample.push_back(&doc);
  model::ViewDef view = model::InferView(kind, kind, sample);
  // A projection laid out under another view has the wrong columns.
  if (view != sql.view) sql.projection = nullptr;
  sql.view = std::move(view);
  sql.sample_last =
      sample_docs.size() < 32 ? ~model::DocId{0} : sample_docs.back().id;
  sql.stale = false;
  return sql.view;
}

std::shared_ptr<const query::ColumnarTable> Impliance::ProjectionFor(
    const std::string& kind) const {
  std::lock_guard<std::mutex> views_lock(views_mutex_);
  KindSql& sql = kind_sql_[kind];
  if (sql.projection != nullptr) return sql.projection;
  // One pass over the kind's documents in ascending id order. Built under
  // views_mutex_, so concurrent first scans of a kind build it once.
  obs::ScopedSpan project_span("core.project");
  sql.projection = std::make_shared<query::ColumnarTable>(
      kind, ProjectionSchema(sql.view), kProjectionSegmentRows);
  for (model::DocId id : paths_.KindDocs(kind)) {
    Result<model::Document> doc = store_->Get(id);
    if (!doc.ok()) continue;
    sql.projection->AddRow(ProjectionRow(sql.view, *doc));
  }
  return sql.projection;
}

Result<query::Catalog> Impliance::CatalogForLocked(
    const query::SelectStatement& stmt, const std::string& principal,
    const ExcludedSet& excluded) const {
  obs::ScopedSpan catalog_span("core.catalog");
  query::Catalog catalog;
  for (const std::string& name : stmt.TableNames()) {
    auto schema_class = std::ranges::find(schema_classes_, name,
                                          &discovery::SchemaClass::name);
    const bool is_class = schema_class != schema_classes_.end();
    // A schema class is readable when every member kind is.
    for (const std::string& kind :
         is_class ? schema_class->kinds : std::vector{name}) {
      if (!access_.CanRead(principal, kind)) {
        return Status::Aborted("principal " + principal +
                               " may not read the queried kinds");
      }
    }
    if (is_class) {
      catalog.Register(
          std::make_shared<ClassTable>(this, *schema_class, excluded));
    } else if (paths_.KindSize(name) > 0) {
      catalog.Register(std::make_shared<DocumentTable>(
          this, ViewForLocked(name), excluded));
    }
  }
  return catalog;
}

Result<std::vector<exec::Row>> Impliance::Sql(const std::string& sql,
                                              QueryHealth* health,
                                              const std::string& planner) const {
  return SqlAs(AccessController::kAdmin, sql, health, planner);
}

Result<Impliance::ExplainResult> Impliance::ExplainSql(
    const std::string& sql, const std::string& planner_name) const {
  IMPLIANCE_ASSIGN_OR_RETURN(query::SelectStatement stmt, query::ParseSql(sql));
  std::shared_lock<std::shared_mutex> lock(mutex_);
  IMPLIANCE_ASSIGN_OR_RETURN(
      query::Catalog catalog,
      CatalogForLocked(stmt, AccessController::kAdmin, nullptr));
  IMPLIANCE_ASSIGN_OR_RETURN(
      std::unique_ptr<query::Planner> planner,
      query::CreatePlanner(planner_name, &stats_cache_));
  IMPLIANCE_ASSIGN_OR_RETURN(query::PlanResult plan,
                             planner->Plan(stmt, catalog));
  return ExplainResult{std::move(plan.explain), std::move(plan.nodes)};
}

Result<std::vector<exec::Row>> Impliance::SqlAs(const std::string& principal,
                                                const std::string& sql,
                                                QueryHealth* health,
                                                const std::string& planner_name) const {
  if (health != nullptr) *health = QueryHealth{};
  if (!access_.HasPrincipal(principal)) {
    return Status::InvalidArgument("unknown principal: " + principal);
  }
  query::SelectStatement stmt;
  exec::ExecOptions exec_options;
  {
    obs::ScopedSpan plan_span("core.plan");
    IMPLIANCE_ASSIGN_OR_RETURN(stmt, query::ParseSql(sql));
    exec_options.dop = ChooseDop();
  }
  // Availability before the scan: with a scale-out tier, table scans may
  // only read documents the blades can serve; the rest is reported through
  // `health` — the complete-or-degraded contract of every query interface.
  // Access is checked under the same lock hold that serves the tables.
  const AvailableRead read = ReadAvailable(health);
  Result<query::Catalog> catalog =
      CatalogForLocked(stmt, principal, read.excluded);
  if (!catalog.ok()) {
    audit_.Record(principal, "sql(denied)", sql, {});
    return catalog.status();
  }
  IMPLIANCE_ASSIGN_OR_RETURN(
      std::unique_ptr<query::Planner> planner,
      query::CreatePlanner(planner_name, &stats_cache_));
  IMPLIANCE_ASSIGN_OR_RETURN(
      std::vector<exec::Row> rows,
      query::RunSql(stmt, *catalog, planner.get(), exec_options));
  // Row-level ids are not surfaced by SQL; audit the kinds touched.
  audit_.Record(principal, "sql", sql, {});
  return rows;
}

std::vector<Impliance::LineageStep> Impliance::Lineage(model::DocId id) const {
  std::vector<LineageStep> chain;
  std::set<model::DocId> seen;
  model::DocId current = id;
  std::string via;
  while (current != model::kInvalidDocId && seen.insert(current).second) {
    chain.push_back(LineageStep{current, via});
    Result<model::Document> doc = store_->Get(current);
    if (!doc.ok() || doc->refs.empty()) break;
    // Follow the first derivation ref (annotations reference their base).
    via = doc->refs.front().relation;
    current = doc->refs.front().target;
  }
  return chain;
}

std::string Impliance::LabelFor(model::DocId id) const {
  Result<model::Document> doc = store_->Get(id);
  if (!doc.ok()) return "";
  return doc->kind + "#" + std::to_string(id);
}

query::GraphQuery Impliance::Graph() const {
  // NOTE: graph queries read the join index without locking; do not run
  // them concurrently with an active discovery pass (WaitForDiscovery()
  // first). Interactive use after discovery is the intended pattern.
  query::GraphQuery graph(&joins_,
                          [this](model::DocId id) { return LabelFor(id); });
  graph.set_parallelism(ChooseDop());
  return graph;
}

// --------------------------------------------------------------- Discovery

void Impliance::RegisterAnnotator(
    std::unique_ptr<discovery::Annotator> annotator) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  annotators_.push_back(std::move(annotator));
}

void Impliance::AddDictionaryEntries(const std::string& entity_type,
                                     const std::vector<std::string>& entries) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  dictionary_->AddEntries(entity_type, entries);
}

Result<DiscoveryReport> Impliance::RunDiscovery() {
  DiscoveryReport report;

  // Snapshot latest base documents (no index lock; the store has its own).
  std::vector<model::Document> corpus;
  IMPLIANCE_RETURN_IF_ERROR(store_->Scan([&corpus](const model::Document& doc) {
    corpus.push_back(doc);
    return true;
  }));

  // Phase 1: intra-document annotation for (annotator, doc) pairs not yet
  // processed. Annotate outside the lock; persist under it.
  struct PendingAnnotation {
    std::string annotator;
    model::DocId base;
    model::Document annotation;
    bool has_annotation;
  };
  std::vector<PendingAnnotation> pending;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    for (const model::Document& doc : corpus) {
      if (doc.doc_class != model::DocClass::kBase) continue;
      for (const auto& annotator : annotators_) {
        if (annotated_.count({annotator->name(), doc.id})) continue;
        if (!annotator->InterestedIn(doc)) continue;
        PendingAnnotation item;
        item.annotator = annotator->name();
        item.base = doc.id;
        std::vector<discovery::AnnotationSpan> spans = annotator->Annotate(doc);
        item.has_annotation = !spans.empty();
        if (item.has_annotation) {
          item.annotation =
              discovery::MakeAnnotationDocument(doc, annotator->name(), spans);
        }
        pending.push_back(std::move(item));
      }
    }
  }
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    std::set<model::DocId> touched;
    std::vector<model::Document> annotations;
    for (PendingAnnotation& item : pending) {
      annotated_.insert({item.annotator, item.base});
      touched.insert(item.base);
      if (item.has_annotation) {
        annotations.push_back(std::move(item.annotation));
      }
    }
    IMPLIANCE_ASSIGN_OR_RETURN(std::vector<model::DocId> ids,
                               InfuseLocked(std::move(annotations)));
    report.annotations_created += ids.size();
    report.documents_annotated = touched.size();
  }

  // Phase 1b: entity-link edges. Documents mentioning the same extracted
  // entity become associated; to bound fan-out, each entity's documents
  // are chained rather than fully cross-linked (connectivity is what the
  // graph interface needs).
  {
    std::map<std::pair<std::string, std::string>, std::vector<model::DocId>>
        mentions;  // (type, text) -> base docs, in id order
    IMPLIANCE_RETURN_IF_ERROR(store_->Scan([&](const model::Document& doc) {
      if (doc.kind != "annotation") return true;
      const model::Value* base = model::ResolvePath(doc.root, "/doc/base_doc");
      if (base == nullptr) return true;
      const model::DocId base_id =
          static_cast<model::DocId>(base->AsDouble());
      for (const auto& span : discovery::SpansFromAnnotationDocument(doc)) {
        if (span.entity_type == "sentiment") continue;
        std::vector<model::DocId>& docs =
            mentions[{span.entity_type, span.text}];
        if (docs.empty() || docs.back() != base_id) docs.push_back(base_id);
      }
      return true;
    }));
    constexpr size_t kMaxDocsPerEntity = 64;
    std::unique_lock<std::shared_mutex> lock(mutex_);
    const size_t before = joins_.num_edges();
    for (const auto& [key, docs] : mentions) {
      if (docs.size() < 2 || docs.size() > kMaxDocsPerEntity) continue;
      for (size_t i = 1; i < docs.size(); ++i) {
        joins_.AddEdge(docs[i - 1], docs[i],
                       "shares_entity:" + key.first, 0.8);
      }
    }
    report.entity_link_edges = joins_.num_edges() - before;
  }

  // Phase 2a: schema consolidation over base kinds.
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    std::vector<discovery::KindSchema> kind_schemas;
    for (const std::string& kind : paths_.Kinds()) {
      if (kind == "annotation") continue;
      kind_schemas.push_back(
          discovery::KindSchema{kind, paths_.PathsOfKind(kind)});
    }
    schema_classes_ = discovery::ConsolidateSchemas(kind_schemas);
    report.schema_classes = schema_classes_.size();
  }

  // Phase 2b: entity resolution over documents exposing a /doc/name leaf.
  {
    std::vector<discovery::EntityRecord> records;
    for (const model::Document& doc : corpus) {
      if (doc.doc_class != model::DocClass::kBase) continue;
      const model::Value* name = model::ResolvePath(doc.root, "/doc/name");
      if (name == nullptr || !name->is_string()) continue;
      discovery::EntityRecord record;
      record.doc = doc.id;
      record.name = name->string_value();
      const model::Value* email = model::ResolvePath(doc.root, "/doc/email");
      if (email != nullptr && email->is_string()) {
        record.email = email->string_value();
      }
      const model::Value* city = model::ResolvePath(doc.root, "/doc/city");
      if (city != nullptr && city->is_string()) {
        record.city = city->string_value();
      }
      records.push_back(std::move(record));
    }
    discovery::EntityResolver resolver;
    std::vector<std::vector<size_t>> clusters = resolver.Resolve(records);
    std::unique_lock<std::shared_mutex> lock(mutex_);
    for (const std::vector<size_t>& cluster : clusters) {
      for (size_t i = 1; i < cluster.size(); ++i) {
        model::DocId a = records[cluster[0]].doc;
        model::DocId b = records[cluster[i]].doc;
        if (a > b) std::swap(a, b);
        if (merged_entities_.insert({a, b}).second) {
          joins_.AddEdge(a, b, "same_entity", 0.9);
          ++report.entity_clusters_merged;
        }
      }
    }
  }

  // Phase 3: inclusion-dependency join discovery + materialization.
  {
    std::vector<const model::Document*> corpus_ptrs;
    for (const model::Document& doc : corpus) corpus_ptrs.push_back(&doc);
    std::vector<discovery::DiscoveredJoin> found =
        discovery::DiscoverJoins(corpus_ptrs);
    std::unique_lock<std::shared_mutex> lock(mutex_);
    const size_t before = joins_.num_edges();
    for (const discovery::DiscoveredJoin& join : found) {
      discovery::MaterializeJoinEdges(corpus_ptrs, join, &joins_);
    }
    report.join_edges_added = joins_.num_edges() - before;
  }
  return report;
}

void Impliance::StartBackgroundDiscovery() {
  if (quiesced_.load(std::memory_order_acquire)) return;
  execution_->SubmitBackground([this] {
    Result<DiscoveryReport> report = RunDiscovery();
    if (!report.ok()) {
      IMPLIANCE_LOG(Warning) << "background discovery failed: "
                             << report.status().ToString();
    }
  });
}

void Impliance::WaitForDiscovery() { execution_->WaitIdle(); }

// ----------------------------------------------------------- Introspection

std::vector<std::string> Impliance::Kinds() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return paths_.Kinds();
}

Result<model::ViewDef> Impliance::ViewFor(const std::string& kind) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  if (paths_.KindSize(kind) == 0) {
    return Status::NotFound("no documents of kind " + kind);
  }
  return ViewForLocked(kind);
}

std::vector<discovery::SchemaClass> Impliance::SchemaClasses() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return schema_classes_;
}

std::vector<model::Document> Impliance::AnnotationsFor(model::DocId id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<model::Document> annotations;
  for (const auto& edge : joins_.EdgesTo(id, "annotates")) {
    Result<model::Document> doc = store_->Get(edge.src);
    if (doc.ok() && doc->kind == "annotation") {
      annotations.push_back(std::move(doc).value());
    }
  }
  return annotations;
}

std::vector<model::DocId> Impliance::DocsOfKind(const std::string& kind) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return paths_.DocsOfKind(kind);
}

ImplianceStats Impliance::GetStats() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  ImplianceStats stats;
  stats.store = store_->GetStats();
  stats.indexed_documents = text_index_.global().num_documents();
  stats.indexed_terms = text_index_.global().num_terms();
  stats.indexed_paths = paths_.num_paths();
  stats.join_edges = joins_.num_edges();
  stats.kinds = paths_.Kinds().size();
  stats.admin_steps = 0;  // nothing to create, tune, or analyze — by design
  stats.interactive_latency_ms = execution_->interactive_latency_ms();
  return stats;
}

}  // namespace impliance::core
