#include "cluster/cluster.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <utility>

#include "common/clock.h"
#include "common/hash.h"
#include "common/logging.h"
#include "model/item.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace impliance::cluster {

namespace {
// Submission rounds per scatter: the original fan-out plus up to two
// failover attempts on re-routed assignments. Work still lost after that
// is reported as degraded instead of being retried forever.
constexpr int kMaxScatterRounds = 3;

// Partition-management and scatter metrics, registered once and cached
// (registration takes the registry mutex; Increment is lock-free).
struct PartitionMetrics {
  obs::Counter* splits;
  obs::Counter* merges;
  obs::Counter* moves;
  obs::Counter* docs_moved;
  obs::Counter* balancer_passes;
  // Documents a scatter task probed for presence: 0 per query while no
  // document has left a blade, so a nonzero rate explains a slow
  // availability check.
  obs::Counter* presence_probes;
};
PartitionMetrics& Metrics() {
  static PartitionMetrics metrics = [] {
    obs::Registry& registry = obs::Registry::Global();
    return PartitionMetrics{
        registry.GetCounter("cluster.partition.splits"),
        registry.GetCounter("cluster.partition.merges"),
        registry.GetCounter("cluster.partition.moves"),
        registry.GetCounter("cluster.partition.docs_moved"),
        registry.GetCounter("cluster.balancer.passes"),
        registry.GetCounter("cluster.presence_probes"),
    };
  }();
  return metrics;
}
}  // namespace

SimulatedCluster::SimulatedCluster(const Options& options) : options_(options) {
  IMPLIANCE_CHECK(options.num_data_nodes > 0);
  IMPLIANCE_CHECK(options.num_grid_nodes > 0);
  IMPLIANCE_CHECK(options.num_cluster_nodes > 0);
  IMPLIANCE_CHECK(options.replication >= 1 &&
                  options.replication <= options.num_data_nodes);
  NodeId next = 0;
  for (size_t i = 0; i < options.num_data_nodes; ++i) {
    data_nodes_.push_back(std::make_unique<Node>(next++, NodeKind::kData));
    partitions_.push_back(std::make_shared<Partition>());
  }
  for (size_t i = 0; i < options.num_grid_nodes; ++i) {
    grid_nodes_.push_back(std::make_unique<Node>(next++, NodeKind::kGrid));
  }
  for (size_t i = 0; i < options.num_cluster_nodes; ++i) {
    cluster_nodes_.push_back(std::make_unique<Node>(next++, NodeKind::kCluster));
  }
  // Carve the initial partition table: equal-width routing-key ranges,
  // replica targets assigned round-robin so the static layout matches the
  // old hash ring's even spread. The first range must start at 0 — the
  // table is a gapless cover of the key space.
  const size_t tablets =
      std::max<size_t>(1, options.initial_partitions_per_node) *
      options.num_data_nodes;
  const uint64_t width = UINT64_MAX / tablets;
  for (size_t i = 0; i < tablets; ++i) {
    PartitionState state;
    state.pid = next_pid_++;
    const size_t primary = i % options.num_data_nodes;
    for (size_t r = 0; r < options.replication; ++r) {
      state.replicas.push_back(
          static_cast<NodeId>((primary + r) % options.num_data_nodes));
    }
    ptable_.emplace(width * i, std::move(state));
  }
}

SimulatedCluster::~SimulatedCluster() { StopBalancer(); }

uint64_t SimulatedCluster::DocBytes(const model::Document& doc) {
  std::string encoded;
  doc.Encode(&encoded);
  return encoded.size();
}

void SimulatedCluster::AccountTraffic(const ShipStats& stats) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  traffic_.bytes_shipped.fetch_add(stats.bytes_shipped, kRelaxed);
  traffic_.rows_shipped.fetch_add(stats.rows_shipped, kRelaxed);
  traffic_.tasks.fetch_add(stats.tasks, kRelaxed);
  traffic_.failovers.fetch_add(stats.failovers, kRelaxed);
  traffic_.missing_partitions.fetch_add(stats.missing_partitions, kRelaxed);
  if (stats.degraded) traffic_.degraded.store(true, kRelaxed);
}

ShipStats SimulatedCluster::lifetime_traffic() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  ShipStats totals;
  totals.bytes_shipped = traffic_.bytes_shipped.load(kRelaxed);
  totals.rows_shipped = traffic_.rows_shipped.load(kRelaxed);
  totals.tasks = traffic_.tasks.load(kRelaxed);
  totals.failovers = traffic_.failovers.load(kRelaxed);
  totals.missing_partitions = traffic_.missing_partitions.load(kRelaxed);
  totals.degraded = traffic_.degraded.load(kRelaxed);
  return totals;
}

bool SimulatedCluster::RunOnPool(const std::vector<std::unique_ptr<Node>>& pool,
                                 std::atomic<uint64_t>* rr,
                                 const std::function<void()>& fn) {
  // Round-robin over the pool. A non-executed outcome means `fn` never ran
  // (rejected or dropped before execution), so handing it to a sibling
  // cannot duplicate its effects.
  const size_t n = pool.size();
  for (size_t attempt = 0; attempt < n; ++attempt) {
    Node* node = pool[rr->fetch_add(1) % n].get();
    if (!node->alive()) continue;
    if (node->Run(fn) == TaskOutcome::kExecuted) return true;
  }
  return false;
}

uint64_t SimulatedCluster::RouteKey(model::DocId id) const {
  return options_.key_range_partitioning ? id : Mix64(id);
}

SimulatedCluster::PartitionState& SimulatedCluster::RoutedPartitionLocked(
    model::DocId id) const {
  auto it = ptable_.upper_bound(RouteKey(id));
  --it;  // the table always has an entry at key 0
  return it->second;
}

std::vector<NodeId> SimulatedCluster::PlaceReplicas(model::DocId id,
                                                    size_t copies) const {
  std::lock_guard<std::mutex> lock(ptable_mutex_);
  return PlaceReplicasLocked(id, copies);
}

std::vector<NodeId> SimulatedCluster::PlaceReplicasLocked(model::DocId id,
                                                          size_t copies) const {
  const size_t n = data_nodes_.size();
  copies = std::min(copies, n);
  std::vector<NodeId> nodes;
  for (NodeId node : RoutedPartitionLocked(id).replicas) {
    if (nodes.size() >= copies) break;
    if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
      nodes.push_back(node);
    }
  }
  // A caller wanting more copies than the tablet is configured with
  // (per-class storage policy) extends ring-wise past the table's targets.
  NodeId walk = nodes.empty() ? static_cast<NodeId>(Mix64(id) % n)
                              : static_cast<NodeId>((nodes.back() + 1) % n);
  while (nodes.size() < copies) {
    if (std::find(nodes.begin(), nodes.end(), walk) == nodes.end()) {
      nodes.push_back(walk);
    }
    walk = static_cast<NodeId>((walk + 1) % n);
  }
  return nodes;
}

void SimulatedCluster::BumpPartitionTraffic(model::DocId id) const {
  std::lock_guard<std::mutex> lock(ptable_mutex_);
  ++RoutedPartitionLocked(id).traffic;
}

uint64_t SimulatedCluster::SubmitStore(NodeId node_id, std::vector<DocPtr> docs,
                                       std::future<TaskOutcome>* outcome) {
  std::shared_ptr<Partition> partition = PartitionFor(node_id);
  const uint64_t incarnation = partition->incarnation;
  data_nodes_[node_id]->Submit(
      [this, partition, docs = std::move(docs)] {
        uint64_t stamp = placement_clock_.fetch_add(docs.size());
        for (const DocPtr& doc : docs) {
          // Upsert: drop stale index postings first so re-ingest (new
          // versions, re-replication retries) stays idempotent.
          auto [it, inserted] = partition->docs.try_emplace(doc->id, doc);
          if (!inserted) {
            partition->inverted.RemoveDocument(doc->id);
            it->second = doc;
          }
          partition->placed[doc->id] = stamp++;
          partition->inverted.AddDocument(doc->id, doc->Text());
        }
      },
      outcome);
  return incarnation;
}

TaskOutcome SimulatedCluster::StoreOnNode(NodeId node, DocPtr doc,
                                          uint64_t* incarnation) {
  std::future<TaskOutcome> outcome;
  *incarnation = SubmitStore(node, {std::move(doc)}, &outcome);
  return outcome.get();
}

void SimulatedCluster::Partition::Erase(model::DocId id) {
  inverted.RemoveDocument(id);
  docs.erase(id);
  placed.erase(id);
  removals.fetch_add(1);
}

bool SimulatedCluster::HolderStillValid(NodeId node,
                                        uint64_t epoch_at_store) const {
  return data_nodes_[node]->alive() &&
         data_nodes_[node]->epoch() == epoch_at_store;
}

std::shared_ptr<SimulatedCluster::Partition> SimulatedCluster::PartitionFor(
    NodeId node) const {
  std::lock_guard<std::mutex> lock(partitions_mutex_);
  return partitions_[node];
}

std::vector<model::DocId> SimulatedCluster::StoreBatch(std::vector<DocPtr> docs,
                                                       size_t copies,
                                                       ShipStats* stats) {
  obs::ScopedSpan span("cluster.ingest");
  const size_t n = data_nodes_.size();
  // Place the whole batch under one partition-table hold; every store
  // heats its tablet like any other point op. The batch stays pending
  // until its directory commit, so a migration's delete spares its copies.
  std::vector<std::vector<NodeId>> replicas(docs.size());
  std::multiset<uint64_t>::iterator pending;
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    pending = pending_stores_.insert(placement_clock_.load());
    for (size_t i = 0; i < docs.size(); ++i) {
      ++RoutedPartitionLocked(docs[i]->id).traffic;
      replicas[i] = PlaceReplicasLocked(docs[i]->id, copies);
    }
  }
  std::vector<std::vector<size_t>> placed_on(n);  // node -> batch positions
  for (size_t i = 0; i < docs.size(); ++i) {
    for (NodeId node : replicas[i]) placed_on[node].push_back(i);
  }

  // One store task per owning node, all in flight before any is awaited,
  // so the blades store in parallel.
  struct Store {
    NodeId node;
    uint64_t incarnation;
    std::future<TaskOutcome> outcome;
  };
  std::vector<Store> stores;
  for (NodeId node = 0; node < n; ++node) {
    if (placed_on[node].empty() || !data_nodes_[node]->alive()) continue;
    std::vector<DocPtr> batch;
    batch.reserve(placed_on[node].size());
    for (size_t i : placed_on[node]) batch.push_back(docs[i]);
    Store store{node, 0, {}};
    store.incarnation = SubmitStore(node, std::move(batch), &store.outcome);
    stores.push_back(std::move(store));
    ++stats->tasks;
  }
  // Encode for the traffic account while the blades work.
  std::vector<uint64_t> bytes(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) bytes[i] = DocBytes(*docs[i]);

  // Only nodes that positively acknowledged the store become holders.
  // Trusting the submit-time ack recorded phantom replicas whenever a node
  // died (or dropped the task) between accept and apply.
  constexpr uint64_t kNotAcked = UINT64_MAX;
  std::vector<uint64_t> acked(n, kNotAcked);  // node -> incarnation
  for (Store& store : stores) {
    if (store.outcome.get() != TaskOutcome::kExecuted) continue;
    acked[store.node] = store.incarnation;
    for (size_t i : placed_on[store.node]) {
      stats->bytes_shipped += bytes[i];
      stats->rows_shipped += 1;
    }
  }

  std::vector<model::DocId> unplaced;
  std::vector<model::DocId> fresh;
  {
    std::lock_guard<std::mutex> lock(directory_mutex_);
    // Re-check each ack under the directory lock: a node that failed (and
    // possibly rejoined empty) since the store executed no longer has the
    // bytes, and recording it would plant a silent miss in the directory.
    for (NodeId node = 0; node < n; ++node) {
      if (acked[node] != kNotAcked && !HolderStillValid(node, acked[node])) {
        acked[node] = kNotAcked;
      }
    }
    for (size_t i = 0; i < docs.size(); ++i) {
      std::vector<Holder> holders;
      for (NodeId node : replicas[i]) {
        if (acked[node] != kNotAcked) {
          holders.push_back(Holder{node, acked[node]});
        }
      }
      if (holders.empty()) {
        unplaced.push_back(docs[i]->id);
        continue;
      }
      auto [it, inserted] = directory_.try_emplace(docs[i]->id);
      if (inserted) fresh.push_back(docs[i]->id);
      it->second.desired = static_cast<uint8_t>(copies);
      it->second.holders = std::move(holders);
    }
    if (unplaced.size() < docs.size()) InvalidateOwnershipLocked();
  }
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    pending_stores_.erase(pending);
    for (model::DocId id : fresh) ++RoutedPartitionLocked(id).doc_count;
  }
  return unplaced;
}

SimulatedCluster::BatchIngest SimulatedCluster::IngestBatch(
    std::vector<model::Document> docs, size_t copies) {
  if (copies == 0) copies = options_.replication;
  BatchIngest result;
  result.ids.reserve(docs.size());
  std::vector<DocPtr> shared;
  shared.reserve(docs.size());
  for (model::Document& doc : docs) {
    if (doc.id == model::kInvalidDocId) {
      doc.id = next_id_.fetch_add(1);
    } else {
      // Mirrored ingest under a caller-assigned id: keep our own id space
      // strictly ahead so annotation documents never collide with it.
      model::DocId expected = next_id_.load();
      while (expected <= doc.id &&
             !next_id_.compare_exchange_weak(expected, doc.id + 1)) {
      }
    }
    if (doc.version == 0) doc.version = 1;
    result.ids.push_back(doc.id);
    shared.push_back(std::make_shared<const model::Document>(std::move(doc)));
  }
  ShipStats stats;
  result.unplaced = StoreBatch(std::move(shared), copies, &stats);
  AccountTraffic(stats);
  return result;
}

Result<model::DocId> SimulatedCluster::Ingest(model::Document doc,
                                              size_t copies) {
  std::vector<model::Document> batch;
  batch.push_back(std::move(doc));
  BatchIngest result = IngestBatch(std::move(batch), copies);
  if (!result.unplaced.empty()) {
    return Status::IOError("no replica target acknowledged document");
  }
  return result.ids.front();
}

Result<model::Document> SimulatedCluster::Get(model::DocId id) const {
  IMPLIANCE_ASSIGN_OR_RETURN(DocPtr doc, GetShared(id));
  return *doc;
}

Result<SimulatedCluster::DocPtr> SimulatedCluster::GetShared(
    model::DocId id) const {
  BumpPartitionTraffic(id);  // point reads heat the partition like ingests
  std::vector<Holder> holders;
  {
    std::lock_guard<std::mutex> lock(directory_mutex_);
    auto it = directory_.find(id);
    if (it == directory_.end()) {
      return Status::NotFound("no such document: " + std::to_string(id));
    }
    holders = it->second.holders;
  }
  for (const Holder& holder : holders) {
    if (!HolderStillValid(holder.node, holder.epoch)) continue;
    std::shared_ptr<Partition> partition = PartitionFor(holder.node);
    DocPtr doc;
    const TaskOutcome outcome =
        data_nodes_[holder.node]->Run([partition, id, &doc] {
          auto it = partition->docs.find(id);
          if (it != partition->docs.end()) doc = it->second;
        });
    if (outcome == TaskOutcome::kExecuted && doc != nullptr) return doc;
  }
  return Status::NotFound("all replicas unavailable: " + std::to_string(id));
}

size_t SimulatedCluster::num_documents() const {
  std::lock_guard<std::mutex> lock(directory_mutex_);
  return directory_.size();
}

std::shared_ptr<const SimulatedCluster::OwnershipSnapshot>
SimulatedCluster::OwnershipByNode() const {
  std::lock_guard<std::mutex> lock(directory_mutex_);
  if (ownership_cache_ == nullptr) {
    auto snapshot = std::make_shared<OwnershipSnapshot>();
    for (NodeId node = 0; node < data_nodes_.size(); ++node) {
      snapshot->removals[node] = PartitionFor(node)->removals.load();
    }
    for (const auto& [id, entry] : directory_) {
      bool owned = false;
      for (const Holder& holder : entry.holders) {
        if (HolderStillValid(holder.node, holder.epoch)) {
          snapshot->by_node[holder.node].insert(id);
          snapshot->epochs[holder.node] = holder.epoch;
          owned = true;
          break;  // first valid holder owns the doc for queries
        }
      }
      if (!owned) snapshot->orphans.push_back(id);
    }
    ownership_cache_ = snapshot;
  }
  return ownership_cache_;
}

std::vector<SimulatedCluster::PartitionAssignment>
SimulatedCluster::RerouteLost(const std::vector<PartitionAssignment>& lost,
                              ShipStats* stats,
                              std::vector<model::DocId>* missing) const {
  std::map<NodeId, std::set<model::DocId>> regrouped;
  std::map<NodeId, uint64_t> epochs;
  std::lock_guard<std::mutex> lock(directory_mutex_);
  for (const PartitionAssignment& assignment : lost) {
    bool rerouted_any = false;
    for (model::DocId id : *assignment.docs) {
      // DetectFailures just pruned dead and stale holders, so the first
      // valid holder is the failover target. A node that dropped the task
      // but stayed alive is its own valid retry target.
      NodeId target = 0;
      bool found = false;
      auto it = directory_.find(id);
      if (it != directory_.end()) {
        for (const Holder& holder : it->second.holders) {
          if (HolderStillValid(holder.node, holder.epoch)) {
            target = holder.node;
            epochs[holder.node] = holder.epoch;
            found = true;
            break;
          }
        }
      }
      if (found) {
        regrouped[target].insert(id);
        rerouted_any = true;
      } else {
        // No surviving replica anywhere: this document's contribution is
        // unrecoverable and must be reported, not silently omitted.
        ++stats->missing_partitions;
        stats->degraded = true;
        if (missing != nullptr) missing->push_back(id);
      }
    }
    if (rerouted_any) ++stats->failovers;
  }
  std::vector<PartitionAssignment> next;
  next.reserve(regrouped.size());
  for (auto& [node, docs] : regrouped) {
    next.push_back(PartitionAssignment{
        node, epochs[node],
        std::make_shared<const std::set<model::DocId>>(std::move(docs)),
        std::nullopt});
  }
  return next;
}

void SimulatedCluster::ScatterWithFailover(
    const std::function<std::function<void()>(
        NodeId node, std::shared_ptr<const std::set<model::DocId>> docs)>&
        make_task,
    ShipStats* stats, std::vector<model::DocId>* missing) {
  obs::ScopedSpan scatter_span("cluster.scatter");
  std::shared_ptr<const OwnershipSnapshot> snapshot = OwnershipByNode();
  if (!snapshot->orphans.empty()) {
    // Data already unreachable when the query started: a fully-dead
    // partition produces no failed task, so it must be counted up front.
    stats->missing_partitions += snapshot->orphans.size();
    stats->degraded = true;
    if (missing != nullptr) {
      missing->insert(missing->end(), snapshot->orphans.begin(),
                      snapshot->orphans.end());
    }
  }

  std::vector<PartitionAssignment> round;
  round.reserve(snapshot->by_node.size());
  for (const auto& [node_id, owned] : snapshot->by_node) {
    // Aliasing: shares ownership of the snapshot, points at one node's set.
    round.push_back(PartitionAssignment{
        node_id, snapshot->epochs.at(node_id),
        std::shared_ptr<const std::set<model::DocId>>(snapshot, &owned),
        snapshot->removals.at(node_id)});
  }

  for (int attempt = 0; !round.empty() && attempt < kMaxScatterRounds;
       ++attempt) {
    struct Pending {
      PartitionAssignment assignment;
      std::future<TaskOutcome> outcome;
    };
    std::vector<Pending> pending;
    pending.reserve(round.size());
    const uint64_t round_start = NowMicros();
    // Stable timing/staleness slots; the deques must outlive the futures.
    std::deque<uint64_t> task_micros;
    std::deque<uint8_t> stale_flags;
    std::deque<std::vector<model::DocId>> strays;
    for (PartitionAssignment& assignment : round) {
      std::function<void()> fn = make_task(assignment.node, assignment.docs);
      task_micros.push_back(0);
      uint64_t* micros = &task_micros.back();
      stale_flags.push_back(0);
      uint8_t* stale = &stale_flags.back();
      strays.emplace_back();
      std::vector<model::DocId>* stray = &strays.back();
      std::shared_ptr<Partition> partition = PartitionFor(assignment.node);
      Node* node = data_nodes_[assignment.node].get();
      const uint64_t expected_epoch = assignment.epoch;
      const std::optional<uint64_t> expected_removals = assignment.removals;
      std::future<TaskOutcome> outcome;
      node->Submit(
          // The trace rides into the node thread by value and is attached
          // while the work runs: per-node execute spans, and the spans the
          // work opens (index.search), record against the request that
          // issued the scatter.
          [fn = std::move(fn), micros, stale, stray, node, expected_epoch,
           expected_removals, partition = std::move(partition),
           docs = assignment.docs, trace = obs::CurrentTrace()] {
            // The assignment was made against a specific incarnation of
            // this node's partition. If the node died and rejoined since,
            // running the task would scan the wrong (empty) partition and
            // manufacture a silently-partial result — flag it instead.
            if (node->epoch() != expected_epoch) {
              *stale = 1;
              return;
            }
            // Presence check, atomic with the work (both run on this
            // node's single mailbox thread, which also applies migration
            // deletes): any assigned document no longer physically here
            // was migrated away since the ownership snapshot — record it
            // so the coordinator re-routes it through the live directory
            // instead of serving a hole. An unchanged removal count proves
            // nothing left (see OwnershipSnapshot), so the probe — O(1)
            // per document in `placed` — runs only after an erase or on a
            // failover assignment.
            if (expected_removals != partition->removals.load()) {
              Metrics().presence_probes->Increment(docs->size());
              for (model::DocId id : *docs) {
                if (!partition->placed.contains(id)) stray->push_back(id);
              }
            }
            obs::ScopedTraceAttach attach(trace);
            const uint64_t start = NowMicros();
            fn();
            *micros = NowMicros() - start;
            if (trace != nullptr) {
              trace->RecordSpan(
                  "node." + std::to_string(node->id()) + ".execute", start,
                  *micros);
            }
          },
          &outcome);
      ++stats->tasks;
      pending.push_back(Pending{std::move(assignment), std::move(outcome)});
    }

    std::vector<PartitionAssignment> lost;
    size_t i = 0;
    for (Pending& p : pending) {
      // Wait on the outcome BEFORE reading the stale flag: the flag is
      // written by the task and published by the promise.
      const TaskOutcome outcome = p.outcome.get();
      const bool stale = stale_flags[i] != 0;
      if (outcome != TaskOutcome::kExecuted || stale) {
        lost.push_back(std::move(p.assignment));
      } else if (!strays[i].empty()) {
        // Executed, but some assigned documents had moved out from under
        // the snapshot: re-route exactly those through the directory.
        lost.push_back(PartitionAssignment{
            p.assignment.node, p.assignment.epoch,
            std::make_shared<const std::set<model::DocId>>(strays[i].begin(),
                                                           strays[i].end()),
            std::nullopt});
      }
      ++i;
    }
    uint64_t slowest = 0;
    for (uint64_t micros : task_micros) slowest = std::max(slowest, micros);
    stats->critical_path_micros += slowest;
    if (attempt > 0) {
      // Failover rounds are where degraded latency comes from; make each
      // one visible as its own span.
      if (obs::TracePtr trace = obs::CurrentTrace()) {
        trace->RecordSpan("cluster.failover.round", round_start,
                          NowMicros() - round_start);
      }
    }

    if (lost.empty()) break;
    // Prune dead holders from the directory so re-routing sees survivors.
    DetectFailures();
    if (attempt + 1 == kMaxScatterRounds) {
      // Out of rounds: report the residual loss instead of dropping it.
      // Count documents, not assignments, so the number is comparable with
      // the per-document counts from RerouteLost and orphan detection.
      for (const PartitionAssignment& assignment : lost) {
        stats->missing_partitions += assignment.docs->size();
        if (missing != nullptr) {
          missing->insert(missing->end(), assignment.docs->begin(),
                          assignment.docs->end());
        }
      }
      stats->degraded = true;
      break;
    }
    round = RerouteLost(lost, stats, missing);
  }
}

std::vector<index::InvertedIndex::SearchResult> SimulatedCluster::KeywordSearch(
    const std::string& query, size_t k, ShipStats* stats) {
  ShipStats local_stats;

  // Scatter: each owning data node searches its partition; lost tasks fail
  // over to replica holders. Output slots live in a deque so every attempt
  // (including failover re-runs) gets fresh, stable storage.
  std::deque<std::vector<index::InvertedIndex::SearchResult>> partials;
  ScatterWithFailover(
      [&](NodeId node_id,
          std::shared_ptr<const std::set<model::DocId>> owned) {
        std::shared_ptr<Partition> partition = PartitionFor(node_id);
        partials.emplace_back();
        auto* out = &partials.back();
        local_stats.bytes_shipped += query.size();  // query fan-out
        return std::function<void()>(
            [partition, owned = std::move(owned), out, &query, k] {
              auto hits = partition->inverted.Search(query, k + owned->size());
              std::vector<index::InvertedIndex::SearchResult> filtered;
              for (const auto& hit : hits) {
                if (owned->count(hit.doc)) filtered.push_back(hit);
                if (filtered.size() >= k) break;
              }
              *out = std::move(filtered);
            });
      },
      &local_stats);

  // Gather: merge partial top-k lists on a grid node.
  obs::ScopedSpan gather_span("cluster.gather");
  std::vector<index::InvertedIndex::SearchResult> merged;
  ++local_stats.tasks;
  const bool gathered = RunOnPool(grid_nodes_, &rr_grid_, [&] {
    const uint64_t start = NowMicros();
    for (const auto& partial : partials) {
      merged.insert(merged.end(), partial.begin(), partial.end());
      local_stats.rows_shipped += partial.size();
      local_stats.bytes_shipped += partial.size() * 16;  // (doc, score)
    }
    std::sort(merged.begin(), merged.end(),
              [](const index::InvertedIndex::SearchResult& a,
                 const index::InvertedIndex::SearchResult& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc < b.doc;
              });
    if (merged.size() > k) merged.resize(k);
    local_stats.grid_task_micros = NowMicros() - start;
  });
  if (!gathered) {
    // No grid node executed the merge; an empty answer must say so.
    merged.clear();
    local_stats.degraded = true;
    ++local_stats.missing_partitions;
  }
  local_stats.critical_path_micros += local_stats.grid_task_micros;

  AccountTraffic(local_stats);
  if (stats != nullptr) *stats = local_stats;
  return merged;
}

std::shared_ptr<const std::unordered_set<model::DocId>>
SimulatedCluster::AvailableDocs(ShipStats* stats) {
  ShipStats local_stats;

  // Scatter: each owning data node verifies, against its live partition,
  // that it can serve its assigned documents. ScatterWithFailover's epoch
  // check and removal-count-gated presence probe are that verification,
  // so the node task itself is empty. Nodes lost mid-check fail over like
  // any other scatter; documents the directory mis-attributed (migrated
  // mid-check) are re-routed by the scatter's stray-document detection,
  // and anything still unreachable is collected, never silently served.
  std::vector<model::DocId> missing;
  ScatterWithFailover(
      [&](NodeId, std::shared_ptr<const std::set<model::DocId>>) {
        local_stats.bytes_shipped += 8;  // check-request fan-out
        return std::function<void()>([] {});
      },
      &local_stats, &missing);

  local_stats.rows_shipped += missing.size();
  local_stats.bytes_shipped += missing.size() * 8;  // missing-id gather
  AccountTraffic(local_stats);
  if (stats != nullptr) *stats = local_stats;
  if (missing.empty()) return nullptr;
  return std::make_shared<const std::unordered_set<model::DocId>>(
      missing.begin(), missing.end());
}

SimulatedCluster::AggResult SimulatedCluster::FilterAggregate(
    const AggQuery& query, bool pushdown) {
  AggResult result;

  struct Partial {
    // group -> (sum, count)
    std::map<std::string, std::pair<double, uint64_t>> groups;
    std::vector<DocPtr> raw_docs;  // no-pushdown mode
    uint64_t raw_bytes = 0;
  };

  auto matches = [&query](const model::Document& doc) {
    if (!query.kind.empty() && doc.kind != query.kind) return false;
    if (query.filter_path.empty()) return true;
    const model::Value* value = model::ResolvePath(doc.root, query.filter_path);
    if (value == nullptr || value->is_null()) return false;
    if (query.op == exec::CompareOp::kContains) {
      return value->AsString().find(query.literal.AsString()) !=
             std::string::npos;
    }
    const int c = value->Compare(query.literal);
    switch (query.op) {
      case exec::CompareOp::kEq: return c == 0;
      case exec::CompareOp::kNe: return c != 0;
      case exec::CompareOp::kLt: return c < 0;
      case exec::CompareOp::kLe: return c <= 0;
      case exec::CompareOp::kGt: return c > 0;
      case exec::CompareOp::kGe: return c >= 0;
      default: return false;
    }
  };
  auto accumulate = [&query](const model::Document& doc, Partial* partial) {
    std::string group;
    if (!query.group_path.empty()) {
      const model::Value* value = model::ResolvePath(doc.root, query.group_path);
      group = value == nullptr ? "null" : value->AsString();
    }
    double measure = 1.0;
    if (!query.agg_path.empty()) {
      const model::Value* value = model::ResolvePath(doc.root, query.agg_path);
      measure = value == nullptr ? 0.0 : value->AsDouble();
    }
    auto& [sum, count] = partial->groups[group];
    sum += measure;
    count += 1;
  };

  std::deque<Partial> partials;
  ScatterWithFailover(
      [&](NodeId node_id,
          std::shared_ptr<const std::set<model::DocId>> owned) {
        std::shared_ptr<Partition> partition = PartitionFor(node_id);
        partials.emplace_back();
        Partial* partial = &partials.back();
        return std::function<void()>([partition, owned = std::move(owned),
                                      partial, pushdown, &matches, &accumulate,
                                      &query] {
          for (const auto& [id, doc] : partition->docs) {
            if (!owned->count(id)) continue;
            if (pushdown) {
              // Predicate and partial aggregation at the storage node.
              if (matches(*doc)) accumulate(*doc, partial);
            } else {
              // Ship every document of the kind (the raw scan): the grid
              // node does all filtering and aggregation.
              if (query.kind.empty() || doc->kind == query.kind) {
                partial->raw_docs.push_back(doc);
                partial->raw_bytes += DocBytes(*doc);
              }
            }
          }
        });
      },
      &result.stats);

  // Gather on a grid node.
  obs::ScopedSpan gather_span("cluster.gather");
  ++result.stats.tasks;
  const bool gathered = RunOnPool(grid_nodes_, &rr_grid_, [&] {
    const uint64_t gather_start = NowMicros();
    for (Partial& partial : partials) {
      if (pushdown) {
        // Partial states ship: ~(group string + 16 bytes) per group.
        for (const auto& [group, state] : partial.groups) {
          result.stats.bytes_shipped += group.size() + 16;
          ++result.stats.rows_shipped;
          if (query.agg_path.empty()) {
            result.groups[group] += static_cast<double>(state.second);
          } else {
            result.groups[group] += state.first;
          }
        }
      } else {
        result.stats.bytes_shipped += partial.raw_bytes;
        result.stats.rows_shipped += partial.raw_docs.size();
        for (const DocPtr& doc : partial.raw_docs) {
          if (matches(*doc)) {
            Partial merged;
            accumulate(*doc, &merged);
            for (const auto& [group, state] : merged.groups) {
              if (query.agg_path.empty()) {
                result.groups[group] += static_cast<double>(state.second);
              } else {
                result.groups[group] += state.first;
              }
            }
          }
        }
      }
    }
    result.stats.grid_task_micros = NowMicros() - gather_start;
  });
  if (!gathered) {
    result.groups.clear();
    result.stats.degraded = true;
    ++result.stats.missing_partitions;
  }
  result.stats.critical_path_micros += result.stats.grid_task_micros;
  AccountTraffic(result.stats);
  return result;
}

size_t SimulatedCluster::RunAnnotationPass(const discovery::Annotator& annotator,
                                           const std::string& kind,
                                           ShipStats* stats) {
  ShipStats local_stats;

  // Phase 1 (data nodes): intra-document analysis over owned documents.
  std::deque<std::vector<model::Document>> produced;
  ScatterWithFailover(
      [&](NodeId node_id,
          std::shared_ptr<const std::set<model::DocId>> owned) {
        std::shared_ptr<Partition> partition = PartitionFor(node_id);
        produced.emplace_back();
        std::vector<model::Document>* out = &produced.back();
        return std::function<void()>(
            [partition, owned = std::move(owned), out, &annotator, &kind] {
              for (const auto& [id, doc] : partition->docs) {
                if (!owned->count(id)) continue;
                if (!kind.empty() && doc->kind != kind) continue;
                if (doc->doc_class != model::DocClass::kBase) continue;
                if (!annotator.InterestedIn(*doc)) continue;
                auto spans = annotator.Annotate(*doc);
                if (spans.empty()) continue;
                out->push_back(discovery::MakeAnnotationDocument(
                    *doc, annotator.name(), spans));
              }
            });
      },
      &local_stats);

  // Phase 3 (cluster node): assign ids, lock base documents, persist.
  std::vector<DocPtr> to_store;
  ++local_stats.tasks;
  const bool coordinated = RunOnPool(cluster_nodes_, &rr_cluster_, [&] {
    for (std::vector<model::Document>& batch : produced) {
      for (model::Document& annotation : batch) {
        local_stats.bytes_shipped += DocBytes(annotation);
        ++local_stats.rows_shipped;
        // Consistent persist: lock every referenced base document.
        for (const model::DocRef& ref : annotation.refs) {
          (void)ref;
          lock_acquisitions_.fetch_add(1);
        }
        annotation.id = next_id_.fetch_add(1);
        to_store.push_back(
            std::make_shared<const model::Document>(std::move(annotation)));
      }
    }
  });
  if (!coordinated) {
    // No coordinator: nothing was committed this pass.
    local_stats.degraded = true;
    ++local_stats.missing_partitions;
  }

  // Route the committed annotation documents onto data nodes as one batch
  // through the same placement path as IngestBatch — they respect liveness
  // and the dynamic partition table like any other document, and only
  // holders that acknowledged the store are recorded.
  const size_t committed = to_store.size();
  const std::vector<model::DocId> unplaced =
      StoreBatch(std::move(to_store), options_.replication, &local_stats);
  if (!unplaced.empty()) {
    // Annotations committed by the coordinator but accepted by no data
    // node: the pass's output is incomplete.
    local_stats.degraded = true;
    local_stats.missing_partitions += unplaced.size();
  }
  const size_t created = committed - unplaced.size();
  AccountTraffic(local_stats);
  if (stats != nullptr) *stats = local_stats;
  return created;
}


SimulatedCluster::AutoAggResult SimulatedCluster::FilterAggregateAuto(
    const AggQuery& query) {
  Scheduler::LoadSnapshot load;
  size_t alive_data = 0;
  for (const auto& node : data_nodes_) {
    if (!node->alive()) continue;
    load.data_queue_depth += static_cast<double>(node->queue_depth());
    ++alive_data;
  }
  if (alive_data > 0) load.data_queue_depth /= alive_data;
  size_t alive_grid = 0;
  for (const auto& node : grid_nodes_) {
    if (!node->alive()) continue;
    load.grid_queue_depth += static_cast<double>(node->queue_depth());
    ++alive_grid;
  }
  if (alive_grid > 0) load.grid_queue_depth /= alive_grid;

  AutoAggResult out;
  out.decision =
      scheduler_.Place(Scheduler::OperatorClass::kScanFilter, load);
  out.result = FilterAggregate(query, out.decision.pushdown);
  return out;
}

SimulatedCluster::PipelineResult SimulatedCluster::SearchJoinUpdate(
    const PipelineQuery& query) {
  PipelineResult result;

  // ---- Stage 1 (data nodes): full-text search; ship reduced triples
  // (doc id, score, value at left_ref_path).
  struct Hit {
    model::DocId doc;
    double score;
    std::string ref_value;
  };
  std::deque<std::vector<Hit>> partial_hits;
  ScatterWithFailover(
      [&](NodeId node_id,
          std::shared_ptr<const std::set<model::DocId>> owned) {
        std::shared_ptr<Partition> partition = PartitionFor(node_id);
        partial_hits.emplace_back();
        std::vector<Hit>* out = &partial_hits.back();
        return std::function<void()>(
            [partition, owned = std::move(owned), out, &query] {
              auto hits = partition->inverted.Search(
                  query.keywords, query.k + owned->size());
              for (const auto& hit : hits) {
                if (!owned->count(hit.doc)) continue;
                auto doc_it = partition->docs.find(hit.doc);
                if (doc_it == partition->docs.end()) continue;
                const model::Value* ref = model::ResolvePath(
                    doc_it->second->root, query.left_ref_path);
                if (ref == nullptr || ref->is_null()) continue;
                out->push_back(Hit{hit.doc, hit.score, ref->AsString()});
                if (out->size() >= query.k) break;
              }
            });
      },
      &result.stats);

  // Dimension side, also reduced at the data nodes: (key value, doc id).
  std::deque<std::vector<std::pair<std::string, model::DocId>>> partial_dims;
  ScatterWithFailover(
      [&](NodeId node_id,
          std::shared_ptr<const std::set<model::DocId>> owned) {
        std::shared_ptr<Partition> partition = PartitionFor(node_id);
        partial_dims.emplace_back();
        auto* out = &partial_dims.back();
        return std::function<void()>(
            [partition, owned = std::move(owned), out, &query] {
              for (const auto& [id, doc] : partition->docs) {
                if (!owned->count(id) || doc->kind != query.dim_kind) {
                  continue;
                }
                const model::Value* key =
                    model::ResolvePath(doc->root, query.dim_key_path);
                if (key == nullptr || key->is_null()) continue;
                out->emplace_back(key->AsString(), id);
              }
            });
      },
      &result.stats);

  // ---- Stage 2 (grid node): hash join + sort by score, keep top-k.
  ++result.stats.tasks;
  const bool joined = RunOnPool(grid_nodes_, &rr_grid_, [&] {
    const uint64_t start = NowMicros();
    std::map<std::string, model::DocId> dim_by_key;
    for (const auto& partial : partial_dims) {
      for (const auto& [key, id] : partial) {
        result.stats.bytes_shipped += key.size() + 8;
        ++result.stats.rows_shipped;
        dim_by_key.emplace(key, id);
      }
    }
    for (const auto& partial : partial_hits) {
      for (const Hit& hit : partial) {
        result.stats.bytes_shipped += hit.ref_value.size() + 16;
        ++result.stats.rows_shipped;
        auto match = dim_by_key.find(hit.ref_value);
        if (match == dim_by_key.end()) continue;
        result.matches.push_back(
            PipelineMatch{hit.doc, hit.score, match->second});
      }
    }
    std::sort(result.matches.begin(), result.matches.end(),
              [](const PipelineMatch& a, const PipelineMatch& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc < b.doc;
              });
    if (result.matches.size() > query.k) result.matches.resize(query.k);
    result.stats.grid_task_micros = NowMicros() - start;
  });
  if (!joined) {
    result.matches.clear();
    result.stats.degraded = true;
    ++result.stats.missing_partitions;
  }
  result.stats.critical_path_micros += result.stats.grid_task_micros;

  // ---- Stage 3 (cluster node): consistent updates — tag every matched
  // document under per-document locks, then apply on the holders.
  std::vector<model::DocId> to_update;
  ++result.stats.tasks;
  const bool coordinated = RunOnPool(cluster_nodes_, &rr_cluster_, [&] {
    const uint64_t start = NowMicros();
    for (const PipelineMatch& match : result.matches) {
      lock_acquisitions_.fetch_add(1);
      to_update.push_back(match.doc);
    }
    result.stats.critical_path_micros += NowMicros() - start;
  });
  if (!coordinated) {
    result.stats.degraded = true;
    ++result.stats.missing_partitions;
  }
  for (model::DocId id : to_update) {
    std::vector<Holder> holders;
    {
      std::lock_guard<std::mutex> lock(directory_mutex_);
      auto it = directory_.find(id);
      if (it == directory_.end()) continue;
      holders = it->second.holders;
    }
    bool updated = false;
    for (const Holder& holder : holders) {
      if (!HolderStillValid(holder.node, holder.epoch)) continue;
      const NodeId node_id = holder.node;
      std::shared_ptr<Partition> partition = PartitionFor(node_id);
      const std::string& tag = query.tag_name;
      bool applied = false;
      const TaskOutcome outcome =
          data_nodes_[node_id]->Run([partition, id, &tag, &applied] {
            auto it = partition->docs.find(id);
            if (it == partition->docs.end()) return;
            // Copy-on-write: other replicas share the old document, so
            // this node re-points its own copy at the tagged version.
            model::Document updated_doc = *it->second;
            updated_doc.version += 1;
            updated_doc.root.AddChild(tag, model::Value::Bool(true));
            partition->inverted.RemoveDocument(id);
            partition->inverted.AddDocument(id, updated_doc.Text());
            it->second =
                std::make_shared<const model::Document>(std::move(updated_doc));
            applied = true;
          });
      if (outcome == TaskOutcome::kExecuted && applied) updated = true;
      result.stats.bytes_shipped += query.tag_name.size() + 16;
    }
    if (updated) ++result.updates_applied;
  }
  AccountTraffic(result.stats);
  return result;
}

void SimulatedCluster::FailNode(NodeId id) {
  IMPLIANCE_CHECK(id < data_nodes_.size()) << "only data nodes can be failed";
  data_nodes_[id]->Fail();
}

void SimulatedCluster::RecoverNode(NodeId id) {
  IMPLIANCE_CHECK(id < data_nodes_.size());
  {
    // Rejoins empty: its previous contents were lost with the failure.
    // Swap under the slot mutex — readers copy this shared_ptr
    // concurrently, and an unsynchronized swap races with them.
    // The fresh partition belongs to the incarnation Fail advanced to, so
    // a store still holding the old one cannot pass for a valid holder.
    auto fresh = std::make_shared<Partition>();
    fresh->incarnation = data_nodes_[id]->epoch();
    std::lock_guard<std::mutex> lock(partitions_mutex_);
    partitions_[id] = std::move(fresh);
  }
  data_nodes_[id]->Recover();
  {
    std::lock_guard<std::mutex> lock(directory_mutex_);
    known_dead_.erase(id);
    InvalidateOwnershipLocked();
  }
}

std::vector<NodeId> SimulatedCluster::DetectFailures() {
  std::vector<NodeId> newly_dead;
  std::lock_guard<std::mutex> lock(directory_mutex_);
  for (const auto& node : data_nodes_) {
    if (!node->alive() && !known_dead_.count(node->id())) {
      newly_dead.push_back(node->id());
      known_dead_.insert(node->id());
    }
  }
  // Drop dead and stale holders from the directory so ownership fails
  // over. Stale = the node came back in a newer incarnation (rejoined
  // empty), so its old copies are gone even though it is alive.
  bool pruned = false;
  for (auto& [id, entry] : directory_) {
    const size_t before = entry.holders.size();
    entry.holders.erase(
        std::remove_if(entry.holders.begin(), entry.holders.end(),
                       [this](const Holder& holder) {
                         return !HolderStillValid(holder.node, holder.epoch);
                       }),
        entry.holders.end());
    pruned |= entry.holders.size() != before;
  }
  if (pruned || !newly_dead.empty()) InvalidateOwnershipLocked();
  return newly_dead;
}

SimulatedCluster::ReReplicateReport SimulatedCluster::ReReplicate() {
  ReReplicateReport report;
  // Snapshot the under-replicated ids; everything else about this pass is
  // decided against the live directory. The pre-pass holder/copy-count
  // snapshot used to drive the whole loop, which had two failure modes: a
  // source holder dying mid-pass left the doc under-replicated while the
  // stale `alive_copies` claimed completion, and a concurrent pass pushing
  // the same node into `holders` between our snapshot and our push
  // recorded one node twice for one document.
  std::vector<model::DocId> todo;
  {
    std::lock_guard<std::mutex> lock(directory_mutex_);
    for (const auto& [id, entry] : directory_) {
      size_t valid = 0;
      for (const Holder& holder : entry.holders) {
        if (HolderStillValid(holder.node, holder.epoch)) ++valid;
      }
      if (valid > 0 && valid < entry.desired) todo.push_back(id);
    }
  }
  for (model::DocId id : todo) {
    Result<DocPtr> doc = GetShared(id);
    if (!doc.ok()) {
      ++report.docs_unrestored;
      continue;
    }
    // Candidate targets: the partition table's preferred replicas first,
    // then the rest of the ring (PlaceReplicas with the full node count).
    const std::vector<NodeId> candidates =
        PlaceReplicas(id, data_nodes_.size());
    for (NodeId candidate : candidates) {
      {
        // Early-stop re-validated against the LIVE directory: a source
        // holder that died since the snapshot no longer counts.
        std::lock_guard<std::mutex> lock(directory_mutex_);
        auto it = directory_.find(id);
        if (it == directory_.end()) break;
        size_t valid = 0;
        bool candidate_holds = false;
        for (const Holder& holder : it->second.holders) {
          if (!HolderStillValid(holder.node, holder.epoch)) continue;
          ++valid;
          if (holder.node == candidate) candidate_holds = true;
        }
        if (valid >= it->second.desired) break;
        if (candidate_holds) continue;
      }
      if (!data_nodes_[candidate]->alive()) continue;
      // A copy counts only once the target acknowledged it — and only if
      // the target has not died (losing the copy) since the store ran.
      uint64_t epoch = 0;
      if (StoreOnNode(candidate, *doc, &epoch) != TaskOutcome::kExecuted) {
        continue;
      }
      report.bytes_copied += DocBytes(**doc);
      {
        std::lock_guard<std::mutex> lock(directory_mutex_);
        if (!HolderStillValid(candidate, epoch)) continue;
        auto it = directory_.find(id);
        if (it == directory_.end()) break;
        // Dedup by node UNDER the directory mutex: a concurrent pass (or a
        // stale entry from the candidate's previous incarnation) may
        // already list this node — refresh it in place, never push a
        // second entry for the same node.
        bool present = false;
        for (Holder& holder : it->second.holders) {
          if (holder.node == candidate) {
            holder.epoch = epoch;
            present = true;
            break;
          }
        }
        if (!present) it->second.holders.push_back(Holder{candidate, epoch});
        InvalidateOwnershipLocked();
      }
    }
    // Final verdict from the live directory, not the pass's bookkeeping.
    {
      std::lock_guard<std::mutex> lock(directory_mutex_);
      auto it = directory_.find(id);
      size_t valid = 0;
      size_t desired = 0;
      if (it != directory_.end()) {
        desired = it->second.desired;
        for (const Holder& holder : it->second.holders) {
          if (HolderStillValid(holder.node, holder.epoch)) ++valid;
        }
      }
      if (valid < desired) ++report.docs_unrestored;
    }
  }
  traffic_.bytes_shipped.fetch_add(report.bytes_copied,
                                   std::memory_order_relaxed);
  return report;
}

size_t SimulatedCluster::num_available_documents() const {
  std::lock_guard<std::mutex> lock(directory_mutex_);
  size_t available = 0;
  for (const auto& [id, entry] : directory_) {
    for (const Holder& holder : entry.holders) {
      if (HolderStillValid(holder.node, holder.epoch)) {
        ++available;
        break;
      }
    }
  }
  return available;
}

size_t SimulatedCluster::num_fully_replicated_documents() const {
  std::lock_guard<std::mutex> lock(directory_mutex_);
  size_t full = 0;
  for (const auto& [id, entry] : directory_) {
    size_t valid = 0;
    for (const Holder& holder : entry.holders) {
      if (HolderStillValid(holder.node, holder.epoch)) ++valid;
    }
    if (valid >= entry.desired) ++full;
  }
  return full;
}

// ----------------------------------------- Dynamic partition management

std::vector<SimulatedCluster::PartitionDesc> SimulatedCluster::PartitionTable()
    const {
  std::vector<PartitionDesc> table;
  std::lock_guard<std::mutex> lock(ptable_mutex_);
  table.reserve(ptable_.size());
  for (auto it = ptable_.begin(); it != ptable_.end(); ++it) {
    auto next = std::next(it);
    PartitionDesc desc;
    desc.pid = it->second.pid;
    desc.lo = it->first;
    desc.hi = next == ptable_.end() ? UINT64_MAX : next->first;
    desc.epoch = it->second.epoch;
    desc.replicas = it->second.replicas;
    desc.doc_count = it->second.doc_count;
    desc.traffic = it->second.traffic;
    table.push_back(std::move(desc));
  }
  return table;
}

bool SimulatedCluster::SplitPartition(PartitionId pid) {
  // Phase 1: snapshot the tablet's range. Not nested inside the directory
  // scan — lock order is ptable before directory, and holding both across
  // the scan would serialize ingest against splits for no benefit.
  uint64_t lo = 0;
  uint64_t hi_excl = 0;
  bool is_last = false;
  uint64_t epoch = 0;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    for (auto it = ptable_.begin(); it != ptable_.end(); ++it) {
      if (it->second.pid != pid) continue;
      auto next = std::next(it);
      lo = it->first;
      is_last = next == ptable_.end();
      hi_excl = is_last ? 0 : next->first;
      epoch = it->second.epoch;
      found = true;
      break;
    }
  }
  if (!found) return false;
  // Phase 2: collect the routed keys currently in the range. The split
  // point is the MEDIAN key, not the range midpoint — under sequential-key
  // skew every document sits in a sliver of the range and midpoint splits
  // would never separate them.
  std::vector<uint64_t> keys;
  {
    std::lock_guard<std::mutex> lock(directory_mutex_);
    for (const auto& [id, entry] : directory_) {
      const uint64_t key = RouteKey(id);
      if (key >= lo && (is_last || key < hi_excl)) keys.push_back(key);
    }
  }
  if (keys.size() < 2) return false;
  std::nth_element(keys.begin(), keys.begin() + keys.size() / 2, keys.end());
  uint64_t split = keys[keys.size() / 2];
  if (split <= lo) {
    // Median collapsed onto the lower bound (duplicate-heavy keys): use
    // the smallest key strictly above lo, if any distinct key exists.
    uint64_t best = 0;
    bool have = false;
    for (uint64_t key : keys) {
      if (key > lo && (!have || key < best)) {
        best = key;
        have = true;
      }
    }
    if (!have) return false;
    split = best;
  }
  size_t left_count = 0;
  for (uint64_t key : keys) {
    if (key < split) ++left_count;
  }
  // Phase 3: commit, re-validating that the tablet survived unchanged
  // (same pid and epoch at the same bound) while the locks were down.
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    auto it = ptable_.find(lo);
    if (it == ptable_.end() || it->second.pid != pid ||
        it->second.epoch != epoch) {
      return false;
    }
    if (ptable_.count(split)) return false;
    // Both children inherit the parent's replica targets (metadata-only
    // split; the balancer migrates a child later if load warrants) and
    // fresh ids — the parent id is retired so any concurrently-taken
    // balancer decision against the old tablet aborts.
    PartitionState right;
    right.pid = next_pid_++;
    right.replicas = it->second.replicas;
    right.doc_count = keys.size() - left_count;
    right.traffic = it->second.traffic / 2;
    it->second.pid = next_pid_++;
    it->second.epoch += 1;
    it->second.doc_count = left_count;
    it->second.traffic -= right.traffic;
    ptable_.emplace(split, std::move(right));
  }
  Metrics().splits->Increment();
  return true;
}

bool SimulatedCluster::MergeWithRightNeighbor(PartitionId pid) {
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    for (auto it = ptable_.begin(); it != ptable_.end(); ++it) {
      if (it->second.pid != pid) continue;
      auto right = std::next(it);
      if (right == ptable_.end()) return false;
      // Metadata-only: the survivor keeps the left tablet's id and replica
      // targets. Existing documents stay where the directory says they
      // are; new ingest routes to the survivor's targets and migration
      // converges the rest.
      it->second.doc_count += right->second.doc_count;
      it->second.traffic += right->second.traffic;
      it->second.epoch += 1;
      ptable_.erase(right);
      Metrics().merges->Increment();
      return true;
    }
  }
  return false;
}

size_t SimulatedCluster::MovePartitionReplica(PartitionId pid, NodeId from,
                                              NodeId to) {
  if (from == to || from >= data_nodes_.size() || to >= data_nodes_.size()) {
    return 0;
  }
  if (!data_nodes_[to]->alive()) return 0;
  // One migration at a time: a move runs blocking tasks on two node
  // mailboxes, and two concurrent opposite-direction moves could deadlock
  // each other's worker threads.
  std::lock_guard<std::mutex> move_lock(move_mutex_);
  uint64_t lo = 0;
  uint64_t hi_excl = 0;
  bool is_last = false;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    for (auto it = ptable_.begin(); it != ptable_.end(); ++it) {
      if (it->second.pid != pid) continue;
      auto next = std::next(it);
      lo = it->first;
      is_last = next == ptable_.end();
      hi_excl = is_last ? 0 : next->first;
      found = true;
      break;
    }
  }
  if (!found) return 0;
  // Documents in the range with a live copy on `from` and none on `to`
  // (moving a doc the target already replicates would either drop a
  // distinct copy or plant a duplicate-holder entry).
  std::vector<model::DocId> ids;
  {
    std::lock_guard<std::mutex> lock(directory_mutex_);
    for (const auto& [id, entry] : directory_) {
      const uint64_t key = RouteKey(id);
      if (key < lo || (!is_last && key >= hi_excl)) continue;
      bool on_from = false;
      bool on_to = false;
      for (const Holder& holder : entry.holders) {
        if (!HolderStillValid(holder.node, holder.epoch)) continue;
        if (holder.node == from) on_from = true;
        if (holder.node == to) on_to = true;
      }
      if (on_from && !on_to) ids.push_back(id);
    }
  }
  uint64_t bytes = 0;
  const std::vector<MovedCopy> moved = CopyAndSwap(ids, from, to, &bytes);
  bytes += DeleteMovedCopies(from, to, moved);
  // Re-point the tablet's preferred targets so future ingest routes to
  // the new home, and bump the partition epoch.
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    for (auto& [bound, state] : ptable_) {
      if (state.pid != pid) continue;
      const bool has_to = std::find(state.replicas.begin(),
                                    state.replicas.end(),
                                    to) != state.replicas.end();
      auto from_it =
          std::find(state.replicas.begin(), state.replicas.end(), from);
      if (from_it != state.replicas.end()) {
        if (has_to) {
          state.replicas.erase(from_it);
        } else {
          *from_it = to;
        }
      }
      state.epoch += 1;
      break;
    }
  }
  if (!moved.empty()) {
    Metrics().moves->Increment();
    Metrics().docs_moved->Increment(moved.size());
    traffic_.bytes_shipped.fetch_add(bytes, std::memory_order_relaxed);
  }
  return moved.size();
}

std::vector<SimulatedCluster::MovedCopy> SimulatedCluster::CopyAndSwap(
    const std::vector<model::DocId>& ids, NodeId from, NodeId to,
    uint64_t* bytes) {
  std::vector<MovedCopy> moved;
  for (model::DocId id : ids) {
    Result<DocPtr> doc = GetShared(id);
    if (!doc.ok()) continue;
    uint64_t epoch_to = 0;
    if (StoreOnNode(to, *doc, &epoch_to) != TaskOutcome::kExecuted) continue;
    bool committed = false;
    uint64_t swapped_at = 0;
    {
      // Directory swap under the mutex with PR 3's epoch validity checks:
      // a target that died between copy and commit is not recorded, and a
      // holder entry for `to` that appeared concurrently (ReReplicate)
      // means the swap would mint a duplicate — skip the doc instead.
      std::lock_guard<std::mutex> lock(directory_mutex_);
      if (HolderStillValid(to, epoch_to)) {
        auto it = directory_.find(id);
        if (it != directory_.end()) {
          bool to_already_listed = false;
          for (const Holder& holder : it->second.holders) {
            if (holder.node == to &&
                HolderStillValid(holder.node, holder.epoch)) {
              to_already_listed = true;
              break;
            }
          }
          if (!to_already_listed) {
            for (Holder& holder : it->second.holders) {
              if (holder.node == from) {
                // Swap in place: the new home inherits the slot (and with
                // it primary-ness) of the old one.
                holder.node = to;
                holder.epoch = epoch_to;
                committed = true;
                break;
              }
            }
          }
        }
        if (committed) {
          InvalidateOwnershipLocked();
          swapped_at = placement_clock_.load();
        }
      }
    }
    // Uncommitted copies are harmless: the directory never references
    // them, so no query routes there, and the source keeps serving.
    if (!committed) continue;
    moved.push_back(MovedCopy{id, (*doc)->version, swapped_at});
    *bytes += DocBytes(**doc);
  }
  return moved;
}

uint64_t SimulatedCluster::DeleteMovedCopies(
    NodeId from, NodeId to, const std::vector<MovedCopy>& moved) {
  if (moved.empty()) return 0;
  // Delete the source bytes on the source node's own mailbox thread —
  // serialized with every scatter task against that node, so an in-flight
  // query either ran before (bytes still there) or after (the stray-
  // document check re-routes through the directory, which already points
  // at the new home). Version-checked: a concurrent update that landed on
  // the source after our copy is carried to the new home below, never
  // silently lost.
  //
  // A copy is erased only while no holder the directory lists can name it,
  // so a valid holder always has its bytes (the invariant the scatter's
  // probe-free fast path and CheckIntegrity's audit rely on). Spared: a
  // document the directory lists on `from` again (an ingest that stored
  // there before the swap and has committed since), and a copy stamped at
  // or after `keep_from` — placed after the swap (re-replication, or an
  // ingest that picked `from` again) or by an ingest whose commit is still
  // pending. The pending stores are read before the directory: a batch
  // that commits in between was pending at the first read, and one that
  // starts after it stamps its copies after the swap.
  uint64_t oldest_pending = UINT64_MAX;
  std::vector<MovedCopy> unlisted;
  {
    std::lock_guard<std::mutex> ptable_lock(ptable_mutex_);
    if (!pending_stores_.empty()) oldest_pending = *pending_stores_.begin();
    std::lock_guard<std::mutex> lock(directory_mutex_);
    for (const MovedCopy& m : moved) {
      bool listed = false;
      auto it = directory_.find(m.id);
      if (it != directory_.end()) {
        for (const Holder& holder : it->second.holders) {
          if (holder.node == from &&
              HolderStillValid(holder.node, holder.epoch)) {
            listed = true;
            break;
          }
        }
      }
      if (!listed) unlisted.push_back(m);
    }
  }
  std::shared_ptr<Partition> partition = PartitionFor(from);
  std::vector<DocPtr> dirty;
  data_nodes_[from]->Run([&partition, &unlisted, &dirty, oldest_pending] {
    for (const MovedCopy& m : unlisted) {
      auto it = partition->docs.find(m.id);
      if (it == partition->docs.end()) continue;
      if (it->second->version != m.version) dirty.push_back(it->second);
      const uint64_t keep_from = std::min(m.swapped_at, oldest_pending);
      auto placed = partition->placed.find(m.id);
      if (placed != partition->placed.end() && placed->second >= keep_from) {
        continue;
      }
      partition->Erase(m.id);
    }
  });
  {
    // A snapshot built before the delete read `from`'s old removal count,
    // and every check against it would keep probing `from`.
    std::lock_guard<std::mutex> lock(directory_mutex_);
    InvalidateOwnershipLocked();
  }
  uint64_t bytes = 0;
  for (const DocPtr& newer : dirty) {
    uint64_t epoch_to = 0;
    if (StoreOnNode(to, newer, &epoch_to) != TaskOutcome::kExecuted) {
      continue;
    }
    bytes += DocBytes(*newer);
    std::lock_guard<std::mutex> lock(directory_mutex_);
    auto it = directory_.find(newer->id);
    if (it == directory_.end()) continue;
    for (Holder& holder : it->second.holders) {
      if (holder.node == to) {
        holder.epoch = epoch_to;
        break;
      }
    }
    InvalidateOwnershipLocked();
  }
  return bytes;
}

SimulatedCluster::RebalanceReport SimulatedCluster::RebalanceOnce() {
  obs::ScopedSpan span("cluster.balancer.pass");
  RebalanceReport report;
  // ---- Split hot tablets (size or traffic over threshold).
  if (options_.split_doc_threshold > 0 ||
      options_.split_traffic_threshold > 0) {
    for (const PartitionDesc& desc : PartitionTable()) {
      const bool size_hot = options_.split_doc_threshold > 0 &&
                            desc.doc_count >= options_.split_doc_threshold;
      const bool traffic_hot =
          options_.split_traffic_threshold > 0 &&
          desc.traffic >= options_.split_traffic_threshold;
      if ((size_hot || traffic_hot) && SplitPartition(desc.pid)) {
        ++report.splits;
      }
    }
  }
  // ---- Merge cold neighbors.
  if (options_.merge_doc_threshold > 0) {
    const std::vector<PartitionDesc> table = PartitionTable();
    for (size_t i = 0; i + 1 < table.size(); ++i) {
      if (table[i].doc_count + table[i + 1].doc_count <=
          options_.merge_doc_threshold) {
        if (MergeWithRightNeighbor(table[i].pid)) {
          ++report.merges;
          ++i;  // the right neighbor is gone; its row is stale
        }
      }
    }
  }
  // ---- Migrate load off hot nodes: policy in Scheduler::PickMove, best-
  // fit tablet choice here (the swap_defragmentator idea — prefer the
  // largest migration that does not overshoot the hot node's excess).
  for (size_t step = 0; step < options_.max_moves_per_pass; ++step) {
    std::shared_ptr<const OwnershipSnapshot> snapshot = OwnershipByNode();
    const std::vector<PartitionDesc> table = PartitionTable();
    if (table.empty()) break;
    std::vector<uint64_t> bounds;
    bounds.reserve(table.size());
    for (const PartitionDesc& desc : table) bounds.push_back(desc.lo);
    std::vector<Scheduler::NodeLoad> loads;
    std::map<NodeId, size_t> load_index;
    for (const auto& node : data_nodes_) {
      if (!node->alive()) continue;
      load_index[node->id()] = loads.size();
      loads.push_back(Scheduler::NodeLoad{node->id(), 0});
    }
    // Owned docs per (tablet, node): the measured load picture.
    std::map<std::pair<size_t, NodeId>, size_t> owned_by;
    for (const auto& [node, docs] : snapshot->by_node) {
      auto li = load_index.find(node);
      if (li == load_index.end()) continue;
      loads[li->second].owned_docs += docs.size();
      for (model::DocId id : docs) {
        const uint64_t key = RouteKey(id);
        const size_t slot =
            std::upper_bound(bounds.begin(), bounds.end(), key) -
            bounds.begin() - 1;
        ++owned_by[{slot, node}];
      }
    }
    const Scheduler::MoveChoice choice =
        scheduler_.PickMove(loads, options_.balance_tolerance);
    if (!choice.move) break;
    // Best-fit: largest tablet share on the hot node that fits within the
    // excess; if none fits, the smallest share overall (minimal overshoot).
    size_t best_slot = table.size();
    size_t best_count = 0;
    bool best_within = false;
    for (const auto& [slot_node, count] : owned_by) {
      if (slot_node.second != choice.hot || count == 0) continue;
      const bool within = count <= choice.excess;
      const bool better =
          best_slot == table.size() ||
          (within && (!best_within || count > best_count)) ||
          (!within && !best_within && count < best_count);
      if (better) {
        best_slot = slot_node.first;
        best_count = count;
        best_within = within;
      }
    }
    if (best_slot == table.size()) break;
    const size_t docs_moved =
        MovePartitionReplica(table[best_slot].pid, choice.hot, choice.cold);
    if (docs_moved == 0) break;  // could not act; do not spin this pass
    ++report.moves;
    report.docs_moved += docs_moved;
  }
  // ---- Decay traffic counters so the signal tracks recent load.
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    for (auto& [bound, state] : ptable_) state.traffic /= 2;
  }
  balancer_passes_.fetch_add(1);
  Metrics().balancer_passes->Increment();
  return report;
}

void SimulatedCluster::StartBalancer(uint64_t interval_ms) {
  std::lock_guard<std::mutex> lock(balancer_mutex_);
  if (balancer_thread_.joinable()) return;  // already running
  balancer_stop_ = false;
  balancer_running_.store(true);
  balancer_thread_ =
      std::thread([this, interval_ms] { BalancerLoop(interval_ms); });
}

void SimulatedCluster::StopBalancer() {
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(balancer_mutex_);
    if (!balancer_thread_.joinable()) return;
    balancer_stop_ = true;
    worker = std::move(balancer_thread_);
  }
  balancer_cv_.notify_all();
  worker.join();
  balancer_running_.store(false);
}

bool SimulatedCluster::balancer_running() const {
  return balancer_running_.load();
}

void SimulatedCluster::BalancerLoop(uint64_t interval_ms) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(balancer_mutex_);
      balancer_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                            [this] { return balancer_stop_; });
      if (balancer_stop_) return;
    }
    RebalanceOnce();
  }
}

SimulatedCluster::IntegrityReport SimulatedCluster::CheckIntegrity() const {
  IntegrityReport report;
  {
    std::lock_guard<std::mutex> lock(directory_mutex_);
    // Each data node's valid holdings per the directory, and the
    // incarnation they were stored in.
    std::vector<std::vector<model::DocId>> listed(data_nodes_.size());
    std::vector<uint64_t> epochs(data_nodes_.size());
    for (const auto& [id, entry] : directory_) {
      std::set<NodeId> seen;
      bool duplicate = false;
      for (const Holder& holder : entry.holders) {
        if (!seen.insert(holder.node).second) duplicate = true;
        if (HolderStillValid(holder.node, holder.epoch)) {
          listed[holder.node].push_back(id);
          epochs[holder.node] = holder.epoch;
        }
      }
      if (duplicate) ++report.duplicate_holders;
    }
    // Physical audit on each holder's own mailbox, all nodes at once. The
    // directory mutex stays held so no holder is added or swapped away
    // mid-audit; no data-node task takes it, so the wait cannot deadlock.
    // A node that dies (or rejoins empty) before its audit runs holds
    // nothing valid to audit.
    struct Audit {
      std::future<TaskOutcome> outcome;
      size_t absent = 0;
    };
    std::deque<Audit> audits;
    for (NodeId node = 0; node < data_nodes_.size(); ++node) {
      if (listed[node].empty()) continue;
      Audit& audit = audits.emplace_back();
      data_nodes_[node]->Submit(
          [partition = PartitionFor(node), epoch = epochs[node],
           ids = &listed[node], absent = &audit.absent] {
            if (partition->incarnation != epoch) return;
            for (model::DocId id : *ids) {
              if (!partition->placed.contains(id)) ++*absent;
            }
          },
          &audit.outcome);
    }
    for (Audit& audit : audits) {
      if (audit.outcome.get() == TaskOutcome::kExecuted) {
        report.directory_phantoms += audit.absent;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    if (ptable_.empty() || ptable_.begin()->first != 0) {
      ++report.table_coverage_violations;
    }
    std::set<PartitionId> pids;
    for (const auto& [bound, state] : ptable_) {
      if (!pids.insert(state.pid).second) ++report.duplicate_partition_ids;
      if (state.replicas.empty()) ++report.empty_replica_sets;
      std::set<NodeId> targets;
      for (NodeId node : state.replicas) {
        if (node >= data_nodes_.size() || !targets.insert(node).second) {
          ++report.invalid_replica_targets;
        }
      }
    }
  }
  return report;
}

double SimulatedCluster::OwnershipSpread() const {
  const std::map<NodeId, size_t> counts = OwnedCounts();
  size_t alive = 0;
  size_t total = 0;
  size_t max_owned = 0;
  for (const auto& node : data_nodes_) {
    if (!node->alive()) continue;
    ++alive;
    auto it = counts.find(node->id());
    const size_t owned = it == counts.end() ? 0 : it->second;
    total += owned;
    max_owned = std::max(max_owned, owned);
  }
  if (alive == 0 || total == 0) return 1.0;
  const double mean = static_cast<double>(total) / alive;
  return static_cast<double>(max_owned) / mean;
}

std::map<NodeId, size_t> SimulatedCluster::OwnedCounts() const {
  std::map<NodeId, size_t> counts;
  for (const auto& [node, owned] : OwnershipByNode()->by_node) {
    counts[node] = owned.size();
  }
  return counts;
}

size_t SimulatedCluster::num_data_nodes_alive() const {
  size_t alive = 0;
  for (const auto& node : data_nodes_) {
    if (node->alive()) ++alive;
  }
  return alive;
}

}  // namespace impliance::cluster
