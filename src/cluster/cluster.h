#ifndef IMPLIANCE_CLUSTER_CLUSTER_H_
#define IMPLIANCE_CLUSTER_CLUSTER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/node.h"
#include "cluster/scheduler.h"
#include "common/result.h"
#include "discovery/annotator.h"
#include "exec/predicate.h"
#include "index/inverted_index.h"
#include "model/document.h"

namespace impliance::cluster {

// Per-query data-movement accounting, the measurable half of the pushdown
// and scale-out experiments — plus the result-completeness contract: a
// query result is either complete or carries degraded=true with a nonzero
// missing count. Silent partial results are a bug by definition.
struct ShipStats {
  uint64_t bytes_shipped = 0;
  uint64_t rows_shipped = 0;
  uint64_t tasks = 0;
  // Partition tasks whose work was re-routed to a surviving replica
  // holder after the original node lost them — or to a partition's new
  // home after the balancer migrated it mid-query.
  uint64_t failovers = 0;
  // Documents whose contribution is known missing from the result (no
  // surviving replica, or failover rounds exhausted), counted per
  // document across every failure mode. A lost gather/coordinator task —
  // the whole merged result, not any one document — counts as 1.
  // Nonzero iff degraded.
  uint64_t missing_partitions = 0;
  // True when the result is known to be incomplete.
  bool degraded = false;
  // Modeled parallel latency: per phase, the slowest node's task duration,
  // summed across phases (bulk-synchronous critical path). On hosts with
  // fewer cores than simulated nodes, wall-clock time serializes node work
  // and says nothing about appliance latency; this does.
  uint64_t critical_path_micros = 0;
  // Duration of the gather/merge task on the grid node (for grid-scaling
  // throughput models).
  uint64_t grid_task_micros = 0;
};

// Identifier of one dynamic partition (tablet). Stable across splits of
// *other* partitions; a split retires the parent id and mints two new ones,
// a merge retires the right id.
using PartitionId = uint32_t;

// One Impliance instance: data nodes own dynamically partitioned document
// storage with local full-text indexes; grid nodes merge/join/aggregate;
// cluster nodes coordinate consistent updates (annotation persistence)
// through a lock table. Clients see a single system image — this class
// (Section 3.3). Placement is governed by an explicit partition table of
// routing-key ranges (tablets) that the autonomic balancer splits, merges,
// and migrates between nodes as load shifts (Section 3.4).
class SimulatedCluster {
 public:
  struct Options {
    size_t num_data_nodes = 4;
    size_t num_grid_nodes = 2;
    size_t num_cluster_nodes = 1;
    size_t replication = 1;  // copies per document

    // ---- Dynamic partition management (Section 3.4 storage management).
    // Tablets carved at construction: this many per data node, equal-width
    // ranges of the routing-key space, targets assigned round-robin.
    size_t initial_partitions_per_node = 1;
    // false: route documents by Mix64(id) — uniform, skew-resistant, the
    // classic hash ring. true: route by raw id — order-preserving
    // (key-range tablets), so sequential ingest concentrates in the
    // hottest tablet and exercises split/migrate exactly like a growing
    // real-world corpus.
    bool key_range_partitioning = false;
    // A partition whose routed-document count reaches this splits at its
    // median key on the next balancer pass. 0 = never split.
    size_t split_doc_threshold = 0;
    // Adjacent partitions whose combined count is at or below this merge
    // on the next balancer pass. 0 = never merge.
    size_t merge_doc_threshold = 0;
    // A partition whose point-op traffic counter (ingests + gets since the
    // last decay) reaches this also splits, independent of size — hot
    // small tablets get spread too. 0 = ignore traffic.
    uint64_t split_traffic_threshold = 0;
    // The balancer moves partitions off a node while its owned-document
    // count exceeds tolerance * mean; per pass it performs at most
    // max_moves_per_pass migrations.
    double balance_tolerance = 1.25;
    size_t max_moves_per_pass = 4;
  };

  explicit SimulatedCluster(const Options& options);
  ~SimulatedCluster();

  SimulatedCluster(const SimulatedCluster&) = delete;
  SimulatedCluster& operator=(const SimulatedCluster&) = delete;

  // ------------------------------------------------------------- Ingest

  // Outcome of one ingested batch.
  struct BatchIngest {
    std::vector<model::DocId> ids;       // assigned ids, in input order
    // Documents no replica target acknowledged: they have no directory
    // entry, so no distributed query serves them.
    std::vector<model::DocId> unplaced;
  };
  // Stores every document of `docs` on `copies` data nodes (0 = the
  // cluster default) and assigns ids (a pre-set nonzero doc.id is honored,
  // so a fronting store can mirror documents under its own ids). The batch
  // costs one mailbox task per owning data node, all submitted before any
  // is awaited, and one directory commit. The replicas of a document share
  // one immutable copy. Only nodes that positively acknowledged the store,
  // and are still in the incarnation they stored it in, are recorded as
  // holders. Per-class copy counts are the storage manager's policy lever
  // (Section 3.4).
  BatchIngest IngestBatch(std::vector<model::Document> docs, size_t copies = 0);
  // A batch of one: the document's id, or IOError when no replica target
  // acknowledged it.
  Result<model::DocId> Ingest(model::Document doc, size_t copies = 0);

  Result<model::Document> Get(model::DocId id) const;

  size_t num_documents() const;

  // -------------------------------------------------------------- Query

  // Scatter-gather BM25 top-k: each data node searches the documents it
  // currently owns; a grid node merges the partial top-k lists.
  std::vector<index::InvertedIndex::SearchResult> KeywordSearch(
      const std::string& query, size_t k, ShipStats* stats = nullptr);

  // Failure-aware availability check: one task per owning data node
  // verifies its incarnation and the presence of its assigned documents
  // (ScatterWithFailover's own checks), with lost tasks failing over to
  // replica holders like any other scatter. Returns the documents in the
  // directory that the blades cannot serve — orphans with no valid holder,
  // documents no failover could place, and the final round's residual
  // losses — or nullptr when every document can be served. A distributed
  // facet/SQL query reads everything else; the excluded documents are
  // reported through `stats` (degraded + missing_partitions, which equals
  // the set's size) instead of being silently dropped — the mechanism that
  // extends the complete-or-degraded contract beyond keyword search.
  // Costs O(nodes + missing documents) on the caller, O(1) per assigned
  // document on the blades.
  std::shared_ptr<const std::unordered_set<model::DocId>> AvailableDocs(
      ShipStats* stats = nullptr);

  // Distributed filter + group-by aggregate over documents of `kind`.
  struct AggQuery {
    std::string kind;
    std::string filter_path;  // empty = no filter
    exec::CompareOp op = exec::CompareOp::kEq;
    model::Value literal;
    std::string group_path;   // empty = single global group ""
    std::string agg_path;     // empty = COUNT, else SUM of this path
  };
  struct AggResult {
    std::map<std::string, double> groups;  // group value -> aggregate
    ShipStats stats;
  };
  // With `pushdown`, data nodes filter and pre-aggregate locally and ship
  // tiny partial states; without, they ship whole documents to a grid node
  // which does all the work (Section 3.1's motivating contrast).
  AggResult FilterAggregate(const AggQuery& query, bool pushdown);

  // Scheduler-driven variant: samples node queue depths and lets the
  // Scheduler decide whether predicate work runs pushed-down on data
  // nodes or shipped to the grid (Section 3.4 execution management).
  struct AutoAggResult {
    AggResult result;
    Scheduler::Decision decision;
  };
  AutoAggResult FilterAggregateAuto(const AggQuery& query);

  // ------------------------------------------- Figure 3 pipeline example

  // The paper's canonical parallel query: "full-text index search on a set
  // of data nodes, which then send the reduced data to a set of grid nodes
  // for joining, sorting, and group-wise aggregation, the results of which
  // are sent to a set of cluster nodes to drive a set of updates."
  struct PipelineQuery {
    std::string keywords;      // stage 1: full-text search on data nodes
    size_t k = 10;             // matches to process
    std::string left_ref_path; // path in matched docs referencing the dim
    std::string dim_kind;      // stage 2: join against this kind
    std::string dim_key_path;  // key path in dimension documents
    std::string tag_name;      // stage 3: child appended to matched docs
  };
  struct PipelineMatch {
    model::DocId doc = model::kInvalidDocId;
    double score = 0;
    model::DocId dim_doc = model::kInvalidDocId;  // joined dimension doc
  };
  struct PipelineResult {
    std::vector<PipelineMatch> matches;  // sorted by score desc
    size_t updates_applied = 0;
    ShipStats stats;
  };
  PipelineResult SearchJoinUpdate(const PipelineQuery& query);

  // ---------------------------------------------------------- Discovery

  // One distributed annotation pass (Section 3.3's three-phase flow):
  // data nodes run `annotator` on owned documents of `kind` (empty = all),
  // ship annotation documents to a cluster node, which assigns ids, takes
  // per-base-document locks, and persists them back onto data nodes.
  // Returns the number of annotation documents created.
  size_t RunAnnotationPass(const discovery::Annotator& annotator,
                           const std::string& kind = "",
                           ShipStats* stats = nullptr);

  // --------------------------------------------------------- Membership

  void FailNode(NodeId id);
  // Node rejoins with empty storage.
  void RecoverNode(NodeId id);

  // Failure detector: returns nodes newly detected dead since the last
  // call and removes them from the ownership directory.
  std::vector<NodeId> DetectFailures();

  // Restores `replication` copies of every under-replicated document by
  // copying from surviving holders. Copy counts and early-stops are
  // validated against the *live* directory (not the pass's snapshot), so a
  // source holder dying mid-pass cannot fake completion, and a node is
  // never recorded as a holder twice for one document.
  struct ReReplicateReport {
    uint64_t bytes_copied = 0;
    // Documents the pass attempted but could not bring back to their
    // desired copy count (no capacity, targets kept dying, or a source
    // holder died mid-pass). Nonzero means the cluster is still exposed.
    size_t docs_unrestored = 0;
  };
  ReReplicateReport ReReplicate();

  // Documents whose replica chain has at least one alive holder / exactly
  // `replication` alive holders.
  size_t num_available_documents() const;
  size_t num_fully_replicated_documents() const;

  // --------------------------------------- Dynamic partition management

  // One row of the partition table: a half-open routing-key range
  // [lo, hi) — hi of the last partition is reported as UINT64_MAX and the
  // range is inclusive there — with its preferred replica targets
  // (primary first) and policy counters.
  struct PartitionDesc {
    PartitionId pid = 0;
    uint64_t lo = 0;
    uint64_t hi = 0;
    // Partition epoch: bumped by split/merge/migration so a balancer
    // decision taken against a stale view of the tablet aborts instead of
    // committing against a different range or home.
    uint64_t epoch = 0;
    std::vector<NodeId> replicas;
    uint64_t doc_count = 0;
    uint64_t traffic = 0;  // point ops (ingest/get) since last decay
  };
  std::vector<PartitionDesc> PartitionTable() const;

  // Splits the partition at the median routed key of its current
  // documents (range midpoints are useless under sequential-key skew).
  // Metadata-only: both children keep the parent's replica targets, so no
  // data moves; the balancer migrates a child later if load warrants.
  // Returns false when the partition vanished (merged/split concurrently)
  // or holds fewer than two distinct keys.
  bool SplitPartition(PartitionId pid);

  // Merges the partition with its right neighbor (metadata-only; the
  // survivor keeps the left partition's id and replica targets — existing
  // documents stay where the directory says they are, new ingest routes
  // to the survivor's targets, and migration converges the rest).
  // Returns false when the partition vanished or has no right neighbor.
  bool MergeWithRightNeighbor(PartitionId pid);

  // Migrates one replica of a partition: every document in the partition's
  // range currently held by `from` is copied to `to`, the directory entry
  // is swapped under the directory mutex with PR 3's incarnation-epoch
  // validity checks (a target that died between copy and commit is not
  // recorded), and the source bytes are deleted afterwards with a
  // version re-check so a concurrent update is re-copied, not lost. An
  // in-flight scatter routed at the old holder either finds the bytes
  // still there (delete not yet applied) or detects the absence and
  // re-routes through the directory to the new home — never a silently
  // half-moved partition. Returns the number of documents moved.
  size_t MovePartitionReplica(PartitionId pid, NodeId from, NodeId to);

  // One autonomic balancing pass: split every partition over the
  // size/traffic thresholds, merge cold neighbors, then migrate
  // partitions off nodes whose owned-document count exceeds
  // balance_tolerance * mean (policy kernel in Scheduler::PickMove),
  // at most max_moves_per_pass moves. Also decays traffic counters.
  struct RebalanceReport {
    size_t splits = 0;
    size_t merges = 0;
    size_t moves = 0;
    size_t docs_moved = 0;
  };
  RebalanceReport RebalanceOnce();

  // Background balancer loop (the storage-management half of Section
  // 3.4's "autonomic management"): RebalanceOnce every `interval_ms`
  // until StopBalancer. Idempotent; the destructor stops it.
  void StartBalancer(uint64_t interval_ms);
  void StopBalancer();
  bool balancer_running() const;
  uint64_t balancer_passes() const { return balancer_passes_.load(); }

  // Structural invariants, checked on demand by chaos tests and the
  // rebalance bench after every step: the directory never lists one node
  // twice for a document, and the partition table is a gapless,
  // non-overlapping cover of the routing-key space with valid, distinct
  // replica targets.
  struct IntegrityReport {
    size_t duplicate_holders = 0;      // docs listing one node >= twice
    size_t table_coverage_violations = 0;  // first range does not start at 0
    size_t duplicate_partition_ids = 0;
    size_t empty_replica_sets = 0;
    size_t invalid_replica_targets = 0;  // out of range or listed twice
    bool ok() const {
      return duplicate_holders == 0 && table_coverage_violations == 0 &&
             duplicate_partition_ids == 0 && empty_replica_sets == 0 &&
             invalid_replica_targets == 0;
    }
  };
  IntegrityReport CheckIntegrity() const;

  // ------------------------------------------------------------- Stats

  size_t num_data_nodes_alive() const;
  // Documents currently owned (served) per data node.
  std::map<NodeId, size_t> OwnedCounts() const;
  // max(owned)/mean(owned) across alive data nodes — the balancer's hot-
  // node signal and E22's headline metric. 1.0 = perfectly even.
  double OwnershipSpread() const;
  const std::vector<std::unique_ptr<Node>>& data_nodes() const {
    return data_nodes_;
  }
  uint64_t total_lock_acquisitions() const { return lock_acquisitions_.load(); }
  ShipStats lifetime_traffic() const;

 private:
  using DocPtr = std::shared_ptr<const model::Document>;

  struct Partition {
    // Only the owning node's thread touches this (all access is routed
    // through Node::Run), except bulk copies during re-replication which
    // take the directory mutex first. Held by shared_ptr: node recovery
    // swaps in a fresh partition, and a task still running against the old
    // incarnation must keep its (doomed, epoch-checked) object alive.
    // Documents are immutable and shared by every replica (and by the
    // batch that stored them); an update replaces this node's pointer.
    std::map<model::DocId, DocPtr> docs;
    // Placement stamp (placement_clock_ at store time) of each doc's copy,
    // so a migration deletes only the copy it moved, never one a later
    // re-replication or ingest placed here. Has exactly the keys of `docs`
    // and is never iterated, so it doubles as the O(1) presence probe of
    // every scatter task.
    std::unordered_map<model::DocId, uint64_t> placed;
    index::InvertedIndex inverted;
    // The node's incarnation (Node::epoch) this partition was created in:
    // bytes stored here survive only while the node stays in it.
    uint64_t incarnation = 0;
  };

  // A replica location is a (node, incarnation) pair: bytes stored on a
  // node are gone once its epoch advances (fail + rejoin-empty), so a bare
  // NodeId cannot say whether the copy still exists.
  struct Holder {
    NodeId node;
    uint64_t epoch;
  };

  // One dynamic partition (tablet) of the routing-key space. Keyed in
  // ptable_ by its inclusive lower bound; the range extends to the next
  // entry's bound (the last tablet covers the tail of the key space).
  struct PartitionState {
    PartitionId pid = 0;
    uint64_t epoch = 0;
    std::vector<NodeId> replicas;  // preferred targets, primary first
    uint64_t doc_count = 0;        // routed documents (policy signal)
    uint64_t traffic = 0;          // point ops since last decay
  };

  // Runs `fn` on an alive node of `pool`, retrying on another member when
  // the chosen node drops the task (it never ran, so re-submitting is
  // safe). Returns false when no member executed it.
  bool RunOnPool(const std::vector<std::unique_ptr<Node>>& pool,
                 std::atomic<uint64_t>* rr, const std::function<void()>& fn);

  // One unit of scatter work: run something over `docs` on `node`, which
  // must still be in incarnation `epoch` when the task runs — otherwise
  // the partition no longer holds these documents and the task must be
  // treated as lost, not as an (empty) success.
  struct PartitionAssignment {
    NodeId node;
    uint64_t epoch;
    std::shared_ptr<const std::set<model::DocId>> docs;
  };
  // Failure-aware scatter: submits one task per owning data node (built by
  // `make_task`, which must allocate its own output slot and may be called
  // again for failover attempts), waits for every outcome, and re-routes
  // the work of lost tasks to surviving replica holders of the affected
  // documents — bounded rounds, after which the loss is recorded in
  // `stats` (degraded + missing_partitions) instead of being silently
  // omitted. Documents that already have no alive holder at snapshot time
  // are counted as missing up front. On the node, each task first checks
  // the node's incarnation, then probes every assigned document in the
  // partition's `placed` hash map: any document physically absent (the
  // balancer migrated it between snapshot and execution) is re-routed
  // through the live directory instead of silently serving a hole. The
  // request's trace is attached while the task runs, so spans the work
  // opens on the node land in the request's trace. Every document counted
  // missing is appended to `missing` when it is non-null. Updates
  // tasks/failovers/critical_path_micros in `stats`.
  void ScatterWithFailover(
      const std::function<std::function<void()>(
          NodeId node, std::shared_ptr<const std::set<model::DocId>> docs)>&
          make_task,
      ShipStats* stats, std::vector<model::DocId>* missing = nullptr);
  // Regroups the documents of `lost` assignments by surviving holder
  // (consulting the directory, which DetectFailures has just pruned).
  // Documents with no alive holder increment stats->missing_partitions and
  // are appended to `missing` when it is non-null.
  std::vector<PartitionAssignment> RerouteLost(
      const std::vector<PartitionAssignment>& lost, ShipStats* stats,
      std::vector<model::DocId>* missing) const;
  // First valid holder of each document (ownership map), grouped by node.
  // Cached (routing tables change only on ingest/membership events) and
  // rebuilt lazily; returned as a shared snapshot so queries can hold it
  // while node tasks run. `epochs` records each owning node's incarnation
  // at snapshot time — scatter tasks verify it before trusting partition
  // contents. `orphans` lists the documents with no valid holder in the
  // same directory snapshot: data the cluster knows it cannot serve.
  using OwnershipMap = std::map<NodeId, std::set<model::DocId>>;
  struct OwnershipSnapshot {
    OwnershipMap by_node;
    std::map<NodeId, uint64_t> epochs;
    std::vector<model::DocId> orphans;
  };
  std::shared_ptr<const OwnershipSnapshot> OwnershipByNode() const;
  void InvalidateOwnershipLocked() const { ownership_cache_.reset(); }

  // The key a document routes by: its Mix64 hash (uniform) or its raw id
  // (key-range mode). The partition table partitions this key space.
  uint64_t RouteKey(model::DocId id) const;
  // The tablet `id` routes to. Caller holds ptable_mutex_.
  PartitionState& RoutedPartitionLocked(model::DocId id) const;
  // Placement policy: the routing partition's replica targets (primary
  // first), extended ring-wise past the table's targets when a caller
  // wants more copies than the tablet is configured with. The Locked
  // variant expects ptable_mutex_ held.
  std::vector<NodeId> PlaceReplicas(model::DocId id, size_t copies) const;
  std::vector<NodeId> PlaceReplicasLocked(model::DocId id, size_t copies) const;
  // Stores `docs` (ids already assigned) on their placed replicas and
  // records acked, still-epoch-valid holders in the directory — the single
  // placement path shared by IngestBatch, RunAnnotationPass, and recovery
  // mirrors, so every write respects liveness and the partition table.
  // One task per owning node, all in flight at once; one directory commit.
  // Returns the ids of the documents no replica target acknowledged.
  std::vector<model::DocId> StoreBatch(std::vector<DocPtr> docs, size_t copies,
                                       ShipStats* stats);
  // Point-op traffic counter of the routing tablet (takes ptable_mutex_).
  void BumpPartitionTraffic(model::DocId id) const;
  // Submits one task that upserts `docs` into the node's partition;
  // `*outcome` resolves to its definitive fate, and only kExecuted means
  // the node held the documents when the task ran. Returns the
  // partition's incarnation — callers recording the node as a holder must
  // re-check it with HolderStillValid, because a fail/recover cycle wipes
  // the partition.
  uint64_t SubmitStore(NodeId node, std::vector<DocPtr> docs,
                       std::future<TaskOutcome>* outcome);
  // SubmitStore of one document, awaited.
  TaskOutcome StoreOnNode(NodeId node, DocPtr doc, uint64_t* incarnation);
  // Get without the copy: the holder's shared immutable document.
  Result<DocPtr> GetShared(model::DocId id) const;
  // True while `node` is alive in the same incarnation: bytes stored at
  // `epoch_at_store` are still there.
  bool HolderStillValid(NodeId node, uint64_t epoch_at_store) const;
  // Copies the node's partition slot under partitions_mutex_: RecoverNode
  // swaps the slot concurrently with readers, and unsynchronized read +
  // write of one shared_ptr object is a data race.
  std::shared_ptr<Partition> PartitionFor(NodeId node) const;
  static uint64_t DocBytes(const model::Document& doc);
  void AccountTraffic(const ShipStats& stats);
  void BalancerLoop(uint64_t interval_ms);

  Options options_;
  std::vector<std::unique_ptr<Node>> data_nodes_;
  std::vector<std::unique_ptr<Node>> grid_nodes_;
  std::vector<std::unique_ptr<Node>> cluster_nodes_;
  // Parallel to data_nodes_. Slots are re-pointed by RecoverNode while
  // query/ingest threads copy them, so every slot access (read or write
  // after construction) goes through partitions_mutex_ via PartitionFor.
  mutable std::mutex partitions_mutex_;
  std::vector<std::shared_ptr<Partition>> partitions_;

  struct DirEntry {
    std::vector<Holder> holders;  // primary first; validity checked on use
    uint8_t desired = 1;          // replication target for this document
  };

  mutable std::mutex directory_mutex_;
  std::map<model::DocId, DirEntry> directory_;
  std::set<NodeId> known_dead_;
  mutable std::shared_ptr<const OwnershipSnapshot> ownership_cache_;

  // The partition table: inclusive lower bound of each tablet's
  // routing-key range -> tablet state. Lock order: ptable_mutex_ may be
  // taken before directory_mutex_ (split/merge/integrity snapshots), never
  // after it.
  mutable std::mutex ptable_mutex_;
  // mutable: point reads (Get) bump per-partition traffic counters.
  mutable std::map<uint64_t, PartitionState> ptable_;
  PartitionId next_pid_ = 0;
  // Serializes partition migrations: a move runs blocking tasks on two
  // node mailboxes, and two concurrent opposite-direction moves could
  // otherwise deadlock each other's worker threads.
  std::mutex move_mutex_;

  // Background balancer.
  mutable std::mutex balancer_mutex_;
  std::condition_variable balancer_cv_;
  std::thread balancer_thread_;
  bool balancer_stop_ = false;  // guarded by balancer_mutex_
  std::atomic<bool> balancer_running_{false};
  std::atomic<uint64_t> balancer_passes_{0};

  std::atomic<model::DocId> next_id_{1};
  std::atomic<uint64_t> placement_clock_{0};
  std::atomic<uint64_t> rr_grid_{0};
  std::atomic<uint64_t> rr_cluster_{0};
  std::atomic<uint64_t> lock_acquisitions_{0};
  Scheduler scheduler_;

  // Lifetime sums of the ShipStats fields AccountTraffic adds up. Relaxed
  // atomics: every ingest and scatter-gather accounts, so the hot path
  // takes no lock; lifetime_traffic() reads each field separately.
  struct TrafficTotals {
    std::atomic<uint64_t> bytes_shipped{0};
    std::atomic<uint64_t> rows_shipped{0};
    std::atomic<uint64_t> tasks{0};
    std::atomic<uint64_t> failovers{0};
    std::atomic<uint64_t> missing_partitions{0};
    std::atomic<bool> degraded{false};
  };
  TrafficTotals traffic_;
};

}  // namespace impliance::cluster

#endif  // IMPLIANCE_CLUSTER_CLUSTER_H_
