#ifndef IMPLIANCE_CLUSTER_NODE_H_
#define IMPLIANCE_CLUSTER_NODE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>

namespace impliance::cluster {

using NodeId = uint32_t;

// The three node flavors of an Impliance instance (Section 3.3, Figure 3).
enum class NodeKind {
  kData,     // owns a subset of persistent storage
  kGrid,     // stateless analytic compute
  kCluster,  // consistent locking/coordination
};

// The definitive fate of one submitted task. A bool cannot express the
// difference between "ran" and "was accepted, then lost with the node" —
// that gap is exactly the silent-partial-result and lost-ack bug class, so
// every submission resolves to one of these.
enum class TaskOutcome : uint8_t {
  kExecuted,  // the task ran to completion on the node
  kDropped,   // accepted, then lost before running (node died / fault)
  kNodeDead,  // rejected outright: the node was already dead
};

// One simulated node: a worker thread draining a FIFO mailbox of closures.
// This stands in for a blade server; the closures it runs are the operator
// fragments / annotator tasks the scheduler places on it. Failure injection
// marks the node dead: new work is rejected, queued work is dropped (and
// its outcome futures resolve kDropped — never silently).
//
// Fault points (see common/fault_injector.h): node.submit.drop loses an
// accepted task, node.submit.crash kills the node between submit and run,
// node.task.delay stalls execution.
class Node {
 public:
  Node(NodeId id, NodeKind kind);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  NodeKind kind() const { return kind_; }

  // Enqueues `task`. Returns false iff the node was dead at submit time.
  // When `outcome` is non-null it always receives a valid future that
  // resolves to the task's final fate — including kNodeDead on a false
  // return, so callers can treat every submission uniformly.
  bool Submit(std::function<void()> task, std::future<TaskOutcome>* outcome);

  // Convenience: submit and wait for the definitive outcome.
  TaskOutcome Run(std::function<void()> task);

  bool alive() const { return alive_.load(); }

  // Incarnation counter, bumped on every Fail(). State written in epoch E
  // is gone once the epoch changes (a recovered node rejoins empty), so
  // bookkeeping that records this node as a data holder must check that
  // the epoch observed when the store executed is still current.
  uint64_t epoch() const { return epoch_.load(); }

  // Failure injection: drops queued work (resolving each outcome future
  // kDropped), rejects new work.
  void Fail();
  // Node re-joins empty (its state was lost) — re-replication is the
  // storage manager's job.
  void Recover();

  uint64_t tasks_executed() const { return tasks_executed_.load(); }
  uint64_t tasks_dropped() const { return tasks_dropped_.load(); }
  // Tasks currently waiting in the mailbox (scheduler load signal).
  size_t queue_depth() const;
  // Logical heartbeat counter, bumped every mailbox iteration.
  uint64_t heartbeats() const { return heartbeats_.load(); }

 private:
  struct Task {
    std::function<void()> fn;
    std::promise<TaskOutcome> done;
  };

  void WorkerLoop();
  // Resolves and discards every queued task as kDropped. Caller holds
  // mutex_.
  void DropQueuedLocked();

  NodeId id_;
  NodeKind kind_;
  std::atomic<bool> alive_{true};
  std::atomic<uint64_t> epoch_{0};
  std::atomic<bool> shutting_down_{false};
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> tasks_dropped_{0};
  std::atomic<uint64_t> heartbeats_{0};

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Task> mailbox_;
  std::thread worker_;
};

}  // namespace impliance::cluster

#endif  // IMPLIANCE_CLUSTER_NODE_H_
