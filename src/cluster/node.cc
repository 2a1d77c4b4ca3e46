#include "cluster/node.h"

#include <chrono>

#include "common/fault_injector.h"

namespace impliance::cluster {

Node::Node(NodeId id, NodeKind kind)
    : id_(id), kind_(kind), worker_([this] { WorkerLoop(); }) {}

Node::~Node() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_.store(true);
    DropQueuedLocked();
  }
  cv_.notify_all();
  worker_.join();
}

void Node::DropQueuedLocked() {
  for (Task& task : mailbox_) {
    task.done.set_value(TaskOutcome::kDropped);
    tasks_dropped_.fetch_add(1);
  }
  mailbox_.clear();
}

bool Node::Submit(std::function<void()> task,
                  std::future<TaskOutcome>* outcome) {
  Task entry;
  entry.fn = std::move(task);
  if (outcome != nullptr) *outcome = entry.done.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!alive_.load() || shutting_down_.load()) {
      entry.done.set_value(TaskOutcome::kNodeDead);
      return false;
    }
    // Lost-message fault: the caller gets a positive ack (true) but the
    // task never reaches the mailbox — only the outcome future tells the
    // truth. This models exactly the bug where ingest trusted the ack.
    if (FaultPoint("node.submit.drop")) {
      entry.done.set_value(TaskOutcome::kDropped);
      tasks_dropped_.fetch_add(1);
      return true;
    }
    mailbox_.push_back(std::move(entry));
    // Crash window between submit and run: the node dies with the task
    // (and everything else queued) still in its mailbox.
    if (FaultPoint("node.submit.crash")) {
      alive_.store(false);
      epoch_.fetch_add(1);
      DropQueuedLocked();
      return true;
    }
  }
  cv_.notify_one();
  return true;
}

TaskOutcome Node::Run(std::function<void()> task) {
  std::future<TaskOutcome> outcome;
  Submit(std::move(task), &outcome);
  return outcome.get();
}

size_t Node::queue_depth() const {
  std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(mutex_));
  return mailbox_.size();
}

void Node::Fail() {
  std::lock_guard<std::mutex> lock(mutex_);
  alive_.store(false);
  epoch_.fetch_add(1);  // state stored before this point is lost
  DropQueuedLocked();   // in-flight work is lost with the node
}

void Node::Recover() {
  std::lock_guard<std::mutex> lock(mutex_);
  alive_.store(true);
}

void Node::WorkerLoop() {
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] {
        return shutting_down_.load() || !mailbox_.empty();
      });
      if (shutting_down_.load() && mailbox_.empty()) return;
      task = std::move(mailbox_.front());
      mailbox_.pop_front();
    }
    heartbeats_.fetch_add(1);
    if (FaultPoint("node.task.delay")) {
      const uint64_t micros = FaultDelayMicros("node.task.delay");
      if (micros > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(micros));
      }
    }
    task.fn();
    tasks_executed_.fetch_add(1);
    task.done.set_value(TaskOutcome::kExecuted);
  }
}

}  // namespace impliance::cluster
