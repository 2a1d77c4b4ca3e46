#ifndef IMPLIANCE_SERVER_SERVER_H_
#define IMPLIANCE_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/impliance.h"
#include "obs/metrics.h"
#include "server/wire_protocol.h"

namespace impliance::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = pick an ephemeral port (see ImplianceServer::port)
  size_t worker_threads = 4;
  // Admission control: upper bound on requests admitted but not yet
  // executing. Arrivals beyond it are answered kOverloaded immediately —
  // the appliance sheds load instead of building an unbounded backlog
  // ("self-managing" resource behavior, Section 3.4).
  size_t max_queue_depth = 256;
  // Applied to requests that carry no deadline of their own; 0 = none.
  uint64_t default_deadline_ms = 0;
  uint32_t max_frame_bytes = wire::kMaxFrameBytes;
  // Quiesce the appliance's background discovery workers as part of the
  // graceful drain, so the core is idle by the time the caller tears it
  // down.
  bool quiesce_core_on_drain = true;
  // Test seam: runs in the worker immediately before a request executes
  // (after admission and the deadline check). Lets tests hold workers on a
  // latch to saturate the queue deterministically.
  std::function<void(const wire::Request&)> pre_execute_hook;
};

// Snapshot of one server's serving counters (see GetServingStats).
struct ServingStats {
  uint64_t connections_accepted = 0;
  uint64_t requests_admitted = 0;
  uint64_t requests_completed = 0;
  uint64_t requests_shed = 0;      // kOverloaded responses
  uint64_t deadline_expired = 0;   // kDeadlineExceeded responses
  uint64_t invalid_frames = 0;     // malformed/oversized frames
  uint64_t requests_rejected_draining = 0;
};
// Per-op serving latency (receipt to response write) lives in the process
// metrics registry as bounded histograms named "server.op.<name>" — an
// unbounded per-sample histogram on the serving hot path would grow one
// allocation per request forever.

// TCP front end for one `core::Impliance`: speaks the wire protocol of
// wire_protocol.h, runs requests on a worker pool, and applies admission
// control so overload degrades into explicit kOverloaded responses rather
// than unbounded queueing. One reader thread per connection; responses may
// be written by any worker (serialized per connection).
class ImplianceServer {
 public:
  // Binds, listens, and starts the accept loop. `impliance` must outlive
  // the server.
  static Result<std::unique_ptr<ImplianceServer>> Start(
      core::Impliance* impliance, ServerOptions options);
  ~ImplianceServer();

  ImplianceServer(const ImplianceServer&) = delete;
  ImplianceServer& operator=(const ImplianceServer&) = delete;

  // The bound port (resolved when options.port was 0).
  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  // Graceful drain: stop accepting connections, answer new requests with
  // kShuttingDown, finish everything already admitted, then close all
  // connections. Idempotent; safe to call from any thread (including the
  // wire kShutdown path). Blocks until the drain completes.
  void Shutdown();

  // Blocks until Shutdown() has completed (e.g. triggered remotely via the
  // kShutdown op).
  void WaitUntilShutdown();

  ServingStats GetServingStats() const;

 private:
  struct Connection {
    int fd = -1;
    std::mutex write_mutex;
    std::thread reader;
    std::atomic<bool> done{false};
  };

  ImplianceServer(core::Impliance* impliance, ServerOptions options);

  void AcceptLoop();
  // Owns one connection's read side. Takes the shared_ptr directly (handed
  // over at spawn) so dispatching never has to rediscover it by scanning
  // connections_ under connections_mutex_ per request.
  void ReaderLoop(std::shared_ptr<Connection> connection);
  // Admission control + dispatch for one decoded request.
  void Dispatch(std::shared_ptr<Connection> connection, wire::Request request);
  wire::Response Execute(const wire::Request& request);
  wire::Response BuildStatsResponse() const;
  void SendResponse(Connection* connection, const wire::Response& response);
  void RecordLatency(wire::Op op, double millis);
  void ReapFinishedConnections();

  core::Impliance* const impliance_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> workers_;

  std::atomic<bool> draining_{false};
  // Requests admitted but not yet picked up by a worker.
  std::atomic<size_t> queued_{0};

  mutable std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;

  // Serving counters, one set per server (not in the process registry) so
  // every server in a process counts only its own traffic. Lock-free:
  // Dispatch bumps them on every request.
  obs::Counter connections_accepted_;
  obs::Counter requests_admitted_;
  obs::Counter requests_completed_;
  obs::Counter requests_shed_;
  obs::Counter deadline_expired_;
  obs::Counter invalid_frames_;
  obs::Counter requests_rejected_draining_;

  std::mutex shutdown_mutex_;  // serializes Shutdown()
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  bool shutdown_complete_ = false;
  std::thread remote_shutdown_thread_;  // runs Shutdown() for kShutdown ops
};

}  // namespace impliance::server

#endif  // IMPLIANCE_SERVER_SERVER_H_
