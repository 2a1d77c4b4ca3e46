#include "server/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <string_view>
#include <utility>

#include "common/clock.h"
#include "common/fault_injector.h"
#include "common/logging.h"
#include "model/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/net_util.h"

namespace impliance::server {

namespace {

wire::Response ErrorResponse(uint64_t id, wire::WireStatus status,
                             std::string error) {
  wire::Response response;
  response.id = id;
  response.status = status;
  response.error = std::move(error);
  return response;
}

// Maps a core Status onto the wire status vocabulary.
wire::WireStatus WireStatusFor(const Status& status) {
  if (status.IsNotFound()) return wire::WireStatus::kNotFound;
  return wire::WireStatus::kError;
}

// Registry histograms "server.op.<name>", one per op, resolved once — the
// recording itself is then lock-free on the serving hot path.
obs::BoundedHistogram* OpLatencyHistogram(wire::Op op) {
  static const auto table = [] {
    constexpr size_t kNumOps = static_cast<size_t>(wire::kLastOp) + 1;
    std::array<obs::BoundedHistogram*, kNumOps> histograms{};
    for (size_t i = 0; i < kNumOps; ++i) {
      histograms[i] = obs::Registry::Global().GetHistogram(
          std::string("server.op.") +
          wire::OpName(static_cast<wire::Op>(i)));
    }
    return histograms;
  }();
  return table[static_cast<size_t>(op)];
}

// How many recent traces one Stats response ships.
constexpr size_t kStatsMaxTraces = 8;

}  // namespace

ImplianceServer::ImplianceServer(core::Impliance* impliance,
                                 ServerOptions options)
    : impliance_(impliance), options_(std::move(options)) {}

Result<std::unique_ptr<ImplianceServer>> ImplianceServer::Start(
    core::Impliance* impliance, ServerOptions options) {
  if (impliance == nullptr) {
    return Status::InvalidArgument("impliance must not be null");
  }
  if (options.worker_threads == 0 || options.max_queue_depth == 0) {
    return Status::InvalidArgument(
        "worker_threads and max_queue_depth must be positive");
  }
  auto server = std::unique_ptr<ImplianceServer>(
      new ImplianceServer(impliance, std::move(options)));
  IMPLIANCE_RETURN_IF_ERROR(ListenTcp(server->options_.host,
                                      server->options_.port,
                                      &server->listen_fd_, &server->port_));
  server->workers_ =
      std::make_unique<ThreadPool>(server->options_.worker_threads);
  server->accept_thread_ = std::thread([raw = server.get()] {
    raw->AcceptLoop();
  });
  IMPLIANCE_LOG(Info) << "serving on " << server->options_.host << ":"
                      << server->port_;
  return server;
}

ImplianceServer::~ImplianceServer() {
  Shutdown();
  if (remote_shutdown_thread_.joinable()) remote_shutdown_thread_.join();
}

// ------------------------------------------------------------ Accept/read

void ImplianceServer::AcceptLoop() {
  while (!draining_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Listener shut down during drain (or a transient accept failure
      // while shutting down) — either way the loop is done.
      break;
    }
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    connections_accepted_.Increment();
    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    std::lock_guard<std::mutex> lock(connections_mutex_);
    ReapFinishedConnections();
    connections_.push_back(connection);
    // The reader owns a shared_ptr from birth; per-request dispatch hands
    // copies to workers without ever touching connections_ again.
    connections_.back()->reader = std::thread(
        [this, connection] { ReaderLoop(connection); });
  }
}

// Joins and closes connections whose reader has already exited (client
// hung up). Caller holds connections_mutex_.
void ImplianceServer::ReapFinishedConnections() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection* connection = it->get();
    if (!connection->done.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    if (connection->reader.joinable()) connection->reader.join();
    {
      std::lock_guard<std::mutex> write_lock(connection->write_mutex);
      if (connection->fd >= 0) {
        ::close(connection->fd);
        connection->fd = -1;
      }
    }
    it = connections_.erase(it);
  }
}

void ImplianceServer::ReaderLoop(std::shared_ptr<Connection> connection) {
  std::string body;
  while (true) {
    Status status = RecvFrame(connection->fd, &body,
                              options_.max_frame_bytes);
    if (status.IsNotFound()) break;  // clean close
    if (status.IsInvalidArgument()) {
      // Oversized length prefix: answer, then drop the connection — the
      // byte stream can no longer be trusted to be framed.
      invalid_frames_.Increment();
      SendResponse(connection.get(),
                   ErrorResponse(0, wire::WireStatus::kInvalidRequest,
                                 status.message()));
      break;
    }
    if (!status.ok()) break;  // torn read / connection reset

    wire::Request request;
    status = wire::DecodeRequest(body, &request);
    if (!status.ok()) {
      // Garbage inside a well-framed body: reject the request but keep
      // the connection — framing is still intact.
      invalid_frames_.Increment();
      SendResponse(connection.get(),
                   ErrorResponse(0, wire::WireStatus::kInvalidRequest,
                                 status.message()));
      continue;
    }

    Dispatch(connection, std::move(request));
  }
  // Signal EOF to the peer right away — the fd itself is closed at reap or
  // drain time, strictly after this thread is joined.
  ::shutdown(connection->fd, SHUT_RDWR);
  connection->done.store(true, std::memory_order_release);
}

// ------------------------------------------------- Admission + execution

void ImplianceServer::Dispatch(std::shared_ptr<Connection> connection,
                               wire::Request request) {
  if (draining_.load(std::memory_order_acquire)) {
    requests_rejected_draining_.Increment();
    SendResponse(connection.get(),
                 ErrorResponse(request.id, wire::WireStatus::kShuttingDown,
                               "server is draining"));
    return;
  }

  // Admission control: bound the number of admitted-but-not-executing
  // requests. Overload turns into an immediate, explicit signal the client
  // can back off on, instead of latency creep followed by a timeout.
  size_t depth = queued_.load(std::memory_order_relaxed);
  do {
    if (depth >= options_.max_queue_depth) {
      requests_shed_.Increment();
      SendResponse(connection.get(),
                   ErrorResponse(request.id, wire::WireStatus::kOverloaded,
                                 "admission queue full"));
      return;
    }
  } while (!queued_.compare_exchange_weak(depth, depth + 1,
                                          std::memory_order_acq_rel));

  requests_admitted_.Increment();

  const uint64_t received_micros = NowMicros();
  const uint64_t deadline_ms = request.deadline_ms != 0
                                   ? request.deadline_ms
                                   : options_.default_deadline_ms;
  // Mint the request's trace at admission: everything downstream — core
  // planning, cluster scatter/gather, morsel workers — records spans into
  // it through the thread-local current-trace pointer.
  obs::TracePtr trace = obs::StartTrace(
      wire::OpName(request.op),
      deadline_ms != 0 ? received_micros + deadline_ms * 1000 : 0);
  workers_->Submit([this, connection = std::move(connection),
                    request = std::move(request), received_micros,
                    deadline_ms, trace = std::move(trace)]() mutable {
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    trace->RecordSpan("admission.wait", received_micros,
                      NowMicros() - received_micros);

    // Per-request deadline: a request that waited out its whole budget in
    // the queue is dead on arrival — tell the client instead of burning a
    // worker on an answer nobody is waiting for.
    if (deadline_ms != 0 &&
        NowMicros() > received_micros + deadline_ms * 1000) {
      deadline_expired_.Increment();
      SendResponse(connection.get(),
                   ErrorResponse(request.id,
                                 wire::WireStatus::kDeadlineExceeded,
                                 "deadline expired in queue"));
      return;
    }

    if (options_.pre_execute_hook) options_.pre_execute_hook(request);

    // Worker fault: the request is lost before execution. The client still
    // gets an explicit error — a dropped request must never look like an
    // empty-but-successful answer.
    if (FaultPoint("server.worker.drop")) {
      SendResponse(connection.get(),
                   ErrorResponse(request.id, wire::WireStatus::kError,
                                 "request dropped by worker (fault injected)"));
      return;
    }

    wire::Response response;
    {
      // Attach for the execute scope only: everything the core and cluster
      // record below lands in this request's trace.
      obs::ScopedTraceAttach attach(trace);
      obs::ScopedSpan execute_span("server.execute");
      response = Execute(request);
    }
    response.id = request.id;
    RecordLatency(request.op, (NowMicros() - received_micros) / 1000.0);
    requests_completed_.Increment();
    SendResponse(connection.get(), response);
    obs::FinishTrace(trace);

    if (request.op == wire::Op::kShutdown &&
        response.status == wire::WireStatus::kOk) {
      // Drain on a dedicated thread: Shutdown() waits for this worker
      // pool to go idle, so the drain must not run on a pool thread.
      std::lock_guard<std::mutex> lock(done_mutex_);
      if (!remote_shutdown_thread_.joinable()) {
        remote_shutdown_thread_ = std::thread([this] { Shutdown(); });
      }
    }
  });
}

wire::Response ImplianceServer::Execute(const wire::Request& request) {
  wire::Response response;
  switch (request.op) {
    case wire::Op::kPing:
      response.body = request.payload;
      return response;

    case wire::Op::kIngest: {
      auto ids = impliance_->InfuseContent(request.kind, request.payload);
      if (!ids.ok()) {
        return ErrorResponse(request.id, WireStatusFor(ids.status()),
                             ids.status().ToString());
      }
      response.doc_ids.assign(ids->begin(), ids->end());
      return response;
    }

    case wire::Op::kGet: {
      auto doc = impliance_->Get(request.doc_id);
      if (!doc.ok()) {
        return ErrorResponse(request.id, WireStatusFor(doc.status()),
                             doc.status().ToString());
      }
      response.body = model::DocumentToJson(*doc);
      return response;
    }

    case wire::Op::kSearch: {
      core::QueryHealth health;
      for (const core::SearchHit& hit :
           impliance_->Search(request.payload, request.limit, &health)) {
        response.hits.push_back(
            {hit.doc, hit.score, hit.kind, hit.snippet});
      }
      // Completeness travels with the answer so clients can distinguish
      // "nothing matched" from "partitions were lost".
      response.degraded = health.degraded;
      response.missing_partitions = health.missing_partitions;
      return response;
    }

    case wire::Op::kFacet: {
      query::FacetedQuery faceted;
      faceted.keywords = request.payload;
      faceted.kind = request.kind;
      faceted.facet_paths = request.facet_paths;
      faceted.top_k = request.limit;
      core::QueryHealth health;
      query::FacetedResult result = impliance_->Faceted(faceted, &health);
      // Same contract as search: facet counts computed without unreachable
      // partitions must say so, not pose as complete.
      response.degraded = health.degraded;
      response.missing_partitions = health.missing_partitions;
      response.doc_ids.assign(result.docs.begin(), result.docs.end());
      response.counters.emplace_back("total_matches", result.total_matches);
      std::string rendered;
      for (const auto& [path, counts] : result.facets) {
        for (const auto& facet : counts) {
          rendered += path + "\t" + facet.value.AsString() + "\t" +
                      std::to_string(facet.count) + "\n";
        }
      }
      response.body = std::move(rendered);
      return response;
    }

    case wire::Op::kSql: {
      core::QueryHealth health;
      // `kind` carries the planner name ("" = cost-aware default).
      auto rows = impliance_->Sql(request.payload, &health, request.kind);
      if (!rows.ok()) {
        return ErrorResponse(request.id, WireStatusFor(rows.status()),
                             rows.status().ToString());
      }
      response.degraded = health.degraded;
      response.missing_partitions = health.missing_partitions;
      response.rows.reserve(rows->size());
      for (const exec::Row& row : *rows) {
        std::string line;
        for (size_t i = 0; i < row.size(); ++i) {
          if (i > 0) line += '\t';
          line += row[i].AsString();
        }
        response.rows.push_back(std::move(line));
      }
      return response;
    }

    case wire::Op::kExplain: {
      auto plan = impliance_->ExplainSql(request.payload, request.kind);
      if (!plan.ok()) {
        return ErrorResponse(request.id, WireStatusFor(plan.status()),
                             plan.status().ToString());
      }
      response.plan.reserve(plan->nodes.size());
      for (const query::ExplainNode& node : plan->nodes) {
        response.plan.push_back(wire::PlanNode{node.depth, node.name,
                                               node.detail, node.est_rows,
                                               node.est_cost});
      }
      response.body = std::move(plan->text);
      return response;
    }

    case wire::Op::kStats:
      return BuildStatsResponse();

    case wire::Op::kShutdown:
      response.body = "draining";
      return response;
  }
  return ErrorResponse(request.id, wire::WireStatus::kInvalidRequest,
                       "unknown op");
}

wire::Response ImplianceServer::BuildStatsResponse() const {
  wire::Response response;
  const core::ImplianceStats core_stats = impliance_->GetStats();
  response.counters = {
      {"documents", core_stats.indexed_documents},
      {"versions", core_stats.store.num_versions},
      {"kinds", core_stats.kinds},
      {"terms", core_stats.indexed_terms},
      {"paths", core_stats.indexed_paths},
      {"join_edges", core_stats.join_edges},
      {"segments", core_stats.store.num_segments},
      {"admin_steps", core_stats.admin_steps},
  };
  const ServingStats serving = GetServingStats();
  response.counters.insert(
      response.counters.end(),
      {{"connections_accepted", serving.connections_accepted},
       {"requests_admitted", serving.requests_admitted},
       {"requests_completed", serving.requests_completed},
       {"requests_shed", serving.requests_shed},
       {"deadline_expired", serving.deadline_expired},
       {"invalid_frames", serving.invalid_frames},
       {"requests_rejected_draining", serving.requests_rejected_draining}});
  // Process-wide metrics registry: counters and gauges ship under their
  // registry names; "server.op.<name>" histograms become the per-op
  // latency summaries (prefix stripped — they ARE the serving latencies).
  const obs::RegistrySnapshot registry = obs::Registry::Global().Snapshot();
  for (const auto& [name, value] : registry.counters) {
    response.counters.emplace_back(name, value);
  }
  for (const auto& [name, value] : registry.gauges) {
    response.counters.emplace_back(
        name, value > 0 ? static_cast<uint64_t>(value) : 0);
  }
  response.counters.emplace_back("slow_traces", obs::SlowTraceCount());
  constexpr std::string_view kOpPrefix = "server.op.";
  for (const auto& [name, snapshot] : registry.histograms) {
    if (snapshot.count() == 0) continue;
    std::string op_name = name.rfind(kOpPrefix, 0) == 0
                              ? name.substr(kOpPrefix.size())
                              : name;
    // The wire struct is in milliseconds; histograms recorded in
    // microseconds (named *_us, e.g. index.search.latency_us) convert here.
    const double scale = name.size() > 3 &&
                                 name.compare(name.size() - 3, 3, "_us") == 0
                             ? 1e-3
                             : 1.0;
    response.op_latencies.push_back({std::move(op_name), snapshot.count(),
                                     snapshot.P50() * scale,
                                     snapshot.P95() * scale,
                                     snapshot.P99() * scale});
  }
  // The appliance's own interactive-path latency (queue wait + execution
  // inside the core), distinct from end-to-end serving latency.
  const obs::HistogramSnapshot& interactive = core_stats.interactive_latency_ms;
  if (interactive.count() > 0) {
    response.op_latencies.push_back({"core.interactive", interactive.count(),
                                     interactive.P50(), interactive.P95(),
                                     interactive.P99()});
  }
  // Recent request traces: where each stage of the last few requests spent
  // its time (the kStats caller's own request finishes after this builds,
  // so the newest visible trace is the previous request).
  for (const obs::FinishedTrace& finished : obs::RecentTraces(kStatsMaxTraces)) {
    wire::TraceSummary summary;
    summary.trace_id = finished.trace_id;
    summary.op = finished.op;
    summary.total_micros = finished.total_micros;
    summary.slow = finished.slow;
    summary.spans_dropped = finished.spans_dropped;
    summary.spans.reserve(finished.spans.size());
    for (const obs::Span& span : finished.spans) {
      summary.spans.push_back(
          {span.name, span.start_micros, span.duration_micros});
    }
    response.traces.push_back(std::move(summary));
  }
  response.body = "documents=" +
                  std::to_string(core_stats.indexed_documents) +
                  " kinds=" + std::to_string(core_stats.kinds);
  return response;
}

void ImplianceServer::SendResponse(Connection* connection,
                                   const wire::Response& response) {
  std::string frame;
  wire::EncodeResponse(response, &frame);
  std::lock_guard<std::mutex> lock(connection->write_mutex);
  if (connection->fd < 0) return;  // connection already closed
  Status status = WriteFully(connection->fd, frame);
  if (!status.ok()) {
    // The client went away mid-response; the reader will notice on its
    // next recv. Nothing further to do.
    IMPLIANCE_LOG(Debug) << "response write failed: " << status.ToString();
  }
}

void ImplianceServer::RecordLatency(wire::Op op, double millis) {
  OpLatencyHistogram(op)->Add(millis);
}

ServingStats ImplianceServer::GetServingStats() const {
  ServingStats stats;
  stats.connections_accepted = connections_accepted_.Value();
  stats.requests_admitted = requests_admitted_.Value();
  stats.requests_completed = requests_completed_.Value();
  stats.requests_shed = requests_shed_.Value();
  stats.deadline_expired = deadline_expired_.Value();
  stats.invalid_frames = invalid_frames_.Value();
  stats.requests_rejected_draining = requests_rejected_draining_.Value();
  return stats;
}

// ----------------------------------------------------------------- Drain

void ImplianceServer::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    if (shutdown_complete_) return;
  }

  // 1. Stop accepting: new requests on existing connections now get
  //    kShuttingDown; shutting the listener down wakes the accept loop.
  //    The fd is closed and reset only once that loop has exited, so the
  //    accept thread never reads it concurrently with the write.
  draining_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // 2. Finish everything already admitted — in-flight requests complete
  //    and their responses are written before any connection closes.
  workers_->WaitIdle();

  // 3. Close connections: wake blocked readers, join them, then close.
  //    Joining happens outside connections_mutex_ so a reader that is
  //    still finishing its last loop iteration can never be blocked on it.
  std::vector<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (const auto& connection : connections) {
    if (connection->fd >= 0) ::shutdown(connection->fd, SHUT_RDWR);
  }
  for (const auto& connection : connections) {
    if (connection->reader.joinable()) connection->reader.join();
    std::lock_guard<std::mutex> write_lock(connection->write_mutex);
    if (connection->fd >= 0) {
      ::close(connection->fd);
      connection->fd = -1;
    }
  }
  connections.clear();

  // 4. Join the worker pool (a rare late submission racing the drain flag
  //    finishes here; its response write is a no-op on the closed fd).
  workers_->WaitIdle();
  workers_.reset();

  // 5. Quiesce the appliance's background workers so the core is torn
  //    down only once nothing is running behind it.
  if (options_.quiesce_core_on_drain) impliance_->Quiesce();

  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    shutdown_complete_ = true;
  }
  done_cv_.notify_all();
  IMPLIANCE_LOG(Info) << "drain complete on port " << port_;
}

void ImplianceServer::WaitUntilShutdown() {
  std::unique_lock<std::mutex> lock(done_mutex_);
  done_cv_.wait(lock, [this] { return shutdown_complete_; });
}

}  // namespace impliance::server
