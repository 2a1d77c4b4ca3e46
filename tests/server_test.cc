// End-to-end tests for the serving layer: a real ImplianceServer on an
// ephemeral TCP port, driven through ImplianceClient and raw sockets.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/impliance.h"
#include "server/client.h"
#include "server/net_util.h"
#include "server/server.h"
#include "server/wire_protocol.h"

namespace impliance::server {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("impliance_server_test_" + name + "_" +
               std::to_string(reinterpret_cast<uintptr_t>(this)))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string path() const { return path_.string(); }

 private:
  fs::path path_;
};

class ServerTest : public ::testing::Test {
 protected:
  void OpenAppliance() {
    auto opened = core::Impliance::Open({.data_dir = dir_.path()});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    impliance_ = std::move(opened).value();
  }

  void StartServer(ServerOptions options = {}) {
    if (impliance_ == nullptr) OpenAppliance();
    auto started = ImplianceServer::Start(impliance_.get(), options);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    server_ = std::move(started).value();
  }

  std::unique_ptr<ImplianceClient> Client(ClientOptions options = {}) {
    options.port = server_->port();
    auto connected = ImplianceClient::Connect(options);
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    return connected.ok() ? std::move(connected).value() : nullptr;
  }

  TempDir dir_{"srv"};
  std::unique_ptr<core::Impliance> impliance_;
  std::unique_ptr<ImplianceServer> server_;
};

// Lets a test hold the (single) worker on a latch to saturate the
// admission queue deterministically.
struct WorkerLatch {
  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;
  std::atomic<int> blocked{0};

  std::function<void(const wire::Request&)> Hook() {
    return [this](const wire::Request& request) {
      if (request.payload != "block") return;
      ++blocked;
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [this] { return released; });
    };
  }

  void AwaitBlocked(int n) {
    while (blocked.load() < n) std::this_thread::yield();
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      released = true;
    }
    cv.notify_all();
  }
};

wire::Request BlockingPing() {
  wire::Request request;
  request.op = wire::Op::kPing;
  request.payload = "block";
  return request;
}

// ------------------------------------------------------------ Round trips

TEST_F(ServerTest, PingEchoesPayload) {
  StartServer();
  auto client = Client();
  ASSERT_NE(client, nullptr);

  wire::Request request;
  request.op = wire::Op::kPing;
  request.payload = "hello appliance";
  auto response = client->Call(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, wire::WireStatus::kOk);
  EXPECT_EQ(response->body, "hello appliance");
}

TEST_F(ServerTest, IngestGetSearchStatsRoundTrip) {
  StartServer();
  auto client = Client();
  ASSERT_NE(client, nullptr);

  auto ids = client->Ingest(
      "order", "id,city,total\n1,Berlin,99.5\n2,Tokyo,12.0\n");
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids->size(), 2u);

  auto json = client->Get((*ids)[0]);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json->find("Berlin"), std::string::npos);

  auto missing = client->Get(999999);
  EXPECT_TRUE(missing.status().IsNotFound());

  auto hits = client->Search("berlin", 10);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_FALSE(hits->empty());
  EXPECT_EQ(hits->front().kind, "order");

  auto rows = client->Sql("SELECT city FROM order");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 2u);

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  uint64_t documents = 0, completed = 0;
  for (const auto& [name, value] : stats->counters) {
    if (name == "documents") documents = value;
    if (name == "requests_completed") completed = value;
  }
  EXPECT_GE(documents, 2u);
  EXPECT_GE(completed, 4u);
  // Every ServingStats field ships under its own name.
  std::set<std::string> names;
  for (const auto& [name, value] : stats->counters) names.insert(name);
  for (const char* name :
       {"connections_accepted", "requests_admitted", "requests_completed",
        "requests_shed", "deadline_expired", "invalid_frames",
        "requests_rejected_draining"}) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }
  // Per-op latency percentiles are tracked server-side and shipped back.
  bool saw_ingest_latency = false;
  for (const auto& latency : stats->op_latencies) {
    if (latency.op == "ingest") {
      saw_ingest_latency = true;
      EXPECT_GE(latency.count, 1u);
      EXPECT_GE(latency.p99_ms, latency.p50_ms);
    }
  }
  EXPECT_TRUE(saw_ingest_latency);
}

TEST_F(ServerTest, SearchWithZeroLimitReturnsNoHits) {
  StartServer();
  auto client = Client();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Ingest("ticket", "id,text\n1,refund is late\n").ok());

  auto some = client->Search("refund", 10);
  ASSERT_TRUE(some.ok()) << some.status().ToString();
  EXPECT_EQ(some->size(), 1u);
  auto none = client->Search("refund", 0);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_TRUE(none->empty());
}

TEST_F(ServerTest, ExplainShipsStructuredPlanOverTheWire) {
  StartServer();
  auto client = Client();
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(client
                  ->Ingest("order",
                           "cust,city,total\n1,Berlin,99.5\n2,Tokyo,12.0\n"
                           "1,Berlin,5.0\n2,Osaka,7.5\n")
                  .ok());
  ASSERT_TRUE(client->Ingest("customer", "cid,cname\n1,Ann\n2,Bo\n").ok());

  const std::string sql =
      "SELECT cname, total FROM order JOIN customer ON cust = cid "
      "WHERE cname = 'Ann'";
  auto answer = client->Explain(sql);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_FALSE(answer->plan.empty()) << answer->text;
  EXPECT_EQ(answer->plan[0].depth, 0u);
  bool saw_join = false;
  for (const auto& node : answer->plan) {
    saw_join = saw_join || node.name.find("Join") != std::string::npos;
  }
  EXPECT_TRUE(saw_join) << answer->text;
  // The optimizer reorders: the driver (first leaf in the pre-order
  // listing) is the filtered customer table, not the textual-first order.
  size_t first_leaf = answer->plan.size() - 1;
  for (size_t i = 0; i + 1 < answer->plan.size(); ++i) {
    if (answer->plan[i + 1].depth <= answer->plan[i].depth) {
      first_leaf = i;
      break;
    }
  }
  EXPECT_NE(answer->plan[first_leaf].detail.find("customer"),
            std::string::npos)
      << answer->text;

  // The paper-faithful planner stays selectable per request; it renders a
  // textual plan but makes no cost estimates, so no structured nodes.
  auto simple = client->Explain(sql, "simple");
  ASSERT_TRUE(simple.ok()) << simple.status().ToString();
  EXPECT_TRUE(simple->plan.empty());
  EXPECT_NE(simple->text.find("HashJoin"), std::string::npos) << simple->text;

  EXPECT_FALSE(client->Explain(sql, "nope").ok());

  // Both planners answer the query itself identically over the wire.
  auto cost_rows = client->Sql(sql);
  auto simple_rows = client->Sql(sql, "simple");
  ASSERT_TRUE(cost_rows.ok()) << cost_rows.status().ToString();
  ASSERT_TRUE(simple_rows.ok()) << simple_rows.status().ToString();
  std::vector<std::string> a = *cost_rows, b = *simple_rows;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 2u);
}

TEST_F(ServerTest, StatsCarriesRecentTracesWithSpans) {
  StartServer();
  auto client = Client();
  ASSERT_NE(client, nullptr);
  // A few traced requests first: their traces finish right after the
  // response is written, so by the time several later responses have
  // arrived the earlier traces are guaranteed to be in the ring.
  ASSERT_TRUE(client->Ingest("note", "observable ostrich").ok());
  ASSERT_TRUE(client->Search("ostrich", 10).ok());
  ASSERT_TRUE(client->Ping().ok());
  ASSERT_TRUE(client->Ping().ok());

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_FALSE(stats->traces.empty());
  // At least one trace must carry per-stage spans: every executed request
  // records admission.wait and server.execute.
  bool saw_execute_span = false;
  for (const auto& trace : stats->traces) {
    EXPECT_GT(trace.trace_id, 0u);
    EXPECT_FALSE(trace.op.empty());
    for (const auto& span : trace.spans) {
      if (span.name == "server.execute") saw_execute_span = true;
      EXPECT_LE(span.start_micros, trace.total_micros);
    }
  }
  EXPECT_TRUE(saw_execute_span);
}

TEST_F(ServerTest, FacetRoundTrip) {
  StartServer();
  auto client = Client();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client
                  ->Ingest("order",
                           "id,city\n1,Berlin\n2,Berlin\n3,Tokyo\n")
                  .ok());
  auto response = client->Facet("", "order", {"/doc/city"});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  uint64_t total = 0;
  for (const auto& [name, value] : response->counters) {
    if (name == "total_matches") total = value;
  }
  EXPECT_EQ(total, 3u);
  EXPECT_NE(response->body.find("Berlin"), std::string::npos);
}

TEST_F(ServerTest, FacetWithZeroOrOneLimit) {
  StartServer();
  auto client = Client();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client
                  ->Ingest("order",
                           "id,city,text\n1,Berlin,refund late\n"
                           "2,Berlin,refund due\n3,Tokyo,refund\n")
                  .ok());
  for (const std::string keywords : {"", "refund"}) {
    SCOPED_TRACE("keywords: '" + keywords + "'");
    for (uint64_t limit : {0u, 1u}) {
      auto response = client->Facet(keywords, "order", {"/doc/city"}, limit);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response->doc_ids.size(), limit);
      uint64_t total = 0;
      for (const auto& [name, value] : response->counters) {
        if (name == "total_matches") total = value;
      }
      EXPECT_EQ(total, 3u);
      EXPECT_NE(response->body.find("Berlin"), std::string::npos);
    }
  }
}

TEST_F(ServerTest, ConcurrentClients) {
  StartServer();
  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures] {
      ClientOptions options;
      options.port = server_->port();
      auto connected = ImplianceClient::Connect(options);
      if (!connected.ok()) {
        ++failures;
        return;
      }
      auto client = std::move(connected).value();
      for (int i = 0; i < kOpsPerClient; ++i) {
        auto ids = client->Ingest(
            "note", "client " + std::to_string(c) + " note " +
                        std::to_string(i) + " searchable payload");
        if (!ids.ok() || ids->empty()) {
          ++failures;
          continue;
        }
        if (!client->Get(ids->front()).ok()) ++failures;
        if (!client->Search("searchable", 5).ok()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const ServingStats stats = server_->GetServingStats();
  EXPECT_EQ(stats.requests_completed,
            static_cast<uint64_t>(kClients * kOpsPerClient * 3));
  EXPECT_EQ(stats.requests_shed, 0u);
  EXPECT_EQ(stats.connections_accepted, static_cast<uint64_t>(kClients));
}

// -------------------------------------------------------- Malformed input

TEST_F(ServerTest, GarbageFrameGetsErrorResponseAndConnectionSurvives) {
  StartServer();
  int fd = -1;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", server_->port(), &fd).ok());

  // Well-framed garbage body: server must answer kInvalidRequest and keep
  // the connection (framing is still intact).
  std::string garbage(32, '\xfe');
  std::string frame;
  frame.push_back(32);  // fixed32 little-endian length = 32
  frame.push_back(0);
  frame.push_back(0);
  frame.push_back(0);
  frame += garbage;
  ASSERT_TRUE(WriteFully(fd, frame).ok());

  std::string body;
  ASSERT_TRUE(RecvFrame(fd, &body).ok());
  wire::Response response;
  ASSERT_TRUE(wire::DecodeResponse(body, &response).ok());
  EXPECT_EQ(response.status, wire::WireStatus::kInvalidRequest);

  // Same connection still serves valid requests.
  std::string ping_frame;
  wire::Request ping;
  ping.op = wire::Op::kPing;
  ping.id = 7;
  wire::EncodeRequest(ping, &ping_frame);
  ASSERT_TRUE(WriteFully(fd, ping_frame).ok());
  ASSERT_TRUE(RecvFrame(fd, &body).ok());
  ASSERT_TRUE(wire::DecodeResponse(body, &response).ok());
  EXPECT_EQ(response.status, wire::WireStatus::kOk);
  EXPECT_EQ(response.id, 7u);
  ::close(fd);
}

TEST_F(ServerTest, OversizedFrameGetsErrorResponseThenDisconnect) {
  ServerOptions options;
  options.max_frame_bytes = 1024;
  StartServer(options);
  int fd = -1;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", server_->port(), &fd).ok());

  // Length prefix far beyond the server's limit.
  const uint32_t huge = 64u << 20;
  std::string frame;
  frame.push_back(static_cast<char>(huge & 0xff));
  frame.push_back(static_cast<char>((huge >> 8) & 0xff));
  frame.push_back(static_cast<char>((huge >> 16) & 0xff));
  frame.push_back(static_cast<char>((huge >> 24) & 0xff));
  ASSERT_TRUE(WriteFully(fd, frame).ok());

  std::string body;
  ASSERT_TRUE(RecvFrame(fd, &body).ok());
  wire::Response response;
  ASSERT_TRUE(wire::DecodeResponse(body, &response).ok());
  EXPECT_EQ(response.status, wire::WireStatus::kInvalidRequest);

  // The stream can no longer be trusted: server drops the connection.
  Status eof = RecvFrame(fd, &body);
  EXPECT_FALSE(eof.ok());
  ::close(fd);

  // And the server is still healthy for fresh connections.
  auto client = Client();
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping().ok());
}

// ------------------------------------------- Deadlines, overload, drain

TEST_F(ServerTest, DeadlineExpiresInQueue) {
  WorkerLatch latch;
  ServerOptions options;
  options.worker_threads = 1;
  options.pre_execute_hook = latch.Hook();
  StartServer(options);

  auto blocker = Client();
  ASSERT_NE(blocker, nullptr);
  std::thread blocked([&] { (void)blocker->Call(BlockingPing()); });
  latch.AwaitBlocked(1);

  // Queued behind the blocked worker with a 1ms budget; by the time a
  // worker picks it up the deadline is long gone.
  auto victim = Client();
  ASSERT_NE(victim, nullptr);
  std::thread victim_thread([&] {
    wire::Request request;
    request.op = wire::Op::kPing;
    request.deadline_ms = 1;
    auto response = victim->Call(std::move(request));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, wire::WireStatus::kDeadlineExceeded);
  });

  // Let the deadline lapse while the request sits in the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  latch.Release();
  blocked.join();
  victim_thread.join();

  EXPECT_GE(server_->GetServingStats().deadline_expired, 1u);
}

TEST_F(ServerTest, OverloadShedsWithExplicitStatus) {
  WorkerLatch latch;
  ServerOptions options;
  options.worker_threads = 1;
  options.max_queue_depth = 2;
  options.pre_execute_hook = latch.Hook();
  StartServer(options);

  auto blocker = Client();
  ASSERT_NE(blocker, nullptr);
  std::thread blocked([&] { (void)blocker->Call(BlockingPing()); });
  latch.AwaitBlocked(1);

  // Fill the admission queue (depth 2) behind the blocked worker.
  std::vector<std::unique_ptr<ImplianceClient>> queued_clients;
  std::vector<std::thread> queued_threads;
  for (int i = 0; i < 2; ++i) {
    queued_clients.push_back(Client());
    ASSERT_NE(queued_clients.back(), nullptr);
    queued_threads.emplace_back([client = queued_clients.back().get()] {
      EXPECT_TRUE(client->Ping().ok());
    });
  }
  // Wait until both are admitted (blocker + 2 queued = 3).
  while (server_->GetServingStats().requests_admitted < 3) {
    std::this_thread::yield();
  }

  // The queue is full: further arrivals are shed immediately with an
  // explicit OVERLOADED status, not queued into latency creep.
  for (int i = 0; i < 3; ++i) {
    auto shed_client = Client();
    ASSERT_NE(shed_client, nullptr);
    wire::Request request;
    request.op = wire::Op::kPing;
    auto response = shed_client->Call(std::move(request));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, wire::WireStatus::kOverloaded);
    // The typed wrapper maps it to Busy for backoff logic.
    EXPECT_TRUE(shed_client->Ping().IsBusy());
  }

  latch.Release();
  blocked.join();
  for (auto& thread : queued_threads) thread.join();

  const ServingStats stats = server_->GetServingStats();
  EXPECT_GE(stats.requests_shed, 4u);
  EXPECT_GE(stats.requests_completed, 3u);
}

TEST_F(ServerTest, GracefulDrainCompletesInFlightRequests) {
  WorkerLatch latch;
  ServerOptions options;
  options.worker_threads = 1;
  options.pre_execute_hook = latch.Hook();
  StartServer(options);

  auto blocker = Client();
  ASSERT_NE(blocker, nullptr);
  std::atomic<bool> in_flight_completed{false};
  std::thread blocked([&] {
    auto response = blocker->Call(BlockingPing());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, wire::WireStatus::kOk);
    in_flight_completed = true;
  });
  latch.AwaitBlocked(1);

  // A second, already-connected client observes the drain refusal.
  auto bystander = Client();
  ASSERT_NE(bystander, nullptr);

  std::thread drainer([&] { server_->Shutdown(); });
  // Wait for the drain to close the listener — the draining flag is set
  // strictly before that, so afterwards existing connections observe
  // kShuttingDown instead of being queued behind the blocked worker.
  while (true) {
    ClientOptions probe;
    probe.port = server_->port();
    probe.connect_attempts = 1;
    if (!ImplianceClient::Connect(probe).ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto drained_reply = bystander->Call(wire::Request{});
  if (drained_reply.ok()) {
    EXPECT_EQ(drained_reply->status, wire::WireStatus::kShuttingDown);
  }  // else: reader already torn the connection down — also a valid drain

  EXPECT_FALSE(in_flight_completed.load());
  latch.Release();
  drainer.join();
  blocked.join();
  // Drain waited for the in-flight request and wrote its response.
  EXPECT_TRUE(in_flight_completed.load());

  // Listener is gone: fresh connections are refused.
  ClientOptions refused;
  refused.port = server_->port();
  refused.connect_attempts = 1;
  EXPECT_FALSE(ImplianceClient::Connect(refused).ok());
}

// Start/Shutdown back to back, with and without a connection in flight:
// the drain wakes the accept thread before releasing the listening socket,
// so it never races the accept loop's read of it (TSan) and never hangs.
TEST_F(ServerTest, RepeatedStartAndShutdown) {
  ServerOptions options;
  options.quiesce_core_on_drain = false;  // the core outlives every round
  for (int round = 0; round < 20; ++round) {
    StartServer(options);
    if (round % 2 == 1) {
      auto client = Client();
      ASSERT_NE(client, nullptr);
      auto reply = client->Call(wire::Request{});
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_EQ(reply->status, wire::WireStatus::kOk);
    }
    server_->Shutdown();
    ClientOptions refused;
    refused.port = server_->port();
    refused.connect_attempts = 1;
    EXPECT_FALSE(ImplianceClient::Connect(refused).ok()) << round;
    server_.reset();
  }
}

TEST_F(ServerTest, RemoteShutdownOpDrainsServer) {
  StartServer();
  auto client = Client();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Ingest("note", "shutdown soon").ok());
  ASSERT_TRUE(client->RequestShutdown().ok());
  server_->WaitUntilShutdown();

  ClientOptions refused;
  refused.port = server_->port();
  refused.connect_attempts = 1;
  EXPECT_FALSE(ImplianceClient::Connect(refused).ok());

  // Drain quiesced the core: background discovery is now a no-op and the
  // appliance tears down with nothing running behind it.
  impliance_->StartBackgroundDiscovery();
  impliance_->WaitForDiscovery();
}

}  // namespace
}  // namespace impliance::server
