// End-to-end serving benchmark: a real ImplianceServer on a real TCP
// socket, driven by N concurrent ImplianceClient connections. Reports
// requests/sec and p50/p95/p99 latency per op mix, plus shed behavior
// under deliberate overload — the serving-path numbers every subsequent
// PR can regress against.
//
//   ./bench_serving [clients] [requests_per_client] [worker_threads]
//
// Defaults: 4 clients, 500 requests each, 4 workers.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "core/impliance.h"
#include "server/client.h"
#include "server/server.h"

namespace fs = std::filesystem;
using impliance::Stopwatch;
using impliance::bench::Samples;
using impliance::core::Impliance;
using impliance::server::ClientOptions;
using impliance::server::ImplianceClient;
using impliance::server::ImplianceServer;
using impliance::server::ServerOptions;
using impliance::server::ServingStats;

namespace {

struct MixResult {
  Samples latency_ms;
  size_t ok = 0;
  size_t shed = 0;
  size_t errors = 0;
  double seconds = 0;
};

// Each client runs `requests` of the given op mix against host:port.
MixResult RunClients(uint16_t port, int clients, int requests,
                     const std::string& mix) {
  std::mutex merge_mutex;
  MixResult merged;
  std::vector<std::thread> threads;
  Stopwatch wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      MixResult local;
      ClientOptions options;
      options.port = port;
      auto connected = ImplianceClient::Connect(options);
      if (!connected.ok()) {
        local.errors = requests;
        std::lock_guard<std::mutex> lock(merge_mutex);
        merged.errors += local.errors;
        return;
      }
      auto client = std::move(connected).value();
      for (int i = 0; i < requests; ++i) {
        Stopwatch timer;
        impliance::Status status = impliance::Status::OK();
        if (mix == "ingest") {
          status = client
                       ->Ingest("bench", "client " + std::to_string(c) +
                                             " record " + std::to_string(i) +
                                             " searchable latency payload")
                       .status();
        } else if (mix == "search") {
          status = client->Search("searchable latency", 10).status();
        } else {  // mixed: 1 ingest : 4 search : 4 get : 1 stats
          const int roll = i % 10;
          if (roll == 0) {
            status = client
                         ->Ingest("bench", "mixed record " +
                                               std::to_string(c * requests + i))
                         .status();
          } else if (roll < 5) {
            status = client->Search("record searchable", 10).status();
          } else if (roll < 9) {
            status = client->Get(1 + static_cast<uint64_t>(i % 32)).status();
            if (status.IsNotFound()) status = impliance::Status::OK();
          } else {
            status = client->Stats().status();
          }
        }
        local.latency_ms.Add(timer.ElapsedMillis());
        if (status.ok()) {
          ++local.ok;
        } else if (status.IsBusy()) {
          ++local.shed;
        } else {
          ++local.errors;
        }
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      merged.latency_ms.Merge(local.latency_ms);
      merged.ok += local.ok;
      merged.shed += local.shed;
      merged.errors += local.errors;
    });
  }
  for (auto& thread : threads) thread.join();
  merged.seconds = wall.ElapsedSeconds();
  return merged;
}

void Report(const char* name, int clients, const MixResult& result) {
  const size_t n = result.latency_ms.count();
  std::printf(
      "%-22s clients=%d requests=%zu ok=%zu shed=%zu errors=%zu "
      "wall=%.2fs throughput=%.0f req/s\n",
      name, clients, n, result.ok, result.shed, result.errors,
      result.seconds, result.seconds > 0 ? n / result.seconds : 0.0);
  std::printf("%-22s   p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms\n", "",
              result.latency_ms.P50(), result.latency_ms.P95(),
              result.latency_ms.P99(), result.latency_ms.Max());
}

}  // namespace

int main(int argc, char** argv) {
  const int clients = argc > 1 ? std::atoi(argv[1]) : 4;
  const int requests = argc > 2 ? std::atoi(argv[2]) : 500;
  const size_t workers = argc > 3 ? std::atoi(argv[3]) : 4;

  const std::string dir = "/tmp/impliance_bench_serving";
  fs::remove_all(dir);
  auto opened = Impliance::Open({.data_dir = dir});
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto impliance = std::move(opened).value();

  ServerOptions options;
  options.worker_threads = workers;
  auto started = ImplianceServer::Start(impliance.get(), options);
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n",
                 started.status().ToString().c_str());
    return 1;
  }
  auto server = std::move(started).value();
  std::printf("bench_serving: port=%u clients=%d requests/client=%d "
              "workers=%zu queue=%zu\n",
              server->port(), clients, requests, workers,
              options.max_queue_depth);

  // Warm the store so search/get have something to chew on.
  {
    ClientOptions warm;
    warm.port = server->port();
    auto client = ImplianceClient::Connect(warm);
    if (!client.ok()) return 1;
    for (int i = 0; i < 64; ++i) {
      (void)(*client)->Ingest(
          "bench", "warm record " + std::to_string(i) +
                       " searchable latency payload");
    }
  }

  Report("ingest", clients, RunClients(server->port(), clients, requests,
                                       "ingest"));
  Report("search", clients, RunClients(server->port(), clients, requests,
                                       "search"));
  Report("mixed", clients, RunClients(server->port(), clients, requests,
                                      "mixed"));

  // Overload: a deliberately tiny queue in front of one worker. The
  // interesting number is the shed rate — admission control converts
  // excess load into immediate kOverloaded responses.
  {
    const std::string overload_dir = "/tmp/impliance_bench_serving_ovl";
    fs::remove_all(overload_dir);
    auto small = Impliance::Open({.data_dir = overload_dir});
    if (!small.ok()) return 1;
    ServerOptions tiny;
    tiny.worker_threads = 1;
    tiny.max_queue_depth = 4;
    auto overloaded = ImplianceServer::Start(small->get(), tiny);
    if (!overloaded.ok()) return 1;
    MixResult result = RunClients((*overloaded)->port(),
                                  std::max(8, 2 * clients), requests / 2,
                                  "ingest");
    Report("overload(q=4,w=1)", std::max(8, 2 * clients), result);
    const ServingStats stats = (*overloaded)->GetServingStats();
    std::printf("%-22s   admitted=%llu completed=%llu shed=%llu "
                "shed_rate=%.1f%%\n",
                "", static_cast<unsigned long long>(stats.requests_admitted),
                static_cast<unsigned long long>(stats.requests_completed),
                static_cast<unsigned long long>(stats.requests_shed),
                100.0 * stats.requests_shed /
                    std::max<uint64_t>(1, stats.requests_admitted +
                                              stats.requests_shed));
    (*overloaded)->Shutdown();
    fs::remove_all(overload_dir);
  }

  server->Shutdown();
  fs::remove_all(dir);
  return 0;
}
