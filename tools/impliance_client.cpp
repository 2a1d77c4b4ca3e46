// Command-line client for a running appliance, for scripted use:
//
//   $ impliance_client 127.0.0.1:9876 ping
//   $ impliance_client 127.0.0.1:9876 ingest order /tmp/orders.csv
//   $ impliance_client 127.0.0.1:9876 search refund broken
//   $ impliance_client 127.0.0.1:9876 sql "SELECT city FROM order"
//   $ impliance_client 127.0.0.1:9876 get 12
//   $ impliance_client 127.0.0.1:9876 stats
//   $ impliance_client 127.0.0.1:9876 load 1000 8   # scripted load: N reqs, C conns
//   $ impliance_client 127.0.0.1:9876 shutdown
//
// Exit code 0 on success, 1 on any error (including server-side statuses),
// so it composes with shell scripts.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "obs/metrics.h"
#include "server/client.h"

using impliance::server::ClientOptions;
using impliance::server::ImplianceClient;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: impliance_client <host:port> <command> [args...]\n"
      "  ping\n"
      "  ingest <kind> <file>      ('-' reads stdin)\n"
      "  get <doc_id>\n"
      "  search <keywords...>\n"
      "  sql [--planner=cost|simple] <statement>\n"
      "  explain [--planner=cost|simple] <statement>\n"
      "  facet <kind> <path> [keywords...]\n"
      "  stats [--traces]\n"
      "  load <requests> <connections>   scripted search/ingest load\n"
      "  shutdown\n");
  return 1;
}

bool ParseHostPort(const std::string& spec, ClientOptions* options) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos) return false;
  options->host = spec.substr(0, colon);
  const int port = std::atoi(spec.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return false;
  options->port = static_cast<uint16_t>(port);
  return true;
}

std::string JoinArgs(char** argv, int from, int argc) {
  std::string joined;
  for (int i = from; i < argc; ++i) {
    if (!joined.empty()) joined += ' ';
    joined += argv[i];
  }
  return joined;
}

// Scripted load: `connections` clients issue `requests` total requests
// (90% search / 10% ingest) and report throughput + latency percentiles.
int RunLoad(const ClientOptions& base, int requests, int connections) {
  if (requests <= 0 || connections <= 0) return Usage();
  std::vector<std::thread> threads;
  std::mutex merge_mutex;
  impliance::obs::HistogramSnapshot merged;
  int total_errors = 0;
  const int per_client = requests / connections;

  impliance::Stopwatch wall;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      impliance::obs::BoundedHistogram local;
      int errors = 0;
      auto connected = ImplianceClient::Connect(base);
      if (!connected.ok()) {
        std::lock_guard<std::mutex> lock(merge_mutex);
        total_errors += per_client;
        return;
      }
      auto client = std::move(connected).value();
      for (int i = 0; i < per_client; ++i) {
        impliance::Stopwatch timer;
        bool ok;
        if (i % 10 == 0) {
          ok = client
                   ->Ingest("load", "conn " + std::to_string(c) + " req " +
                                        std::to_string(i))
                   .ok();
        } else {
          ok = client->Search("conn req load", 10).ok();
        }
        if (!ok) ++errors;
        local.Add(timer.ElapsedMillis());
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      total_errors += errors;
      merged.Merge(local.Snapshot());
    });
  }
  for (auto& thread : threads) thread.join();
  const double seconds = wall.ElapsedSeconds();

  std::printf("requests=%zu errors=%d wall=%.2fs throughput=%.0f req/s\n",
              merged.count(), total_errors, seconds,
              merged.count() / seconds);
  std::printf("latency: %s\n", merged.Summary().c_str());
  return total_errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  ClientOptions options;
  if (!ParseHostPort(argv[1], &options)) return Usage();
  const std::string command = argv[2];

  if (command == "load") {
    if (argc < 5) return Usage();
    return RunLoad(options, std::atoi(argv[3]), std::atoi(argv[4]));
  }

  auto connected = ImplianceClient::Connect(options);
  if (!connected.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 connected.status().ToString().c_str());
    return 1;
  }
  auto client = std::move(connected).value();

  if (command == "ping") {
    auto status = client->Ping();
    std::printf("%s\n", status.ToString().c_str());
    return status.ok() ? 0 : 1;
  }
  if (command == "ingest") {
    if (argc < 5) return Usage();
    std::string raw;
    if (std::string(argv[4]) == "-") {
      std::stringstream buffer;
      buffer << std::cin.rdbuf();
      raw = buffer.str();
    } else {
      std::ifstream file(argv[4]);
      if (!file) {
        std::fprintf(stderr, "cannot read %s\n", argv[4]);
        return 1;
      }
      std::stringstream buffer;
      buffer << file.rdbuf();
      raw = buffer.str();
    }
    auto ids = client->Ingest(argv[3], raw);
    if (!ids.ok()) {
      std::fprintf(stderr, "error: %s\n", ids.status().ToString().c_str());
      return 1;
    }
    std::printf("infused %zu document(s):", ids->size());
    for (uint64_t id : *ids) std::printf(" %llu",
                                         static_cast<unsigned long long>(id));
    std::printf("\n");
    return 0;
  }
  if (command == "get") {
    if (argc < 4) return Usage();
    auto json = client->Get(std::strtoull(argv[3], nullptr, 10));
    if (!json.ok()) {
      std::fprintf(stderr, "error: %s\n", json.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", json->c_str());
    return 0;
  }
  if (command == "search") {
    auto answer = client->SearchChecked(JoinArgs(argv, 3, argc), 10);
    if (!answer.ok()) {
      std::fprintf(stderr, "error: %s\n", answer.status().ToString().c_str());
      return 1;
    }
    for (const auto& hit : answer->hits) {
      std::printf("[%.2f] %s#%llu  %s\n", hit.score, hit.kind.c_str(),
                  static_cast<unsigned long long>(hit.doc),
                  hit.snippet.c_str());
    }
    if (answer->degraded) {
      std::fprintf(stderr,
                   "warning: DEGRADED result — %llu partition(s) unavailable\n",
                   static_cast<unsigned long long>(answer->missing_partitions));
      return 2;
    }
    return 0;
  }
  // Optional --planner=<name> immediately after the sql/explain command.
  std::string planner;
  int statement_from = 3;
  if ((command == "sql" || command == "explain") && argc > 3) {
    const std::string flag = argv[3];
    if (flag.rfind("--planner=", 0) == 0) {
      planner = flag.substr(10);
      statement_from = 4;
    }
  }
  if (command == "explain") {
    auto answer = client->Explain(JoinArgs(argv, statement_from, argc),
                                  planner);
    if (!answer.ok()) {
      std::fprintf(stderr, "error: %s\n", answer.status().ToString().c_str());
      return 1;
    }
    if (answer->plan.empty()) {
      // Baseline planners ship text only.
      std::printf("%s\n", answer->text.c_str());
      return 0;
    }
    for (const auto& node : answer->plan) {
      std::printf("%*s%s%s%s%s [rows~%.0f cost~%.0f]\n",
                  static_cast<int>(node.depth) * 2, "", node.name.c_str(),
                  node.detail.empty() ? "" : "(",
                  node.detail.c_str(), node.detail.empty() ? "" : ")",
                  node.est_rows, node.est_cost);
    }
    return 0;
  }
  if (command == "sql") {
    auto answer = client->SqlChecked(JoinArgs(argv, statement_from, argc),
                                     planner);
    if (!answer.ok()) {
      std::fprintf(stderr, "error: %s\n", answer.status().ToString().c_str());
      return 1;
    }
    for (const auto& row : answer->rows) std::printf("%s\n", row.c_str());
    std::printf("(%zu rows)\n", answer->rows.size());
    if (answer->degraded) {
      std::fprintf(stderr,
                   "warning: DEGRADED result — %llu partition(s) unavailable\n",
                   static_cast<unsigned long long>(answer->missing_partitions));
      return 2;
    }
    return 0;
  }
  if (command == "facet") {
    if (argc < 5) return Usage();
    auto response =
        client->Facet(JoinArgs(argv, 5, argc), argv[3], {argv[4]});
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    for (const auto& [name, value] : response->counters) {
      std::printf("%s=%llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
    std::printf("%s", response->body.c_str());
    if (response->degraded) {
      std::fprintf(stderr,
                   "warning: DEGRADED result — %llu partition(s) unavailable\n",
                   static_cast<unsigned long long>(
                       response->missing_partitions));
      return 2;
    }
    return 0;
  }
  if (command == "stats") {
    const bool show_traces = argc > 3 && std::string(argv[3]) == "--traces";
    auto response = client->Stats();
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    for (const auto& [name, value] : response->counters) {
      std::printf("%-24s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
    for (const auto& latency : response->op_latencies) {
      std::printf("%-24s n=%llu p50=%.3fms p95=%.3fms p99=%.3fms\n",
                  latency.op.c_str(),
                  static_cast<unsigned long long>(latency.count),
                  latency.p50_ms, latency.p95_ms, latency.p99_ms);
    }
    if (show_traces) {
      for (const auto& trace : response->traces) {
        std::printf("trace %llu %s total=%lluus%s%s\n",
                    static_cast<unsigned long long>(trace.trace_id),
                    trace.op.c_str(),
                    static_cast<unsigned long long>(trace.total_micros),
                    trace.slow ? " SLOW" : "",
                    trace.spans_dropped > 0 ? " (spans dropped)" : "");
        for (const auto& span : trace.spans) {
          std::printf("  +%-8llu %-24s %lluus\n",
                      static_cast<unsigned long long>(span.start_micros),
                      span.name.c_str(),
                      static_cast<unsigned long long>(span.duration_micros));
        }
      }
    }
    return 0;
  }
  if (command == "shutdown") {
    auto status = client->RequestShutdown();
    std::printf("%s\n", status.ToString().c_str());
    return status.ok() ? 0 : 1;
  }
  return Usage();
}
