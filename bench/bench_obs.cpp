// E18: observability overhead. The registry's counters and bounded
// histograms sit on every serving hot path, so their cost — and the cost
// of the disarmed state (`SetMetricsEnabled(false)`, a relaxed load +
// branch) — must be measured, not assumed.
//
// Two levels:
//   micro    ns/op for counter increment, histogram add, and an untraced
//            ScopedSpan, armed and disarmed
//   serving  end-to-end search throughput against a real server over TCP,
//            metrics on vs metrics off, in interleaved paired rounds
//
// Exit code is nonzero when the median paired overhead of metrics-on
// serving throughput vs metrics-off exceeds kMaxOverhead — CI runs this as
// a gate. Emits JSON
// (--json PATH) so the numbers are archived per commit.
//
//   ./bench_obs [--json PATH] [clients] [requests_per_client]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "core/impliance.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/server.h"

namespace fs = std::filesystem;
using impliance::Stopwatch;
using impliance::bench::Fmt;
using impliance::core::Impliance;
using impliance::server::ClientOptions;
using impliance::server::ImplianceClient;
using impliance::server::ImplianceServer;
using impliance::server::ServerOptions;

namespace {

constexpr double kMaxOverhead = 0.05;  // CI gate: 5%
// Paired on/off rounds. One run is ~20 ms on a 4-vCPU host, and single
// runs of one binary spread wider than the gate; the median of this many
// paired overheads stays within about +-3%.
constexpr int kServingRounds = 31;

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// ------------------------------------------------------------------ micro

struct MicroCosts {
  double counter_on_ns = 0;
  double counter_off_ns = 0;
  double histogram_on_ns = 0;
  double histogram_off_ns = 0;
  double span_untraced_ns = 0;
};

MicroCosts RunMicro() {
  constexpr int kIters = 5'000'000;
  MicroCosts costs;
  impliance::obs::Counter counter;
  impliance::obs::BoundedHistogram histogram;

  auto time_ns = [&](auto&& body) {
    Stopwatch watch;
    for (int i = 0; i < kIters; ++i) body(i);
    return watch.ElapsedSeconds() * 1e9 / kIters;
  };

  impliance::obs::SetMetricsEnabled(true);
  costs.counter_on_ns = time_ns([&](int) { counter.Increment(); });
  costs.histogram_on_ns =
      time_ns([&](int i) { histogram.Add(0.5 + (i & 1023)); });
  costs.span_untraced_ns =
      time_ns([&](int) { impliance::obs::ScopedSpan span("bench.noop"); });

  impliance::obs::SetMetricsEnabled(false);
  costs.counter_off_ns = time_ns([&](int) { counter.Increment(); });
  costs.histogram_off_ns =
      time_ns([&](int i) { histogram.Add(0.5 + (i & 1023)); });
  impliance::obs::SetMetricsEnabled(true);
  return costs;
}

// ---------------------------------------------------------------- serving

// One timed run: `clients` connections each issue `requests` searches.
// Returns requests/sec (0 on setup failure).
double RunServing(uint16_t port, int clients, int requests) {
  std::vector<std::thread> threads;
  std::atomic<size_t> errors{0};
  Stopwatch wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientOptions options;
      options.port = port;
      auto connected = ImplianceClient::Connect(options);
      if (!connected.ok()) {
        errors.fetch_add(requests);
        return;
      }
      auto client = std::move(connected).value();
      for (int i = 0; i < requests; ++i) {
        if (!client->Search("searchable latency", 10).ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double seconds = wall.ElapsedSeconds();
  const size_t total = static_cast<size_t>(clients) * requests;
  if (errors.load() > 0 || seconds <= 0) return 0;
  return total / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  const int clients = positional.size() > 0 ? std::atoi(positional[0]) : 4;
  const int requests = positional.size() > 1 ? std::atoi(positional[1]) : 400;

  impliance::bench::Banner(
      "E18", "observability overhead (metrics armed vs disarmed)");

  const MicroCosts micro = RunMicro();
  impliance::bench::TablePrinter micro_table({"primitive", "armed_ns",
                                              "disarmed_ns"});
  micro_table.AddRow({"counter.Increment", Fmt("%.1f", micro.counter_on_ns),
                      Fmt("%.1f", micro.counter_off_ns)});
  micro_table.AddRow({"histogram.Add", Fmt("%.1f", micro.histogram_on_ns),
                      Fmt("%.1f", micro.histogram_off_ns)});
  micro_table.AddRow({"ScopedSpan (untraced)",
                      Fmt("%.1f", micro.span_untraced_ns), "-"});
  micro_table.Print();

  const std::string dir = "/tmp/impliance_bench_obs";
  fs::remove_all(dir);
  auto opened = Impliance::Open({.data_dir = dir});
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto impliance = std::move(opened).value();
  auto started = ImplianceServer::Start(impliance.get(), ServerOptions{});
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n",
                 started.status().ToString().c_str());
    return 1;
  }
  auto server = std::move(started).value();

  // Warm corpus + warm run so neither mode pays first-touch costs.
  {
    ClientOptions warm;
    warm.port = server->port();
    auto client = ImplianceClient::Connect(warm);
    if (!client.ok()) return 1;
    for (int i = 0; i < 64; ++i) {
      (void)(*client)->Ingest("bench", "warm record " + std::to_string(i) +
                                           " searchable latency payload");
    }
  }
  RunServing(server->port(), clients, requests / 4);

  // Interleaved rounds: alternating modes within one process cancels
  // drift (page cache, frequency scaling) that a one-shot A/B would eat,
  // and alternating which mode runs first keeps either from always getting
  // the warmer slot. Each round yields one paired overhead; the gate reads
  // their median, which one lucky or starved run cannot move.
  std::vector<double> off_rps, on_rps, overheads;
  for (int round = 0; round < kServingRounds; ++round) {
    double rps[2] = {0, 0};  // [metrics off, metrics on]
    for (int slot = 0; slot < 2; ++slot) {
      const bool on = (round + slot) % 2 == 1;
      impliance::obs::SetMetricsEnabled(on);
      rps[on] = RunServing(server->port(), clients, requests);
    }
    off_rps.push_back(rps[0]);
    on_rps.push_back(rps[1]);
    if (rps[0] > 0) overheads.push_back((rps[0] - rps[1]) / rps[0]);
  }
  impliance::obs::SetMetricsEnabled(true);
  server->Shutdown();
  fs::remove_all(dir);

  const double median_off = Median(off_rps);
  const double median_on = Median(on_rps);
  if (median_off <= 0 || median_on <= 0 ||
      overheads.size() != off_rps.size()) {
    std::fprintf(stderr, "serving runs failed\n");
    return 1;
  }
  const double overhead = Median(overheads);
  const bool pass = overhead <= kMaxOverhead;
  std::printf(
      "\n  serving (search, %d clients x %d reqs, median of %d rounds):\n"
      "    metrics off  %.0f req/s\n"
      "    metrics on   %.0f req/s\n"
      "    overhead     %.2f%% (gate: <= %.0f%%) %s\n",
      clients, requests, kServingRounds, median_off, median_on,
      overhead * 100, kMaxOverhead * 100, pass ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n  \"bench\": \"obs\",\n"
        "  \"micro_ns\": {\"counter_on\": %.2f, \"counter_off\": %.2f, "
        "\"histogram_on\": %.2f, \"histogram_off\": %.2f, "
        "\"span_untraced\": %.2f},\n"
        "  \"serving\": {\"clients\": %d, \"requests_per_client\": %d, "
        "\"off_rps\": %.1f, \"on_rps\": %.1f, \"overhead_frac\": %.4f},\n"
        "  \"max_overhead_frac\": %.2f,\n  \"pass\": %s\n}\n",
        micro.counter_on_ns, micro.counter_off_ns, micro.histogram_on_ns,
        micro.histogram_off_ns, micro.span_untraced_ns, clients, requests,
        median_off, median_on, overhead, kMaxOverhead, pass ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}
