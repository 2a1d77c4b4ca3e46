#ifndef IMPLIANCE_APPLIANCE_BENCH_BENCH_SUPPORT_H_
#define IMPLIANCE_APPLIANCE_BENCH_BENCH_SUPPORT_H_

// Support code for the appliance benchmark: a seeded input generator with
// its ground truth, latency summaries, and the in-memory span log of the
// traced run. Inputs draw from impliance::Rng, so a seed means the same
// inputs everywhere; the trace log reads finished obs::TraceContext spans.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/trace.h"

namespace impliance::appbench {

// Monotonic clock readings. Micros share obs::TraceContext's clock, so bench
// spans and program spans line up; nanos give latencies enough digits.
uint64_t NowMicros();
uint64_t NowNanos();

// Fixed (seed-independent) word lists. Each word is three consonant-vowel
// syllables; `tag` prefixes every word so two lists never share a token.
std::vector<std::string> MakeVocabulary(size_t size, const std::string& tag);

// A Zipf(1) word rank in [0, n). Rng::Zipf never returns rank 0 for
// theta 1, so this draws over n + 1 ranks and shifts down by one.
inline int ZipfWord(Rng* rng, size_t n) {
  return static_cast<int>(rng->Zipf(n + 1, 1.0)) - 1;
}

extern const char* const kCities[8];

// One `order` row (also the shape of serve_mixed's written rows).
struct OrderRow {
  uint64_t number = 0;  // order_no / event_no, unique within its kind
  int city = 0;         // index into kCities
  int total = 0;        // 0..999
  std::vector<int> words;  // note, as vocabulary ranks
};

// Ground truth of a set of rows: per-city count and SUM(total).
struct CityTotals {
  std::map<std::string, uint64_t> count;
  std::map<std::string, double> sum;
  void Add(const OrderRow& row);
};

std::string CsvHeader(const std::string& number_column);
std::string CsvLine(const OrderRow& row, const std::vector<std::string>& vocab);

// A two-word keyword query and its ground truth over one document set.
struct SearchQuery {
  std::string text;
  uint64_t df[2] = {0, 0};     // documents containing each word
  uint64_t matching_docs = 0;  // documents containing either word
  std::vector<char> contains;  // per document index: holds either word
};

// `count` queries of two distinct words among the `ranks` most frequent
// words, each rank used equally often; `doc_words` lists each document's
// word ranks.
std::vector<SearchQuery> MakeQueries(
    Rng* rng, const std::vector<std::string>& vocab, size_t count,
    size_t ranks, const std::vector<std::vector<int>>& doc_words);

// Latencies of one operation type, in ms.
using Samples = std::vector<double>;

double Median(std::vector<double> values);

// A tail latency: the highest percentile with at least 10 samples beyond it
// (the maximum when there are 10 or fewer samples).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> samples);

// Peak resident set (VmHWM) of this process, in MB.
double PeakRssMb();

// ----------------------------------------------------------- Host speed

// Runs a fixed piece of work that calls none of the appliance's code
// (formatting, string hashing, hash-table probes and a sort over fixed
// inputs) and returns how many milliseconds it took. It allocates no
// memory, so the state of the heap does not change its time.
double CalibrationMillis();
// Builds the calibration's inputs; call it at start, before the heap fills.
void PrepareCalibration();
// The host's speed now: the median of five CalibrationMillis() after one
// untimed run that brings their inputs back into the caches.
double HostSpeedMs();

// Times taken on a shared host, restated at a reference host speed. A
// shared host gives a process a speed that jumps by up to 1.8x within a
// second, so timed work is cut into short windows with HostSpeedMs()
// sampled at the edges; a time taken inside a window is multiplied by
// reference_ms / the mean of the speeds at its two edges.
class SpeedScale {
 public:
  explicit SpeedScale(double reference_ms) : reference_ms_(reference_ms) {}

  // Opens the first window at an edge of speed `edge_ms`.
  void Start(double edge_ms);
  // Holds a time taken in the open window. When the window closes it goes
  // to `scaled`, and as taken to `measured` unless that is null.
  void Add(double ms, Samples* scaled, Samples* measured = nullptr);
  // Closes the open window at an edge of speed `edge_ms` and opens the
  // next one.
  void Release(double edge_ms);
  // Every edge speed seen.
  const Samples& edges() const { return edges_; }

 private:
  struct Held {
    double ms;
    Samples* scaled;
    Samples* measured;
  };
  const double reference_ms_;
  double edge_ms_ = 0.0;
  std::vector<Held> held_;
  Samples edges_;
};

// ----------------------------------------------------------- Trace log

// One span of a traced request. Times are micros from the request's trace
// start. `parent` indexes the log's span vector (-1 for a request's root).
struct SpanRecord {
  uint64_t request = 0;
  std::string name;
  uint64_t start_us = 0;
  uint64_t end_us = 0;
  int64_t parent = -1;
  uint64_t self_us = 0;
};

// What one traced request adds up to, by span name (the root included):
// total time, and self time, the part of a span no child span covers.
// `counts` holds counter deltas the benchmark read around the call.
struct RequestSummary {
  std::string op;
  double root_us = 0.0;
  std::map<std::string, double> span_us;
  std::map<std::string, double> self_us;
  std::map<std::string, double> counts;
  uint64_t spans_dropped = 0;
};

// Spans of the traced run, kept in memory and written once the run ends.
// Program spans carry no parent, so a span's parent is the innermost span
// of the same request whose interval contains it.
class TraceLog {
 public:
  // A request timed by the benchmark itself: `root` wraps the call into the
  // appliance and lasted `root_us`. `program` is the obs trace that was
  // attached to it, if any; it started `program_offset_us` into the root.
  void AddBenchRequest(const std::string& op, const std::string& root,
                       uint64_t root_us,
                       std::map<std::string, double> counts = {},
                       const obs::FinishedTrace* program = nullptr,
                       uint64_t program_offset_us = 0);
  // A request traced by the server, logged as op "server.<op>"; its root
  // spans the whole trace.
  void AddServerTrace(const obs::FinishedTrace& trace);

  std::vector<RequestSummary> Summaries() const;
  bool WriteJsonLines(const std::string& path) const;

 private:
  void AddRequestLocked(RequestSummary summary, std::vector<SpanRecord> spans);

  mutable std::mutex mutex_;
  uint64_t next_request_ = 1;
  std::vector<SpanRecord> spans_;
  std::vector<RequestSummary> summaries_;
};

}  // namespace impliance::appbench

#endif  // IMPLIANCE_APPLIANCE_BENCH_BENCH_SUPPORT_H_
