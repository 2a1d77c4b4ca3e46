#include "bench_support.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string_view>

namespace impliance::appbench {

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::vector<std::string> MakeVocabulary(size_t size, const std::string& tag) {
  static const char kConsonants[] = "bdfgklmnprstvz";
  static const char kVowels[] = "aeiou";
  const size_t syllables = (sizeof(kConsonants) - 1) * (sizeof(kVowels) - 1);
  std::vector<std::string> words;
  words.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    std::string word = tag;
    size_t code = i;
    for (int s = 0; s < 3; ++s) {
      const size_t syllable = code % syllables;
      code /= syllables;
      word += kConsonants[syllable / (sizeof(kVowels) - 1)];
      word += kVowels[syllable % (sizeof(kVowels) - 1)];
    }
    words.push_back(std::move(word));
  }
  return words;
}

const char* const kCities[8] = {"amsterdam", "berlin", "chicago", "delhi",
                                "lagos",     "lima",   "osaka",   "sydney"};

void CityTotals::Add(const OrderRow& row) {
  ++count[kCities[row.city]];
  sum[kCities[row.city]] += row.total;
}

std::string CsvHeader(const std::string& number_column) {
  return number_column + ",city,total,note\n";
}

std::string CsvLine(const OrderRow& row,
                    const std::vector<std::string>& vocab) {
  std::string line = std::to_string(row.number) + "," + kCities[row.city] +
                     "," + std::to_string(row.total) + ",";
  for (size_t i = 0; i < row.words.size(); ++i) {
    if (i > 0) line += ' ';
    line += vocab[row.words[i]];
  }
  line += '\n';
  return line;
}

std::vector<SearchQuery> MakeQueries(
    Rng* rng, const std::vector<std::string>& vocab, size_t count,
    size_t ranks, const std::vector<std::vector<int>>& doc_words) {
  std::vector<std::pair<int, int>> pairs;
  std::vector<int> slot(vocab.size(), -1);  // rank -> row of `has`
  std::vector<std::vector<char>> has;
  auto slot_of = [&](int rank) {
    if (slot[rank] < 0) {
      slot[rank] = static_cast<int>(has.size());
      has.emplace_back(doc_words.size(), 0);
    }
    return slot[rank];
  };
  // Every rank is the first word of one query in each run of `ranks`
  // queries, and the second word of one, in a shuffled order: a word's
  // rank sets how long its posting list is, so this keeps the mix of cheap
  // and costly queries the same whatever the seed.
  std::vector<int> seconds(ranks);
  for (size_t q = 0; q < count; ++q) {
    if (q % ranks == 0) {
      for (size_t i = 0; i < ranks; ++i) seconds[i] = static_cast<int>(i);
      for (size_t i = ranks - 1; i > 0; --i) {
        std::swap(seconds[i], seconds[rng->Uniform(i + 1)]);
      }
    }
    const int first = static_cast<int>(q % ranks);
    int second = seconds[q % ranks];
    if (second == first) second = (second + 1) % static_cast<int>(ranks);
    slot_of(first);
    slot_of(second);
    pairs.push_back({first, second});
  }
  for (size_t d = 0; d < doc_words.size(); ++d) {
    for (int rank : doc_words[d]) {
      if (slot[rank] >= 0) has[slot[rank]][d] = 1;
    }
  }
  std::vector<SearchQuery> queries;
  for (const auto& [first, second] : pairs) {
    SearchQuery query;
    query.text = vocab[first] + " " + vocab[second];
    const std::vector<char>& a = has[slot[first]];
    const std::vector<char>& b = has[slot[second]];
    query.contains.resize(doc_words.size());
    for (size_t d = 0; d < doc_words.size(); ++d) {
      query.df[0] += a[d];
      query.df[1] += b[d];
      query.contains[d] = a[d] | b[d];
      query.matching_docs += query.contains[d];
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Tail TailOf(std::vector<double> samples) {
  Tail tail;
  const size_t n = samples.size();
  tail.samples = n;
  if (n == 0) return tail;
  std::sort(samples.begin(), samples.end());
  if (n <= 10) {
    tail.value = samples.back();
  } else {
    tail.value = samples[n - 11];
    tail.percentile = 100.0 * (n - 10) / n;
  }
  return tail;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ----------------------------------------------------------- Host speed

namespace {

// Fixed keys in one contiguous buffer and an open-addressing table of them,
// so their layout in memory does not depend on what the heap held before.
class CalibrationInputs {
 public:
  static constexpr size_t kKeys = 16384;
  static constexpr size_t kSlots = 32768;  // a power of two

  CalibrationInputs() : slots_(kSlots, 0) {
    Rng rng(0x5eed);
    const std::vector<std::string> words = MakeVocabulary(4096, "w");
    std::vector<size_t> offsets;
    for (size_t i = 0; i < kKeys; ++i) {
      offsets.push_back(text_.size());
      text_ += words[rng.Uniform(words.size())] + "-" +
               words[rng.Uniform(words.size())];
    }
    offsets.push_back(text_.size());
    for (size_t i = 0; i < kKeys; ++i) {
      keys_.emplace_back(text_.data() + offsets[i], offsets[i + 1] - offsets[i]);
      size_t slot = Hash(keys_[i]);
      while (slots_[slot] != 0) slot = (slot + 1) % kSlots;
      slots_[slot] = static_cast<uint32_t>(i + 1);
    }
  }

  const std::vector<std::string_view>& keys() const { return keys_; }

  // The key's index plus one, or 0 when it is not a key.
  uint32_t Find(std::string_view key) const {
    for (size_t slot = Hash(key);; slot = (slot + 1) % kSlots) {
      const uint32_t entry = slots_[slot];
      if (entry == 0 || keys_[entry - 1] == key) return entry;
    }
  }

 private:
  static size_t Hash(std::string_view key) {
    return std::hash<std::string_view>{}(key) % kSlots;
  }

  std::string text_;
  std::vector<std::string_view> keys_;
  std::vector<uint32_t> slots_;
};

const CalibrationInputs& Inputs() {
  static const CalibrationInputs* const inputs = new CalibrationInputs();
  return *inputs;
}

}  // namespace

void PrepareCalibration() { Inputs(); }

double CalibrationMillis() {
  const CalibrationInputs& inputs = Inputs();
  const std::vector<std::string_view>& keys = inputs.keys();
  thread_local std::vector<std::string_view> sorted(256);
  const uint64_t t0 = NowNanos();
  uint64_t sum = 0;
  char probe[64];
  for (size_t i = 0; i < 512; ++i) {
    const std::string_view key = keys[(i * 7919) % keys.size()];
    sum += inputs.Find(key);
    const int length = std::snprintf(probe, sizeof(probe), "%.*s/%zu",
                                     static_cast<int>(key.size()), key.data(),
                                     i);
    sum += inputs.Find(std::string_view(probe, length));
  }
  for (size_t i = 0; i < sorted.size(); ++i) {
    sorted[i] = keys[(i * 104729) % keys.size()];
  }
  std::sort(sorted.begin(), sorted.end());
  sum += sorted.front().size() + sorted.back().size();
  const uint64_t t1 = NowNanos();
  static std::atomic<uint64_t> sink{0};
  sink.fetch_add(sum, std::memory_order_relaxed);
  return (t1 - t0) / 1e6;
}

double HostSpeedMs() {
  CalibrationMillis();
  Samples times;
  for (int i = 0; i < 5; ++i) times.push_back(CalibrationMillis());
  return Median(std::move(times));
}

void SpeedScale::Start(double edge_ms) {
  held_.clear();
  edge_ms_ = edge_ms;
  edges_.push_back(edge_ms);
}

void SpeedScale::Add(double ms, Samples* scaled, Samples* measured) {
  held_.push_back({ms, scaled, measured});
}

void SpeedScale::Release(double edge_ms) {
  const double factor = reference_ms_ / ((edge_ms_ + edge_ms) / 2);
  for (const Held& held : held_) {
    held.scaled->push_back(held.ms * factor);
    if (held.measured != nullptr) held.measured->push_back(held.ms);
  }
  held_.clear();
  edge_ms_ = edge_ms;
  edges_.push_back(edge_ms);
}

// ------------------------------------------------------------ TraceLog

namespace {

// Length of the union of [start, end) intervals, clipped to [lo, hi).
uint64_t CoveredMicros(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                       uint64_t lo, uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    cursor = end;
  }
  return covered;
}

}  // namespace

void TraceLog::AddBenchRequest(const std::string& op, const std::string& root,
                               uint64_t root_us,
                               std::map<std::string, double> counts,
                               const obs::FinishedTrace* program,
                               uint64_t program_offset_us) {
  std::vector<SpanRecord> spans;
  spans.push_back({0, root, 0, root_us, -1, 0});
  if (program != nullptr) {
    for (const obs::Span& span : program->spans) {
      const uint64_t start = program_offset_us + span.start_micros;
      spans.push_back({0, span.name, start, start + span.duration_micros, -1,
                       0});
    }
  }
  RequestSummary summary;
  summary.op = op;
  summary.counts = std::move(counts);
  summary.spans_dropped = program == nullptr ? 0 : program->spans_dropped;
  std::lock_guard<std::mutex> lock(mutex_);
  AddRequestLocked(std::move(summary), std::move(spans));
}

void TraceLog::AddServerTrace(const obs::FinishedTrace& trace) {
  std::vector<SpanRecord> spans;
  spans.push_back({0, "server.request", 0, trace.total_micros, -1, 0});
  for (const obs::Span& span : trace.spans) {
    spans.push_back({0, span.name, span.start_micros,
                     span.start_micros + span.duration_micros, -1, 0});
  }
  RequestSummary summary;
  summary.op = "server." + trace.op;
  summary.spans_dropped = trace.spans_dropped;
  std::lock_guard<std::mutex> lock(mutex_);
  AddRequestLocked(std::move(summary), std::move(spans));
}

void TraceLog::AddRequestLocked(RequestSummary summary,
                                std::vector<SpanRecord> spans) {
  const uint64_t request = next_request_++;
  // The root comes first; the rest nest by interval: earliest start first,
  // longest first among equal starts, so an enclosing span precedes what
  // it contains.
  std::sort(spans.begin() + 1, spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.end_us > b.end_us;
            });
  std::vector<size_t> stack = {0};
  for (size_t i = 1; i < spans.size(); ++i) {
    // Sorted by start, so the top contains span i unless it ends first.
    while (stack.size() > 1 && spans[stack.back()].end_us < spans[i].end_us) {
      stack.pop_back();
    }
    spans[i].parent = static_cast<int64_t>(stack.back());
    stack.push_back(i);
  }
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (size_t i = 1; i < spans.size(); ++i) {
    children[spans[i].parent].push_back({spans[i].start_us, spans[i].end_us});
  }
  const size_t base = spans_.size();
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanRecord& span = spans[i];
    const uint64_t duration = span.end_us - span.start_us;
    span.self_us = duration - CoveredMicros(children[i], span.start_us,
                                            span.end_us);
    span.request = request;
    if (i == 0) summary.root_us = static_cast<double>(duration);
    if (i > 0) span.parent += static_cast<int64_t>(base);
    summary.span_us[span.name] += static_cast<double>(duration);
    summary.self_us[span.name] += static_cast<double>(span.self_us);
    spans_.push_back(std::move(span));
  }
  summaries_.push_back(std::move(summary));
}

std::vector<RequestSummary> TraceLog::Summaries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return summaries_;
}

bool TraceLog::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    std::fprintf(out,
                 "{\"span\":%zu,\"request\":%llu,\"name\":\"%s\","
                 "\"start_us\":%llu,\"end_us\":%llu,\"parent\":%lld,"
                 "\"self_us\":%llu}\n",
                 i, static_cast<unsigned long long>(span.request),
                 span.name.c_str(),
                 static_cast<unsigned long long>(span.start_us),
                 static_cast<unsigned long long>(span.end_us),
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.self_us));
  }
  return std::fclose(out) == 0;
}

}  // namespace impliance::appbench
