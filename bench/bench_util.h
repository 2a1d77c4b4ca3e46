#ifndef IMPLIANCE_BENCH_BENCH_UTIL_H_
#define IMPLIANCE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

namespace impliance::bench {

// Fixed-width table printer for experiment output. Columns sized to the
// widest cell; header separated by dashes.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths(header_.size());
    for (size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("  ");
      for (size_t i = 0; i < row.size(); ++i) {
        std::printf("%-*s  ", static_cast<int>(widths[i]), row[i].c_str());
      }
      std::printf("\n");
    };
    print_row(header_);
    std::string dashes = "  ";
    for (size_t w : widths) dashes += std::string(w, '-') + "  ";
    std::printf("%s\n", dashes.c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Exact samples with nearest-rank percentiles for experiment reports:
// benches record few enough values to keep every one.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  // Absorbs every sample of `other` (per-thread recordings into one).
  void Merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }

  size_t count() const { return values_.size(); }
  double Mean() const {
    if (values_.empty()) return 0.0;
    return std::accumulate(values_.begin(), values_.end(), 0.0) /
           static_cast<double>(values_.size());
  }
  double Max() const {
    return values_.empty() ? 0.0
                           : *std::max_element(values_.begin(), values_.end());
  }
  // p in [0, 100].
  double Percentile(double p) const {
    if (values_.empty()) return 0.0;
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values_.size())));
    const size_t index = std::min(rank == 0 ? 0 : rank - 1, values_.size() - 1);
    std::vector<double> sorted = values_;
    std::nth_element(sorted.begin(), sorted.begin() + index, sorted.end());
    return sorted[index];
  }
  double P50() const { return Percentile(50); }
  double P95() const { return Percentile(95); }
  double P99() const { return Percentile(99); }

 private:
  std::vector<double> values_;
};

inline std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

inline std::string FmtInt(uint64_t value) { return std::to_string(value); }

inline void Banner(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s: %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

}  // namespace impliance::bench

#endif  // IMPLIANCE_BENCH_BENCH_UTIL_H_
