#include "query/opt/stats.h"

#include <algorithm>
#include <set>

namespace impliance::query::opt {

namespace {

// k-minimum-values distinct-count sketch: track the k smallest distinct
// value hashes; the kth smallest estimates the hash-space density.
class KmvSketch {
 public:
  explicit KmvSketch(size_t k) : k_(k) {}

  void Add(uint64_t hash) {
    if (hashes_.size() >= k_ && hash >= *hashes_.rbegin()) return;
    hashes_.insert(hash);
    if (hashes_.size() > k_) hashes_.erase(std::prev(hashes_.end()));
  }

  uint64_t Estimate() const {
    if (hashes_.size() < k_) {
      return hashes_.size();  // saw every distinct hash
    }
    const uint64_t kth = *hashes_.rbegin();
    if (kth == 0) return hashes_.size();
    // E[ndv] = (k - 1) / fraction of hash space covered by the kth value.
    const double fraction =
        static_cast<double>(kth) / static_cast<double>(UINT64_MAX);
    return static_cast<uint64_t>(static_cast<double>(k_ - 1) / fraction);
  }

 private:
  size_t k_;
  std::set<uint64_t> hashes_;
};

}  // namespace

TableStats CollectTableStats(const Table& table, const StatsOptions& options) {
  TableStats stats;
  stats.table_name = table.table_name();
  stats.row_count = table.RowCount();
  stats.data_version = table.DataVersion();

  const size_t width = table.schema().size();
  stats.columns.resize(width);
  std::vector<KmvSketch> sketches(width, KmvSketch(options.kmv_k));

  // One pass over a prefix sample, streamed batch-wise so the scan stops
  // after the cap instead of materializing the table (the old ScanAll path
  // copied every row just to read the first few thousand). The cap bounds
  // the per-column sketch work, which dominates.
  const size_t cap = std::max<size_t>(1, options.sample_rows);
  std::unique_ptr<TableScan> scan = table.ScanBatches({});
  scan->Open();
  exec::RowBatch batch;
  size_t sample = 0;
  while (sample < cap && scan->NextBatch(&batch)) {
    for (const exec::Row& row : batch.rows) {
      if (sample >= cap) break;
      ++sample;
      for (size_t c = 0; c < width && c < row.size(); ++c) {
        const model::Value& value = row[c];
        ColumnStats& column = stats.columns[c];
        if (value.is_null()) {
          ++column.null_count;
          continue;
        }
        sketches[c].Add(value.HashValue());
        if (column.min.is_null() || value.Compare(column.min) < 0) {
          column.min = value;
        }
        if (column.max.is_null() || value.Compare(column.max) > 0) {
          column.max = value;
        }
      }
    }
  }
  scan->Close();
  stats.sampled_rows = sample;

  // Backends with storage metadata (columnar zone maps) answer min/max and
  // null counts exactly — prefer that over the sampled figures. NDV still
  // comes from the sample sketch.
  for (size_t c = 0; c < width; ++c) {
    const auto summary = table.SummarizeColumn(static_cast<int>(c));
    if (!summary.has_value()) continue;
    ColumnStats& column = stats.columns[c];
    column.min = summary->min;
    column.max = summary->max;
    column.null_count = summary->null_count;
  }

  for (size_t c = 0; c < width; ++c) {
    uint64_t ndv = sketches[c].Estimate();
    if (sample > 0 && stats.row_count > sample) {
      // Partial sample: a near-unique column's distinct count grows with
      // the table, a saturated one's does not. Scale only the former.
      if (ndv * 10 >= sample * 9) {
        ndv = static_cast<uint64_t>(
            static_cast<double>(ndv) *
            (static_cast<double>(stats.row_count) / sample));
      }
    }
    stats.columns[c].ndv = std::min<uint64_t>(ndv, stats.row_count);
  }
  return stats;
}

}  // namespace impliance::query::opt
