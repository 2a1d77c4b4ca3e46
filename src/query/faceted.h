#ifndef IMPLIANCE_QUERY_FACETED_H_
#define IMPLIANCE_QUERY_FACETED_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "index/doc_bitmap.h"
#include "index/facet_index.h"
#include "index/inverted_index.h"
#include "index/path_index.h"
#include "index/value_index.h"
#include "model/document.h"

namespace impliance::query {

// The out-of-the-box interactive interface (Section 3.2.1): keyword search
// plus faceted drill-down plus OLAP-flavored aggregates over the matching
// set — "brings together keyword search, faceted search, and aspects from
// traditional OLAP".
struct FacetedQuery {
  std::string keywords;                         // optional (empty = all docs)
  std::string kind;                             // optional kind restriction
  // Drill-downs: path -> required value (applied conjunctively).
  std::vector<std::pair<std::string, model::Value>> drilldowns;
  // Facets to count over the matching set.
  std::vector<std::string> facet_paths;
  // Numeric range facets ("guided search" buckets): per path, explicit
  // bucket boundaries [b0, b1), [b1, b2), ... plus an open last bucket.
  struct RangeFacet {
    std::string path;
    std::vector<double> boundaries;  // ascending, at least one
  };
  std::vector<RangeFacet> range_facets;
  // Numeric aggregates over the matching set: path + function name
  // ("sum", "avg", "min", "max", "count").
  std::vector<std::pair<std::string, std::string>> aggregates;
  size_t top_k = 10;
  // When set, these documents may not contribute to the result — the
  // caller's exclusion set under partial cluster failure. They are dropped
  // from candidates, facet counts, and aggregates (the caller reports them
  // as missing rather than silently including a locally-cached ghost of an
  // unreachable partition).
  std::shared_ptr<const std::unordered_set<model::DocId>> exclude;
};

struct FacetedResult {
  // Matching documents: BM25-ranked when keywords given, id order otherwise.
  std::vector<model::DocId> docs;      // capped at top_k
  size_t total_matches = 0;
  // facet path -> value distribution.
  std::map<std::string, std::vector<index::FacetIndex::FacetCount>> facets;
  // range facet path -> per-bucket counts; bucket i covers
  // [boundaries[i-1], boundaries[i]) with an under-first and over-last
  // bucket, so counts.size() == boundaries.size() + 1.
  struct RangeBucket {
    double lower = 0;  // -inf for the first bucket (lower unused there)
    double upper = 0;  // +inf for the last bucket (upper unused there)
    size_t count = 0;
    bool open_below = false;
    bool open_above = false;
  };
  std::map<std::string, std::vector<RangeBucket>> range_facet_buckets;
  // "<fn>(<path>)" -> value.
  std::map<std::string, double> aggregate_values;
};

class FacetedSearch {
 public:
  // Indexes must outlive this object.
  FacetedSearch(const index::InvertedIndex* inverted,
                const index::PathIndex* paths,
                const index::FacetIndex* facets,
                const index::ValueIndex* values)
      : inverted_(inverted), paths_(paths), facets_(facets), values_(values) {}

  // Facet counts, range buckets, and aggregates are independent read-only
  // scans; with dop > 1 they fan out on the shared morsel-executor pool
  // (at most `dop` in flight). Results are identical at any dop.
  void set_parallelism(size_t dop) { dop_ = dop; }

  FacetedResult Run(const FacetedQuery& query) const;

 private:
  // The matching set after keywords, kind, exclusion and drill-downs. With
  // keywords, `ranked` receives every hit in score order.
  index::DocBitmap Candidates(const FacetedQuery& query,
                              std::vector<model::DocId>* ranked) const;

  const index::InvertedIndex* inverted_;
  const index::PathIndex* paths_;
  const index::FacetIndex* facets_;
  const index::ValueIndex* values_;
  size_t dop_ = 1;
};

}  // namespace impliance::query

#endif  // IMPLIANCE_QUERY_FACETED_H_
