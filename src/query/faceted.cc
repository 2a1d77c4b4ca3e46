#include "query/faceted.h"

#include <algorithm>
#include <functional>
#include <span>

#include "exec/parallel.h"
#include "obs/trace.h"

namespace impliance::query {

index::DocBitmap FacetedSearch::Candidates(
    const FacetedQuery& query, std::vector<model::DocId>* ranked) const {
  // 1. Keywords -> ranked hits; else all docs of the kind (or all docs with
  // any indexed path).
  index::DocBitmap candidates;
  if (!query.keywords.empty()) {
    for (const auto& hit :
         inverted_->Search(query.keywords, static_cast<size_t>(-1))) {
      ranked->push_back(hit.doc);
    }
    candidates = index::DocBitmap::Of(*ranked);
    // 2. Kind restriction when keywords were also given.
    if (!query.kind.empty()) {
      candidates.IntersectSorted(paths_->KindDocs(query.kind));
    }
  } else if (!query.kind.empty()) {
    candidates = index::DocBitmap::Of(paths_->KindDocs(query.kind));
  } else {
    std::vector<model::DocId> all;
    for (const std::string& kind : paths_->Kinds()) {
      std::span<const model::DocId> docs = paths_->KindDocs(kind);
      all.insert(all.end(), docs.begin(), docs.end());
    }
    candidates = index::DocBitmap::Of(all);
  }

  // 2b. Availability restriction: drop candidates the caller knows it
  // cannot legitimately serve, before any counting happens.
  if (query.exclude != nullptr) {
    for (model::DocId doc : *query.exclude) candidates.Clear(doc);
  }

  // 3. Drill-downs.
  for (const auto& [path, value] : query.drilldowns) {
    facets_->Restrict(path, value, &candidates);
  }
  return candidates;
}

FacetedResult FacetedSearch::Run(const FacetedQuery& query) const {
  FacetedResult result;
  std::vector<model::DocId> ranked;  // keyword order
  index::DocBitmap candidates;
  {
    obs::ScopedSpan candidates_span("facet.candidates");
    candidates = Candidates(query, &ranked);
    result.total_matches = candidates.Count();

    // 4. Top-k results. Preserve keyword ranking when present.
    if (!ranked.empty()) {
      for (model::DocId doc : ranked) {
        if (result.docs.size() >= query.top_k) break;
        if (candidates.Contains(doc)) result.docs.push_back(doc);
      }
    } else {
      candidates.ForEach([&](model::DocId doc) {
        if (result.docs.size() >= query.top_k) return false;
        result.docs.push_back(doc);
        return true;
      });
    }
  }

  // 5/5b/6. Facet counts, range buckets, and aggregates are independent
  // read-only scans over the (now immutable) candidate set; fan them out
  // with at most dop_ in flight, each writing its own slot, then fold the
  // slots into the result maps serially.
  std::vector<std::vector<index::FacetIndex::FacetCount>> facet_slots(
      query.facet_paths.size());
  std::vector<std::vector<FacetedResult::RangeBucket>> range_slots(
      query.range_facets.size());
  std::vector<double> aggregate_slots(query.aggregates.size());
  std::vector<std::function<void()>> tasks;

  // 5. Facet counts over the full matching set (not just top-k).
  for (size_t i = 0; i < query.facet_paths.size(); ++i) {
    tasks.push_back([this, &query, &candidates, &facet_slots, i] {
      facet_slots[i] = facets_->CountFacet(query.facet_paths[i], candidates, 20);
    });
  }

  // 5b. Numeric range facets: bucketize each candidate's value at the
  // path via one ordered scan of the value index.
  for (size_t i = 0; i < query.range_facets.size(); ++i) {
    tasks.push_back([this, &query, &candidates, &range_slots, i] {
      const FacetedQuery::RangeFacet& range = query.range_facets[i];
      if (range.boundaries.empty()) return;
      std::vector<FacetedResult::RangeBucket> buckets(range.boundaries.size() +
                                                      1);
      buckets.front().open_below = true;
      buckets.front().upper = range.boundaries.front();
      for (size_t b = 1; b < range.boundaries.size(); ++b) {
        buckets[b].lower = range.boundaries[b - 1];
        buckets[b].upper = range.boundaries[b];
      }
      buckets.back().lower = range.boundaries.back();
      buckets.back().open_above = true;
      values_->Scan(range.path,
                    [&](const model::Value& value, model::DocId doc) {
                      if (!candidates.Contains(doc)) return true;
                      const double v = value.AsDouble();
                      size_t bucket = 0;
                      while (bucket < range.boundaries.size() &&
                             v >= range.boundaries[bucket]) {
                        ++bucket;
                      }
                      ++buckets[bucket].count;
                      return true;
                    });
      range_slots[i] = std::move(buckets);
    });
  }

  // 6. Aggregates over the matching set via the value index.
  for (size_t i = 0; i < query.aggregates.size(); ++i) {
    tasks.push_back([this, &query, &candidates, &aggregate_slots, i] {
      const auto& [path, fn] = query.aggregates[i];
      double sum = 0, min = 0, max = 0;
      size_t count = 0;
      values_->Scan(path, [&](const model::Value& value, model::DocId doc) {
        if (!candidates.Contains(doc)) return true;
        const double v = value.AsDouble();
        if (count == 0) {
          min = v;
          max = v;
        } else {
          min = std::min(min, v);
          max = std::max(max, v);
        }
        sum += v;
        ++count;
        return true;
      });
      if (fn == "sum") {
        aggregate_slots[i] = sum;
      } else if (fn == "avg") {
        aggregate_slots[i] = count == 0 ? 0.0 : sum / count;
      } else if (fn == "min") {
        aggregate_slots[i] = min;
      } else if (fn == "max") {
        aggregate_slots[i] = max;
      } else {
        aggregate_slots[i] = static_cast<double>(count);
      }
    });
  }

  {
    obs::ScopedSpan count_span("facet.count");
    exec::ParallelExecutor::Shared().RunTasks(std::move(tasks), dop_);
  }

  for (size_t i = 0; i < query.facet_paths.size(); ++i) {
    result.facets[query.facet_paths[i]] = std::move(facet_slots[i]);
  }
  for (size_t i = 0; i < query.range_facets.size(); ++i) {
    if (query.range_facets[i].boundaries.empty()) continue;
    result.range_facet_buckets[query.range_facets[i].path] =
        std::move(range_slots[i]);
  }
  for (size_t i = 0; i < query.aggregates.size(); ++i) {
    const auto& [path, fn] = query.aggregates[i];
    result.aggregate_values[fn + "(" + path + ")"] = aggregate_slots[i];
  }
  return result;
}

}  // namespace impliance::query
