#include "index/facet_index.h"

#include <algorithm>

#include "model/item.h"

namespace impliance::index {

void FacetIndex::AddDocument(const model::Document& doc) {
  for (const model::PathValue& pv : model::CollectPaths(doc.root)) {
    if (pv.value->is_null()) continue;
    std::vector<model::DocId>& docs = facets_[pv.path][*pv.value];
    auto it = std::lower_bound(docs.begin(), docs.end(), doc.id);
    if (it == docs.end() || *it != doc.id) docs.insert(it, doc.id);
  }
}

void FacetIndex::RemoveDocument(const model::Document& doc) {
  for (const model::PathValue& pv : model::CollectPaths(doc.root)) {
    if (pv.value->is_null()) continue;
    auto path_it = facets_.find(pv.path);
    if (path_it == facets_.end()) continue;
    auto value_it = path_it->second.find(*pv.value);
    if (value_it == path_it->second.end()) continue;
    std::vector<model::DocId>& docs = value_it->second;
    auto it = std::lower_bound(docs.begin(), docs.end(), doc.id);
    if (it != docs.end() && *it == doc.id) docs.erase(it);
    if (docs.empty()) path_it->second.erase(value_it);
  }
}

std::vector<FacetIndex::FacetCount> FacetIndex::CountFacet(
    std::string_view path, const DocBitmap& candidates,
    size_t max_values) const {
  auto path_it = facets_.find(path);
  if (path_it == facets_.end()) return {};
  std::vector<FacetCount> counts;
  for (const auto& [value, docs] : path_it->second) {
    const size_t n = candidates.CountIn(docs);
    if (n > 0) counts.push_back(FacetCount{value, n});
  }
  std::sort(counts.begin(), counts.end(),
            [](const FacetCount& a, const FacetCount& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.value < b.value;
            });
  if (counts.size() > max_values) counts.resize(max_values);
  return counts;
}

std::vector<FacetIndex::FacetCount> FacetIndex::CountFacetAll(
    std::string_view path, size_t max_values) const {
  auto path_it = facets_.find(path);
  if (path_it == facets_.end()) return {};
  std::vector<FacetCount> counts;
  for (const auto& [value, docs] : path_it->second) {
    counts.push_back(FacetCount{value, docs.size()});
  }
  std::sort(counts.begin(), counts.end(),
            [](const FacetCount& a, const FacetCount& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.value < b.value;
            });
  if (counts.size() > max_values) counts.resize(max_values);
  return counts;
}

void FacetIndex::Restrict(std::string_view path, const model::Value& value,
                          DocBitmap* candidates) const {
  candidates->IntersectSorted(DocsWithValue(path, value));
}

std::span<const model::DocId> FacetIndex::DocsWithValue(
    std::string_view path, const model::Value& value) const {
  auto path_it = facets_.find(path);
  if (path_it == facets_.end()) return {};
  auto value_it = path_it->second.find(value);
  if (value_it == path_it->second.end()) return {};
  return value_it->second;
}

}  // namespace impliance::index
