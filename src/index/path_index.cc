#include "index/path_index.h"

#include <algorithm>

#include "model/item.h"

namespace impliance::index {

void PathIndex::AddDocument(const model::Document& doc) {
  std::vector<std::string> paths = model::CollectDistinctPaths(doc.root);
  for (const std::string& path : paths) {
    std::vector<model::DocId>& docs = path_docs_[path];
    auto it = std::lower_bound(docs.begin(), docs.end(), doc.id);
    if (it == docs.end() || *it != doc.id) docs.insert(it, doc.id);
    kind_paths_[doc.kind][path]++;
  }
  std::vector<model::DocId>& kind_docs = kind_docs_[doc.kind];
  auto it = std::lower_bound(kind_docs.begin(), kind_docs.end(), doc.id);
  if (it == kind_docs.end() || *it != doc.id) kind_docs.insert(it, doc.id);
}

void PathIndex::EraseFrom(std::vector<model::DocId>* docs, model::DocId id) {
  auto it = std::lower_bound(docs->begin(), docs->end(), id);
  if (it != docs->end() && *it == id) docs->erase(it);
}

void PathIndex::RemoveDocument(const model::Document& doc) {
  for (const std::string& path : model::CollectDistinctPaths(doc.root)) {
    auto it = path_docs_.find(path);
    if (it != path_docs_.end()) {
      EraseFrom(&it->second, doc.id);
      if (it->second.empty()) path_docs_.erase(it);
    }
    auto kp = kind_paths_.find(doc.kind);
    if (kp != kind_paths_.end()) {
      auto count_it = kp->second.find(path);
      if (count_it != kp->second.end() && --count_it->second == 0) {
        kp->second.erase(count_it);
      }
    }
  }
  auto it = kind_docs_.find(doc.kind);
  if (it != kind_docs_.end()) {
    EraseFrom(&it->second, doc.id);
    if (it->second.empty()) kind_docs_.erase(it);
  }
}

std::vector<model::DocId> PathIndex::DocsWithPath(std::string_view path) const {
  auto it = path_docs_.find(path);
  return it == path_docs_.end() ? std::vector<model::DocId>{} : it->second;
}

std::vector<model::DocId> PathIndex::DocsOfKind(std::string_view kind) const {
  auto it = kind_docs_.find(kind);
  return it == kind_docs_.end() ? std::vector<model::DocId>{} : it->second;
}

std::span<const model::DocId> PathIndex::KindDocs(std::string_view kind) const {
  auto it = kind_docs_.find(kind);
  if (it == kind_docs_.end()) return {};
  return it->second;
}

bool PathIndex::KindContains(std::string_view kind, model::DocId id) const {
  std::span<const model::DocId> docs = KindDocs(kind);
  return std::binary_search(docs.begin(), docs.end(), id);
}

std::vector<std::string> PathIndex::PathsOfKind(std::string_view kind) const {
  auto it = kind_paths_.find(kind);
  if (it == kind_paths_.end()) return {};
  std::vector<std::string> paths;
  paths.reserve(it->second.size());
  for (const auto& [path, count] : it->second) paths.push_back(path);
  return paths;
}

std::vector<std::string> PathIndex::Kinds() const {
  std::vector<std::string> kinds;
  kinds.reserve(kind_docs_.size());
  for (const auto& [kind, docs] : kind_docs_) kinds.push_back(kind);
  return kinds;
}

}  // namespace impliance::index
