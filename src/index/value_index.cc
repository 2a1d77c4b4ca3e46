#include "index/value_index.h"

#include <algorithm>

#include "model/item.h"

namespace impliance::index {

void ValueIndex::AddDocument(const model::Document& doc) {
  for (const model::PathValue& pv : model::CollectPaths(doc.root)) {
    if (pv.value->is_null()) continue;
    trees_[pv.path].Insert(*pv.value, doc.id);
  }
}

void ValueIndex::RemoveDocument(const model::Document& doc) {
  for (const model::PathValue& pv : model::CollectPaths(doc.root)) {
    if (pv.value->is_null()) continue;
    auto it = trees_.find(pv.path);
    if (it != trees_.end()) it->second.Erase(*pv.value, doc.id);
  }
}

std::vector<model::DocId> ValueIndex::Lookup(std::string_view path,
                                             const model::Value& value) const {
  return Range(path, &value, true, &value, true);
}

std::vector<model::DocId> ValueIndex::Range(std::string_view path,
                                            const model::Value* lo,
                                            bool lo_inclusive,
                                            const model::Value* hi,
                                            bool hi_inclusive) const {
  auto it = trees_.find(path);
  if (it == trees_.end()) return {};
  std::vector<model::DocId> docs;
  it->second.ScanRange(lo, lo_inclusive, hi, hi_inclusive,
                       [&docs](const model::Value&, model::DocId doc) {
                         docs.push_back(doc);
                         return true;
                       });
  std::sort(docs.begin(), docs.end());
  docs.erase(std::unique(docs.begin(), docs.end()), docs.end());
  return docs;
}

void ValueIndex::Scan(
    std::string_view path,
    const std::function<bool(const model::Value&, model::DocId)>& fn) const {
  auto it = trees_.find(path);
  if (it == trees_.end()) return;
  it->second.ScanRange(nullptr, true, nullptr, true, fn);
}

}  // namespace impliance::index
