#ifndef IMPLIANCE_INDEX_PATH_INDEX_H_
#define IMPLIANCE_INDEX_PATH_INDEX_H_

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "model/document.h"

namespace impliance::index {

// Structural index: which documents contain which paths, plus a kind
// (schema-class) index. Supports structural search — "find documents that
// have a /doc/claim/procedure element" — independent of values, and drives
// view binding (all documents of a kind).
//
// Not internally synchronized.
class PathIndex {
 public:
  void AddDocument(const model::Document& doc);
  void RemoveDocument(const model::Document& doc);

  // Documents containing at least one node at `path`, ascending.
  std::vector<model::DocId> DocsWithPath(std::string_view path) const;

  // Documents of the given kind, ascending.
  std::vector<model::DocId> DocsOfKind(std::string_view kind) const;

  // Non-copying views of the same list, for per-query hot paths. The span
  // is invalidated by the next Add/RemoveDocument.
  std::span<const model::DocId> KindDocs(std::string_view kind) const;
  size_t KindSize(std::string_view kind) const {
    return KindDocs(kind).size();
  }
  bool KindContains(std::string_view kind, model::DocId id) const;

  // Distinct paths under documents of `kind` (union over documents).
  std::vector<std::string> PathsOfKind(std::string_view kind) const;

  // All kinds seen, sorted.
  std::vector<std::string> Kinds() const;

  size_t num_paths() const { return path_docs_.size(); }

 private:
  static void EraseFrom(std::vector<model::DocId>* docs, model::DocId id);

  std::map<std::string, std::vector<model::DocId>, std::less<>> path_docs_;
  std::map<std::string, std::vector<model::DocId>, std::less<>> kind_docs_;
  std::map<std::string, std::map<std::string, size_t>, std::less<>>
      kind_paths_;  // kind -> path -> #docs containing it
};

}  // namespace impliance::index

#endif  // IMPLIANCE_INDEX_PATH_INDEX_H_
