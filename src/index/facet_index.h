#ifndef IMPLIANCE_INDEX_FACET_INDEX_H_
#define IMPLIANCE_INDEX_FACET_INDEX_H_

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "index/doc_bitmap.h"
#include "model/document.h"
#include "model/value.h"

namespace impliance::index {

// Facet counting structure for the guided-search interface (Section 3.2.1):
// per path, per distinct value, the sorted list of documents carrying it.
// Drill-down restricts a candidate bitmap by a facet value; counting
// produces the navigational links shown next to search results.
//
// Not internally synchronized.
class FacetIndex {
 public:
  struct FacetCount {
    model::Value value;
    size_t count = 0;
  };

  void AddDocument(const model::Document& doc);
  void RemoveDocument(const model::Document& doc);

  // Value distribution of `path` over `candidates`, descending by count
  // then ascending by value. At most `max_values`.
  std::vector<FacetCount> CountFacet(std::string_view path,
                                     const DocBitmap& candidates,
                                     size_t max_values) const;

  // Value distribution of `path` over the whole corpus.
  std::vector<FacetCount> CountFacetAll(std::string_view path,
                                        size_t max_values) const;

  // Drill-down: drops the members of `candidates` whose `path` is not
  // `value`.
  void Restrict(std::string_view path, const model::Value& value,
                DocBitmap* candidates) const;

 private:
  // Documents with `path` == `value`, ascending (empty when none).
  std::span<const model::DocId> DocsWithValue(std::string_view path,
                                              const model::Value& value) const;

  // path -> value -> sorted doc ids.
  std::map<std::string, std::map<model::Value, std::vector<model::DocId>>,
           std::less<>>
      facets_;
};

}  // namespace impliance::index

#endif  // IMPLIANCE_INDEX_FACET_INDEX_H_
