#ifndef IMPLIANCE_INDEX_VALUE_INDEX_H_
#define IMPLIANCE_INDEX_VALUE_INDEX_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "index/btree.h"
#include "model/document.h"

namespace impliance::index {

// Ordered index over (path, value) pairs: one B+-tree per document path.
// Together with the path index this realizes "automatically indexes each
// document by its values as well as its structures" (Section 3.2) — every
// leaf value of every document is indexed without any CREATE INDEX.
//
// Not internally synchronized.
class ValueIndex {
 public:
  // Indexes every non-null leaf (path, value) of `doc`.
  void AddDocument(const model::Document& doc);

  // Removes the entries of `doc` (exact same tree must be passed, i.e. the
  // version that was added).
  void RemoveDocument(const model::Document& doc);

  // Documents where `path` has exactly `value`, ascending, deduplicated.
  std::vector<model::DocId> Lookup(std::string_view path,
                                   const model::Value& value) const;

  // Documents where `path` falls in [lo, hi] (nullptr = unbounded),
  // ascending, deduplicated.
  std::vector<model::DocId> Range(std::string_view path,
                                  const model::Value* lo, bool lo_inclusive,
                                  const model::Value* hi,
                                  bool hi_inclusive) const;

  // Visits (value, doc) pairs of `path` in value order.
  void Scan(std::string_view path,
            const std::function<bool(const model::Value&, model::DocId)>& fn)
      const;

  size_t num_paths() const { return trees_.size(); }

 private:
  std::map<std::string, BPlusTree, std::less<>> trees_;
};

}  // namespace impliance::index

#endif  // IMPLIANCE_INDEX_VALUE_INDEX_H_
