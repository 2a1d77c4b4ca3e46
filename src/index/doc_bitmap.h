#ifndef IMPLIANCE_INDEX_DOC_BITMAP_H_
#define IMPLIANCE_INDEX_DOC_BITMAP_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/document.h"

namespace impliance::index {

// A set of document ids as one bit per id over a fixed range [first, last].
// The store allocates ids sequentially, so a query's candidate set is dense
// in its range and every membership test is a single bit probe. Ids outside
// the range are never members; probing or clearing them is allowed.
class DocBitmap {
 public:
  DocBitmap() = default;  // empty, covers no ids

  // The set of `ids`, in any order, over [min, max] of `ids`.
  static DocBitmap Of(std::span<const model::DocId> ids) {
    DocBitmap bitmap;
    if (ids.empty()) return bitmap;
    const auto [lo, hi] = std::minmax_element(ids.begin(), ids.end());
    bitmap.first_ = *lo;
    bitmap.span_ = *hi - *lo + 1;
    bitmap.words_.resize((bitmap.span_ + 63) / 64);
    for (model::DocId id : ids) {
      const uint64_t offset = id - bitmap.first_;
      bitmap.words_[offset >> 6] |= Bit(offset);
    }
    return bitmap;
  }

  void Clear(model::DocId id) {
    const uint64_t offset = id - first_;
    if (offset < span_) words_[offset >> 6] &= ~Bit(offset);
  }

  bool Contains(model::DocId id) const {
    // Unsigned: an id below first_ wraps to an offset past span_.
    const uint64_t offset = id - first_;
    return offset < span_ && (words_[offset >> 6] & Bit(offset)) != 0;
  }

  // Members that appear in `sorted` (ascending, no repeats).
  size_t CountIn(std::span<const model::DocId> sorted) const {
    size_t n = 0;
    for (auto it = std::lower_bound(sorted.begin(), sorted.end(), first_);
         it != sorted.end() && *it - first_ < span_; ++it) {
      n += Contains(*it);
    }
    return n;
  }

  // Keeps only the members that appear in `sorted` (ascending).
  void IntersectSorted(std::span<const model::DocId> sorted) {
    std::vector<uint64_t> keep(words_.size());
    for (auto it = std::lower_bound(sorted.begin(), sorted.end(), first_);
         it != sorted.end() && *it - first_ < span_; ++it) {
      const uint64_t offset = *it - first_;
      keep[offset >> 6] |= Bit(offset);
    }
    for (size_t w = 0; w < words_.size(); ++w) words_[w] &= keep[w];
  }

  size_t Count() const {
    size_t n = 0;
    for (uint64_t word : words_) n += std::popcount(word);
    return n;
  }

  // Calls fn(id) for each member in ascending order until fn returns false.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        if (!fn(first_ + w * 64 + std::countr_zero(bits))) return;
      }
    }
  }

 private:
  static uint64_t Bit(uint64_t offset) { return uint64_t{1} << (offset & 63); }

  model::DocId first_ = 0;
  uint64_t span_ = 0;  // number of ids covered: last - first + 1
  std::vector<uint64_t> words_;
};

}  // namespace impliance::index

#endif  // IMPLIANCE_INDEX_DOC_BITMAP_H_
