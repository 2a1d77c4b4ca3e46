#ifndef IMPLIANCE_STORAGE_COLUMNAR_ENCODING_H_
#define IMPLIANCE_STORAGE_COLUMNAR_ENCODING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model/value.h"

namespace impliance::storage::columnar {

// Lightweight per-block codecs for one column's values. One encoding is
// chosen per column per segment (from the data, see ChooseEncoding); every
// block of that column in the segment uses it, so the scanner's inner
// decode loop is branch-free on the encoding.
//
// Block payload layout (appended to a std::string):
//   varint32 row_count
//   varint32 null_count
//   [null bitmap: (row_count+7)/8 bytes, bit i set = row i null]  (only
//    present when 0 < null_count < row_count; all-null blocks carry no
//    payload beyond the counts, null-free blocks skip the bitmap)
//   encoding-specific payload over the non-null values, in row order:
//     kPlain : Value::Encode per value
//     kRle   : runs of (varint32 run_length, Value::Encode value)
//     kDict  : varint32 code per value into the segment's per-column
//              dictionary (built by the segment builder, sorted, shared by
//              every block of the column)
//     kDelta : 1 type byte (kInt or kTimestamp), then zigzag varint64
//              first value followed by zigzag varint64 deltas
enum class Encoding : uint8_t {
  kPlain = 0,
  kRle = 1,
  kDict = 2,
  kDelta = 3,
};

// Appends the block payload for values[begin, end) of one column.
// kDict requires `dict` (sorted, binary-searchable) to contain every
// non-null value in the range; other encodings ignore it.
void EncodeBlock(Encoding encoding, const std::vector<model::Value>& values,
                 size_t begin, size_t end,
                 const std::vector<model::Value>& dict, std::string* out);

// Decodes one block payload from the front of *input, appending row_count
// values (nulls included, in row order) to *out. Returns false on
// malformed bytes — impossible for blocks this process encoded.
bool DecodeBlock(Encoding encoding, std::string_view* input,
                 const std::vector<model::Value>& dict,
                 std::vector<model::Value>* out);

// Statistics one pass over a column's segment slice gathers to pick its
// encoding (and to build the dictionary when kDict wins).
struct EncodingChoice {
  Encoding encoding = Encoding::kPlain;
  std::vector<model::Value> dict;  // populated iff encoding == kDict
};

// Encoding-choice rules, in order:
//   1. every non-null value int-typed (kInt or kTimestamp, uniformly) and
//      not run-dominated -> kDelta (delta+varint, tightest for monotone or
//      clustered ints);
//   2. average run length >= kRleMinRun -> kRle (sorted/low-churn columns);
//   3. string column with <= kDictMaxEntries distinct values -> kDict;
//   4. otherwise kPlain.
EncodingChoice ChooseEncoding(const std::vector<model::Value>& values,
                              size_t begin, size_t end);

inline constexpr size_t kRleMinRun = 4;
inline constexpr size_t kDictMaxEntries = 4096;

}  // namespace impliance::storage::columnar

#endif  // IMPLIANCE_STORAGE_COLUMNAR_ENCODING_H_
