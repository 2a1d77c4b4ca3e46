#include "storage/columnar/encoding.h"

#include <algorithm>
#include <map>

#include "common/coding.h"
#include "common/logging.h"

namespace impliance::storage::columnar {

namespace {

bool IsIntFamily(const model::Value& value, model::ValueType* type) {
  const model::ValueType t = value.type();
  if (t != model::ValueType::kInt && t != model::ValueType::kTimestamp) {
    return false;
  }
  if (*type == model::ValueType::kNull) *type = t;
  return t == *type;
}

int64_t IntPayload(const model::Value& value) {
  return value.type() == model::ValueType::kTimestamp ? value.timestamp_value()
                                                      : value.int_value();
}

model::Value MakeIntFamily(model::ValueType type, int64_t payload) {
  return type == model::ValueType::kTimestamp ? model::Value::Timestamp(payload)
                                              : model::Value::Int(payload);
}

void AppendNullBitmap(const std::vector<model::Value>& values, size_t begin,
                      size_t end, std::string* out) {
  const size_t rows = end - begin;
  std::string bitmap((rows + 7) / 8, '\0');
  for (size_t i = 0; i < rows; ++i) {
    if (values[begin + i].is_null()) {
      bitmap[i / 8] |= static_cast<char>(1u << (i % 8));
    }
  }
  out->append(bitmap);
}

}  // namespace

void EncodeBlock(Encoding encoding, const std::vector<model::Value>& values,
                 size_t begin, size_t end,
                 const std::vector<model::Value>& dict, std::string* out) {
  IMPLIANCE_CHECK(end >= begin && end <= values.size());
  const uint32_t rows = static_cast<uint32_t>(end - begin);
  uint32_t nulls = 0;
  for (size_t i = begin; i < end; ++i) {
    if (values[i].is_null()) ++nulls;
  }
  PutVarint32(out, rows);
  PutVarint32(out, nulls);
  if (nulls > 0 && nulls < rows) AppendNullBitmap(values, begin, end, out);
  if (nulls == rows) return;  // all-null (or empty): counts say everything

  switch (encoding) {
    case Encoding::kPlain:
      for (size_t i = begin; i < end; ++i) {
        if (!values[i].is_null()) values[i].Encode(out);
      }
      break;
    case Encoding::kRle: {
      const model::Value* run_value = nullptr;
      uint32_t run_length = 0;
      for (size_t i = begin; i < end; ++i) {
        if (values[i].is_null()) continue;
        if (run_value != nullptr && values[i].Compare(*run_value) == 0) {
          ++run_length;
          continue;
        }
        if (run_value != nullptr) {
          PutVarint32(out, run_length);
          run_value->Encode(out);
        }
        run_value = &values[i];
        run_length = 1;
      }
      if (run_value != nullptr) {
        PutVarint32(out, run_length);
        run_value->Encode(out);
      }
      break;
    }
    case Encoding::kDict:
      for (size_t i = begin; i < end; ++i) {
        if (values[i].is_null()) continue;
        const auto it =
            std::lower_bound(dict.begin(), dict.end(), values[i],
                             [](const model::Value& a, const model::Value& b) {
                               return a.Compare(b) < 0;
                             });
        IMPLIANCE_CHECK(it != dict.end() && it->Compare(values[i]) == 0)
            << "dictionary missing a value";
        PutVarint32(out, static_cast<uint32_t>(it - dict.begin()));
      }
      break;
    case Encoding::kDelta: {
      model::ValueType type = model::ValueType::kNull;
      bool first = true;
      int64_t previous = 0;
      std::string payload;
      for (size_t i = begin; i < end; ++i) {
        if (values[i].is_null()) continue;
        IMPLIANCE_CHECK(IsIntFamily(values[i], &type))
            << "delta encoding over a non-int column";
        const int64_t v = IntPayload(values[i]);
        PutVarint64(&payload, ZigZagEncode(first ? v : v - previous));
        previous = v;
        first = false;
      }
      out->push_back(static_cast<char>(type));
      out->append(payload);
      break;
    }
  }
}

bool DecodeBlock(Encoding encoding, std::string_view* input,
                 const std::vector<model::Value>& dict,
                 std::vector<model::Value>* out) {
  uint32_t rows = 0;
  uint32_t nulls = 0;
  if (!GetVarint32(input, &rows) || !GetVarint32(input, &nulls)) return false;
  if (nulls > rows) return false;

  // Null positions.
  std::vector<bool> is_null;
  if (nulls == rows) {
    for (uint32_t i = 0; i < rows; ++i) out->push_back(model::Value::Null());
    return true;
  }
  if (nulls > 0) {
    const size_t bytes = (rows + 7) / 8;
    if (input->size() < bytes) return false;
    is_null.resize(rows);
    for (uint32_t i = 0; i < rows; ++i) {
      is_null[i] =
          (static_cast<unsigned char>((*input)[i / 8]) >> (i % 8)) & 1;
    }
    input->remove_prefix(bytes);
  }

  const uint32_t non_null = rows - nulls;
  std::vector<model::Value> decoded;
  decoded.reserve(non_null);
  switch (encoding) {
    case Encoding::kPlain:
      for (uint32_t i = 0; i < non_null; ++i) {
        model::Value value;
        if (!model::Value::Decode(input, &value)) return false;
        decoded.push_back(std::move(value));
      }
      break;
    case Encoding::kRle: {
      while (decoded.size() < non_null) {
        uint32_t run_length = 0;
        model::Value value;
        if (!GetVarint32(input, &run_length) || run_length == 0 ||
            !model::Value::Decode(input, &value)) {
          return false;
        }
        if (decoded.size() + run_length > non_null) return false;
        for (uint32_t i = 0; i < run_length; ++i) decoded.push_back(value);
      }
      break;
    }
    case Encoding::kDict:
      for (uint32_t i = 0; i < non_null; ++i) {
        uint32_t code = 0;
        if (!GetVarint32(input, &code) || code >= dict.size()) return false;
        decoded.push_back(dict[code]);
      }
      break;
    case Encoding::kDelta: {
      if (input->empty()) return false;
      const auto type = static_cast<model::ValueType>((*input)[0]);
      input->remove_prefix(1);
      if (type != model::ValueType::kInt &&
          type != model::ValueType::kTimestamp && non_null > 0) {
        return false;
      }
      int64_t previous = 0;
      for (uint32_t i = 0; i < non_null; ++i) {
        uint64_t encoded = 0;
        if (!GetVarint64(input, &encoded)) return false;
        const int64_t delta = ZigZagDecode(encoded);
        previous = i == 0 ? delta : previous + delta;
        decoded.push_back(MakeIntFamily(type, previous));
      }
      break;
    }
  }

  if (nulls == 0) {
    out->insert(out->end(), std::make_move_iterator(decoded.begin()),
                std::make_move_iterator(decoded.end()));
    return true;
  }
  size_t next = 0;
  for (uint32_t i = 0; i < rows; ++i) {
    if (is_null[i]) {
      out->push_back(model::Value::Null());
    } else {
      out->push_back(std::move(decoded[next++]));
    }
  }
  return next == decoded.size();
}

EncodingChoice ChooseEncoding(const std::vector<model::Value>& values,
                              size_t begin, size_t end) {
  EncodingChoice choice;
  model::ValueType int_type = model::ValueType::kNull;
  bool all_int = true;
  bool all_string = true;
  size_t non_null = 0;
  size_t runs = 0;
  const model::Value* previous = nullptr;
  // Distinct values, capped just past the dictionary limit: the map doubles
  // as the dictionary when kDict wins.
  std::map<model::Value, bool> distinct;
  bool distinct_overflow = false;
  for (size_t i = begin; i < end; ++i) {
    const model::Value& value = values[i];
    if (value.is_null()) continue;
    ++non_null;
    if (!IsIntFamily(value, &int_type)) all_int = false;
    if (!value.is_string()) all_string = false;
    if (previous == nullptr || value.Compare(*previous) != 0) ++runs;
    previous = &value;
    if (!distinct_overflow) {
      distinct.emplace(value, true);
      if (distinct.size() > kDictMaxEntries) {
        distinct_overflow = true;
        distinct.clear();
      }
    }
  }
  if (non_null == 0) return choice;  // kPlain, empty payloads

  const bool run_dominated = non_null >= kRleMinRun * runs;
  if (all_int && !run_dominated) {
    choice.encoding = Encoding::kDelta;
    return choice;
  }
  if (run_dominated) {
    choice.encoding = Encoding::kRle;
    return choice;
  }
  if (all_string && !distinct_overflow) {
    choice.encoding = Encoding::kDict;
    choice.dict.reserve(distinct.size());
    for (const auto& [value, _] : distinct) choice.dict.push_back(value);
    return choice;
  }
  if (all_int) {
    choice.encoding = Encoding::kDelta;
    return choice;
  }
  return choice;
}

}  // namespace impliance::storage::columnar
