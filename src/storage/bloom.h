#ifndef IMPLIANCE_STORAGE_BLOOM_H_
#define IMPLIANCE_STORAGE_BLOOM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace impliance::storage {

// Standard Bloom filter over 64-bit keys. Each segment carries one so that
// point lookups skip segments that cannot contain the key.
class BloomFilter {
 public:
  // `expected_keys` sizes the filter at ~10 bits/key (~1% false positives).
  explicit BloomFilter(size_t expected_keys);

  // Reconstructs a filter from Serialize() output.
  static bool Deserialize(std::string_view data, BloomFilter* out);

  void Add(uint64_t key);
  bool MayContain(uint64_t key) const;

  void Serialize(std::string* dst) const;

 private:
  BloomFilter() = default;

  int num_hashes_ = 6;
  std::vector<uint8_t> bits_;
};

}  // namespace impliance::storage

#endif  // IMPLIANCE_STORAGE_BLOOM_H_
