#ifndef IMPLIANCE_STORAGE_SEGMENT_H_
#define IMPLIANCE_STORAGE_SEGMENT_H_

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "model/document.h"
#include "storage/block_cache.h"
#include "storage/bloom.h"

namespace impliance::storage {

// Composite key identifying one immutable version of one document.
struct VersionKey {
  model::DocId id = model::kInvalidDocId;
  uint32_t version = 0;

  uint64_t Packed() const { return (id << 16) ^ version; }

  friend bool operator==(const VersionKey& a, const VersionKey& b) {
    return a.id == b.id && a.version == b.version;
  }
  friend bool operator<(const VersionKey& a, const VersionKey& b) {
    return a.id != b.id ? a.id < b.id : a.version < b.version;
  }
};

// Immutable on-disk run of documents, flushed from the memtable. Layout:
//
//   record*            each: flag byte (0=raw, 1=LZ) | varint64 size |
//                      payload bytes | fixed32 crc(payload)
//   index              varint64 count | (id, version, offset, size)*
//   bloom              serialized BloomFilter over VersionKey::Packed()
//   footer             fixed64 index_offset | fixed64 bloom_offset |
//                      fixed64 magic
//
// The index and bloom filter are held in memory after open; records are
// read on demand through the shared BlockCache. With `compress` set,
// records are LZ-compressed when that actually shrinks them — the
// storage-software compression pushdown of Section 3.1.
class SegmentBuilder {
 public:
  SegmentBuilder(std::string path, uint64_t segment_id, size_t expected_docs,
                 bool compress = false);

  Status Add(const model::Document& doc);
  Status Finish();

  size_t num_docs() const { return index_.size(); }

 private:
  struct IndexEntry {
    VersionKey key;
    uint64_t offset;
    uint64_t size;
  };

  std::string path_;
  uint64_t segment_id_;
  bool compress_;
  std::string buffer_;
  std::vector<IndexEntry> index_;
  BloomFilter bloom_;
  bool finished_ = false;
};

class SegmentReader {
 public:
  // `cache` must outlive the reader and may be nullptr (no caching).
  static Result<std::unique_ptr<SegmentReader>> Open(const std::string& path,
                                                     uint64_t segment_id,
                                                     BlockCache* cache);
  ~SegmentReader();

  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  // NotFound if the key is not in this segment.
  Result<model::Document> Get(const VersionKey& key);

  bool MayContain(const VersionKey& key) const {
    return bloom_.MayContain(key.Packed());
  }

  // Every key in this segment, sorted.
  const std::vector<VersionKey>& Keys() const { return keys_; }

  uint64_t segment_id() const { return segment_id_; }
  size_t num_docs() const { return keys_.size(); }

 private:
  struct Extent {
    uint64_t offset;
    uint64_t size;
  };

  SegmentReader(std::FILE* file, uint64_t segment_id, BlockCache* cache)
      : file_(file), segment_id_(segment_id), cache_(cache), bloom_(1) {}

  // Returns a refcounted handle to the raw record bytes: a cache hit shares
  // the cached allocation instead of copying it.
  Result<BlockCache::PayloadHandle> ReadRecordBytes(const Extent& extent);

  std::FILE* file_;
  uint64_t segment_id_;
  BlockCache* cache_;
  BloomFilter bloom_;
  std::vector<VersionKey> keys_;          // sorted
  std::vector<Extent> extents_;           // parallel to keys_
  std::mutex io_mutex_;                   // serializes fseek+fread pairs
};

}  // namespace impliance::storage

#endif  // IMPLIANCE_STORAGE_SEGMENT_H_
