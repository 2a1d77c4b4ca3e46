#include "storage/segment.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/coding.h"
#include "common/compression.h"
#include "common/fault_injector.h"
#include "common/hash.h"
#include "common/logging.h"

namespace impliance::storage {

namespace {
constexpr uint64_t kSegmentMagic = 0x494D504C53454730ULL;  // "IMPLSEG0"
}  // namespace

SegmentBuilder::SegmentBuilder(std::string path, uint64_t segment_id,
                               size_t expected_docs, bool compress)
    : path_(std::move(path)),
      segment_id_(segment_id),
      compress_(compress),
      bloom_(expected_docs) {}

Status SegmentBuilder::Add(const model::Document& doc) {
  IMPLIANCE_CHECK(!finished_);
  std::string encoded;
  doc.Encode(&encoded);

  // Compress when it pays; tiny or incompressible documents stay raw.
  uint8_t flag = 0;
  if (compress_) {
    std::string packed;
    LzCompress(encoded, &packed);
    if (packed.size() < encoded.size()) {
      flag = 1;
      encoded = std::move(packed);
    }
  }

  IndexEntry entry;
  entry.key = VersionKey{doc.id, doc.version};
  entry.offset = buffer_.size();

  buffer_.push_back(static_cast<char>(flag));
  PutVarint64(&buffer_, encoded.size());
  buffer_.append(encoded);
  PutFixed32(&buffer_, Crc32c(encoded));
  entry.size = buffer_.size() - entry.offset;

  index_.push_back(entry);
  bloom_.Add(entry.key.Packed());
  return Status::OK();
}

Status SegmentBuilder::Finish() {
  IMPLIANCE_CHECK(!finished_);
  finished_ = true;

  const uint64_t index_offset = buffer_.size();
  std::sort(index_.begin(), index_.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              return a.key < b.key;
            });
  PutVarint64(&buffer_, index_.size());
  for (const IndexEntry& entry : index_) {
    PutVarint64(&buffer_, entry.key.id);
    PutVarint32(&buffer_, entry.key.version);
    PutVarint64(&buffer_, entry.offset);
    PutVarint64(&buffer_, entry.size);
  }

  const uint64_t bloom_offset = buffer_.size();
  bloom_.Serialize(&buffer_);

  PutFixed64(&buffer_, index_offset);
  PutFixed64(&buffer_, bloom_offset);
  PutFixed64(&buffer_, kSegmentMagic);

  std::FILE* file = std::fopen(path_.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot create segment " + path_ + ": " +
                           std::strerror(errno));
  }
  if (FaultPoint("segment.finish.torn")) {
    // Crash mid-write: the footer never lands, so SegmentReader::Open
    // rejects the file and recovery falls back to the WAL.
    std::fwrite(buffer_.data(), 1, buffer_.size() / 2, file);
    std::fflush(file);
    std::fclose(file);
    return Status::IOError("segment torn write (fault injected): " + path_);
  }
  const size_t written = std::fwrite(buffer_.data(), 1, buffer_.size(), file);
  const bool flushed = std::fflush(file) == 0;
  // A segment is immutable once published; fsync before close so a crash
  // cannot leave a fully-written-looking file with unpersisted blocks.
  const bool synced =
      !FaultPoint("segment.sync") && ::fsync(fileno(file)) == 0;
  std::fclose(file);
  if (written != buffer_.size() || !flushed || !synced) {
    return Status::IOError("segment write failed: " + path_);
  }
  return Status::OK();
}

Result<std::unique_ptr<SegmentReader>> SegmentReader::Open(
    const std::string& path, uint64_t segment_id, BlockCache* cache) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError("cannot open segment " + path);
  }
  auto reader = std::unique_ptr<SegmentReader>(
      new SegmentReader(file, segment_id, cache));

  if (std::fseek(file, 0, SEEK_END) != 0) {
    return Status::IOError("seek failed: " + path);
  }
  const long file_size = std::ftell(file);
  constexpr long kFooterSize = 24;
  if (file_size < kFooterSize) {
    return Status::Corruption("segment too small: " + path);
  }

  char footer_buf[kFooterSize];
  if (std::fseek(file, file_size - kFooterSize, SEEK_SET) != 0 ||
      std::fread(footer_buf, 1, kFooterSize, file) !=
          static_cast<size_t>(kFooterSize)) {
    return Status::IOError("footer read failed: " + path);
  }
  std::string_view footer(footer_buf, kFooterSize);
  uint64_t index_offset = 0, bloom_offset = 0, magic = 0;
  GetFixed64(&footer, &index_offset);
  GetFixed64(&footer, &bloom_offset);
  GetFixed64(&footer, &magic);
  if (magic != kSegmentMagic || index_offset > bloom_offset ||
      bloom_offset > static_cast<uint64_t>(file_size)) {
    return Status::Corruption("bad segment footer: " + path);
  }

  // Load index + bloom in one read.
  const uint64_t meta_size =
      static_cast<uint64_t>(file_size) - kFooterSize - index_offset;
  std::string meta(meta_size, '\0');
  if (std::fseek(file, static_cast<long>(index_offset), SEEK_SET) != 0 ||
      std::fread(meta.data(), 1, meta_size, file) != meta_size) {
    return Status::IOError("index read failed: " + path);
  }
  std::string_view index_view(meta.data(), bloom_offset - index_offset);
  std::string_view bloom_view(meta.data() + (bloom_offset - index_offset),
                              meta_size - (bloom_offset - index_offset));

  uint64_t count = 0;
  if (!GetVarint64(&index_view, &count)) {
    return Status::Corruption("bad segment index: " + path);
  }
  reader->keys_.reserve(count);
  reader->extents_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    VersionKey key;
    Extent extent;
    if (!GetVarint64(&index_view, &key.id) ||
        !GetVarint32(&index_view, &key.version) ||
        !GetVarint64(&index_view, &extent.offset) ||
        !GetVarint64(&index_view, &extent.size)) {
      return Status::Corruption("truncated segment index: " + path);
    }
    reader->keys_.push_back(key);
    reader->extents_.push_back(extent);
  }
  if (!BloomFilter::Deserialize(bloom_view, &reader->bloom_)) {
    return Status::Corruption("bad segment bloom filter: " + path);
  }
  return reader;
}

SegmentReader::~SegmentReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<model::Document> SegmentReader::Get(const VersionKey& key) {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || !(*it == key)) {
    return Status::NotFound("key not in segment");
  }
  const Extent& extent = extents_[it - keys_.begin()];

  IMPLIANCE_ASSIGN_OR_RETURN(BlockCache::PayloadHandle record,
                             ReadRecordBytes(extent));

  std::string_view input(*record);
  if (input.empty()) return Status::Corruption("empty segment record");
  const uint8_t flag = static_cast<uint8_t>(input[0]);
  input.remove_prefix(1);
  uint64_t payload_size = 0;
  if (flag > 1 || !GetVarint64(&input, &payload_size) ||
      input.size() < payload_size + 4) {
    return Status::Corruption("bad segment record");
  }
  std::string_view payload = input.substr(0, payload_size);
  std::string_view crc_bytes = input.substr(payload_size);
  uint32_t stored_crc = 0;
  GetFixed32(&crc_bytes, &stored_crc);
  if (Crc32c(payload) != stored_crc) {
    return Status::Corruption("segment record checksum mismatch");
  }
  std::string decompressed;
  std::string_view doc_bytes = payload;
  if (flag == 1) {
    IMPLIANCE_ASSIGN_OR_RETURN(decompressed, LzDecompress(payload));
    doc_bytes = decompressed;
  }
  model::Document doc;
  if (!model::Document::Decode(doc_bytes, &doc)) {
    return Status::Corruption("undecodable document in segment");
  }
  return doc;
}

Result<BlockCache::PayloadHandle> SegmentReader::ReadRecordBytes(
    const Extent& extent) {
  if (cache_ != nullptr) {
    if (BlockCache::PayloadHandle cached =
            cache_->Get(segment_id_, extent.offset)) {
      return cached;
    }
  }
  std::string record(extent.size, '\0');
  {
    std::lock_guard<std::mutex> lock(io_mutex_);
    if (std::fseek(file_, static_cast<long>(extent.offset), SEEK_SET) != 0 ||
        std::fread(record.data(), 1, extent.size, file_) != extent.size) {
      return Status::IOError("segment record read failed");
    }
  }
  // One allocation serves both the caller and the cache.
  auto handle = std::make_shared<const std::string>(std::move(record));
  if (cache_ != nullptr) {
    cache_->Put(segment_id_, extent.offset, handle);
  }
  return handle;
}

}  // namespace impliance::storage
