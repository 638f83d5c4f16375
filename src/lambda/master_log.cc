#include "lambda/master_log.h"

#include <cstring>

#include "common/crc32.h"
#include "common/serde.h"
#include "platform/checkpoint.h"

namespace streamlib::lambda {

namespace {

/// Image layout version, the first byte of the meta entry.
constexpr uint8_t kImageVersion = 1;
constexpr const char* kMetaKey = "log/meta";

std::string ChunkKey(uint64_t index) {
  std::string key = "log/chunk/";
  key += std::to_string(index);
  return key;
}

/// Stores `w`'s bytes followed by their CRC32 under `key`.
void PutFramed(platform::KvCheckpointStore* store, const std::string& key,
               ByteWriter w) {
  w.PutU32(Crc32(w.bytes().data(), w.bytes().size()));
  store->Put(key, w.TakeBytes());
}

/// The bytes stored under `key` without their CRC32, which must match.
Result<std::vector<uint8_t>> FetchFramed(
    const platform::KvCheckpointStore& store, const std::string& key) {
  Result<std::vector<uint8_t>> entry = store.Fetch(key);
  if (!entry.ok()) {
    return Status::Corruption("master log image: no entry '" + key + "'");
  }
  std::vector<uint8_t> bytes = std::move(entry).value();
  uint32_t crc = 0;
  if (bytes.size() < sizeof(crc)) {
    return Status::Corruption("master log image: '" + key + "' is torn");
  }
  bytes.resize(bytes.size() - sizeof(crc));
  std::memcpy(&crc, bytes.data() + bytes.size(), sizeof(crc));
  if (Crc32(bytes.data(), bytes.size()) != crc) {
    return Status::Corruption("master log image: CRC mismatch in '" + key +
                              "'");
  }
  return bytes;
}

}  // namespace

uint64_t MasterLog::Append(int64_t timestamp, std::string key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t offset = size_.load(std::memory_order_relaxed);
  if (offset % kChunkRecords == 0) {
    chunks_.emplace_back().reserve(kChunkRecords);
  }
  chunks_.back().push_back(LogRecord{offset, timestamp, std::move(key), value});
  size_.store(offset + 1, std::memory_order_release);
  return offset;
}

Result<LogRecord> MasterLog::Get(uint64_t offset) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (offset >= size()) {
    return Status::OutOfRange("offset beyond log end");
  }
  return chunks_[offset / kChunkRecords][offset % kChunkRecords];
}

Status MasterLog::Save(const std::string& path) const {
  const uint64_t end = size();
  platform::KvCheckpointStore store;
  for (uint64_t from = 0; from < end; from += kChunkRecords) {
    ByteWriter w;
    w.PutVarint(from / kChunkRecords);
    Scan(from, std::min(end, from + kChunkRecords), [&w](const LogRecord& r) {
      w.PutVarintSigned(r.timestamp);
      w.PutString(r.key);
      w.PutDouble(r.value);
    });
    PutFramed(&store, ChunkKey(from / kChunkRecords), std::move(w));
  }
  ByteWriter meta;
  meta.PutU8(kImageVersion);
  meta.PutVarint(end);
  PutFramed(&store, kMetaKey, std::move(meta));
  return store.SaveToFile(path);
}

Status MasterLog::Load(const std::string& path) {
  if (size() != 0) {
    return Status::FailedPrecondition("master log: load into a non-empty log");
  }
  platform::KvCheckpointStore store;
  STREAMLIB_RETURN_NOT_OK(store.LoadFromFile(path));
  Result<std::vector<uint8_t>> meta = FetchFramed(store, kMetaKey);
  STREAMLIB_RETURN_NOT_OK(meta.status());
  ByteReader r(meta.value());
  uint8_t version = 0;
  uint64_t end = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetU8(&version));
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&end));
  if (version != kImageVersion || !r.AtEnd()) {
    return Status::Corruption("master log image: malformed meta entry");
  }
  const uint64_t num_chunks =
      end / kChunkRecords + (end % kChunkRecords != 0);
  if (store.NumKeys() != num_chunks + 1) {
    return Status::Corruption(
        "master log image: entry count does not match the record count");
  }
  // Each chunk is reserved at full size, as Append would: records appended
  // after the load never move.
  std::vector<std::vector<LogRecord>> chunks;
  chunks.reserve(num_chunks);
  for (uint64_t index = 0; index < num_chunks; index++) {
    Result<std::vector<uint8_t>> bytes = FetchFramed(store, ChunkKey(index));
    STREAMLIB_RETURN_NOT_OK(bytes.status());
    ByteReader chunk(bytes.value());
    uint64_t stored_index = 0;
    STREAMLIB_RETURN_NOT_OK(chunk.GetVarint(&stored_index));
    if (stored_index != index) {
      return Status::Corruption("master log image: chunk " +
                                std::to_string(stored_index) +
                                " stored as chunk " + std::to_string(index));
    }
    std::vector<LogRecord>& records = chunks.emplace_back();
    records.reserve(kChunkRecords);
    const uint64_t from = index * kChunkRecords;
    for (uint64_t offset = from; offset < std::min(end, from + kChunkRecords);
         offset++) {
      LogRecord& record = records.emplace_back();
      record.offset = offset;
      STREAMLIB_RETURN_NOT_OK(chunk.GetVarintSigned(&record.timestamp));
      STREAMLIB_RETURN_NOT_OK(chunk.GetString(&record.key));
      STREAMLIB_RETURN_NOT_OK(chunk.GetDouble(&record.value));
    }
    if (!chunk.AtEnd()) {
      return Status::Corruption("master log image: trailing bytes in chunk " +
                                std::to_string(index));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (size() != 0) {
    return Status::FailedPrecondition("master log: appended to during load");
  }
  chunks_ = std::move(chunks);
  size_.store(end, std::memory_order_release);
  return Status::OK();
}

}  // namespace streamlib::lambda
