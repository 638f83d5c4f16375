#include "lambda/master_log.h"

namespace streamlib::lambda {

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

}  // namespace streamlib::lambda
