#ifndef STREAMLIB_LAMBDA_MASTER_LOG_H_
#define STREAMLIB_LAMBDA_MASTER_LOG_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace streamlib::lambda {

/// One immutable event in the master dataset.
struct LogRecord {
  uint64_t offset = 0;     ///< position in the log (assigned on append)
  int64_t timestamp = 0;   ///< event time supplied by the producer
  std::string key;         ///< event key (hashtag, user id, sensor id, ...)
  double value = 0.0;      ///< event payload (count increment, reading, ...)
};

/// The Lambda Architecture's *master dataset* (Figure 1, step 2): an
/// immutable, append-only record log. Batch layer recomputations scan a
/// prefix while the writer keeps appending; the speed layer tails new
/// appends. Thread-safe.
///
/// Records live in fixed-size chunks, each allocated at full capacity when
/// it opens, so an append never moves a record and the log never regrows
/// its storage mid-stream. A scan holds the log mutex only long enough to
/// copy the chunk directory; it then reads records that can no longer
/// change, concurrently with appends.
///
/// The log is the only state the Lambda half persists: every view is a
/// function of it (Figure 1), so a restart loads the log and recomputes
/// the views. Save/Load own the image format. The image is a
/// KvCheckpointStore file with one entry per chunk — the chunk's index and
/// its records, whose offsets are implied by position — and a meta entry
/// holding the format version and the record count, each followed by the
/// CRC32 of its bytes.
///
/// Substitution note (DESIGN.md §2): stands in for the HDFS/Kafka-backed
/// master dataset of production Lambda deployments; append-only + offset
/// semantics are what the batch/speed layers rely on, and both are preserved.
class MasterLog {
 public:
  /// Records per chunk (a power of two, so offset -> slot is a shift).
  static constexpr uint64_t kChunkRecords = uint64_t{1} << 16;

  MasterLog() = default;

  MasterLog(const MasterLog&) = delete;
  MasterLog& operator=(const MasterLog&) = delete;

  /// Appends a record; returns its offset.
  uint64_t Append(int64_t timestamp, std::string key, double value);

  /// Number of records currently in the log (lock-free).
  uint64_t size() const { return size_.load(std::memory_order_acquire); }

  /// Calls `fn(const LogRecord&)` for every record with offset in
  /// [from, to), in offset order. `to` may exceed size(); the scan is
  /// bounded to the end at the time of the call.
  template <typename Fn>
  void Scan(uint64_t from, uint64_t to, Fn&& fn) const {
    std::vector<const LogRecord*> chunks;
    uint64_t end = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      end = std::min(to, size());
      chunks.reserve(chunks_.size());
      for (const std::vector<LogRecord>& chunk : chunks_) {
        chunks.push_back(chunk.data());
      }
    }
    for (uint64_t i = from; i < end; i++) {
      fn(chunks[i / kChunkRecords][i % kChunkRecords]);
    }
  }

  /// Reads a single record.
  Result<LogRecord> Get(uint64_t offset) const;

  /// Writes records [0, size()) as of the call to `path`, atomically
  /// (KvCheckpointStore::SaveToFile: temp file + rename). It reads the
  /// prefix through Scan, so appends go on while it runs.
  Status Save(const std::string& path) const;

  /// Fills an empty log with the image Save wrote to `path`.
  /// FailedPrecondition if the log holds records, NotFound if `path` does
  /// not exist, and Corruption for an image that does not decode to the
  /// log Save wrote: a torn file, a flipped bit in a record or a count, a
  /// chunk dropped, repeated or moved. The whole image is decoded and
  /// checked before the log changes, so a failed load leaves it empty.
  Status Load(const std::string& path);

 private:
  mutable std::mutex mu_;
  /// Chunk i holds offsets [i * kChunkRecords, (i + 1) * kChunkRecords).
  /// Growing the directory moves the chunk vectors, never their records.
  std::vector<std::vector<LogRecord>> chunks_;
  std::atomic<uint64_t> size_{0};
};

}  // namespace streamlib::lambda

#endif  // STREAMLIB_LAMBDA_MASTER_LOG_H_
