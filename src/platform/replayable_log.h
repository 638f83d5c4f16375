#ifndef STREAMLIB_PLATFORM_REPLAYABLE_LOG_H_
#define STREAMLIB_PLATFORM_REPLAYABLE_LOG_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "platform/tuple.h"

namespace streamlib::platform {

/// Append-only, offset-addressed tuple log — the in-process stand-in for
/// the Kafka-style durable stream Samza builds on (DESIGN.md §2): consumers
/// read by offset and can *replay* from any offset, which is what gives
/// log-backed pipelines their recovery semantics. Thread-safe.
class ReplayableLog {
 public:
  ReplayableLog() = default;

  /// Appends a tuple; returns its offset.
  uint64_t Append(Tuple tuple) {
    std::lock_guard<std::mutex> lock(mu_);
    log_.push_back(std::move(tuple));
    return log_.size() - 1;
  }

  /// Reads the tuple at `offset`, or nullopt past the end.
  std::optional<Tuple> Read(uint64_t offset) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (offset >= log_.size()) return std::nullopt;
    return log_[offset];
  }

  /// Reads up to `max_count` consecutive tuples starting at `offset` under
  /// one lock acquisition — the batched consumer read (Kafka's fetch):
  /// per-tuple Read() pays a mutex round-trip per tuple, which dominates
  /// hot replay loops. Returns fewer than `max_count` at the tail; empty
  /// past the end.
  std::vector<Tuple> ReadBatch(uint64_t offset, size_t max_count) const {
    std::vector<Tuple> batch;
    std::lock_guard<std::mutex> lock(mu_);
    if (offset >= log_.size()) return batch;
    const size_t n =
        std::min<size_t>(max_count, log_.size() - static_cast<size_t>(offset));
    batch.reserve(n);
    for (size_t i = 0; i < n; i++) {
      batch.push_back(log_[static_cast<size_t>(offset) + i]);
    }
    return batch;
  }

  uint64_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Tuple> log_;
};

/// Spout replaying a ReplayableLog from a start offset, with at-least-once
/// redelivery: failed roots are re-enqueued and re-emitted. Demonstrates
/// the log-backed recovery model (and exercises the engine's OnFail path
/// in the fault-injection tests). Under at-most-once nothing is tracked,
/// so each offset is emitted once and never waits for an ack.
class LogReplaySpout : public Spout {
 public:
  /// \param log           source log (not owned; must outlive the run).
  /// \param start_offset  first offset to emit.
  /// \param end_offset    one past the last offset (or UINT64_MAX = all).
  LogReplaySpout(const ReplayableLog* log, uint64_t start_offset,
                 uint64_t end_offset)
      : log_(log), next_(start_offset), end_(end_offset) {}

  bool NextTuple(OutputCollector* collector) override {
    // Redeliveries first.
    uint64_t offset;
    std::optional<Tuple> tuple;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!redelivery_.empty()) {
        offset = redelivery_.back();
        redelivery_.pop_back();
      } else if (next_ < end_ && next_ < log_->Size()) {
        // Sequential reads drain a prefetch buffer filled by one ReadBatch
        // per kPrefetchBatch tuples, instead of taking the log's mutex per
        // tuple. The log is append-only, so a refill at next_ < Size() is
        // never empty. Redeliveries (rare, random-access) still Read().
        if (prefetch_pos_ == prefetch_.size()) {
          prefetch_ = log_->ReadBatch(
              next_, static_cast<size_t>(
                         std::min<uint64_t>(kPrefetchBatch, end_ - next_)));
          prefetch_pos_ = 0;
        }
        tuple = std::move(prefetch_[prefetch_pos_++]);
        offset = next_++;
      } else if (pending_ > 0) {
        // Idle poll: waiting for acks/fails of emitted roots. Back off so
        // the spout thread does not spin hot.
        lock.unlock();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        return true;
      } else {
        return false;
      }
      pending_++;
    }
    if (!tuple.has_value()) tuple = log_->Read(offset);
    if (!tuple.has_value()) {
      std::lock_guard<std::mutex> lock(mu_);
      pending_--;
      return false;
    }
    collector->Emit(std::move(*tuple));
    // Map the engine-assigned root id to the offset so a failed root can be
    // replayed precisely. An untracked root (id 0) gets no OnAck or OnFail,
    // so it stops being pending here.
    {
      std::lock_guard<std::mutex> lock(mu_);
      const uint64_t root = collector->LastRootId();
      if (root != 0) {
        root_to_offset_[root] = offset;
      } else {
        pending_--;
      }
    }
    return true;
  }

  void OnAck(uint64_t root_id) override {
    std::lock_guard<std::mutex> lock(mu_);
    pending_--;
    acked_++;
    root_to_offset_.erase(root_id);
  }

  void OnFail(uint64_t root_id) override {
    std::lock_guard<std::mutex> lock(mu_);
    pending_--;
    failed_++;
    auto it = root_to_offset_.find(root_id);
    if (it != root_to_offset_.end()) {
      redelivery_.push_back(it->second);
      root_to_offset_.erase(it);
    }
  }

  uint64_t acked() const {
    std::lock_guard<std::mutex> lock(mu_);
    return acked_;
  }
  uint64_t failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }

 private:
  static constexpr size_t kPrefetchBatch = 64;

  const ReplayableLog* log_;
  mutable std::mutex mu_;
  uint64_t next_;
  uint64_t end_;
  std::vector<Tuple> prefetch_;  // Tuples [next_, next_ + size) pre-read.
  size_t prefetch_pos_ = 0;
  uint64_t pending_ = 0;
  uint64_t acked_ = 0;
  uint64_t failed_ = 0;
  std::unordered_map<uint64_t, uint64_t> root_to_offset_;
  std::vector<uint64_t> redelivery_;
};

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_REPLAYABLE_LOG_H_
