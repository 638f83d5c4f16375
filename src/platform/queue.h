#ifndef STREAMLIB_PLATFORM_QUEUE_H_
#define STREAMLIB_PLATFORM_QUEUE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

namespace streamlib::platform {

/// Bounded multi-producer multi-consumer blocking queue. Producers block
/// when the queue is full — that *is* the backpressure mechanism of the
/// engine (a slow bolt stalls its upstreams, exactly the behaviour the
/// Storm/Heron architecture discussion in the paper revolves around).
///
/// The batch operations (PushAll/PopBatch and friends) amortize the mutex
/// acquisition and condition-variable signalling over whole batches; they
/// are the transport primitives of the engine's batched data plane
/// (single-item Push/Pop remain for low-rate control traffic and tests).
template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(size_t capacity) : capacity_(capacity) {}

  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  /// Blocks until space is available or the queue is closed.
  /// Returns false if the queue was closed (item dropped).
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    SyncApproxLocked();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; false when full or closed. On failure the item is
  /// *not* consumed: it is handed back to the caller intact, so a stalled
  /// producer can retry (or fall back to a blocking push) without paying a
  /// second copy.
  bool TryPush(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      SyncApproxLocked();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking batch push: moves every element of `items` into the queue,
  /// waiting for space as needed (partial batches are admitted as capacity
  /// frees up, preserving order). Returns the number of items enqueued —
  /// equal to items.size() unless the queue was closed mid-push, in which
  /// case the remainder is dropped.
  size_t PushAll(std::span<T> items) {
    size_t pushed = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (pushed < items.size()) {
      not_full_.wait(lock,
                     [this] { return items_.size() < capacity_ || closed_; });
      if (closed_) break;
      while (pushed < items.size() && items_.size() < capacity_) {
        items_.push_back(std::move(items[pushed++]));
      }
      SyncApproxLocked();
      not_empty_.notify_all();
    }
    return pushed;
  }

  /// Non-blocking batch push: moves a prefix of `items` into the queue up
  /// to the capacity bound and returns its length; the suffix is untouched.
  size_t TryPushAll(std::span<T> items) {
    size_t pushed = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return 0;
      while (pushed < items.size() && items_.size() < capacity_) {
        items_.push_back(std::move(items[pushed++]));
      }
      SyncApproxLocked();
    }
    if (pushed > 0) not_empty_.notify_all();
    return pushed;
  }

  /// Push that ignores the capacity bound (never blocks); returns
  /// items.size(), or 0 when closed (nothing is enqueued). Used by
  /// multiplexed executors, which must never block on a queue they may
  /// themselves be responsible for draining — the unbounded internal
  /// buffering of pre-backpressure Storm.
  size_t ForcePushAll(std::span<T> items) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return 0;
      for (T& item : items) items_.push_back(std::move(item));
      SyncApproxLocked();
    }
    not_empty_.notify_all();
    return items.size();
  }

  /// Blocks until an item is available or the queue is closed and empty.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;  // Closed and drained.
    T item = std::move(items_.front());
    items_.pop_front();
    SyncApproxLocked();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Blocking batch pop: waits until at least one item is available, then
  /// drains up to `max` items into `out` under a single lock. Returns the
  /// number appended; 0 means closed and drained.
  size_t PopBatch(std::vector<T>& out, size_t max) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    return DrainLocked(lock, out, max);
  }

  /// Timed batch pop: like PopBatch but gives up after `timeout` (returning
  /// 0 without closing). Lets consumers with periodic side-work (the acker's
  /// timeout scan) block instead of spin-polling.
  size_t PopBatchWithTimeout(std::vector<T>& out, size_t max,
                             std::chrono::nanoseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!not_empty_.wait_for(lock, timeout,
                             [this] { return !items_.empty() || closed_; })) {
      return 0;
    }
    return DrainLocked(lock, out, max);
  }

  /// Non-blocking batch pop.
  size_t TryPopBatch(std::vector<T>& out, size_t max) {
    std::unique_lock<std::mutex> lock(mu_);
    return DrainLocked(lock, out, max);
  }

  /// Closes the queue: pending items drain; pushes fail; pops return
  /// nullopt once empty.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  /// Lock-free instantaneous depth estimate for samplers and monitors: a
  /// relaxed read of a counter maintained under the queue lock, so it may
  /// lag a concurrent push/pop by one operation but never tears and never
  /// contends with the data path.
  size_t ApproxSize() const {
    return approx_size_.load(std::memory_order_relaxed);
  }

  bool Closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  /// Moves up to `max` items into `out`; unlocks and signals producers.
  size_t DrainLocked(std::unique_lock<std::mutex>& lock, std::vector<T>& out,
                     size_t max) {
    size_t n = 0;
    while (n < max && !items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      n++;
    }
    SyncApproxLocked();
    lock.unlock();
    if (n > 0) not_full_.notify_all();
    return n;
  }

  /// Mirrors items_.size(); written under mu_, read lock-free.
  void SyncApproxLocked() {
    approx_size_.store(items_.size(), std::memory_order_relaxed);
  }

  size_t capacity_;
  std::atomic<size_t> approx_size_{0};
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_QUEUE_H_
