#ifndef STREAMLIB_PLATFORM_SPSC_RING_H_
#define STREAMLIB_PLATFORM_SPSC_RING_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace streamlib::platform {

namespace internal {
/// Polite busy-wait hint (PAUSE/YIELD) for short spin loops.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}
}  // namespace internal

/// Bounded single-producer single-consumer ring buffer.
///
/// The fast path is wait-free: the producer and consumer each own one
/// cache-line-padded free-running index and only read the other side's
/// index when their cached copy says the ring looks full/empty. A batch
/// push or pop therefore costs one atomic store (plus an occasional
/// refresh load) for the whole batch — no mutex, no condvar signalling.
///
/// Blocking is the slow path: when the ring is genuinely full (producer)
/// or empty (consumer), the waiting side parks on a condition variable.
/// The opposite side wakes it only when the matching `*_waiting_` flag is
/// set, so steady-state flow never touches the mutex. Waits are timed
/// (bounded at 1 ms) as a belt-and-suspenders guard against missed
/// wakeups, on top of the seq_cst flag/index handshake.
///
/// Both sides spin briefly (bounded, with a CPU relax hint) before
/// parking, so a streaming producer/consumer pair that stays roughly
/// matched in rate never pays a futex round-trip at all.
///
/// Close semantics mirror BlockingQueue: after Close() pushes fail,
/// pending items drain, and pops return empty once drained.
///
/// The engine uses this ring automatically for bolt input queues that have
/// exactly one producer task (the common spout→bolt pipeline edge) in
/// dedicated-executor mode, where both endpoints are single threads.
template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to the next power of two (minimum 2).
  explicit SpscRing(size_t capacity) {
    capacity_ = 2;
    while (capacity_ < capacity) capacity_ <<= 1;
    mask_ = capacity_ - 1;
    slots_ = std::make_unique<T[]>(capacity_);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Blocking single push. Returns false if the ring was closed.
  bool Push(T&& item) { return PushAll(std::span<T>(&item, 1)) == 1; }

  /// Blocking batch push: moves every element of `items` into the ring,
  /// waiting for space as needed (order preserved). Returns the number
  /// enqueued — items.size() unless the ring was closed mid-push.
  size_t PushAll(std::span<T> items) {
    size_t pushed = 0;
    while (pushed < items.size()) {
      if (closed_.load(std::memory_order_relaxed)) break;
      const size_t n = TryPushAll(items.subspan(pushed));
      pushed += n;
      if (pushed < items.size() && n == 0 && !SpinUntilNotFull() &&
          !WaitNotFull()) {
        break;
      }
    }
    return pushed;
  }

  /// Non-blocking batch push: moves a prefix of `items` into free slots and
  /// returns its length; the suffix is untouched.
  size_t TryPushAll(std::span<T> items) {
    if (closed_.load(std::memory_order_relaxed)) return 0;
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    uint64_t free = capacity_ - (tail - cached_head_);
    if (free == 0) {
      cached_head_ = head_.load(std::memory_order_acquire);
      free = capacity_ - (tail - cached_head_);
      if (free == 0) return 0;
    }
    const size_t n = free < items.size() ? free : items.size();
    for (size_t i = 0; i < n; i++) {
      slots_[(tail + i) & mask_] = std::move(items[i]);
    }
    tail_.store(tail + n, std::memory_order_seq_cst);
    if (consumer_waiting_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lock(mu_);
      not_empty_.notify_one();
    }
    return n;
  }

  /// Blocking batch pop: waits until at least one item is available, then
  /// drains up to `max` items into `out`. Returns the number appended;
  /// 0 means closed and drained.
  size_t PopBatch(std::vector<T>& out, size_t max) {
    while (true) {
      const size_t n = TryPopBatch(out, max);
      if (n > 0) return n;
      if (closed_.load(std::memory_order_seq_cst)) {
        // Recheck: items may have landed just before the close. The fence
        // guarantees the refreshed tail observes any such push.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        cached_tail_ = tail_.load(std::memory_order_acquire);
        return TryPopBatch(out, max);
      }
      if (!SpinUntilNotEmpty()) {
        WaitNotEmptyUntil(std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(1));
      }
    }
  }

  /// Timed batch pop: like PopBatch but gives up after `timeout` if nothing
  /// arrives (returning 0 without closing). Lets a consumer with periodic
  /// side-work — the engine's barrier-alignment timeout check — block
  /// instead of spin-polling. Mirrors BlockingQueue::PopBatchWithTimeout.
  size_t PopBatchWithTimeout(std::vector<T>& out, size_t max,
                             std::chrono::nanoseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (true) {
      const size_t n = TryPopBatch(out, max);
      if (n > 0) return n;
      if (closed_.load(std::memory_order_seq_cst)) {
        // Closed: only remaining items count (see PopBatch).
        std::atomic_thread_fence(std::memory_order_seq_cst);
        cached_tail_ = tail_.load(std::memory_order_acquire);
        return TryPopBatch(out, max);
      }
      if (!SpinUntilNotEmpty() && !WaitNotEmptyUntil(deadline)) return 0;
      if (std::chrono::steady_clock::now() >= deadline) {
        return TryPopBatch(out, max);
      }
    }
  }

  /// Non-blocking batch pop.
  size_t TryPopBatch(std::vector<T>& out, size_t max) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    uint64_t avail = cached_tail_ - head;
    if (avail == 0) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      avail = cached_tail_ - head;
      if (avail == 0) return 0;
    }
    const size_t n = avail < max ? avail : max;
    for (size_t i = 0; i < n; i++) {
      out.push_back(std::move(slots_[(head + i) & mask_]));
    }
    head_.store(head + n, std::memory_order_seq_cst);
    if (producer_waiting_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lock(mu_);
      not_full_.notify_one();
    }
    return n;
  }

  /// Closes the ring: pending items drain; pushes fail; pops return empty
  /// once drained.
  void Close() {
    closed_.store(true, std::memory_order_seq_cst);
    std::lock_guard<std::mutex> lock(mu_);
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool Closed() const { return closed_.load(std::memory_order_seq_cst); }

  size_t Size() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

  /// Instantaneous depth estimate for samplers and monitors: relaxed index
  /// reads, so a third-party observer pays no ordering cost and never
  /// perturbs the producer/consumer fast path.
  size_t ApproxSize() const {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = head_.load(std::memory_order_relaxed);
    // Relaxed reads can observe head ahead of tail; clamp to 0.
    return tail > head ? static_cast<size_t>(tail - head) : 0;
  }

  size_t capacity() const { return capacity_; }

 private:
  /// Spin budget before parking on the condvar (a few microseconds —
  /// enough to ride out the partner's current batch without a syscall).
  static constexpr int kSpinIterations = 4096;

  /// Bounded spin until the ring has data (or closes). Returns false if
  /// still empty after the spin budget — time to park.
  bool SpinUntilNotEmpty() const {
    for (int i = 0; i < kSpinIterations; i++) {
      if (tail_.load(std::memory_order_acquire) !=
              head_.load(std::memory_order_relaxed) ||
          closed_.load(std::memory_order_relaxed)) {
        return true;
      }
      internal::CpuRelax();
    }
    return false;
  }

  /// Bounded spin until the ring has space (or closes). Returns false if
  /// still full after the spin budget.
  bool SpinUntilNotFull() const {
    for (int i = 0; i < kSpinIterations; i++) {
      if (tail_.load(std::memory_order_relaxed) -
                  head_.load(std::memory_order_acquire) <
              capacity_ ||
          closed_.load(std::memory_order_relaxed)) {
        return true;
      }
      internal::CpuRelax();
    }
    return false;
  }

  bool Full() const {
    return tail_.load(std::memory_order_seq_cst) -
               head_.load(std::memory_order_seq_cst) ==
           capacity_;
  }
  bool Empty() const {
    return tail_.load(std::memory_order_seq_cst) ==
           head_.load(std::memory_order_seq_cst);
  }

  /// Parks the producer until space frees up or the ring closes. Returns
  /// false when closed.
  bool WaitNotFull() {
    std::unique_lock<std::mutex> lock(mu_);
    producer_waiting_.store(true, std::memory_order_seq_cst);
    while (Full() && !closed_.load(std::memory_order_seq_cst)) {
      not_full_.wait_for(lock, std::chrono::milliseconds(1));
    }
    producer_waiting_.store(false, std::memory_order_relaxed);
    return !closed_.load(std::memory_order_seq_cst);
  }

  /// Parks the consumer until data arrives, the ring closes, or `deadline`
  /// passes. Returns false only on deadline expiry.
  bool WaitNotEmptyUntil(std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    consumer_waiting_.store(true, std::memory_order_seq_cst);
    bool timed_out = false;
    while (Empty() && !closed_.load(std::memory_order_seq_cst)) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        timed_out = true;
        break;
      }
      const auto slice = std::min<std::chrono::nanoseconds>(
          deadline - now, std::chrono::milliseconds(1));
      not_empty_.wait_for(lock, slice);
    }
    consumer_waiting_.store(false, std::memory_order_relaxed);
    return !timed_out;
  }

  // Consumer-owned index (next slot to read) on its own cache line.
  alignas(64) std::atomic<uint64_t> head_{0};
  // Producer-owned index (next slot to write) on its own cache line.
  alignas(64) std::atomic<uint64_t> tail_{0};
  // Producer-local cache of head_ (refreshed only when the ring looks full).
  alignas(64) uint64_t cached_head_ = 0;
  // Consumer-local cache of tail_ (refreshed only when the ring looks empty).
  alignas(64) uint64_t cached_tail_ = 0;

  alignas(64) std::atomic<bool> closed_{false};
  std::atomic<bool> producer_waiting_{false};
  std::atomic<bool> consumer_waiting_{false};

  std::unique_ptr<T[]> slots_;
  size_t capacity_ = 0;
  size_t mask_ = 0;

  std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
};

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_SPSC_RING_H_
