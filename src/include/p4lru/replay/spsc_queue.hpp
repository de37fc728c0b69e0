// Bounded single-producer/single-consumer queue.  Its user is
// trace::ChunkedFileSource: the background reader thread pushes decoded
// trace chunks and the thread pulling ops from the source pops them.
// Lock-free ring buffer with acquire/release head/tail counters; capacity is
// rounded up to a power of two so the ring index is a mask. close() lets
// the consumer drain and exit.
//
// Wraparound invariants (tested in spsc_queue_test.cpp):
//   * head_ and tail_ are free-running u64 counters — they are never reduced
//     modulo the capacity.  The ring slot is `counter & mask_`, so the index
//     wraps around the buffer every `capacity()` operations while the
//     counters keep growing.
//   * occupancy is `tail_ - head_`, computed in unsigned arithmetic, which
//     stays correct even across u64 overflow (mod-2^64 subtraction); the
//     queue is FULL iff tail_ - head_ == capacity() and EMPTY iff
//     tail_ == head_.  Because capacity() << 2^64, the two counters can
//     never drift apart far enough to alias.
//   * the producer owns tail_, the consumer owns head_; each side reads the
//     other's counter with acquire and publishes its own with release, which
//     orders the slot write/read against the counter movement.
//
// Backpressure: push() blocks (spin + yield) while the ring is full.  The
// chunked reader uses try_push_for() instead: a deadline-bounded spin →
// yield ladder that returns control to the producer, so a stop request
// (seek, destruction) is seen promptly even while the queue is full.
//
// Consumer handoff: the consumer role may be transferred to another thread
// only through a release/acquire edge after the original consumer has
// stopped popping forever; the queue itself does not arbitrate between two
// live consumers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace p4lru::replay {

/// Hint the CPU that the caller is in a spin-wait: on x86 `pause` backs the
/// hyper-twin off the execution ports and avoids the memory-order
/// mis-speculation flush when the awaited line finally changes; on ARM
/// `yield` is the architectural equivalent.  Elsewhere it degrades to a
/// compiler barrier so the spin still re-reads memory.  Used by the
/// SpscQueue push paths' hot spins.
inline void cpu_relax() noexcept {
#if defined(__i386__) || defined(__x86_64__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield" ::: "memory");
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

template <typename T>
class SpscQueue {
  public:
    /// \param capacity minimum number of slots; rounded up to a power of two.
    explicit SpscQueue(std::size_t capacity) {
        std::size_t n = 2;
        while (n < capacity) n <<= 1;
        buf_.resize(n);
        mask_ = n - 1;
    }

    SpscQueue(const SpscQueue&) = delete;
    SpscQueue& operator=(const SpscQueue&) = delete;

    /// Producer only. Blocks (pause-hinted spin, then yield) while the ring
    /// is full.
    void push(T v) {
        const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
        int spin = 0;
        while (tail - head_.load(std::memory_order_acquire) >= buf_.size()) {
            if (++spin <= kHotSpins) {
                cpu_relax();
            } else {
                std::this_thread::yield();
            }
        }
        buf_[tail & mask_] = std::move(v);
        tail_.store(tail + 1, std::memory_order_release);
    }

    /// Producer only. Returns false instead of blocking when full; v is left
    /// intact on failure.
    bool try_push(T& v) {
        const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
        if (tail - head_.load(std::memory_order_acquire) >= buf_.size()) {
            return false;
        }
        buf_[tail & mask_] = std::move(v);
        tail_.store(tail + 1, std::memory_order_release);
        return true;
    }

    /// Producer only. Deadline-bounded push: a short spin, then yielding,
    /// until the ring has room or `timeout` elapses.  Returns false on
    /// timeout with v left intact — the caller decides whether to retry or
    /// give up (the chunked reader checks its stop request in between).
    bool try_push_for(T& v, std::chrono::microseconds timeout) {
        // Cheap spin first: the common stall is the consumer being one batch
        // behind, resolved within a few hundred cycles.  The pause hint
        // keeps the spin from saturating the core the consumer may share.
        for (int spin = 0; spin < kHotSpins; ++spin) {
            if (try_push(v)) return true;
            cpu_relax();
        }
        const auto deadline = std::chrono::steady_clock::now() + timeout;
        while (std::chrono::steady_clock::now() < deadline) {
            if (try_push(v)) return true;
            std::this_thread::yield();
        }
        return try_push(v);
    }

    /// Consumer only. Non-blocking; false when currently empty.
    bool try_pop(T& out) {
        const std::uint64_t head = head_.load(std::memory_order_relaxed);
        if (head == tail_.load(std::memory_order_acquire)) return false;
        out = std::move(buf_[head & mask_]);
        head_.store(head + 1, std::memory_order_release);
        return true;
    }

    /// Consumer only. Blocks until an element arrives or the queue is closed
    /// and fully drained; returns false only in the latter case.
    bool pop(T& out) {
        while (true) {
            if (try_pop(out)) return true;
            if (closed_.load(std::memory_order_acquire)) {
                // Re-check: elements pushed before close() must drain.
                return try_pop(out);
            }
            std::this_thread::yield();
        }
    }

    /// Producer only: no further pushes will follow.
    void close() { closed_.store(true, std::memory_order_release); }

    [[nodiscard]] bool closed() const {
        return closed_.load(std::memory_order_acquire);
    }

    /// Approximate occupancy (either side; for tests and metrics).
    [[nodiscard]] std::size_t size_approx() const {
        return static_cast<std::size_t>(
            tail_.load(std::memory_order_acquire) -
            head_.load(std::memory_order_acquire));
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }

  private:
    /// Hot-spin iterations (with cpu_relax) before escalating to yield.
    static constexpr int kHotSpins = 64;

    std::vector<T> buf_;
    std::size_t mask_ = 0;
    alignas(64) std::atomic<std::uint64_t> head_{0};
    alignas(64) std::atomic<std::uint64_t> tail_{0};
    alignas(64) std::atomic<bool> closed_{false};
};

}  // namespace p4lru::replay
