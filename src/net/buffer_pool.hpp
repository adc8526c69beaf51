// Buffer pool for the message hot path.
//
// Every datagram the location service sends is encoded into a wire::Buffer;
// under steady traffic that used to be one heap allocation per message on
// each side. BufferPool keeps a free list of retired buffers (capacity
// intact) so the encode -> send -> deliver -> recycle cycle allocates
// nothing once buffers have grown to their working size.
//
// Ownership rules:
//  * acquire() hands out an EMPTY buffer (cleared, capacity retained).
//  * A buffer travels inside a PooledBuffer handle; whoever holds the handle
//    owns the buffer. The transport consumes the handle in send(); when the
//    handle dies (after real or simulated delivery) the buffer returns to
//    the pool automatically.
//  * release() / handle destruction may run on any thread (UdpNetwork
//    receive threads send replies); the free list is mutex-guarded.
//  * A disabled pool (set_enabled(false)) degrades to plain allocation --
//    used by determinism tests to compare pooled vs unpooled traces.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "wire/codec.hpp"

namespace locs::net {

class BufferPool {
 public:
  // Default bounds on pool memory under bursts; beyond these, releases
  // degrade to frees. 64 KiB comfortably covers every steady-state message
  // (UDP fragments are 32 KiB) while letting oversized result buffers die.
  static constexpr std::size_t kDefaultMaxFree = 4096;
  static constexpr std::size_t kDefaultMaxPooledCapacity = 64 * 1024;

  BufferPool() = default;

  /// Batch-aware sizing: a sender that coalesces many messages into one
  /// datagram (core/update_coalescer.hpp) retires buffers at its batch
  /// byte-budget, so it passes a capacity cap covering that budget (and
  /// typically a much smaller free-list bound -- a handful of in-flight
  /// batches, not thousands of singletons).
  BufferPool(std::size_t max_free, std::size_t max_pooled_capacity)
      : max_free_(max_free), max_pooled_capacity_(max_pooled_capacity) {}

  /// Returns an empty buffer, reusing a retired one when available.
  wire::Buffer acquire() {
    SpinGuard guard(lock_);
    if (free_.empty()) return {};
    wire::Buffer b = std::move(free_.back());
    free_.pop_back();
    ++reused_;
    b.clear();
    return b;
  }

  /// Retires a buffer into the free list. Dropped (plain free) when the
  /// pool is disabled, already holds max_free buffers, or the buffer grew
  /// beyond max_pooled_capacity -- a burst of huge range results must not
  /// pin gigabytes of capacity behind the pool forever.
  void release(wire::Buffer&& b) {
    SpinGuard guard(lock_);
    if (!enabled_ || free_.size() >= max_free_ ||
        b.capacity() > max_pooled_capacity_) {
      return;
    }
    free_.push_back(std::move(b));
  }

  /// Pooling toggle; disabling also drops the current free list.
  void set_enabled(bool on) {
    SpinGuard guard(lock_);
    enabled_ = on;
    if (!on) free_.clear();
  }

  std::uint64_t reused() const {
    SpinGuard guard(lock_);
    return reused_;
  }
  std::size_t free_count() const {
    SpinGuard guard(lock_);
    return free_.size();
  }

 private:
  // The critical sections are a handful of instructions, and on the
  // single-threaded SimNetwork hot path acquire/release run once per
  // message: an uncontended atomic-flag spinlock costs a few ns where a
  // std::mutex round trip costs tens.
  struct SpinGuard {
    explicit SpinGuard(std::atomic_flag& f) : flag(f) {
      while (flag.test_and_set(std::memory_order_acquire)) {
      }
    }
    ~SpinGuard() { flag.clear(std::memory_order_release); }
    std::atomic_flag& flag;
  };

  mutable std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
  std::size_t max_free_ = kDefaultMaxFree;
  std::size_t max_pooled_capacity_ = kDefaultMaxPooledCapacity;
  std::vector<wire::Buffer> free_;
  bool enabled_ = true;
  std::uint64_t reused_ = 0;
};

/// Move-only owning handle for a pooled buffer. Returns the buffer to its
/// pool on destruction; a handle without a pool (default-constructed or made
/// from a raw buffer) owns the buffer like a plain vector.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  PooledBuffer(BufferPool* pool, wire::Buffer buf)
      : pool_(pool), buf_(std::move(buf)) {}
  explicit PooledBuffer(wire::Buffer buf) : buf_(std::move(buf)) {}

  PooledBuffer(PooledBuffer&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)), buf_(std::move(other.buf_)) {}
  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      pool_ = std::exchange(other.pool_, nullptr);
      buf_ = std::move(other.buf_);
    }
    return *this;
  }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  ~PooledBuffer() { reset(); }

  /// True while the handle still owns a pool-bound buffer. Moved-from (e.g.
  /// stolen via net::Datagram::take) and default-constructed handles are
  /// disarmed; the UDP receive loop uses this to re-provision stolen slots.
  bool armed() const { return pool_ != nullptr; }

  /// Returns the buffer to the pool (if any) and empties the handle.
  void reset() {
    if (pool_ != nullptr) {
      pool_->release(std::move(buf_));
      pool_ = nullptr;
    }
    buf_ = wire::Buffer{};
  }

  wire::Buffer& operator*() { return buf_; }
  const wire::Buffer& operator*() const { return buf_; }
  wire::Buffer* operator->() { return &buf_; }
  const wire::Buffer* operator->() const { return &buf_; }

  const std::uint8_t* data() const { return buf_.data(); }
  std::size_t size() const { return buf_.size(); }

 private:
  BufferPool* pool_ = nullptr;
  wire::Buffer buf_;
};

}  // namespace locs::net
