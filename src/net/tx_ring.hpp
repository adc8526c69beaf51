// Transmit ring: the send-side dual of the recvmmsg receive path.
//
// PR 5 made receiving syscall-efficient (one recvmmsg drains a whole batch
// into pooled slots); before this ring every SEND was still one sendmsg
// syscall. A TxRing enqueues outgoing messages -- fragmented into
// scatter/gather slots whose headers live in per-slot scratch, payload
// straight from the pooled buffer, zero copies -- and flushes them with ONE
// sendmmsg per batch of up to kSendBatch datagrams.
//
// Flush policy (same shape as core/update_coalescer.hpp):
//  * batch-full      -- kSendBatch slots queued,
//  * byte budget     -- kMaxBatchBytes pending,
//  * explicit flush()-- Transport::flush(NodeId),
//  * uncork          -- the last uncork() of a cork window flushes,
//  * tick deadline   -- the owner's idle/poll-timeout path calls flush()
//                       (UdpNetwork's receive loop, LocationServer::tick).
// An UNCORKED ring flushes at the end of every enqueue, so request/reply
// latency is unchanged for plain sends -- a multi-fragment message goes out
// immediately, its fragments grouped into as few syscalls as the byte
// budget allows (one for anything up to kMaxBatchBytes).
//
// Backpressure: flushes use MSG_DONTWAIT. A partial sendmmsg resumes at the
// unsent tail; EAGAIN/ENOBUFS waits for POLLOUT under a bounded retry budget
// (counted in Stats::eagain_retries) and only then counts drops
// (Stats::dropped). Hard per-datagram errors skip exactly one slot so a
// poison datagram cannot wedge the ring.
//
// Ownership: enqueue() parks the PooledBuffer in the ring; the wire::Buffer
// heap storage is stable across the handle move, so slot iovecs stay valid
// until the flush that transmits them, after which buffers recycle into
// their pool. A message whose fragments straddle a mid-enqueue flush keeps
// its buffer parked until the tail fragments go out (mid_message_).
//
// Threading: every operation serializes on an internal mutex. That lock is
// PER-RING (per sender), uncontended on the hot path -- unlike the global
// transport mutex it replaces, which every send of every node used to take.
#pragma once

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <vector>

#include "net/buffer_pool.hpp"

namespace locs::net {

// Fragmentation wire format, shared by the transmit ring (framing) and
// UdpNetwork's receive path (reassembly):
//   [magic u16][msg_id u32][index u16][count u16], little-endian.
constexpr std::uint16_t kFragMagic = 0x4c53;  // "LS"
constexpr std::size_t kFragHeader = 10;
// Stay well below the 65507-byte UDP payload limit.
constexpr std::size_t kMaxFragPayload = 32 * 1024;

namespace frag {

inline void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace frag

class TxRing {
 public:
  /// Datagrams per sendmmsg syscall (mirrors UdpNetwork::kRecvBatch).
  static constexpr std::size_t kSendBatch = 16;
  /// Pending-byte budget: flush early when queued payload crosses this, so
  /// corked bursts of large fragments don't sit on half a megabyte.
  static constexpr std::size_t kMaxBatchBytes = 64 * 1024;

  struct Stats {
    std::uint64_t datagrams_sent = 0;
    // Send syscalls: sendmmsg calls that sent >= 1. batches_flushed /
    // datagrams_sent is the syscalls-per-datagram ratio the send-path bench
    // gates on.
    std::uint64_t batches_flushed = 0;
    std::uint64_t eagain_retries = 0;   // POLLOUT waits on EAGAIN/ENOBUFS
    std::uint64_t dropped = 0;          // backpressure budget / hard errors
  };

  /// The ring writes to `fd` but does not own it; `msg_ids` is the
  /// transport-wide fragment-id source (shared so reassembly keys never
  /// collide across the rings of one process).
  TxRing(int fd, std::atomic<std::uint32_t>& msg_ids)
      : fd_(fd), msg_ids_(msg_ids) {}

  TxRing(const TxRing&) = delete;
  TxRing& operator=(const TxRing&) = delete;

  /// Teardown hook: set_fd(-1) makes every later enqueue/flush a counted
  /// drop instead of a write to a possibly recycled descriptor.
  void set_fd(int fd) {
    std::lock_guard<std::mutex> lock(mu_);
    fd_ = fd;
  }

  /// Backpressure budget: up to `polls` POLLOUT waits of `poll_timeout_ms`
  /// each per flush before the unsent tail is dropped.
  void set_retry_budget(int polls, int poll_timeout_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    retry_polls_ = polls;
    retry_poll_timeout_ms_ = poll_timeout_ms;
  }

  /// Cork/uncork nest (receive-batch handling + a concurrent tick may
  /// overlap); the uncork that drops the depth to zero flushes.
  void cork() {
    std::lock_guard<std::mutex> lock(mu_);
    ++cork_depth_;
  }

  void uncork() {
    std::lock_guard<std::mutex> lock(mu_);
    if (cork_depth_ > 0) --cork_depth_;
    if (cork_depth_ == 0) flush_locked();
  }

  /// Unconditional flush, cork depth notwithstanding -- the explicit
  /// Transport::flush(NodeId) / tick-deadline path. Sends are synchronous,
  /// so on return every queued datagram is on the wire or a counted drop.
  void flush() {
    std::lock_guard<std::mutex> lock(mu_);
    flush_locked();
  }

  /// Fragments `bytes` into ring slots addressed to `dst`. Flushes inline
  /// when uncorked, on batch-full, and on the byte budget.
  void enqueue(const sockaddr_in& dst, PooledBuffer bytes) {
    enqueue_impl(&dst, std::move(bytes));
  }

  /// Connected-socket form (no per-datagram address; tests drive this over
  /// AF_UNIX datagram pairs to exercise real EAGAIN backpressure).
  void enqueue(PooledBuffer bytes) { enqueue_impl(nullptr, std::move(bytes)); }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  struct Slot {
    std::uint8_t header[kFragHeader];
    sockaddr_in dst;
    bool has_dst = false;
    iovec iov[2];
    std::size_t iov_count = 1;
    std::size_t bytes = 0;
  };

  void enqueue_impl(const sockaddr_in* dst, PooledBuffer bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0) {
      ++stats_.dropped;
      return;
    }
    // Park the buffer first: its heap storage is stable across the handle
    // move, so the slot iovecs built below stay valid until the flush that
    // transmits them.
    const std::size_t total = bytes.size();
    const std::size_t frag_count =
        total == 0 ? 1 : (total + kMaxFragPayload - 1) / kMaxFragPayload;
    owned_.push_back(std::move(bytes));
    const std::uint8_t* payload = owned_.back().data();
    const std::uint32_t msg_id =
        msg_ids_.fetch_add(1, std::memory_order_relaxed);
    // Fragments of one message enqueue contiguously; when they outgrow the
    // remaining slots the ring flushes mid-message, keeping every parked
    // buffer alive (mid_message_) until the tail fragments have gone out.
    mid_message_ = true;
    for (std::size_t i = 0; i < frag_count; ++i) {
      if (count_ == kSendBatch || bytes_pending_ >= kMaxBatchBytes) {
        flush_locked();
      }
      Slot& slot = slots_[count_++];
      const std::size_t off = i * kMaxFragPayload;
      const std::size_t len = std::min(kMaxFragPayload, total - off);
      frag::put_u16(slot.header, kFragMagic);
      frag::put_u32(slot.header + 2, msg_id);
      frag::put_u16(slot.header + 6, static_cast<std::uint16_t>(i));
      frag::put_u16(slot.header + 8, static_cast<std::uint16_t>(frag_count));
      slot.iov[0] = {slot.header, kFragHeader};
      slot.iov_count = 1;
      if (len > 0) {
        slot.iov[1] = {const_cast<std::uint8_t*>(payload) + off, len};
        slot.iov_count = 2;
      }
      slot.has_dst = dst != nullptr;
      if (dst != nullptr) slot.dst = *dst;
      slot.bytes = kFragHeader + len;
      bytes_pending_ += slot.bytes;
    }
    mid_message_ = false;
    if (cork_depth_ == 0 || count_ == kSendBatch ||
        bytes_pending_ >= kMaxBatchBytes) {
      flush_locked();
    }
  }

  void flush_locked() {
    if (count_ == 0) return;
    if (fd_ < 0) {
      stats_.dropped += count_;
      reset_pending();
      return;
    }
    std::size_t off = 0;
    int polls = 0;
    mmsghdr msgs[kSendBatch];
    while (off < count_) {
      const unsigned n = static_cast<unsigned>(count_ - off);
      for (unsigned i = 0; i < n; ++i) {
        Slot& slot = slots_[off + i];
        std::memset(&msgs[i], 0, sizeof msgs[i]);
        if (slot.has_dst) {
          msgs[i].msg_hdr.msg_name = &slot.dst;
          msgs[i].msg_hdr.msg_namelen = sizeof slot.dst;
        }
        msgs[i].msg_hdr.msg_iov = slot.iov;
        msgs[i].msg_hdr.msg_iovlen = slot.iov_count;
      }
      const int sent = ::sendmmsg(fd_, msgs, n, MSG_DONTWAIT);
      if (sent > 0) {
        ++stats_.batches_flushed;
        stats_.datagrams_sent += static_cast<std::uint64_t>(sent);
        off += static_cast<std::size_t>(sent);  // partial send: resume tail
        continue;
      }
      if (sent < 0 && errno == EINTR) continue;
      if (sent < 0 &&
          (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS)) {
        if (polls >= retry_polls_) {
          // Backpressure budget exhausted: drop the unsent tail, counted.
          stats_.dropped += count_ - off;
          break;
        }
        ++polls;
        ++stats_.eagain_retries;
        pollfd pfd{fd_, POLLOUT, 0};
        ::poll(&pfd, 1, retry_poll_timeout_ms_);
        continue;
      }
      // Hard per-datagram error (EBADF at teardown, EMSGSIZE, ...): skip
      // exactly one slot so a poison datagram cannot wedge the ring.
      ++stats_.dropped;
      ++off;
    }
    reset_pending();
  }

  void reset_pending() {
    count_ = 0;
    bytes_pending_ = 0;
    // A mid-enqueue flush keeps the parked buffers: the message's remaining
    // fragments still point into them.
    if (!mid_message_) owned_.clear();
  }

  mutable std::mutex mu_;
  int fd_;
  std::atomic<std::uint32_t>& msg_ids_;
  Slot slots_[kSendBatch];
  std::size_t count_ = 0;
  std::size_t bytes_pending_ = 0;
  std::vector<PooledBuffer> owned_;
  bool mid_message_ = false;
  int cork_depth_ = 0;
  int retry_polls_ = 64;
  int retry_poll_timeout_ms_ = 5;
  Stats stats_;
};

}  // namespace locs::net
