// Transport abstraction.
//
// Location servers and clients are message reactors: they receive a datagram
// (handler callback) and may send datagrams in response. The same server
// code runs over two transports:
//   * SimNetwork  -- deterministic in-process delivery in virtual time
//                    (tests, latency ablations),
//   * UdpNetwork  -- real UDP sockets over loopback (the Table-2 benchmark,
//                    matching the paper's UDP prototype).
//
// Hot-path buffer ownership (see net/buffer_pool.hpp for the full rules):
// every transport owns a BufferPool. Senders acquire a recycled buffer with
// make_buffer(), encode into it, and pass the handle to send(); the
// transport returns the buffer to the pool once the datagram has been
// delivered (SimNetwork) or written to the socket (UdpNetwork). Steady-state
// send therefore allocates nothing.
//
// Send-side batching contract (cork / uncork / flush): transports MAY defer
// sends to amortize syscalls (UdpNetwork queues them on per-node transmit
// rings and writes sendmmsg batches; see net/tx_ring.hpp).
// The knobs all default to no-ops so SimNetwork keeps delivering inline --
// every existing simulated trace stays bit-identical:
//  * cork(from)/uncork(from) bracket a burst (a receive-batch's handler
//    replies, a tick's heartbeats): sends in between may queue, the last
//    uncork flushes. Calls nest and may overlap across threads.
//  * flush(from) unconditionally pushes everything still queued for that
//    sender to the wire. Reactor drive loops (LocationServer::tick, bench
//    drivers) call it so a deferred datagram never outlives the burst that
//    produced it; it is always safe to call and a no-op when nothing queues.
//    UdpNetwork's flush is synchronous: when it returns, every queued
//    datagram is on the wire or a counted drop.
//
// Receive-side borrow/lifetime contract: handler callbacks receive a
// Datagram -- a borrowed view into a transport-owned receive buffer that is
// only valid for the duration of the callback. Decoded views
// (wire::Reader::str()/bytes(), wire::SubResView items) inherit that
// lifetime. A handler that needs datagram bytes to OUTLIVE the callback --
// the entry server pinning sub-result payloads across a multi-datagram
// query merge -- calls Datagram::take(): when the transport delivered the
// datagram in a poolable buffer (SimNetwork events, UdpNetwork recvmmsg
// slots and reassembled messages) this is a zero-copy ownership transfer
// and every pointer into the datagram stays valid for the lifetime of the
// returned PooledBuffer; otherwise (raw injections through the borrow-only
// handle overload) the bytes are copied into a fresh pooled buffer --
// degrade to copy, never dangle. Both transports honor the same contract, so
// inline SimNetwork traces stay bit-identical to UDP behavior.
#pragma once

#include <cstdint>
#include <functional>

#include "net/buffer_pool.hpp"
#include "util/ids.hpp"
#include "wire/codec.hpp"
#include "wire/messages.hpp"

namespace locs::net {

/// One received datagram as presented to a handler: a borrowed view plus an
/// optional zero-copy ownership escape hatch (see the receive-side contract
/// in the header comment).
class Datagram {
 public:
  /// Borrow-only view (no backing buffer; take() degrades to a copy).
  Datagram(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}
  /// View backed by a poolable receive buffer; take() may steal it.
  Datagram(const std::uint8_t* data, std::size_t len, PooledBuffer* backing)
      : data_(data), len_(len), backing_(backing) {}

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return len_; }

  /// True while take() would be a zero-copy ownership transfer.
  bool zero_copy() const { return backing_ != nullptr; }

  struct Taken {
    PooledBuffer buf;                  // owns (at least) the datagram bytes
    const std::uint8_t* data = nullptr;  // the datagram within buf
  };

  /// Takes ownership of the datagram bytes. With a backing buffer this is a
  /// zero-copy transfer: the buffer handle moves out (only the FIRST take
  /// is zero-copy) and `Taken::data` equals data() -- every pointer into
  /// the datagram remains valid for the lifetime of Taken::buf. Without one
  /// the bytes are copied into a buffer from `fallback` and pointers must
  /// be rebased onto Taken::data. Either way the caller never dangles.
  Taken take(BufferPool& fallback) const {
    if (backing_ != nullptr) {
      Taken t{std::move(*backing_), data_};
      backing_ = nullptr;
      return t;
    }
    Taken t{PooledBuffer(&fallback, fallback.acquire()), nullptr};
    t.buf->assign(data_, data_ + len_);
    t.data = t.buf->data();
    return t;
  }

 private:
  const std::uint8_t* data_;
  std::size_t len_;
  mutable PooledBuffer* backing_ = nullptr;
};

/// Raw-bytes handler form (clients, tests): invoked with the datagram view;
/// the source node is inside the envelope.
using MessageHandler = std::function<void(const std::uint8_t* data, std::size_t len)>;

/// Full-contract handler form (server dispatch): receives the Datagram so
/// merge paths can pin the receive buffer (see header comment).
using DatagramHandler = std::function<void(const Datagram& dg)>;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers a node and its datagram handler.
  virtual void attach(NodeId node, DatagramHandler handler) = 0;

  /// Convenience overload for raw-bytes handlers (no pin support).
  void attach(NodeId node, MessageHandler handler) {
    attach(node, DatagramHandler([h = std::move(handler)](const Datagram& dg) {
             h(dg.data(), dg.size());
           }));
  }

  /// Unregisters a node's handler. After this returns, the handler is never
  /// invoked again (UdpNetwork waits for an in-flight callback to finish),
  /// so a reactor can safely detach itself before destruction. Must not be
  /// called concurrently with the transport's own teardown.
  virtual void detach(NodeId node) { (void)node; }

  /// Sends a datagram from `from` to `to`. Fire and forget (UDP semantics);
  /// the protocol layer owns retries/timeouts. Consumes the handle; the
  /// buffer is recycled into the pool after delivery.
  virtual void send(NodeId from, NodeId to, PooledBuffer bytes) = 0;

  /// Convenience overload for raw buffers (tests, cold paths); the buffer
  /// joins the pool after delivery.
  void send(NodeId from, NodeId to, wire::Buffer bytes) {
    send(from, to, PooledBuffer(&pool_, std::move(bytes)));
  }

  /// Begins a send burst for `from`: the transport may defer sends until the
  /// matching uncork() to batch syscalls. Nests; no-op by default (SimNetwork
  /// delivers inline, keeping simulated traces bit-identical).
  virtual void cork(NodeId /*from*/) {}
  /// Ends a burst; the uncork that closes the outermost cork flushes.
  virtual void uncork(NodeId /*from*/) {}
  /// Unconditionally pushes everything still queued for `from` to the wire
  /// (cork depth notwithstanding). Safe to call anytime; no-op when nothing
  /// is queued or the transport never defers.
  virtual void flush(NodeId /*from*/) {}

  /// Acquires an empty recycled buffer to encode an outgoing message into.
  PooledBuffer make_buffer() { return PooledBuffer(&pool_, pool_.acquire()); }

  BufferPool& pool() { return pool_; }

 protected:
  BufferPool pool_;
};

/// The canonical hot-path send used by every reactor: encodes `msg` into a
/// buffer recycled from the transport's pool (zero allocations in steady
/// state) and sends it. Concrete message types hit the per-type
/// encode_envelope_into overloads, skipping Message variant construction.
/// The transport returns the buffer to its pool after delivery.
template <typename M>
void send_message(Transport& net, NodeId from, NodeId to, const M& msg) {
  PooledBuffer buf = net.make_buffer();
  wire::encode_envelope_into(*buf, from, msg);
  net.send(from, to, std::move(buf));
}

}  // namespace locs::net
