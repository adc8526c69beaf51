// Real UDP transport over loopback.
//
// The paper's prototype implemented its protocols "on top of UDP to achieve
// efficient client/server and server/server interactions" (§7.2); the
// Table-2 benchmark runs over this transport. Each attached node gets its
// own socket, bound to a loopback port the kernel picks (port_of reads it
// back), and its own receive thread, so a node's handler is always invoked
// from a single thread -- the same single-threaded reactor discipline the
// simulator provides, with real parallelism between nodes (the paper ran
// one server per machine). The node's port is exclusive: its socket sets no
// port-sharing option, so no other socket -- in this process or another --
// can bind the port while the node is attached.
//
// Node table: one slot per NodeId below kMaxNodes, filled by attach and
// never cleared while the transport lives. Every lookup -- the sender's
// ring and the destination's address on each send, cork/uncork/flush,
// tx_stats, port_of -- is one atomic load, so no send path takes the
// transport mutex. A datagram for an id nobody attached (or one beyond the
// table) is dropped, as the kernel drops one for a port nobody bound.
//
// Receive path (recvmmsg + receive-side BufferPool): each receive thread
// drains its socket in batches of up to kRecvBatch datagrams per syscall
// (recvmmsg), one pooled slot buffer per batch entry. Handlers get a
// net::Datagram backed by the slot; the borrow/lifetime rules are:
//  * by default the slot buffer is REUSED for the next batch the moment the
//    handler returns -- views into the datagram are valid only during the
//    callback;
//  * a handler that pins the datagram (Datagram::take) steals the slot's
//    pooled buffer zero-copy; the loop re-provisions that slot from the
//    receive pool before the next batch, and the stolen buffer returns to
//    the pool when the pin is released (e.g. when a query merge completes).
//    Pinning therefore costs one pool round-trip, never a byte copy;
//  * reassembled multi-fragment messages live in a pooled scratch buffer
//    under the same steal/re-provision protocol, so even >32 KiB sub-results
//    can be pinned without copying;
//  * the receive pool never blocks: exhaustion (every buffer pinned) simply
//    allocates fresh buffers, and non-poolable delivery paths degrade to
//    copy inside Datagram::take -- never to a dangling view.
//
// Send path (net/tx_ring.hpp): every attached node owns a TxRing on its
// socket. send(from, ...) enqueues on the sender's ring, and the ring
// writes sendmmsg batches. The receive loop corks the node's ring around
// each recvmmsg batch, so all handler replies of one batch leave in one
// syscall; uncorked sends (clients, tests) flush inline.
// Backpressure (EAGAIN/ENOBUFS) waits for POLLOUT under a bounded budget and
// is surfaced -- never silently swallowed -- via tx_stats(node):
// {datagrams_sent, batches_flushed, eagain_retries, dropped}.
//
// Datagrams larger than the safe UDP payload are fragmented and reassembled
// with a small header (large range-query results can exceed 64 KiB). The
// receiver keys reassembly by the sender's address and port plus the
// header's msg_id, so peers in other processes, whose msg_ids also start at
// 1, never mix fragments.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "net/transport.hpp"
#include "net/tx_ring.hpp"

namespace locs::net {

class UdpNetwork : public Transport {
 public:
  /// Node ids must stay below this: the node table has one slot per id.
  static constexpr std::uint32_t kMaxNodes = 1u << 16;

  UdpNetwork();
  ~UdpNetwork() override;

  UdpNetwork(const UdpNetwork&) = delete;
  UdpNetwork& operator=(const UdpNetwork&) = delete;

  /// Binds the node's socket to 127.0.0.1 on a port the kernel picks and
  /// starts its receive thread; aborts with a message for an id of
  /// kMaxNodes or more, or if the bind fails. Re-attaching a previously
  /// detached node swaps the handler in on the surviving socket (the
  /// crash-restart harness hook: a restarted reactor resumes delivery on
  /// the same port).
  using Transport::attach;
  void attach(NodeId node, DatagramHandler handler) override;
  /// Clears the node's handler; blocks until an in-flight callback on the
  /// receive thread has returned, then flushes the node's transmit ring --
  /// anything the dying reactor queued is on the wire (or a counted drop)
  /// before detach returns, and the handler is never invoked again. The
  /// socket keeps draining (and dropping) datagrams until stop().
  void detach(NodeId node) override;
  using Transport::send;
  // Enqueues on the sender's transmit ring (fragmented with scatter/gather
  // iovecs, zero copies); an uncorked ring flushes before returning. The
  // sender must be attached, since only an attached node can receive the
  // answer: a send from any other node aborts with a message naming it, as
  // attach() does for a failed bind. A datagram for a destination that was
  // never attached is dropped.
  void send(NodeId from, NodeId to, PooledBuffer bytes) override;

  /// Send-burst brackets and the explicit flush for `from`'s ring (see the
  /// Transport contract; no-ops for unknown senders).
  void cork(NodeId from) override;
  void uncork(NodeId from) override;
  void flush(NodeId from) override;

  /// Joins all receive threads, flushes every transmit ring and closes
  /// sockets. Called by the destructor. Stats remain readable afterwards.
  void stop();

  /// The loopback port `node`'s socket is bound to; 0 for a node that was
  /// never attached.
  std::uint16_t port_of(NodeId node) const;

  /// Per-node transmit stats (the node's ring). Unknown nodes read all-zero.
  using TxStats = TxRing::Stats;
  TxStats tx_stats(NodeId node) const;

  /// Receive-side pool feeding the recvmmsg slot buffers and reassembly
  /// scratch (shared by all receive threads; see the header contract).
  BufferPool& rx_pool() { return rx_pool_; }

  /// Datagrams per recvmmsg syscall (and pooled slots per receive thread).
  static constexpr std::size_t kRecvBatch = 16;

  /// Incomplete multi-fragment messages a node keeps; beyond this it drops
  /// the one whose first fragment arrived earliest.
  static constexpr std::size_t kMaxPartials = 64;

 private:
  struct Node;

  /// The node's table slot: nullptr for an id that was never attached or
  /// lies beyond the table (send() aborts on such a sender and drops a
  /// datagram to such a destination; cork, uncork and flush do nothing).
  Node* find(NodeId id) const;
  void receive_loop(Node& node);
  /// Parses one received datagram (frag header, reassembly keyed by the
  /// `sender` address and port plus msg_id) and invokes the node's handler
  /// with `slot` as the Datagram backing.
  void handle_datagram(Node& node, std::uint64_t sender, PooledBuffer& slot,
                       std::size_t len);

  BufferPool rx_pool_;  // receive-side buffers (recvmmsg slots + reassembly)
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint32_t> next_msg_id_{1};
  // kMaxNodes zero-initialised slots (see the header comment).
  const std::unique_ptr<std::atomic<Node*>[]> table_;
  std::mutex mu_;  // serializes attach and stop over nodes_
  // Owns every attached node; declared last, so nodes (whose rings and
  // buffers use the members above) are destroyed first.
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace locs::net
