#include "net/udp_network.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <compare>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>

namespace locs::net {

namespace {

// Binds a socket to 127.0.0.1 on a port the kernel picks and stores the
// bound address in `addr`. Returns -1 (errno set) on failure.
int make_socket(sockaddr_in& addr) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return -1;
  const int buf_size = 4 * 1024 * 1024;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf_size, sizeof buf_size);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf_size, sizeof buf_size);
  addr = sockaddr_in{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  return fd;
}

// A datagram's source address and port, packed into one reassembly key.
std::uint64_t sender_key(const sockaddr_in& from) {
  return (std::uint64_t{ntohl(from.sin_addr.s_addr)} << 16) | ntohs(from.sin_port);
}

}  // namespace

struct UdpNetwork::Node {
  int fd = -1;
  sockaddr_in addr{};  // the bound address; senders to this node use it
  // Transmit ring on this node's socket (never null once attached). The
  // Node -- and with it the ring and its stats -- survives stop() so late
  // sends and stats reads through the node table stay valid; stop()
  // poisons the ring's fd instead.
  std::unique_ptr<TxRing> ring;
  // Guards handler invocation vs detach(): a reactor clearing its handler
  // before destruction must not race an in-flight callback.
  std::mutex handler_mu;
  DatagramHandler handler;
  std::thread thread;
  // Reassembly state keyed by (sender address and port, msg_id): every
  // UdpNetwork counts msg_ids from 1, so two peer processes reuse ids.
  // Single-threaded per node. The first fragment of a message fixes its
  // count, and a partial holds only the fragments that arrived, sorted by
  // index, so its memory follows what arrived, not the count a first
  // fragment claims. A fragment that names another count or repeats an
  // index is dropped instead of completing the message early. `opened`
  // orders partials by creation, so the cap drops the oldest.
  struct PartialKey {
    std::uint64_t sender;
    std::uint32_t msg_id;
    auto operator<=>(const PartialKey&) const = default;
  };
  struct Frag {
    std::uint16_t index = 0;
    wire::Buffer bytes;
  };
  struct Partial {
    std::uint16_t count = 0;
    std::vector<Frag> frags;  // sorted by index
    std::uint64_t opened = 0;
  };
  std::map<PartialKey, Partial> partials;
  std::uint64_t partials_opened = 0;
  // Buffer reuse: retired partials (their fragment lists keep capacity) and
  // the reassembled-message scratch. The scratch is a pooled slot so a
  // handler can pin a reassembled message zero-copy (Datagram::take steals
  // it; the loop re-provisions on demand).
  std::vector<Partial> partial_pool;
  PooledBuffer reassembly;

  Partial take_partial(std::uint16_t count) {
    Partial p;
    if (!partial_pool.empty()) {
      p = std::move(partial_pool.back());
      partial_pool.pop_back();
    }
    p.count = count;
    p.frags.clear();
    p.opened = ++partials_opened;
    return p;
  }

  void recycle_partial(Partial&& p) {
    if (partial_pool.size() < 8) partial_pool.push_back(std::move(p));
  }
};

UdpNetwork::UdpNetwork()
    : table_(std::make_unique<std::atomic<Node*>[]>(kMaxNodes)) {}

UdpNetwork::~UdpNetwork() { stop(); }

UdpNetwork::Node* UdpNetwork::find(NodeId id) const {
  return id.value < kMaxNodes ? table_[id.value].load(std::memory_order_acquire)
                              : nullptr;
}

void UdpNetwork::attach(NodeId node, DatagramHandler handler) {
  if (node.value >= kMaxNodes) {
    std::fprintf(stderr, "UdpNetwork: node id %u is beyond the node table (ids below %u)\n",
                 node.value, kMaxNodes);
    std::abort();
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (Node* existing = find(node)) {
    // Re-attach after detach (crash-restart harness hook): the socket and
    // its receive thread survived the detach and keep draining; just swap
    // the handler in so delivery resumes for the restarted reactor.
    // handler_mu is taken WITHOUT mu_ held: a receive thread holds
    // handler_mu while its handler runs, and that handler may attach.
    lock.unlock();
    std::lock_guard<std::mutex> hlock(existing->handler_mu);
    existing->handler = std::move(handler);
    return;
  }
  auto n = std::make_unique<Node>();
  n->handler = std::move(handler);
  n->fd = make_socket(n->addr);
  if (n->fd < 0) {
    // A node that cannot bind would never receive: a setup error.
    std::fprintf(stderr, "UdpNetwork: cannot bind a loopback port for node %u: %s\n",
                 node.value, std::strerror(errno));
    std::abort();
  }
  n->ring = std::make_unique<TxRing>(n->fd, next_msg_id_);
  Node* raw = n.get();
  nodes_.push_back(std::move(n));
  table_[node.value].store(raw, std::memory_order_release);
  raw->thread = std::thread([this, raw] { receive_loop(*raw); });
}

void UdpNetwork::detach(NodeId node) {
  Node* raw = find(node);
  if (raw == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(raw->handler_mu);
    raw->handler = nullptr;
  }
  // Deterministic send-side teardown: whatever the detached reactor left
  // queued (corked replies) is on the wire -- or a counted drop -- before
  // detach returns.
  raw->ring->flush();
}

void UdpNetwork::send(NodeId from, NodeId to, PooledBuffer bytes) {
  Node* node = find(from);
  if (node == nullptr) {
    // A sender without a socket could never receive the answer: a setup
    // error, like a failed bind in attach().
    std::fprintf(stderr, "UdpNetwork: node %u sends but is not attached\n",
                 from.value);
    std::abort();
  }
  if (const Node* dst = find(to)) node->ring->enqueue(dst->addr, std::move(bytes));
}

void UdpNetwork::cork(NodeId from) {
  if (Node* node = find(from)) node->ring->cork();
}

void UdpNetwork::uncork(NodeId from) {
  if (Node* node = find(from)) node->ring->uncork();
}

void UdpNetwork::flush(NodeId from) {
  if (Node* node = find(from)) node->ring->flush();
}

std::uint16_t UdpNetwork::port_of(NodeId node) const {
  const Node* n = find(node);
  return n != nullptr ? ntohs(n->addr.sin_port) : 0;
}

UdpNetwork::TxStats UdpNetwork::tx_stats(NodeId node) const {
  const Node* n = find(node);
  return n != nullptr ? n->ring->stats() : TxStats{};
}

void UdpNetwork::handle_datagram(Node& node, std::uint64_t sender,
                                 PooledBuffer& slot, std::size_t len) {
  const std::uint8_t* buf = slot->data();
  if (len < kFragHeader) return;
  if (frag::get_u16(buf) != kFragMagic) return;
  const std::uint32_t msg_id = frag::get_u32(buf + 2);
  const std::uint16_t index = frag::get_u16(buf + 6);
  const std::uint16_t count = frag::get_u16(buf + 8);
  const std::uint8_t* payload = buf + kFragHeader;
  const std::size_t payload_len = len - kFragHeader;
  if (count <= 1) {
    // Single-fragment message (the common case): deliver straight out of
    // the receive slot. A handler pin steals the slot's buffer; the loop
    // re-provisions before the next recvmmsg batch.
    const Datagram dg(payload, payload_len, &slot);
    std::lock_guard<std::mutex> lock(node.handler_mu);
    if (node.handler) node.handler(dg);
    return;
  }
  // Multi-fragment message: stash and deliver once complete. Partials and
  // the reassembled-message buffer are recycled (capacity intact) instead
  // of freshly allocated per message.
  if (index >= count) return;
  const auto [it, fresh] = node.partials.try_emplace({sender, msg_id});
  Node::Partial& partial = it->second;
  if (fresh) partial = node.take_partial(count);
  if (count != partial.count) return;
  std::vector<Node::Frag>& frags = partial.frags;
  const auto at = std::lower_bound(
      frags.begin(), frags.end(), index,
      [](const Node::Frag& f, std::uint16_t i) { return f.index < i; });
  if (at != frags.end() && at->index == index) return;  // repeated index
  frags.insert(at, {index, wire::Buffer(payload, payload + payload_len)});
  if (frags.size() == count) {
    // Reassemble into the pooled scratch slot so the handler can pin the
    // whole message zero-copy, exactly like a single-fragment datagram.
    if (!node.reassembly.armed()) {
      node.reassembly = PooledBuffer(&rx_pool_, rx_pool_.acquire());
    }
    wire::Buffer& whole = *node.reassembly;
    whole.clear();
    for (const Node::Frag& frag : frags) {
      whole.insert(whole.end(), frag.bytes.begin(), frag.bytes.end());
    }
    node.recycle_partial(std::move(partial));
    node.partials.erase(it);
    const Datagram dg(whole.data(), whole.size(), &node.reassembly);
    std::lock_guard<std::mutex> lock(node.handler_mu);
    if (node.handler) node.handler(dg);
    return;
  }
  // Bound reassembly memory: drop the oldest partials beyond a small cap
  // (recycling them too).
  while (node.partials.size() > kMaxPartials) {
    const auto oldest = std::min_element(
        node.partials.begin(), node.partials.end(),
        [](const auto& a, const auto& b) { return a.second.opened < b.second.opened; });
    node.recycle_partial(std::move(oldest->second));
    node.partials.erase(oldest);
  }
}

void UdpNetwork::receive_loop(Node& node) {
  // One pooled slot per recvmmsg entry, provisioned at full datagram size
  // once and then reused batch after batch; a slot is re-provisioned (one
  // pool round-trip) only after a handler stole its buffer via
  // Datagram::take. Pool exhaustion just allocates -- never blocks.
  constexpr std::size_t kSlotSize = kMaxFragPayload + kFragHeader + 1024;
  PooledBuffer slots[kRecvBatch];
  const auto provision = [&](PooledBuffer& slot) {
    slot = PooledBuffer(&rx_pool_, rx_pool_.acquire());
    slot->resize(kSlotSize);
  };
  for (PooledBuffer& slot : slots) provision(slot);
  mmsghdr msgs[kRecvBatch];
  iovec iovs[kRecvBatch];
  sockaddr_in senders[kRecvBatch];
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{node.fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready <= 0) {
      // Tick-deadline safety net: push out anything an overlapping cork
      // window left queued on this node's ring.
      node.ring->flush();
      continue;
    }
    for (std::size_t i = 0; i < kRecvBatch; ++i) {
      if (!slots[i].armed()) provision(slots[i]);
      iovs[i] = {slots[i]->data(), slots[i]->size()};
      std::memset(&msgs[i], 0, sizeof msgs[i]);
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_name = &senders[i];
      msgs[i].msg_hdr.msg_namelen = sizeof senders[i];
    }
    // Batched receive: one syscall drains up to kRecvBatch queued datagrams
    // (under load the syscall cost amortizes across the whole batch).
    const int n = ::recvmmsg(node.fd, msgs, kRecvBatch, MSG_DONTWAIT, nullptr);
    if (n <= 0) continue;
    // Cork the node's ring across the batch: every reply the handlers send
    // coalesces into sendmmsg batches, flushed by the closing uncork -- the
    // transmit dual of the recvmmsg amortization above.
    node.ring->cork();
    for (int i = 0; i < n; ++i) {
      handle_datagram(node, sender_key(senders[i]), slots[i], msgs[i].msg_len);
    }
    node.ring->uncork();
  }
}

void UdpNetwork::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& node : nodes_) {
    if (node->thread.joinable()) node->thread.join();
  }
  // Sends have quiesced (reactors stop before their transport): drain what
  // is left, then poison the ring fds so a late send turns into a counted
  // drop instead of a write to a recycled descriptor. Node objects stay in
  // the table until destruction, keeping tx_stats() readable after stop().
  for (auto& node : nodes_) {
    node->ring->flush();
    node->ring->set_fd(-1);
    if (node->fd >= 0) ::close(node->fd);
    node->fd = -1;
  }
}

}  // namespace locs::net
