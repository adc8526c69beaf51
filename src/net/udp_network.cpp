#include "net/udp_network.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <compare>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace locs::net {

namespace {

sockaddr_in addr_for(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

int make_socket(std::uint16_t bind_port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return -1;
  const int buf_size = 4 * 1024 * 1024;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf_size, sizeof buf_size);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf_size, sizeof buf_size);
  sockaddr_in addr = addr_for(bind_port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  return fd;
}

// Thread-local send cache: one (transport instance, sender) -> Node mapping
// per thread. Reactors send as themselves from one thread and client threads
// send as one id, so steady-state sends resolve their ring with three
// compares -- no transport mutex, no hash lookup. The instance id guards
// against a recycled UdpNetwork address.
struct SendCache {
  const void* net = nullptr;
  std::uint64_t instance = 0;
  std::uint32_t from = 0;
  void* node = nullptr;
};
thread_local SendCache t_send_cache;
std::atomic<std::uint64_t> g_instance_ids{1};

// A datagram's source address and port, packed into one reassembly key.
std::uint64_t sender_key(const sockaddr_in& from) {
  return (std::uint64_t{ntohl(from.sin_addr.s_addr)} << 16) | ntohs(from.sin_port);
}

}  // namespace

struct UdpNetwork::Node {
  NodeId id;
  int fd = -1;
  // Transmit ring on this node's socket (never null once attached). The
  // Node -- and with it the ring and its stats -- survives stop() so stale
  // thread-local cache entries and late stats reads stay valid; stop()
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

UdpNetwork::UdpNetwork(std::uint16_t base_port)
    : base_port_(base_port),
      instance_id_(g_instance_ids.fetch_add(1, std::memory_order_relaxed)) {}

std::uint16_t UdpNetwork::pick_free_base_port(std::uint16_t span) {
  static std::atomic<std::uint32_t> counter{0};
  // splitmix64 over (pid, wall clock, in-process counter): distinct processes
  // and repeated calls land in distinct regions of the port space.
  std::uint64_t x = static_cast<std::uint64_t>(::getpid()) +
                    static_cast<std::uint64_t>(
                        std::chrono::steady_clock::now().time_since_epoch().count()) +
                    (static_cast<std::uint64_t>(counter.fetch_add(1)) << 32);
  const auto next = [&x] {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  const auto bindable = [](std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr = addr_for(port);
    const bool ok =
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    ::close(fd);
    return ok;
  };
  const std::uint32_t room = 64000u - 17000u - span;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto base = static_cast<std::uint16_t>(17000u + next() % room);
    if (bindable(static_cast<std::uint16_t>(base + 1)) &&
        bindable(static_cast<std::uint16_t>(base + span / 2)) &&
        bindable(static_cast<std::uint16_t>(base + span))) {
      return base;
    }
  }
  return 25000;  // last resort: the historical fixed base
}

UdpNetwork::~UdpNetwork() {
  stop();
  std::lock_guard<std::mutex> lock(mu_);
  nodes_.clear();
}

void UdpNetwork::attach(NodeId node, DatagramHandler handler) {
  // Re-attach after detach (crash-restart harness hook): the socket and its
  // receive thread survived the detach and keep draining; just swap the
  // handler in so delivery resumes for the restarted reactor.
  Node* existing = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = nodes_.find(node);
    if (it != nodes_.end()) existing = it->second.get();
  }
  if (existing != nullptr) {
    // handler_mu taken WITHOUT mu_ held: a receive thread holds handler_mu
    // while its handler sends (which may lock mu_) -- same order as detach().
    std::lock_guard<std::mutex> hlock(existing->handler_mu);
    existing->handler = std::move(handler);
    return;
  }
  auto n = std::make_unique<Node>();
  n->id = node;
  n->handler = std::move(handler);
  const auto port = static_cast<std::uint16_t>(base_port_ + node.value);
  n->fd = make_socket(port);
  if (n->fd < 0) {
    // The port is exclusive (header comment), so a collision is a setup
    // error: stop here instead of running a node that never receives.
    std::fprintf(stderr, "UdpNetwork: cannot bind 127.0.0.1:%u for node %u: %s\n",
                 static_cast<unsigned>(port), node.value, std::strerror(errno));
    std::abort();
  }
  n->ring = std::make_unique<TxRing>(n->fd, next_msg_id_);
  Node* raw = n.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    nodes_[node] = std::move(n);
  }
  raw->thread = std::thread([this, raw] { receive_loop(*raw); });
}

void UdpNetwork::detach(NodeId node) {
  Node* raw = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = nodes_.find(node);
    if (it == nodes_.end()) return;
    raw = it->second.get();
  }
  {
    // Taken without mu_ held: the handler itself may send (which can lock
    // mu_ on a cold lookup).
    std::lock_guard<std::mutex> lock(raw->handler_mu);
    raw->handler = nullptr;
  }
  // Deterministic send-side teardown: whatever the detached reactor left
  // queued (corked replies) is on the wire -- or a counted drop -- before
  // detach returns.
  raw->ring->flush();
}

UdpNetwork::Node* UdpNetwork::node_for_send(NodeId from) {
  SendCache& cache = t_send_cache;
  if (cache.net == this && cache.instance == instance_id_ &&
      cache.from == from.value) {
    return static_cast<Node*>(cache.node);
  }
  tx_lookup_locks_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = nodes_.find(from);
  if (it == nodes_.end()) return nullptr;  // uncached: attach may follow
  cache = SendCache{this, instance_id_, from.value, it->second.get()};
  return it->second.get();
}

void UdpNetwork::send(NodeId from, NodeId to, PooledBuffer bytes) {
  Node* node = node_for_send(from);
  if (node == nullptr) {
    // A sender without a socket could never receive the answer: a setup
    // error, like a taken port in attach().
    std::fprintf(stderr, "UdpNetwork: node %u sends but is not attached\n",
                 from.value);
    std::abort();
  }
  node->ring->enqueue(addr_for(static_cast<std::uint16_t>(base_port_ + to.value)),
                      std::move(bytes));
}

void UdpNetwork::cork(NodeId from) {
  if (Node* node = node_for_send(from)) node->ring->cork();
}

void UdpNetwork::uncork(NodeId from) {
  if (Node* node = node_for_send(from)) node->ring->uncork();
}

void UdpNetwork::flush(NodeId from) {
  if (Node* node = node_for_send(from)) node->ring->flush();
}

UdpNetwork::TxStats UdpNetwork::tx_stats(NodeId node) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = nodes_.find(node);
  return it != nodes_.end() ? it->second->ring->stats() : TxStats{};
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
  for (auto& [id, node] : nodes_) {
    if (node->thread.joinable()) node->thread.join();
  }
  // Sends have quiesced (reactors stop before their transport): drain what
  // is left, then poison the ring fds so a stale thread-local cache entry
  // turns a late send into a counted drop instead of a write to a recycled
  // descriptor. Node objects survive until destruction, keeping tx_stats()
  // readable after stop().
  for (auto& [id, node] : nodes_) {
    node->ring->flush();
    node->ring->set_fd(-1);
    if (node->fd >= 0) ::close(node->fd);
    node->fd = -1;
  }
}

}  // namespace locs::net
