// Transmit-path coverage: TxRing batching (>= 8x fewer syscalls corked,
// byte-exact delivery) and backpressure, a send storm through the node
// table, and deterministic send-side teardown.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "net/tx_ring.hpp"
#include "net/udp_network.hpp"

namespace locs::net {
namespace {

bool wait_until(const std::function<bool()>& pred, int ms = 2000) {
  for (int i = 0; i < ms / 5; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// A 21-byte storm payload: the datagram's index in its first four bytes,
/// then a body that depends only on the index.
std::vector<std::uint8_t> storm_payload(std::uint32_t seq) {
  std::vector<std::uint8_t> b(21);
  std::memcpy(b.data(), &seq, sizeof seq);
  for (std::size_t i = sizeof seq; i < b.size(); ++i) {
    b[i] = static_cast<std::uint8_t>(seq * 31 + i * 7);
  }
  return b;
}

TEST(TxRing, CorkedStormFlushesInSendmmsgBatches) {
  constexpr std::uint32_t kMessages = 4096;
  UdpNetwork net;
  std::mutex mu;
  std::vector<int> arrivals(kMessages, 0);  // per index, byte-exact copies
  int wrong = 0;                            // payloads matching no index
  std::atomic<std::uint32_t> count{0};
  net.attach(NodeId{1}, [&](const std::uint8_t* d, std::size_t n) {
    std::uint32_t seq = kMessages;
    if (n == 21) std::memcpy(&seq, d, sizeof seq);
    {
      std::lock_guard<std::mutex> lock(mu);
      if (seq < kMessages && storm_payload(seq) == std::vector<std::uint8_t>(d, d + n)) {
        ++arrivals[seq];
      } else {
        ++wrong;
      }
    }
    count.fetch_add(1);
  });
  net.attach(NodeId{2}, [](const std::uint8_t*, std::size_t) {});
  net.cork(NodeId{2});
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    net.send(NodeId{2}, NodeId{1}, storm_payload(i));
  }
  net.uncork(NodeId{2});
  ASSERT_TRUE(wait_until([&] { return count.load() >= kMessages; }, 5000));
  const UdpNetwork::TxStats tx = net.tx_stats(NodeId{2});
  EXPECT_EQ(tx.datagrams_sent, kMessages);
  EXPECT_EQ(tx.dropped, 0u);
  // 4096 datagrams at batch factor 16 -> 256 syscalls; allow partial-send
  // splits but insist on the >=8x amortization the ring exists for (an
  // uncorked send is one syscall per datagram: UncorkedSendsFlushInline).
  EXPECT_LE(tx.batches_flushed, kMessages / 8);
  // Batching changes no byte: every payload arrives exactly once, intact.
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(std::count(arrivals.begin(), arrivals.end(), 1),
            static_cast<std::ptrdiff_t>(kMessages));
}

TEST(TxRing, UncorkedSendsFlushInline) {
  UdpNetwork net;
  std::atomic<int> count{0};
  net.attach(NodeId{1}, [&](const std::uint8_t*, std::size_t) {
    count.fetch_add(1);
  });
  net.attach(NodeId{2}, [](const std::uint8_t*, std::size_t) {});
  for (int i = 0; i < 3; ++i) net.send(NodeId{2}, NodeId{1}, {1, 2, 3});
  ASSERT_TRUE(wait_until([&] { return count.load() >= 3; }));
  const UdpNetwork::TxStats tx = net.tx_stats(NodeId{2});
  // No cork window: each send hits the wire before returning (request/reply
  // latency is unchanged), so one syscall per datagram.
  EXPECT_EQ(tx.datagrams_sent, 3u);
  EXPECT_EQ(tx.batches_flushed, 3u);
}

TEST(TxRing, FragmentedMessageCoalescesSyscalls) {
  UdpNetwork net;
  std::atomic<int> got{0};
  std::vector<std::uint8_t> received;
  std::mutex mu;
  net.attach(NodeId{1}, [&](const std::uint8_t* d, std::size_t n) {
    std::lock_guard<std::mutex> lock(mu);
    received.assign(d, d + n);
    got.store(1);
  });
  net.attach(NodeId{2}, [](const std::uint8_t*, std::size_t) {});
  // 150 KiB -> 5 fragments; even uncorked they group into sendmmsg batches
  // bounded by the byte budget (64 KiB -> 3 syscalls), not one per fragment.
  std::vector<std::uint8_t> big(150 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
  }
  net.send(NodeId{2}, NodeId{1}, big);
  ASSERT_TRUE(wait_until([&] { return got.load() == 1; }));
  const UdpNetwork::TxStats tx = net.tx_stats(NodeId{2});
  EXPECT_EQ(tx.datagrams_sent, 5u);
  EXPECT_LE(tx.batches_flushed, 3u);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(received, big);
}

TEST(TxRing, CorkedMixedSizesPreserveFragmentIntegrity) {
  UdpNetwork net;
  std::atomic<int> small_got{0};
  std::atomic<int> big_got{0};
  std::atomic<int> big_corrupt{0};
  net.attach(NodeId{1}, [&](const std::uint8_t* d, std::size_t n) {
    if (n < 1000) {
      small_got.fetch_add(1);
      return;
    }
    // Large messages carry their fill tag in every byte (offset by index).
    const std::uint8_t tag = d[0];
    bool ok = n == 150 * 1024;
    for (std::size_t i = 0; ok && i < n; i += 4097) {
      ok = d[i] == static_cast<std::uint8_t>(tag + i % 251);
    }
    (ok ? big_got : big_corrupt).fetch_add(1);
  });
  net.attach(NodeId{2}, [](const std::uint8_t*, std::size_t) {});
  // Corked burst mixing small messages with multi-fragment ones: the byte
  // budget forces mid-message flushes, and reassembly must still see every
  // fragment of every message exactly once.
  net.cork(NodeId{2});
  std::vector<std::uint8_t> big(150 * 1024);
  for (int m = 0; m < 4; ++m) {
    for (int s = 0; s < 5; ++s) {
      net.send(NodeId{2}, NodeId{1}, {static_cast<std::uint8_t>(s)});
    }
    for (std::size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<std::uint8_t>(m * 50 + i % 251);
    }
    net.send(NodeId{2}, NodeId{1}, big);
  }
  net.uncork(NodeId{2});
  ASSERT_TRUE(wait_until(
      [&] { return small_got.load() >= 20 && big_got.load() >= 4; }, 4000));
  EXPECT_EQ(small_got.load(), 20);
  EXPECT_EQ(big_got.load(), 4);
  EXPECT_EQ(big_corrupt.load(), 0);
  EXPECT_EQ(net.tx_stats(NodeId{2}).dropped, 0u);
}

TEST(TxRing, SendStormFromAttachedNodeNeverLocksTransportMutex) {
  UdpNetwork net;
  std::atomic<int> count{0};
  net.attach(NodeId{1}, [&](const std::uint8_t*, std::size_t) {
    count.fetch_add(1);
  });
  net.attach(NodeId{2}, [](const std::uint8_t*, std::size_t) {});
  // Each send finds its ring and its destination in the node table, so a
  // storm takes no transport mutex; every datagram must still arrive.
  net.send(NodeId{2}, NodeId{1}, {0});
  ASSERT_TRUE(wait_until([&] { return count.load() >= 1; }));
  constexpr int kStorm = 1000;
  for (int i = 0; i < kStorm; ++i) {
    net.send(NodeId{2}, NodeId{1}, {static_cast<std::uint8_t>(i)});
  }
  ASSERT_TRUE(wait_until([&] { return count.load() >= 1 + kStorm; }));
  EXPECT_EQ(net.tx_stats(NodeId{2}).datagrams_sent,
            static_cast<std::uint64_t>(1 + kStorm));
}

TEST(TxRing, DetachFlushesPendingCorkedSends) {
  UdpNetwork net;
  std::atomic<int> count{0};
  net.attach(NodeId{1}, [&](const std::uint8_t*, std::size_t) {
    count.fetch_add(1);
  });
  net.attach(NodeId{2}, [](const std::uint8_t*, std::size_t) {});
  net.cork(NodeId{2});
  for (int i = 0; i < 5; ++i) net.send(NodeId{2}, NodeId{1}, {1});
  // Detach mid-batch: the queued sends must be on the wire (or counted
  // drops) by the time detach returns -- never lost in a ring limbo.
  net.detach(NodeId{2});
  const UdpNetwork::TxStats tx = net.tx_stats(NodeId{2});
  EXPECT_EQ(tx.datagrams_sent + tx.dropped, 5u);
  ASSERT_TRUE(wait_until([&] { return count.load() >= 5; }));
}

TEST(TxRing, EagainBackpressureIsCountedNotSwallowed) {
  // AF_UNIX datagram pair with starved buffers: real EAGAIN on the transmit
  // path, no flakiness from UDP's silent receiver-side drops.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_DGRAM, 0, sv), 0);
  const int tiny = 1;  // kernel clamps to its minimum
  ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof tiny);
  ::setsockopt(sv[1], SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny);
  std::atomic<std::uint32_t> ids{1};
  TxRing ring(sv[0], ids);
  ring.set_retry_budget(/*polls=*/2, /*poll_timeout_ms=*/1);
  BufferPool pool;
  constexpr int kMessages = 64;
  ring.cork();
  for (int i = 0; i < kMessages; ++i) {
    PooledBuffer buf(&pool, pool.acquire());
    buf->assign(2048, static_cast<std::uint8_t>(i));
    ring.enqueue(std::move(buf));  // connected-socket form
  }
  ring.uncork();
  const TxRing::Stats s = ring.stats();
  // Nobody drains the peer: the ring must hit EAGAIN, wait its bounded
  // POLLOUT budget, and then COUNT the tail as dropped -- the old path's
  // silent swallow is the regression this test pins.
  EXPECT_GT(s.eagain_retries, 0u);
  EXPECT_GT(s.dropped, 0u);
  EXPECT_EQ(s.datagrams_sent + s.dropped,
            static_cast<std::uint64_t>(kMessages));
  // Every datagram reported sent is actually readable on the peer.
  std::uint64_t drained = 0;
  std::uint8_t scratch[4096];
  while (::recv(sv[1], scratch, sizeof scratch, MSG_DONTWAIT) > 0) ++drained;
  EXPECT_EQ(drained, s.datagrams_sent);
  ::close(sv[0]);
  ::close(sv[1]);
}

}  // namespace
}  // namespace locs::net
