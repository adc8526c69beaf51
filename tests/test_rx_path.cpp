// Receive-path borrow/lifetime contract (net/transport.hpp):
//  * Datagram::take is zero-copy when a backing buffer exists, a pooled copy
//    otherwise -- never a dangling view;
//  * the recvmmsg receive loop delivers bursts intact, re-provisions stolen
//    slots, and a pinned buffer stays valid across later batches (ASan in
//    the CI sanitize matrix verifies the lifetime claims for real);
//  * reassembled multi-fragment messages honor the same pin protocol, and a
//    fragment that disagrees with its message's first fragment (another
//    count, a repeated index) is dropped rather than completing it;
//  * reassembly keys fragments by sender as well as msg_id, its cap on
//    incomplete messages drops the oldest, and a partial's memory follows
//    the fragments that arrived, not the count its first fragment claims;
//  * an entry server's range merge over real UDP -- sub-results pinned
//    across multiple recvmmsg batches -- produces correct answers.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "core/client.hpp"
#include "core/deployment.hpp"
#include "core/hierarchy_builder.hpp"
#include "net/udp_network.hpp"
#include "test_support.hpp"
#include "util/clock.hpp"

namespace locs::test {
namespace {

using net::BufferPool;
using net::Datagram;
using net::PooledBuffer;

wire::Buffer bytes_of(const char* s) {
  return wire::Buffer(reinterpret_cast<const std::uint8_t*>(s),
                      reinterpret_cast<const std::uint8_t*>(s) + std::strlen(s));
}

TEST(RxPath, TakeIsZeroCopyWithBackingAndCopiesWithout) {
  BufferPool pool;
  wire::Buffer payload = bytes_of("pinned payload");
  const std::uint8_t* heap = payload.data();

  // Backed datagram: take() steals the buffer; no bytes move.
  PooledBuffer backing(&pool, std::move(payload));
  Datagram dg(backing.data() + 7, backing.size() - 7, &backing);
  EXPECT_TRUE(dg.zero_copy());
  Datagram::Taken taken = dg.take(pool);
  EXPECT_EQ(taken.buf->data(), heap);     // same heap block
  EXPECT_EQ(taken.data, heap + 7);        // view preserved verbatim
  EXPECT_FALSE(backing.armed());          // handle was stolen cleanly
  EXPECT_FALSE(dg.zero_copy());           // only the first take is zero-copy

  // Second take of the same datagram: degrade to copy, never dangle.
  Datagram::Taken again = dg.take(pool);
  EXPECT_NE(again.data, heap + 7);
  EXPECT_EQ(0, std::memcmp(again.data, taken.data, dg.size()));

  // Borrow-only datagram: copy from the start.
  const wire::Buffer raw = bytes_of("borrow-only");
  Datagram borrow(raw.data(), raw.size());
  EXPECT_FALSE(borrow.zero_copy());
  Datagram::Taken copied = borrow.take(pool);
  EXPECT_NE(copied.data, raw.data());
  ASSERT_EQ(copied.buf->size(), raw.size());
  EXPECT_EQ(0, std::memcmp(copied.data, raw.data(), raw.size()));
}

TEST(RxPath, ExhaustedOrDisabledPoolStillServesCopies) {
  // "Pool exhaustion" is not a failure mode: an empty -- or even disabled --
  // fallback pool just allocates, so take() always degrades to copy, never
  // to a crash or a dangling view. (Pool LIFETIME is a separate contract:
  // transports own their pools and outlive every pin.)
  BufferPool pool;
  pool.set_enabled(false);
  const wire::Buffer raw = bytes_of("no pooling available");
  for (int i = 0; i < 3; ++i) {
    Datagram::Taken taken = Datagram(raw.data(), raw.size()).take(pool);
    ASSERT_EQ(taken.buf->size(), raw.size());
    EXPECT_EQ(0, std::memcmp(taken.data, raw.data(), raw.size()));
  }
  EXPECT_EQ(pool.free_count(), 0u);  // disabled: releases were plain frees
}

// --- real UDP receive loop ---------------------------------------------------

struct UdpEcho {
  std::mutex mu;
  std::vector<wire::Buffer> received;
  std::vector<Datagram::Taken> pinned;
  std::atomic<std::size_t> count{0};
};

TEST(RxPath, RecvmmsgBurstDeliversEveryDatagramIntact) {
  const std::uint16_t base = net::UdpNetwork::pick_free_base_port(4);
  net::UdpNetwork net(base);
  UdpEcho echo;
  constexpr std::size_t kBurst = 4 * net::UdpNetwork::kRecvBatch + 3;

  net.attach(NodeId{1}, [&](const std::uint8_t* d, std::size_t l) {
    std::lock_guard<std::mutex> lock(echo.mu);
    echo.received.emplace_back(d, d + l);
    echo.count.fetch_add(1);
  });
  net.attach(NodeId{2}, [](const std::uint8_t*, std::size_t) {});

  // Fire the whole burst back-to-back so the receiver drains it in
  // multi-datagram recvmmsg batches.
  for (std::size_t i = 0; i < kBurst; ++i) {
    wire::Buffer b(64);
    for (std::size_t j = 0; j < b.size(); ++j) {
      b[j] = static_cast<std::uint8_t>(i ^ (j * 7));
    }
    net.send(NodeId{2}, NodeId{1}, std::move(b));
  }
  for (int spin = 0; spin < 400 && echo.count.load() < kBurst; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(echo.count.load(), kBurst);

  // Every payload arrived bit-exact (order may differ; match by content).
  std::lock_guard<std::mutex> lock(echo.mu);
  std::vector<bool> seen(kBurst, false);
  for (const wire::Buffer& b : echo.received) {
    ASSERT_EQ(b.size(), 64u);
    const std::size_t i = b[0] ^ 0;  // j = 0 term recovers the index byte
    ASSERT_LT(i, kBurst);
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
    for (std::size_t j = 0; j < b.size(); ++j) {
      ASSERT_EQ(b[j], static_cast<std::uint8_t>(i ^ (j * 7)));
    }
  }
}

TEST(RxPath, PinnedDatagramSurvivesLaterBatches) {
  const std::uint16_t base = net::UdpNetwork::pick_free_base_port(4);
  net::UdpNetwork net(base);
  UdpEcho echo;
  constexpr std::size_t kTotal = 3 * net::UdpNetwork::kRecvBatch;

  // Pin EVERY datagram as it arrives: each steals its receive slot, forcing
  // the loop to re-provision slots continuously across batches.
  net.attach(NodeId{1}, net::DatagramHandler([&](const Datagram& dg) {
               std::lock_guard<std::mutex> lock(echo.mu);
               EXPECT_TRUE(dg.zero_copy());
               echo.pinned.push_back(dg.take(net.rx_pool()));
               echo.count.fetch_add(1);
             }));
  net.attach(NodeId{2}, [](const std::uint8_t*, std::size_t) {});

  for (std::size_t i = 0; i < kTotal; ++i) {
    wire::Buffer b(48, static_cast<std::uint8_t>(i));
    net.send(NodeId{2}, NodeId{1}, std::move(b));
  }
  for (int spin = 0; spin < 400 && echo.count.load() < kTotal; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(echo.count.load(), kTotal);

  // Every pinned view must still read its original payload -- buffers taken
  // in batch 1 must not have been recycled into batch 2 (ASan would flag a
  // use-after-free here if the loop reused stolen slots).
  std::lock_guard<std::mutex> lock(echo.mu);
  std::vector<bool> seen(kTotal, false);
  for (const Datagram::Taken& t : echo.pinned) {
    const std::uint8_t tag = t.data[0];
    ASSERT_LT(tag, kTotal);
    EXPECT_FALSE(seen[tag]);
    seen[tag] = true;
    for (std::size_t j = 0; j < 48; ++j) ASSERT_EQ(t.data[j], tag);
  }
}

TEST(RxPath, ReassembledFragmentsArePinnableZeroCopy) {
  const std::uint16_t base = net::UdpNetwork::pick_free_base_port(4);
  net::UdpNetwork net(base);
  UdpEcho echo;

  net.attach(NodeId{1}, net::DatagramHandler([&](const Datagram& dg) {
               std::lock_guard<std::mutex> lock(echo.mu);
               EXPECT_TRUE(dg.zero_copy());  // reassembly scratch is pooled
               echo.pinned.push_back(dg.take(net.rx_pool()));
               echo.count.fetch_add(1);
             }));
  net.attach(NodeId{2}, [](const std::uint8_t*, std::size_t) {});

  // Two messages large enough to fragment (> 32 KiB payload each).
  constexpr std::size_t kBig = 80 * 1024;
  for (int m = 0; m < 2; ++m) {
    wire::Buffer b(kBig);
    for (std::size_t j = 0; j < b.size(); ++j) {
      b[j] = static_cast<std::uint8_t>((j + m) * 31);
    }
    net.send(NodeId{2}, NodeId{1}, std::move(b));
    // Serialize the two messages so per-message reassembly state is simple.
    for (int spin = 0; spin < 400 && echo.count.load() < std::size_t(m + 1);
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_EQ(echo.count.load(), 2u);
  std::lock_guard<std::mutex> lock(echo.mu);
  for (int m = 0; m < 2; ++m) {
    const Datagram::Taken& t = echo.pinned[m];
    ASSERT_EQ(t.buf->size(), kBig);
    for (std::size_t j = 0; j < kBig; j += 997) {
      ASSERT_EQ(t.data[j], static_cast<std::uint8_t>((j + m) * 31));
    }
  }
}

// A plain socket (its own ephemeral port) that sends hand-built fragment
// frames to node 1 -- a peer in another process, as the receiver sees it.
class RawFragSender {
 public:
  explicit RawFragSender(std::uint16_t base) {
    dst_.sin_family = AF_INET;
    dst_.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    dst_.sin_port = htons(static_cast<std::uint16_t>(base + 1));
  }
  ~RawFragSender() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawFragSender(const RawFragSender&) = delete;
  RawFragSender& operator=(const RawFragSender&) = delete;

  void send(std::uint32_t msg_id, std::uint16_t index, std::uint16_t count,
            const char* body) {
    ASSERT_GE(fd_, 0);
    wire::Buffer frame(net::kFragHeader);
    net::frag::put_u16(frame.data(), net::kFragMagic);
    net::frag::put_u32(frame.data() + 2, msg_id);
    net::frag::put_u16(frame.data() + 6, index);
    net::frag::put_u16(frame.data() + 8, count);
    frame.insert(frame.end(), body, body + std::strlen(body));
    ASSERT_EQ(::sendto(fd_, frame.data(), frame.size(), 0,
                       reinterpret_cast<const sockaddr*>(&dst_), sizeof dst_),
              static_cast<ssize_t>(frame.size()));
  }

 private:
  int fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  sockaddr_in dst_{};
};

// Attaches node 1 with a handler that copies every delivered message.
void attach_collector(net::UdpNetwork& net, UdpEcho& echo) {
  net.attach(NodeId{1}, [&echo](const std::uint8_t* d, std::size_t l) {
    std::lock_guard<std::mutex> lock(echo.mu);
    echo.received.emplace_back(d, d + l);
    echo.count.fetch_add(1);
  });
}

// Waits until `n` messages arrived, then a little longer so that a message
// that should not arrive has had the time to.
void settle(const UdpEcho& echo, std::size_t n) {
  for (int spin = 0; spin < 400 && echo.count.load() < n; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

TEST(RxPath, InconsistentFragmentsNeverDeliver) {
  const std::uint16_t base = net::UdpNetwork::pick_free_base_port(4);
  net::UdpNetwork net(base);
  UdpEcho echo;
  attach_collector(net, echo);
  net.attach(NodeId{2}, [](const std::uint8_t*, std::size_t) {});

  // Raw fragments from a plain socket, each disagreeing with the first
  // fragment of its msg_id: a different count, then a repeated index.
  {
    RawFragSender peer(base);
    peer.send(77, 0, 3, "AAAA");
    peer.send(77, 1, 2, "BBBB");
    peer.send(78, 0, 2, "");
    peer.send(78, 0, 2, "");
  }

  // A well-formed 3-fragment message sent afterwards still arrives intact.
  constexpr std::size_t kBig = 2 * net::kMaxFragPayload + 100;
  wire::Buffer big(kBig);
  for (std::size_t j = 0; j < kBig; ++j) {
    big[j] = static_cast<std::uint8_t>(j * 13);
  }
  net.send(NodeId{2}, NodeId{1}, big);
  settle(echo, 1);
  std::lock_guard<std::mutex> lock(echo.mu);
  ASSERT_EQ(echo.received.size(), 1u);
  EXPECT_EQ(echo.received[0], big);
}

TEST(RxPath, SameMsgIdFromTwoSendersStaysApart) {
  const std::uint16_t base = net::UdpNetwork::pick_free_base_port(4);
  net::UdpNetwork net(base);
  UdpEcho echo;
  attach_collector(net, echo);

  // Every UdpNetwork numbers its messages from 1, so two peer processes
  // send the same msg_id; here their fragments interleave on the wire.
  RawFragSender a(base);
  RawFragSender b(base);
  a.send(1, 0, 2, "AAAA");
  b.send(1, 1, 2, "bbbb");
  a.send(1, 1, 2, "aaaa");
  b.send(1, 0, 2, "BBBB");
  settle(echo, 2);
  std::lock_guard<std::mutex> lock(echo.mu);
  std::vector<wire::Buffer> got = echo.received;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<wire::Buffer>{bytes_of("AAAAaaaa"), bytes_of("BBBBbbbb")}));
}

TEST(RxPath, ReassemblyCapDropsTheOldestPartial) {
  const std::uint16_t base = net::UdpNetwork::pick_free_base_port(4);
  net::UdpNetwork net(base);
  UdpEcho echo;
  attach_collector(net, echo);

  // Message 900 opens first, then messages 1..cap: one partial too many.
  // The oldest (900) goes, although 1 has the smallest msg_id.
  RawFragSender peer(base);
  peer.send(900, 0, 2, "old-");
  for (std::uint32_t id = 1; id <= net::UdpNetwork::kMaxPartials; ++id) {
    peer.send(id, 0, 2, "new-");
  }
  peer.send(1, 1, 2, "one");
  peer.send(900, 1, 2, "900");
  settle(echo, 1);
  std::lock_guard<std::mutex> lock(echo.mu);
  ASSERT_EQ(echo.received.size(), 1u);
  EXPECT_EQ(echo.received[0], bytes_of("new-one"));
}

// Resident set size of this process, from /proc/self/statm.
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  std::size_t resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

TEST(RxPath, PartialMemoryFollowsTheFragmentsThatArrived) {
  const std::uint16_t base = net::UdpNetwork::pick_free_base_port(4);
  net::UdpNetwork net(base);
  UdpEcho echo;
  attach_collector(net, echo);
  RawFragSender peer(base);
  // Warm up the receive path (its thread's allocations) with one message.
  peer.send(1, 0, 2, "AA");
  peer.send(1, 1, 2, "BB");
  settle(echo, 1);
  ASSERT_EQ(echo.count.load(), 1u);

  // 72 first fragments of 14 bytes, each claiming the largest count: more
  // than the cap keeps, so the oldest are evicted into the recycle pool.
  const std::size_t before = resident_bytes();
  for (std::uint32_t id = 100; id < 172; ++id) peer.send(id, 0, 65'535, "xxxx");
  // The receive loop handles datagrams in arrival order: once this message
  // is delivered, every forged fragment has been stashed.
  peer.send(2, 0, 2, "CC");
  peer.send(2, 1, 2, "DD");
  settle(echo, 2);
  ASSERT_EQ(echo.count.load(), 2u);
  const std::size_t grown = resident_bytes() - std::min(before, resident_bytes());
  EXPECT_LT(grown, std::size_t{16} << 20) << "resident set grew by " << grown << " bytes";
}

// --- end-to-end: pinned merge over real UDP ----------------------------------

TEST(RxPath, UdpRangeMergePinsSubResultsAcrossBatches) {
  // A real deployment over UDP loopback: the entry leaf's range merge holds
  // borrowed sub-result views across however many recvmmsg batches the
  // fan-out responses arrive in.
  auto spec = core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {1200, 1200}});
  // Node ids reach 5, client ids 5200+: cover that span with the base port.
  const std::uint16_t base = net::UdpNetwork::pick_free_base_port(5400);
  net::UdpNetwork net(base);
  SystemClock clock;
  core::Deployment dep(net, clock, spec);

  std::vector<std::unique_ptr<core::TrackedObject>> objs;
  std::vector<ObjectResult> all;
  Rng rng(7);
  for (std::uint64_t i = 1; i <= 48; ++i) {
    const geo::Point p{rng.uniform(20, 1180), rng.uniform(20, 1180)};
    auto obj = std::make_unique<core::TrackedObject>(
        NodeId{static_cast<std::uint32_t>(5200 + i)}, ObjectId{i}, net, clock);
    const NodeId entry = dep.entry_leaf_for(p);
    ASSERT_TRUE(entry.valid());
    obj->start_register(entry, p, 1.0, {10.0, 100.0});
    for (int spin = 0; spin < 400 && !obj->tracked(); ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_TRUE(obj->tracked()) << "object " << i;
    all.push_back({ObjectId{i}, {p, obj->offered_acc()}});
    objs.push_back(std::move(obj));
  }

  core::QueryClient qc(NodeId{5100}, net, clock);
  qc.set_entry(dep.leaf_ids()[0]);
  const geo::Polygon area =
      geo::Polygon::from_rect(geo::Rect{{0, 0}, {1200, 1200}});
  for (int round = 0; round < 5; ++round) {
    const auto res = qc.range_query_blocking(area, 50.0, 0.9, seconds(10));
    ASSERT_TRUE(res.has_value());
    EXPECT_TRUE(res->complete);
    EXPECT_EQ(sorted_ids(res->objects), sorted_ids(oracle_range(all, area, 50.0, 0.9)));
  }
  const auto stats = dep.total_stats();
  EXPECT_GT(stats.sub_res_pinned, 0u);
}

}  // namespace
}  // namespace locs::test
