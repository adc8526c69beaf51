// Transport substrates: deterministic simulation and real UDP loopback.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <thread>

#include "net/sim_network.hpp"
#include "net/udp_network.hpp"

namespace locs::net {
namespace {

TEST(SimNetwork, DeliversInLatencyOrder) {
  SimNetwork::Options opts;
  opts.base_latency = milliseconds(1);
  opts.jitter_frac = 0.0;
  opts.per_kilobyte = 0;
  SimNetwork net(opts);
  std::vector<int> order;
  net.attach(NodeId{1}, [&](const std::uint8_t* d, std::size_t) {
    order.push_back(d[0]);
  });
  net.send(NodeId{2}, NodeId{1}, {1});
  net.send(NodeId{2}, NodeId{1}, {2});
  net.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // FIFO for equal latency
  EXPECT_EQ(net.now(), milliseconds(1));       // virtual time advanced
}

TEST(SimNetwork, DeterministicAcrossRuns) {
  const auto run = [](std::uint64_t seed) {
    SimNetwork::Options opts;
    opts.jitter_frac = 0.5;
    opts.seed = seed;
    SimNetwork net(opts);
    std::vector<int> order;
    net.attach(NodeId{1}, [&](const std::uint8_t* d, std::size_t) {
      order.push_back(d[0]);
    });
    for (int i = 0; i < 50; ++i) {
      net.send(NodeId{2}, NodeId{1}, {static_cast<std::uint8_t>(i)});
    }
    net.run_until_idle();
    return order;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // jitter reshuffles under a different seed
}

TEST(SimNetwork, DropFnInjectsPartitions) {
  SimNetwork net;
  int delivered = 0;
  net.attach(NodeId{1}, [&](const std::uint8_t*, std::size_t) { ++delivered; });
  net.set_drop_fn([](NodeId from, NodeId) { return from == NodeId{13}; });
  net.send(NodeId{13}, NodeId{1}, {1});
  net.send(NodeId{2}, NodeId{1}, {2});
  net.run_until_idle();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(SimNetwork, LossProbabilityDrops) {
  SimNetwork::Options opts;
  opts.loss_prob = 1.0;
  SimNetwork net(opts);
  int delivered = 0;
  net.attach(NodeId{1}, [&](const std::uint8_t*, std::size_t) { ++delivered; });
  net.send(NodeId{2}, NodeId{1}, {1});
  net.run_until_idle();
  EXPECT_EQ(delivered, 0);
}

TEST(SimNetwork, RunUntilStopsAtDeadline) {
  SimNetwork::Options opts;
  opts.base_latency = milliseconds(10);
  opts.jitter_frac = 0.0;
  opts.per_kilobyte = 0;
  SimNetwork net(opts);
  int delivered = 0;
  net.attach(NodeId{1}, [&](const std::uint8_t*, std::size_t) { ++delivered; });
  net.send(NodeId{2}, NodeId{1}, {1});
  net.run_until(milliseconds(5));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.now(), milliseconds(5));
  net.run_until(milliseconds(20));
  EXPECT_EQ(delivered, 1);
}

TEST(SimNetwork, TracerSeesEveryDelivery) {
  SimNetwork net;
  net.attach(NodeId{1}, [](const std::uint8_t*, std::size_t) {});
  std::vector<std::pair<std::uint32_t, std::uint32_t>> hops;
  net.set_tracer([&](TimePoint, NodeId from, NodeId to, const wire::Buffer&) {
    hops.emplace_back(from.value, to.value);
  });
  net.send(NodeId{2}, NodeId{1}, {1});
  net.send(NodeId{3}, NodeId{1}, {2});
  net.run_until_idle();
  EXPECT_EQ(hops.size(), 2u);
}

TEST(SimNetwork, MessagesCascadeFromHandlers) {
  // A handler that sends another message: both must be delivered.
  SimNetwork net;
  int finals = 0;
  net.attach(NodeId{1}, [&](const std::uint8_t*, std::size_t) {
    net.send(NodeId{1}, NodeId{2}, {9});
  });
  net.attach(NodeId{2}, [&](const std::uint8_t*, std::size_t) { ++finals; });
  net.send(NodeId{3}, NodeId{1}, {1});
  net.run_until_idle();
  EXPECT_EQ(finals, 1);
}

// --------------------------------------------------------------------------

TEST(UdpNetwork, LoopbackRoundTrip) {
  UdpNetwork net(UdpNetwork::pick_free_base_port(/*span=*/2));
  std::atomic<int> got{0};
  std::vector<std::uint8_t> received;
  std::mutex mu;
  net.attach(NodeId{1}, [&](const std::uint8_t* d, std::size_t n) {
    std::lock_guard<std::mutex> lock(mu);
    received.assign(d, d + n);
    got.store(1);
  });
  net.attach(NodeId{2}, [](const std::uint8_t*, std::size_t) {});
  net.send(NodeId{2}, NodeId{1}, {10, 20, 30});
  for (int i = 0; i < 200 && got.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(got.load(), 1);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(received, (std::vector<std::uint8_t>{10, 20, 30}));
}

TEST(UdpNetwork, LargeMessageFragmentsAndReassembles) {
  UdpNetwork net(UdpNetwork::pick_free_base_port(/*span=*/2));
  std::atomic<int> got{0};
  std::vector<std::uint8_t> received;
  std::mutex mu;
  net.attach(NodeId{1}, [&](const std::uint8_t* d, std::size_t n) {
    std::lock_guard<std::mutex> lock(mu);
    received.assign(d, d + n);
    got.store(1);
  });
  net.attach(NodeId{2}, [](const std::uint8_t*, std::size_t) {});
  // 150 KiB payload: needs 5 fragments.
  std::vector<std::uint8_t> big(150 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  }
  net.send(NodeId{2}, NodeId{1}, big);
  for (int i = 0; i < 400 && got.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(got.load(), 1);
  // Per-node transmit accounting: 5 fragments on the wire, none dropped.
  const UdpNetwork::TxStats tx = net.tx_stats(NodeId{2});
  EXPECT_EQ(tx.datagrams_sent, 5u);
  EXPECT_EQ(tx.dropped, 0u);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(received, big);
}

TEST(UdpNetwork, ManySmallMessagesAllArrive) {
  UdpNetwork net(UdpNetwork::pick_free_base_port(/*span=*/2));
  std::atomic<int> count{0};
  net.attach(NodeId{1}, [&](const std::uint8_t*, std::size_t) {
    count.fetch_add(1);
  });
  net.attach(NodeId{2}, [](const std::uint8_t*, std::size_t) {});
  constexpr int kMessages = 500;
  for (int i = 0; i < kMessages; ++i) {
    net.send(NodeId{2}, NodeId{1}, {static_cast<std::uint8_t>(i)});
  }
  for (int i = 0; i < 400 && count.load() < kMessages; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Loopback UDP with 4 MB buffers should not drop at this rate.
  EXPECT_EQ(count.load(), kMessages);
  const UdpNetwork::TxStats tx = net.tx_stats(NodeId{2});
  EXPECT_EQ(tx.datagrams_sent, static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(tx.dropped, 0u);
}

TEST(UdpNetwork, AttachedPortIsExclusive) {
  // A node's port belongs to its socket alone. A second socket -- from this
  // process or another of the same user, with or without SO_REUSEPORT --
  // must fail to bind it rather than silently join the node's traffic.
  const std::uint16_t base = UdpNetwork::pick_free_base_port(10);
  UdpNetwork net(base);
  net.attach(NodeId{3}, [](const std::uint8_t*, std::size_t) {});
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(base + 3));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (const bool reuseport : {false, true}) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    ASSERT_GE(fd, 0);
    if (reuseport) {
      const int one = 1;
      ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one), 0);
    }
    const int rc =
        ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    const int err = errno;
    ::close(fd);
    EXPECT_EQ(rc, -1) << "reuseport=" << reuseport;
    EXPECT_EQ(err, EADDRINUSE) << "reuseport=" << reuseport;
  }
}

}  // namespace
}  // namespace locs::net
