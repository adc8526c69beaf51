// Send-path bench: syscalls per datagram with the transmit ring.
//
// Deterministic: one UdpNetwork, one receiver. Run A sends 4096 small
// messages UNCORKED (the pre-ring behavior: one sendmmsg syscall per
// datagram); run B sends the SAME payloads under a cork window, so the ring
// groups them into batches of TxRing::kSendBatch. Both runs must deliver
// byte-identical answers (order-independent payload checksum); the gated
// metric is the per-datagram syscall reduction, >= 8x at batch factor 16.
// Hot-leaf update throughput end to end over UDP is bench_hot_leaf_update's
// job.
//
// Plain executable (no Google Benchmark dependency); writes
// BENCH_send_path.json next to the binary, gated by
// bench/baselines/send_path.json.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "net/udp_network.hpp"

namespace {

using namespace locs;

constexpr int kDatagrams = 4096;

struct SyscallRun {
  double syscalls_per_datagram = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t checksum = 0;
  std::uint64_t dropped = 0;
};

struct SyscallResult {
  SyscallRun baseline;  // uncorked: flush per enqueue
  SyscallRun ring;      // corked: sendmmsg batches
};

/// Deterministic 21-byte blast payload: run tag + body. The body depends
/// only on `seq`, so both runs deliver the same multiset of body bytes and
/// their commutative checksums must agree.
wire::Buffer blast_payload(std::uint8_t run_tag, int seq) {
  wire::Buffer b;
  b.push_back(run_tag);
  for (int i = 0; i < 20; ++i) {
    b.push_back(static_cast<std::uint8_t>((seq * 31 + i * 7) & 0xff));
  }
  return b;
}

SyscallResult run_blasts() {
  net::UdpNetwork net;
  // Order-independent tally per run (keyed by the payload's run tag): count
  // plus a commutative FNV-style checksum over the payload BODY, so the two
  // runs must deliver the same multiset of bytes to count as equal.
  struct Tally {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> checksum{0};
  };
  Tally tallies[2];
  net.attach(NodeId{1}, [&](const std::uint8_t* d, std::size_t n) {
    if (n < 2 || d[0] > 1) return;
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 1; i < n; ++i) h = (h ^ d[i]) * 1099511628211ull;
    tallies[d[0]].count.fetch_add(1, std::memory_order_relaxed);
    tallies[d[0]].checksum.fetch_add(h, std::memory_order_relaxed);
  });
  // Distinct senders so each run reads its own ring stats from zero.
  net.attach(NodeId{2}, [](const std::uint8_t*, std::size_t) {});
  net.attach(NodeId{3}, [](const std::uint8_t*, std::size_t) {});

  const auto wait_delivered = [&](std::uint8_t run_tag) {
    for (int i = 0; i < 1000; ++i) {
      if (tallies[run_tag].count.load() >= kDatagrams) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };

  // Run A -- uncorked sender: every enqueue flushes inline, one syscall per
  // datagram (the pre-ring send path's syscall count).
  for (int i = 0; i < kDatagrams; ++i) {
    net.send(NodeId{2}, NodeId{1}, blast_payload(0, i));
  }
  wait_delivered(0);

  // Run B -- corked sender: same payloads, batches of TxRing::kSendBatch.
  net.cork(NodeId{3});
  for (int i = 0; i < kDatagrams; ++i) {
    net.send(NodeId{3}, NodeId{1}, blast_payload(1, i));
  }
  net.uncork(NodeId{3});
  wait_delivered(1);

  const auto run_of = [&](NodeId sender, std::uint8_t run_tag) {
    const net::UdpNetwork::TxStats tx = net.tx_stats(sender);
    SyscallRun run;
    run.syscalls_per_datagram =
        tx.datagrams_sent > 0
            ? static_cast<double>(tx.batches_flushed) /
                  static_cast<double>(tx.datagrams_sent)
            : 0.0;
    run.delivered = tallies[run_tag].count.load();
    run.checksum = tallies[run_tag].checksum.load();
    run.dropped = tx.dropped;
    return run;
  };
  SyscallResult res;
  res.baseline = run_of(NodeId{2}, 0);
  res.ring = run_of(NodeId{3}, 1);
  return res;
}

}  // namespace

int main() {
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("bench_send_path: transmit-ring syscall amortization, %u cores\n",
              cores);

  const SyscallResult sys = run_blasts();
  const bool checksums_equal =
      sys.baseline.delivered == static_cast<std::uint64_t>(kDatagrams) &&
      sys.ring.delivered == static_cast<std::uint64_t>(kDatagrams) &&
      sys.baseline.checksum == sys.ring.checksum &&
      sys.baseline.dropped == 0 && sys.ring.dropped == 0;
  const double reduction =
      sys.ring.syscalls_per_datagram > 0.0
          ? sys.baseline.syscalls_per_datagram / sys.ring.syscalls_per_datagram
          : 0.0;
  std::printf("  uncorked: %.3f syscalls/datagram (%llu delivered)\n",
              sys.baseline.syscalls_per_datagram,
              static_cast<unsigned long long>(sys.baseline.delivered));
  std::printf("  corked:   %.3f syscalls/datagram (%llu delivered)\n",
              sys.ring.syscalls_per_datagram,
              static_cast<unsigned long long>(sys.ring.delivered));
  std::printf("  reduction: %.2fx, payload checksums %s\n", reduction,
              checksums_equal ? "equal" : "DIFFER");

  FILE* f = std::fopen("BENCH_send_path.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"send_path_syscall_amortization\",\n"
               "  \"transport\": \"udp_loopback\",\n"
               "  \"datagrams\": %d,\n"
               "  \"host_cores\": %u,\n"
               "  \"baseline_syscalls_per_datagram\": %.4f,\n"
               "  \"ring_syscalls_per_datagram\": %.4f,\n"
               "  \"syscall_reduction\": %.3f,\n"
               "  \"payload_checksums_equal\": %s,\n"
               "  \"baseline_delivered\": %llu,\n"
               "  \"ring_delivered\": %llu\n"
               "}\n",
               kDatagrams, cores, sys.baseline.syscalls_per_datagram,
               sys.ring.syscalls_per_datagram, reduction,
               checksums_equal ? "true" : "false",
               static_cast<unsigned long long>(sys.baseline.delivered),
               static_cast<unsigned long long>(sys.ring.delivered));
  std::fclose(f);
  // Self-gate so a local run fails loudly even without the baseline script.
  return (reduction >= 8.0 && checksums_equal) ? 0 : 1;
}
