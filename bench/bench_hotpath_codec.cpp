// Hot-path codec microbenchmark: encode/decode msgs/sec and heap
// allocations for the three dominant message types (UpdateReq, PosQueryFwd,
// RangeQuerySubRes), plus end-to-end delivered msgs/sec over a 3-level
// SimNetwork hierarchy. Prints a single-line JSON summary (the
// BENCH_hotpath.json schema) and writes it to BENCH_hotpath.json so the
// perf trajectory is tracked across PRs.
//
// Plain executable (no Google Benchmark): allocation counting needs a
// global operator new/delete override, and the output schema is custom.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/deployment.hpp"
#include "core/hierarchy_builder.hpp"
#include "net/buffer_pool.hpp"
#include "net/sim_network.hpp"
#include "util/rng.hpp"
#include "wire/messages.hpp"

// --- allocation counting -----------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// One allocating and one freeing function; the other forms forward to them.
// Both stay out of line: inlined into this file's callers, g++ would see
// malloc() paired with operator delete, or operator new with free(), and
// -Wmismatched-new-delete fires.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using namespace locs;
namespace wm = locs::wire;

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

struct OpStats {
  double msgs_per_sec = 0.0;
  double allocs_per_op = 0.0;
};

// Representative instances of the three dominant message types.
wm::Message make_update_req() {
  return wm::UpdateReq{core::Sighting{ObjectId{123456}, 987654321, {512.25, 733.5}, 5.0}};
}

wm::Message make_pos_query_fwd() {
  return wm::PosQueryFwd{ObjectId{987654}, NodeId{17}, 0x12345678abcULL};
}

wm::Message make_range_sub_res() {
  wm::RangeQuerySubRes sub;
  sub.req_id = 0xfeedfaceULL;
  sub.covered_size = 140625.0;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    sub.results.append({ObjectId{i}, {{100.0 + static_cast<double>(i), 200.0}, 10.0}});
  }
  sub.origin = wm::OriginArea{
      NodeId{4}, geo::Polygon::from_rect(geo::Rect{{0, 0}, {375, 375}})};
  return sub;
}

template <typename EncodeFn>
OpStats bench_encode(std::size_t iters, EncodeFn encode_op) {
  // Warm up (populates any pools / scratch state).
  for (int i = 0; i < 128; ++i) encode_op();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = SteadyClock::now();
  for (std::size_t i = 0; i < iters; ++i) encode_op();
  const double dt = seconds_since(t0);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  return {static_cast<double>(iters) / dt,
          static_cast<double>(allocs) / static_cast<double>(iters)};
}

OpStats bench_encode_msg(const wm::Message& msg, std::size_t iters) {
  // Mirrors the production send path (send_msg): per-type encode into a
  // buffer that cycles through a pool, so capacity is retained across
  // messages.
  return std::visit(
      [&](const auto& m) {
        net::BufferPool pool;
        std::uint64_t sink = 0;
        const OpStats s = bench_encode(iters, [&] {
          wm::Buffer buf = pool.acquire();
          wm::encode_envelope_into(buf, NodeId{3}, m);
          sink += buf.size();
          pool.release(std::move(buf));
        });
        if (sink == 0) std::abort();  // keep the loop observable
        return s;
      },
      msg);
}

OpStats bench_decode_msg(const wm::Message& msg, std::size_t iters) {
  // Mirrors the production receive path (handle()): decode into a reusable
  // scratch envelope so repeated messages reuse vector capacity.
  const wm::Buffer buf = wm::encode_envelope(NodeId{3}, msg);
  wm::Envelope scratch;
  std::uint64_t sink = 0;
  return bench_encode(iters, [&] {
    if (!wm::decode_envelope_into(scratch, buf.data(), buf.size()).is_ok()) {
      std::abort();
    }
    sink += static_cast<std::uint64_t>(scratch.src.value);
  });
}

// --- end-to-end: 3-level hierarchy over SimNetwork ---------------------------

struct E2EStats {
  double msgs_per_sec = 0.0;
  double allocs_per_msg = 0.0;
  std::uint64_t delivered = 0;
};

E2EStats bench_e2e() {
  constexpr double kAreaSize = 1600.0;
  constexpr std::size_t kObjects = 256;
  constexpr int kRounds = 60;

  net::SimNetwork::Options net_opts;
  net_opts.seed = 42;
  net::SimNetwork net(net_opts);
  // 3 levels: root, 4 mid servers, 16 leaves.
  core::Deployment deployment(
      net, net.clock(),
      core::HierarchyBuilder::grid(geo::Rect{{0, 0}, {kAreaSize, kAreaSize}}, 2, 2, 2));

  Rng rng(7);
  std::vector<std::unique_ptr<core::TrackedObject>> objects;
  std::vector<geo::Rect> home_boxes;
  objects.reserve(kObjects);
  for (std::uint64_t i = 1; i <= kObjects; ++i) {
    const geo::Point p{rng.uniform(1, kAreaSize - 1), rng.uniform(1, kAreaSize - 1)};
    const NodeId leaf = deployment.entry_leaf_for(p);
    auto obj = std::make_unique<core::TrackedObject>(
        NodeId{static_cast<std::uint32_t>((1u << 20) + i)}, ObjectId{i}, net,
        net.clock());
    obj->start_register(leaf, p, 5.0, {10.0, 100.0});
    net.run_until_idle();
    // Keep follow-up updates inside the home leaf (no handovers): this bench
    // measures codec + transport cost, not the handover protocol.
    home_boxes.push_back(deployment.server(leaf).config().sa.bounding_box());
    objects.push_back(std::move(obj));
  }

  // Warm-up round.
  for (std::size_t i = 0; i < kObjects; ++i) {
    const geo::Rect& box = home_boxes[i];
    objects[i]->feed_position({rng.uniform(box.min.x + 1, box.max.x - 1),
                               rng.uniform(box.min.y + 1, box.max.y - 1)});
  }
  net.run_until_idle();

  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t delivered = 0;
  const auto t0 = SteadyClock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < kObjects; ++i) {
      const geo::Rect& box = home_boxes[i];
      objects[i]->feed_position({rng.uniform(box.min.x + 1, box.max.x - 1),
                                 rng.uniform(box.min.y + 1, box.max.y - 1)});
    }
    delivered += net.run_until_idle();
  }
  const double dt = seconds_since(t0);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  return {static_cast<double>(delivered) / dt,
          static_cast<double>(allocs) / static_cast<double>(delivered), delivered};
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

}  // namespace

int main() {
  constexpr std::size_t kIters = 1'000'000;

  struct Row {
    const char* name;
    wm::Message msg;
  };
  const Row rows[] = {
      {"UpdateReq", make_update_req()},
      {"PosQueryFwd", make_pos_query_fwd()},
      {"RangeQuerySubRes", make_range_sub_res()},
  };

  std::string json = "{\"bench\":\"hotpath\"";
  double encode_decode_sum = 0.0;

  json += ",\"encode\":{";
  for (std::size_t i = 0; i < 3; ++i) {
    const OpStats s = bench_encode_msg(rows[i].msg, kIters);
    encode_decode_sum += s.msgs_per_sec;
    if (i) json += ",";
    json += "\"" + std::string(rows[i].name) + "\":{\"msgs_per_sec\":" +
            fmt(s.msgs_per_sec) + ",\"allocs_per_op\":" + fmt(s.allocs_per_op) + "}";
  }
  json += "},\"decode\":{";
  for (std::size_t i = 0; i < 3; ++i) {
    const OpStats s = bench_decode_msg(rows[i].msg, kIters);
    encode_decode_sum += s.msgs_per_sec;
    if (i) json += ",";
    json += "\"" + std::string(rows[i].name) + "\":{\"msgs_per_sec\":" +
            fmt(s.msgs_per_sec) + ",\"allocs_per_op\":" + fmt(s.allocs_per_op) + "}";
  }
  json += "}";

  const E2EStats e2e = bench_e2e();
  json += ",\"e2e\":{\"msgs_per_sec\":" + fmt(e2e.msgs_per_sec) +
          ",\"allocs_per_msg\":" + fmt(e2e.allocs_per_msg) +
          ",\"delivered\":" + std::to_string(e2e.delivered) + "}";
  json += ",\"encode_decode_msgs_per_sec_total\":" + fmt(encode_decode_sum);
  json += "}";

  std::printf("%s\n", json.c_str());
  if (FILE* f = std::fopen("BENCH_hotpath.json", "w")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
  }
  return 0;
}
