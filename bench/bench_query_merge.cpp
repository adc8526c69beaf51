// Zero-materialization query merge -- the read-path bench for
// wire::SubResView + the entry server's streaming k-way merge
// (core/location_server emit_range_result).
//
// Scenario: a WIDE fan-out hierarchy (one root, 16 leaf children) over the
// DETERMINISTIC SimNetwork. An entry leaf answers range + NN queries whose
// areas span every leaf, so each answer merges 16+ sub-results. Two layers
// of measurement:
//
//  * live drive -- the real system path (views pinned off the receive
//    buffers, direct emit into pooled envelopes): wall-clock query
//    throughput, end-to-end allocations per query, pin/copy stats.
//
//  * merge microbench -- the captured entry-bound sub-result datagrams are
//    replayed through two mergers fed IDENTICAL bytes:
//      baseline: the pre-refactor owned-vector path (decode every
//                sub-result into vectors, accumulate, encode the final
//                answer from the accumulated vector);
//      view:     SubResView borrows the packed ranges (the pin path) and
//                emits the final envelope directly.
//    Both must produce BYTE-IDENTICAL final RangeQueryRes datagrams; the
//    bench counts heap allocations (global operator new hook) and bytes
//    copied per merged result for each. The CI gate
//    (bench/baselines/query_merge.json via scripts/check_bench.py) pins the
//    deterministic ratios: >= 5x fewer allocations and strictly fewer
//    bytes copied.
//
// Bytes-copied accounting (bytes staged per merge):
//   baseline: decode into the scratch message's ObjectResult vector
//             (count * sizeof(ObjectResult)) + accumulate into the pending
//             op's vector (count * sizeof(...)) + final encode of the
//             accumulated vector (total packed wire bytes);
//   view:     final emit memcpy of the kept item ranges (kept_bytes) --
//             the sub-result bytes themselves are borrowed, never staged.
//
// Plain executable (no Google Benchmark: allocation counting needs the
// global operator new override); writes BENCH_query_merge.json.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <variant>
#include <vector>

#include "core/client.hpp"
#include "core/deployment.hpp"
#include "core/hierarchy_builder.hpp"
#include "net/sim_network.hpp"
#include "util/crc32.hpp"
#include "util/oid_set.hpp"
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

constexpr double kAreaSize = 1600.0;
constexpr std::uint64_t kObjects = 3000;
constexpr int kRangeQueries = 60;
constexpr int kNNQueries = 40;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

// --- live drive --------------------------------------------------------------

struct LiveRun {
  // Entry-bound RangeQuerySubRes datagrams, grouped per query (req_id):
  // each group is one merge's worth of inputs.
  std::vector<std::vector<wm::Buffer>> sub_groups;
  std::vector<std::string> answers;       // canonicalized query answers
  std::uint64_t merged_results = 0;       // results across final answers
  std::uint32_t trace_crc = 0;
  std::uint64_t queries = 0;
  std::uint64_t drive_allocs = 0;
  double drive_seconds = 0.0;
  core::LocationServer::Stats entry_stats;
};

std::string fmt_results(std::vector<core::ObjectResult> rs) {
  std::sort(rs.begin(), rs.end(),
            [](const core::ObjectResult& a, const core::ObjectResult& b) {
              return a.oid < b.oid;
            });
  std::string out;
  char buf[96];
  for (const core::ObjectResult& r : rs) {
    std::snprintf(buf, sizeof buf, "%llu(%.6f,%.6f,%.3f);",
                  static_cast<unsigned long long>(r.oid.value), r.ld.pos.x,
                  r.ld.pos.y, r.ld.acc);
    out += buf;
  }
  return out;
}

LiveRun drive_live(bool capture) {
  net::SimNetwork net;  // deterministic, seed 42
  core::Deployment::Config cfg;
  core::Deployment dep(
      net, net.clock(),
      core::HierarchyBuilder::grid(geo::Rect{{0, 0}, {kAreaSize, kAreaSize}},
                                   /*fanout_x=*/4, /*fanout_y=*/4, /*levels=*/1),
      cfg);
  const std::vector<NodeId> leaves = dep.leaf_ids();
  const NodeId entry = leaves.front();

  LiveRun run;
  net.set_tracer([&](TimePoint at, NodeId from, NodeId to, const wm::Buffer& b) {
    run.trace_crc = crc32(&at, sizeof at, run.trace_crc);
    run.trace_crc = crc32(&from.value, sizeof from.value, run.trace_crc);
    run.trace_crc = crc32(&to.value, sizeof to.value, run.trace_crc);
    run.trace_crc = crc32(b.data(), b.size(), run.trace_crc);
    if (capture && to == entry && b.size() > 1 &&
        static_cast<wm::MsgType>(b[1]) == wm::MsgType::kRangeQuerySubRes) {
      run.sub_groups.back().push_back(b);
    }
  });

  // Populate: registrations fanned across every leaf (raw RegisterReqs, the
  // fingerprint-harness idiom -- no client reactors to slow the drive).
  Rng rng(11);
  for (std::uint64_t i = 1; i <= kObjects; ++i) {
    core::Sighting s{ObjectId{i},
                     0,
                     {rng.uniform(5, kAreaSize - 5), rng.uniform(5, kAreaSize - 5)},
                     1.0};
    wm::RegisterReq req;
    req.s = s;
    req.acc_range = {10.0, 100.0};
    req.reg_inst = NodeId{4000};
    req.req_id = i;
    net.send(NodeId{4000}, dep.entry_leaf_for(s.pos),
             wm::encode_envelope(NodeId{4000}, req));
  }
  net.run_until_idle();
  std::fprintf(stderr, "  [progress] %s registered %llu objects\n",
               capture ? "capture" : "replay",
               static_cast<unsigned long long>(kObjects));

  // Query drive: wide range areas (every leaf answers) plus NN probes.
  core::QueryClient qc(NodeId{4001}, net, net.clock());
  qc.set_entry(entry);
  Rng qrng(23);
  // Raw query outcomes; canonicalized OUTSIDE the measured window so the
  // e2e alloc/time numbers cover the system, not the bench's bookkeeping.
  std::vector<core::QueryClient::RangeResult> range_answers;
  std::vector<core::QueryClient::NNResult> nn_answers;
  range_answers.reserve(kRangeQueries);
  nn_answers.reserve(kNNQueries);
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = SteadyClock::now();
  for (int q = 0; q < kRangeQueries; ++q) {
    if (capture) run.sub_groups.emplace_back();
    const double margin = qrng.uniform(0, kAreaSize / 8);
    const geo::Polygon area = geo::Polygon::from_rect(
        geo::Rect{{margin, margin}, {kAreaSize - margin, kAreaSize - margin}});
    const std::uint64_t id = qc.send_range_query(area, 50.0, 0.9);
    net.run_until_idle();
    auto res = qc.take_range(id);
    if (!res || !res->complete) std::abort();
    range_answers.push_back(std::move(*res));
    ++run.queries;
  }
  std::fprintf(stderr, "  [progress] range queries done\n");
  for (int q = 0; q < kNNQueries; ++q) {
    const geo::Point p{qrng.uniform(0, kAreaSize), qrng.uniform(0, kAreaSize)};
    const std::uint64_t id = qc.send_nn_query(p, 50.0, 120.0);
    net.run_until_idle();
    auto res = qc.take_nn(id);
    if (!res || !res->found) std::abort();
    nn_answers.push_back(std::move(*res));
    ++run.queries;
  }
  std::fprintf(stderr, "  [progress] nn queries done\n");
  run.drive_seconds = seconds_since(t0);
  run.drive_allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  for (auto& res : range_answers) {
    run.merged_results += res.objects.size();
    run.answers.push_back("R" + fmt_results(std::move(res.objects)));
  }
  for (auto& res : nn_answers) {
    run.merged_results += 1 + res.near_set.size();
    run.answers.push_back("N" + std::to_string(res.nearest.oid.value) + "|" +
                          fmt_results(std::move(res.near_set)));
  }
  run.entry_stats = dep.server(entry).stats();
  return run;
}

// --- merge microbench --------------------------------------------------------

struct MergeCost {
  std::uint64_t allocs = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t merged_results = 0;
  std::uint32_t answer_crc = 0;  // over the final answer datagrams
};

/// The PRE-REFACTOR merge: every sub-result decodes into owned vectors, the
/// pending operation accumulates them, and the final answer is encoded from
/// the accumulated vector. (Scratch envelope + capacity reuse mirror the
/// old handle() loop faithfully -- this is the owned-vector steady state,
/// not a strawman.)
MergeCost baseline_merge(const std::vector<std::vector<wm::Buffer>>& groups,
                         int rounds) {
  MergeCost cost;
  wm::Envelope scratch;                     // rx scratch, reused (old handle())
  std::vector<core::ObjectResult> decoded;  // scratch decode target, reused
  wm::Buffer out;
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < rounds; ++round) {
    for (const auto& group : groups) {
      // The old PendingRange::results was a FRESH vector per operation;
      // accumulation regrows it every merge.
      std::vector<core::ObjectResult> pending;
      for (const wm::Buffer& dg : group) {
        if (!wm::decode_envelope_into(scratch, dg.data(), dg.size()).is_ok())
          std::abort();
        const auto* sub = std::get_if<wm::RangeQuerySubRes>(&scratch.msg);
        if (sub == nullptr) std::abort();
        decoded.clear();
        auto items = sub->results.items();
        while (const auto item = items.next()) {
          decoded.push_back(item->value);  // wire -> decoded vector
        }
        cost.bytes_copied += decoded.size() * sizeof(core::ObjectResult);
        pending.insert(pending.end(), decoded.begin(), decoded.end());
        cost.bytes_copied += decoded.size() * sizeof(core::ObjectResult);
      }
      // Final answer encoded from the accumulated vector in ONE pass (the
      // old put(Writer, vector) shape), but in the CURRENT packed framing so
      // the answers are byte-comparable with the view merger; the packed
      // length prefix is sized arithmetically, not by a probe encode.
      out.clear();
      {
        std::size_t packed_bytes = 0;
        for (const core::ObjectResult& r : pending) {
          const int bits = r.oid.value == 0
                               ? 1
                               : 64 - __builtin_clzll(r.oid.value);
          packed_bytes += (bits + 6) / 7 + 24;  // oid varint + 3 f64
        }
        wm::Writer w(out);
        w.reserve(64 + packed_bytes);
        wm::begin_envelope(w, NodeId{1}, wm::MsgType::kRangeQueryRes);
        w.u64(1);
        w.boolean(true);
        w.u64(pending.size());
        w.u64(packed_bytes);
        for (const core::ObjectResult& r : pending) wm::put(w, r);
        cost.bytes_copied += packed_bytes;  // vector -> wire, once
      }
      if (round == 0) cost.merged_results += pending.size();
      cost.answer_crc = crc32(out.data(), out.size(), cost.answer_crc);
    }
  }
  cost.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  return cost;
}

/// The refactored merge: SubResView borrows each datagram's packed range
/// (as the pinned receive buffers do in the live path) and the final answer
/// is emitted directly into a pooled envelope -- one memcpy of the kept
/// item ranges, nothing else.
MergeCost view_merge(const std::vector<std::vector<wm::Buffer>>& groups,
                     int rounds) {
  MergeCost cost;
  net::BufferPool pool;
  struct Segment {
    const std::uint8_t* data;
    std::size_t len;
  };
  std::vector<Segment> segments;
  util::OidMap<std::monostate> seen;  // flat dedup set, capacity reused (as the server's)
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < rounds; ++round) {
    for (const auto& group : groups) {
      segments.clear();
      for (const wm::Buffer& dg : group) {
        wm::SubResView view(dg.data(), dg.size());
        if (!view.valid()) std::abort();
        // The captured buffer IS the pin: borrow the packed range.
        segments.push_back({view.packed_data(), view.packed_size()});
      }
      // Dedup-on-emit, two passes (exactly emit_range_result's shape).
      const bool dedup = segments.size() > 1;
      seen.clear();
      std::uint64_t kept = 0;
      std::size_t kept_bytes = 0;
      for (const Segment& seg : segments) {
        wm::ItemView<core::ObjectResult> items(seg.data, seg.len);
        while (const auto item = items.next()) {
          if (dedup && !seen.try_emplace(item->value.oid).second) continue;
          ++kept;
          kept_bytes += item->len;
        }
      }
      net::PooledBuffer out(&pool, pool.acquire());
      {
        wm::Writer w(*out);
        w.reserve(64 + kept_bytes);
        wm::begin_envelope(w, NodeId{1}, wm::MsgType::kRangeQueryRes);
        w.u64(1);
        w.boolean(true);
        w.u64(kept);
        w.u64(kept_bytes);
        seen.clear();
        for (const Segment& seg : segments) {
          wm::ItemView<core::ObjectResult> items(seg.data, seg.len);
          while (const auto item = items.next()) {
            if (dedup && !seen.try_emplace(item->value.oid).second) continue;
            w.bytes(item->data, item->len);
          }
        }
      }
      cost.bytes_copied += kept_bytes;
      if (round == 0) cost.merged_results += kept;
      cost.answer_crc = crc32(out.data(), out.size(), cost.answer_crc);
    }
  }
  cost.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  return cost;
}

}  // namespace

int main() {
  // Live drive twice: determinism self-check (answers AND trace bytes).
  LiveRun live = drive_live(/*capture=*/true);
  const LiveRun replay = drive_live(/*capture=*/false);
  const bool deterministic =
      live.answers == replay.answers && live.trace_crc == replay.trace_crc;

  // Merge microbench over the captured sub-result datagrams. Warm-up round
  // first so scratch/pool capacities reach their steady state (both mergers
  // get the same treatment).
  constexpr int kMergeRounds = 50;
  (void)baseline_merge(live.sub_groups, 1);
  (void)view_merge(live.sub_groups, 1);
  const MergeCost base = baseline_merge(live.sub_groups, kMergeRounds);
  const MergeCost view = view_merge(live.sub_groups, kMergeRounds);
  std::size_t sub_datagrams = 0;
  for (const auto& g : live.sub_groups) sub_datagrams += g.size();
  const bool answers_identical = base.answer_crc == view.answer_crc &&
                                 base.merged_results == view.merged_results;

  const double total_merged =
      static_cast<double>(base.merged_results) * kMergeRounds;
  if (total_merged == 0) return 1;
  const double base_allocs_per_result =
      static_cast<double>(base.allocs) / total_merged;
  const double view_allocs_per_result =
      static_cast<double>(view.allocs) / total_merged;
  const double alloc_ratio =
      view.allocs == 0 ? 1e9
                       : static_cast<double>(base.allocs) /
                             static_cast<double>(view.allocs);
  const double copy_ratio = static_cast<double>(base.bytes_copied) /
                            static_cast<double>(view.bytes_copied);
  const double queries_per_sec =
      static_cast<double>(live.queries) / live.drive_seconds;
  const double e2e_allocs_per_query =
      static_cast<double>(live.drive_allocs) / static_cast<double>(live.queries);

  std::printf(
      "  live: %llu queries, %llu merged results, %.0f q/s, %.1f allocs/query, "
      "%llu sub-results pinned / %llu copied\n",
      static_cast<unsigned long long>(live.queries),
      static_cast<unsigned long long>(live.merged_results), queries_per_sec,
      e2e_allocs_per_query,
      static_cast<unsigned long long>(live.entry_stats.sub_res_pinned),
      static_cast<unsigned long long>(live.entry_stats.sub_res_copied));
  std::printf(
      "  merge: %llu sub-result datagrams -> %llu results; "
      "baseline %.3f allocs/result, view %.3f allocs/result (%.1fx fewer)\n",
      static_cast<unsigned long long>(sub_datagrams),
      static_cast<unsigned long long>(base.merged_results),
      base_allocs_per_result, view_allocs_per_result, alloc_ratio);
  std::printf(
      "  bytes copied per merge: baseline %llu, view %llu (%.1fx fewer); "
      "answers byte-identical: %s; deterministic: %s\n",
      static_cast<unsigned long long>(base.bytes_copied / kMergeRounds),
      static_cast<unsigned long long>(view.bytes_copied / kMergeRounds),
      copy_ratio, answers_identical ? "yes" : "no",
      deterministic ? "yes" : "no");

  char json[2048];
  std::snprintf(
      json, sizeof json,
      "{\"bench\":\"query_merge\",\"queries\":%llu,\"merged_results\":%llu,"
      "\"sub_datagrams\":%llu,"
      "\"baseline_allocs_per_result\":%.4f,\"view_allocs_per_result\":%.4f,"
      "\"alloc_ratio\":%.2f,"
      "\"baseline_bytes_copied\":%llu,\"view_bytes_copied\":%llu,"
      "\"copy_ratio\":%.2f,\"bytes_copied_strictly_fewer\":%s,"
      "\"answers_identical\":%s,\"deterministic\":%s,"
      "\"sub_res_pinned\":%llu,\"sub_res_copied\":%llu,"
      "\"queries_per_sec\":%.1f,\"e2e_allocs_per_query\":%.2f}",
      static_cast<unsigned long long>(live.queries),
      static_cast<unsigned long long>(live.merged_results),
      static_cast<unsigned long long>(sub_datagrams),
      base_allocs_per_result, view_allocs_per_result, alloc_ratio,
      static_cast<unsigned long long>(base.bytes_copied / kMergeRounds),
      static_cast<unsigned long long>(view.bytes_copied / kMergeRounds),
      copy_ratio, view.bytes_copied < base.bytes_copied ? "true" : "false",
      answers_identical ? "true" : "false", deterministic ? "true" : "false",
      static_cast<unsigned long long>(live.entry_stats.sub_res_pinned),
      static_cast<unsigned long long>(live.entry_stats.sub_res_copied),
      queries_per_sec, e2e_allocs_per_query);
  std::printf("%s\n", json);
  if (std::FILE* f = std::fopen("BENCH_query_merge.json", "w")) {
    std::fprintf(f, "%s\n", json);
    std::fclose(f);
  }

  // Self-checks: the bench exits non-zero when the refactor's claims fail,
  // independent of the CI gate.
  if (!answers_identical || !deterministic) return 1;
  if (alloc_ratio < 5.0) return 1;
  if (view.bytes_copied >= base.bytes_copied) return 1;
  if (live.entry_stats.sub_res_copied != 0) return 1;
  return 0;
}
