// Crash-recovery bench -- time-to-reconverge and recovery datagram counts
// for the fault-tolerance subsystem (sim/fault.hpp + the batched
// RecoveryHello / BatchedRefreshReq sweep).
//
// Scenario (deterministic SimNetwork, same style as bench_batched_update):
// a Table-2 deployment with persistent visitorDBs tracks kObjects objects
// registered through ONE sensor gateway (the gateway node hosts an
// UpdateCoalescer; the leaves' refresh sweeps and update acks all land
// there). After a few update rounds, one leaf crashes, losing its volatile
// SightingDb; on restart it announces RecoveryHello and the batched sweep
// rebuilds the sightings:
//
//   leaf  --RecoveryHello-->  root
//   root  --BatchedRefreshReq (packed oids)-->  leaf    [parent sweep]
//   leaf  --BatchedRefreshReq (packed oids)-->  gateway [client sweep]
//   gateway --BatchedUpdateReq-->  leaf  (leaf table)  [refresh updates]
//
// The headline metric is refresh_datagram_ratio: visitors needing a refresh
// divided by the client-sweep datagrams actually sent -- the per-object
// RefreshReq sweep this replaces used one datagram per visitor. Datagram
// counts, rounds and reconvergence are DETERMINISTIC (identical across runs
// and machines; the bench replays the scenario twice and checks); wall-clock
// throughput is reported for trend lines. scripts/check_bench.py gates the
// JSON against bench/baselines/recovery.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/client.hpp"
#include "core/deployment.hpp"
#include "core/hierarchy_builder.hpp"
#include "core/update_coalescer.hpp"
#include "net/sim_network.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace {

using namespace locs;
namespace fs = std::filesystem;

constexpr double kAreaSize = 1500.0;
constexpr std::size_t kObjects = 1500;
constexpr int kUpdateRounds = 6;
const NodeId kGateway{93};
const NodeId kCrashLeaf{2};

struct RunMetrics {
  std::size_t crashed_leaf_visitors = 0;
  std::uint64_t parent_sweep_datagrams = 0;  // root -> leaf BatchedRefreshReq
  std::uint64_t client_sweep_datagrams = 0;  // leaf -> gateway BatchedRefreshReq
  std::uint64_t recovery_datagrams_total = 0;
  int recovery_rounds = 0;
  double reconverge_virtual_ms = 0.0;
  bool reconverged = false;
  double refresh_updates_per_sec = 0.0;
  std::uint32_t trace_crc = 0;
};

RunMetrics run_once(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() / ("locs_bench_recovery_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);

  net::SimNetwork net;
  core::Deployment::Config cfg;
  cfg.visitor_db_factory = [&](NodeId id) {
    auto log = store::VisitorLog::open(
        (dir / ("visitor_" + std::to_string(id.value) + ".log")).string());
    return log.ok() ? std::move(log).value() : store::VisitorLog{};
  };
  core::Deployment deployment(
      net, net.clock(),
      core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kAreaSize, kAreaSize}}),
      cfg);

  RunMetrics m;
  net.set_tracer([&](TimePoint at, NodeId from, NodeId to, const wire::Buffer& b) {
    m.trace_crc = crc32(&at, sizeof at, m.trace_crc);
    m.trace_crc = crc32(&from.value, sizeof from.value, m.trace_crc);
    m.trace_crc = crc32(&to.value, sizeof to.value, m.trace_crc);
    m.trace_crc = crc32(b.data(), b.size(), m.trace_crc);
  });

  // The gateway: an UpdateCoalescer whose refresh fan-in re-feeds each
  // object's last known position (what a real sensor gateway would do).
  std::unordered_map<ObjectId, std::pair<NodeId, geo::Point>> last;  // oid -> (leaf, pos)
  core::UpdateCoalescer coalescer(kGateway, net, net.clock(), {});
  coalescer.set_on_refresh([&](ObjectId oid) {
    const auto it = last.find(oid);
    if (it == last.end()) return;
    coalescer.enqueue(it->second.first,
                      core::Sighting{oid, 0, it->second.second, 5.0});
  });

  // Registration through the gateway (reg_inst = the coalescer's node, so
  // recovery sweeps land there), then a few coalesced update rounds.
  Rng rng(7);
  std::vector<geo::Rect> rects;
  std::vector<NodeId> leaves = deployment.leaf_ids();
  std::sort(leaves.begin(), leaves.end());
  for (const NodeId leaf : leaves) {
    rects.push_back(deployment.server(leaf).config().sa.bounding_box());
  }
  for (std::uint64_t i = 1; i <= kObjects; ++i) {
    const geo::Point p{rng.uniform(1, kAreaSize - 1), rng.uniform(1, kAreaSize - 1)};
    const NodeId leaf = deployment.entry_leaf_for(p);
    wire::RegisterReq req;
    req.s = core::Sighting{ObjectId{i}, 0, p, 5.0};
    req.acc_range = {10.0, 100.0};
    req.reg_inst = kGateway;
    req.req_id = i;
    net.send(kGateway, leaf, wire::encode_envelope(kGateway, req));
    last[ObjectId{i}] = {leaf, p};
  }
  net.run_until_idle();

  for (int round = 0; round < kUpdateRounds; ++round) {
    for (std::uint64_t i = 1; i <= kObjects; ++i) {
      auto& [leaf, pos] = last[ObjectId{i}];
      const std::size_t li = static_cast<std::size_t>(
          std::find(leaves.begin(), leaves.end(), leaf) - leaves.begin());
      pos = {rng.uniform(rects[li].min.x + 1, rects[li].max.x - 1),
             rng.uniform(rects[li].min.y + 1, rects[li].max.y - 1)};
      coalescer.enqueue(leaf, core::Sighting{ObjectId{i}, 0, pos, 5.0});
    }
    coalescer.flush_all();
    net.run_until_idle();
  }

  for (const auto& [oid, where] : last) {
    if (where.first == kCrashLeaf) ++m.crashed_leaf_visitors;
  }

  // Crash: volatile sightings lost, persistent visitor log survives.
  deployment.crash(kCrashLeaf);
  net.set_node_down(kCrashLeaf, true);
  net.run_until_idle();

  // Restart + batched recovery. Count recovery datagrams by wire type.
  std::uint64_t recovery_msgs = 0;
  net.set_tracer([&](TimePoint at, NodeId from, NodeId to, const wire::Buffer& b) {
    m.trace_crc = crc32(&at, sizeof at, m.trace_crc);
    m.trace_crc = crc32(&from.value, sizeof from.value, m.trace_crc);
    m.trace_crc = crc32(&to.value, sizeof to.value, m.trace_crc);
    m.trace_crc = crc32(b.data(), b.size(), m.trace_crc);
    ++recovery_msgs;
    if (b.size() > 1 &&
        static_cast<wire::MsgType>(b[1]) == wire::MsgType::kBatchedRefreshReq) {
      if (to == kCrashLeaf) ++m.parent_sweep_datagrams;
      if (to == kGateway) ++m.client_sweep_datagrams;
    }
  });

  const TimePoint restart_at = net.now();
  const auto wall_start = std::chrono::steady_clock::now();
  net.set_node_down(kCrashLeaf, false);
  deployment.restart(kCrashLeaf, /*announce=*/true);

  const auto converged = [&] {
    store::SightingDb::Record rec;
    for (const auto& [oid, where] : last) {
      if (where.first != kCrashLeaf) continue;
      if (!deployment.find_sighting(kCrashLeaf, oid, rec)) return false;
      if (rec.sighting.pos != where.second) return false;
    }
    return true;
  };
  // Each round drains the network and flushes the coalescer's tail batch
  // (the deadline flush would do the same a few virtual ms later).
  for (int round = 1; round <= 8; ++round) {
    net.run_until_idle();
    coalescer.flush_all();
    net.run_until_idle();
    m.recovery_rounds = round;
    if (converged()) {
      m.reconverged = true;
      break;
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  m.reconverge_virtual_ms =
      static_cast<double>(net.now() - restart_at) / 1000.0;
  m.recovery_datagrams_total = recovery_msgs;
  m.refresh_updates_per_sec =
      wall > 0.0 ? static_cast<double>(m.crashed_leaf_visitors) / wall : 0.0;

  net.set_tracer(nullptr);
  fs::remove_all(dir);
  return m;
}

// --------------------------------------------------------------------------
// Replicated mode: the crash leaf has a hot standby (Config::leaf_standby).
// The primary tees every accepted sighting to it; on miss-threshold
// suspicion the parent promotes it and the SAME query workload that the
// unfaulted control answers from the primary is answered from the standby --
// the headline is BYTE-EQUAL answers during the blackout, plus the
// steady-state replication overhead (tee datagrams per mutating datagram).

const NodeId kStandby{12};
const NodeId kQuery{94};

struct ReplicatedMetrics {
  std::size_t crashed_leaf_visitors = 0;
  std::uint64_t tee_datagrams = 0;       // ReplicaTee datagrams, whole run
  std::uint64_t mutation_datagrams = 0;  // RegisterReq + BatchedUpdateReq at the primary
  std::uint64_t standby_routed_queries = 0;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::uint32_t blackout_crc = 0;  // answers during the blackout window
  std::uint32_t pos_crc = 0, range_crc = 0, nn_crc = 0;  // per-family split
  std::uint32_t trace_crc = 0;
  bool promoted = false;
  bool reconverged = false;
};

ReplicatedMetrics run_replicated(const std::string& tag, bool fault) {
  const fs::path dir =
      fs::temp_directory_path() / ("locs_bench_recovery_rep_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Fixed-latency network: the entry's streaming merge concatenates
  // sub-results in ARRIVAL order, and this bench compares raw answer
  // datagrams byte-for-byte against the control. Latency jitter draws from
  // one global stream, so the faulted run's extra traffic (heartbeat
  // misses, promotion fan-out) would desync it and reorder the merge --
  // same answer SET (the gtest suite asserts that order-insensitively),
  // different bytes.
  net::SimNetwork::Options nopts;
  nopts.jitter_frac = 0.0;
  net::SimNetwork net(nopts);
  core::Deployment::Config cfg;
  cfg.server.heartbeat_interval = seconds(1);
  cfg.visitor_db_factory = [&](NodeId id) {
    auto log = store::VisitorLog::open(
        (dir / ("visitor_" + std::to_string(id.value) + ".log")).string());
    return log.ok() ? std::move(log).value() : store::VisitorLog{};
  };
  cfg.leaf_standby = {{kCrashLeaf, kStandby}};
  core::Deployment deployment(
      net, net.clock(),
      core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kAreaSize, kAreaSize}}),
      cfg);

  ReplicatedMetrics m;
  bool capture = false;
  net.set_tracer([&](TimePoint at, NodeId from, NodeId to, const wire::Buffer& b) {
    m.trace_crc = crc32(&at, sizeof at, m.trace_crc);
    m.trace_crc = crc32(&from.value, sizeof from.value, m.trace_crc);
    m.trace_crc = crc32(&to.value, sizeof to.value, m.trace_crc);
    m.trace_crc = crc32(b.data(), b.size(), m.trace_crc);
    if (!capture || to != kQuery || b.size() < 2) return;
    // Fold raw range/NN answer datagrams: byte-equality with the control.
    // (PosQueryRes embeds the answering agent's NodeId -- standby vs primary
    // -- so position answers are folded value-wise below instead.)
    const auto type = static_cast<wire::MsgType>(b[1]);
    if (type == wire::MsgType::kRangeQueryRes || type == wire::MsgType::kNNQueryRes) {
      m.blackout_crc = crc32(b.data(), b.size(), m.blackout_crc);
      if (type == wire::MsgType::kRangeQueryRes) {
        m.range_crc = crc32(b.data(), b.size(), m.range_crc);
      } else {
        m.nn_crc = crc32(b.data(), b.size(), m.nn_crc);
      }
    }
  });

  std::unordered_map<ObjectId, std::pair<NodeId, geo::Point>> last;
  core::UpdateCoalescer coalescer(kGateway, net, net.clock(), {});
  coalescer.set_on_refresh([&](ObjectId oid) {
    const auto it = last.find(oid);
    if (it == last.end()) return;
    coalescer.enqueue(it->second.first,
                      core::Sighting{oid, 0, it->second.second, 5.0});
  });
  // Promotion/demotion fan-out re-points the gateway's agent per object.
  coalescer.set_on_agent_changed([&](ObjectId oid, NodeId agent, double) {
    const auto it = last.find(oid);
    if (it != last.end() && agent.valid()) it->second.first = agent;
  });

  Rng rng(7);
  std::vector<geo::Rect> rects;
  std::vector<NodeId> leaves = deployment.leaf_ids();
  std::sort(leaves.begin(), leaves.end());
  for (const NodeId leaf : leaves) {
    rects.push_back(deployment.server(leaf).config().sa.bounding_box());
  }
  for (std::uint64_t i = 1; i <= kObjects; ++i) {
    const geo::Point p{rng.uniform(1, kAreaSize - 1), rng.uniform(1, kAreaSize - 1)};
    const NodeId leaf = deployment.entry_leaf_for(p);
    wire::RegisterReq req;
    req.s = core::Sighting{ObjectId{i}, 0, p, 5.0};
    req.acc_range = {10.0, 100.0};
    req.reg_inst = kGateway;
    req.req_id = i;
    net.send(kGateway, leaf, wire::encode_envelope(kGateway, req));
    last[ObjectId{i}] = {leaf, p};
  }
  net.run_until_idle();

  const auto update_round = [&] {
    for (std::uint64_t i = 1; i <= kObjects; ++i) {
      auto& [agent, pos] = last[ObjectId{i}];
      // Jitter inside the REGISTRATION leaf's rect (the agent may be the
      // standby during the blackout; the geometry is the primary's).
      const NodeId home = deployment.entry_leaf_for(pos);
      const std::size_t li = static_cast<std::size_t>(
          std::find(leaves.begin(), leaves.end(), home) - leaves.begin());
      pos = {rng.uniform(rects[li].min.x + 1, rects[li].max.x - 1),
             rng.uniform(rects[li].min.y + 1, rects[li].max.y - 1)};
      coalescer.enqueue(agent, core::Sighting{ObjectId{i}, 0, pos, 5.0});
    }
    coalescer.flush_all();
    net.run_until_idle();
  };
  const auto advance = [&](Duration d, int slices) {
    for (int i = 0; i < slices; ++i) {
      net.clock().advance(d / slices);
      deployment.tick_all(net.now());
      net.run_until_idle();
    }
  };

  // Pre-crash workload: the tee mirrors every accepted sighting.
  for (int round = 0; round < kUpdateRounds / 2; ++round) update_round();
  for (const auto& [oid, where] : last) {
    if (where.first == kCrashLeaf) ++m.crashed_leaf_visitors;
  }

  // Blackout: the detector trips after 3 missed 1s heartbeats and the
  // promotion fan-out re-points the gateway (control: heartbeats only).
  if (fault) {
    deployment.crash(kCrashLeaf);
    net.set_node_down(kCrashLeaf, true);
    net.run_until_idle();
  }
  advance(seconds(5), 10);
  m.promoted = !deployment.is_down(kStandby) &&
               deployment.server(kStandby).standby_active();

  // Blackout workload + queries: in the faulted run every crashed-leaf
  // update and answer goes through the promoted standby.
  for (int round = kUpdateRounds / 2; round < kUpdateRounds; ++round) {
    update_round();
  }
  {
    core::QueryClient qc(kQuery, net, net.clock());
    qc.set_entry(leaves.back());  // a healthy entry leaf
    capture = true;
    for (std::uint64_t i = 1; i <= kObjects; i += 7) {
      const std::uint64_t id = qc.send_pos_query(ObjectId{i});
      net.run_until_idle();
      if (const auto res = qc.take_pos(id)) {
        const double vals[4] = {res->found ? 1.0 : 0.0, res->ld.pos.x,
                                res->ld.pos.y, res->ld.acc};
        m.blackout_crc = crc32(vals, sizeof vals, m.blackout_crc);
        m.pos_crc = crc32(vals, sizeof vals, m.pos_crc);
      }
    }
    const geo::Rect all{{0, 0}, {kAreaSize, kAreaSize}};
    const geo::Rect quads[4] = {
        {{0, 0}, {kAreaSize / 2, kAreaSize / 2}},
        {{kAreaSize / 2, 0}, {kAreaSize, kAreaSize / 2}},
        {{0, kAreaSize / 2}, {kAreaSize / 2, kAreaSize}},
        {{kAreaSize / 2, kAreaSize / 2}, {kAreaSize, kAreaSize}}};
    (void)qc.send_range_query(geo::Polygon::from_rect(all), 50.0, 0.1);
    for (const geo::Rect& q : quads) {
      (void)qc.send_range_query(geo::Polygon::from_rect(q), 50.0, 0.1);
    }
    (void)qc.send_nn_query({kAreaSize / 4, kAreaSize / 4}, 60.0, 30.0);
    (void)qc.send_nn_query({kAreaSize / 2, kAreaSize / 2}, 60.0, 30.0);
    (void)qc.send_nn_query({kAreaSize - 100, 100}, 60.0, 30.0);
    net.run_until_idle();
    capture = false;
  }

  // Primary returns: RecoveryHello demotes the standby; the refresh sweep
  // (plus the demote-race bounce path) rebuilds the primary's sightings.
  if (fault) {
    net.set_node_down(kCrashLeaf, false);
    deployment.restart(kCrashLeaf, /*announce=*/true);
  }
  advance(seconds(5), 10);
  const auto converged = [&] {
    store::SightingDb::Record rec;
    for (const auto& [oid, where] : last) {
      // The agent flips primary -> standby -> primary across the run, so key
      // ownership off the GEOMETRY: the position never leaves the quadrant.
      if (deployment.entry_leaf_for(where.second) != kCrashLeaf) continue;
      if (!deployment.find_sighting(kCrashLeaf, oid, rec)) return false;
      if (rec.sighting.pos != where.second) return false;
    }
    return true;
  };
  for (int round = 1; round <= 8 && !m.reconverged; ++round) {
    net.run_until_idle();
    coalescer.flush_all();
    net.run_until_idle();
    m.reconverged = converged();
  }

  const core::LocationServer::Stats stats = deployment.total_stats();
  m.tee_datagrams = stats.tee_datagrams_sent;
  m.standby_routed_queries = stats.standby_routed_queries;
  m.promotions = stats.standby_promotions;
  m.demotions = stats.standby_demotions;
  if (!fault) {
    // Steady-state overhead denominator: every datagram that mutated the
    // primary's state (one tee flush each). Only meaningful in the control
    // run -- the faulted primary's counters reset at the crash.
    const core::LocationServer::Stats ps = deployment.server(kCrashLeaf).stats();
    m.mutation_datagrams = ps.registrations + ps.update_batches;
  }

  net.set_tracer(nullptr);
  fs::remove_all(dir);
  return m;
}

}  // namespace

int main() {
  std::printf("bench_recovery: %zu objects, crash+restart of leaf %u "
              "(SimNetwork, deterministic)\n",
              kObjects, kCrashLeaf.value);
  const RunMetrics a = run_once("a");
  const RunMetrics b = run_once("b");
  const bool deterministic = a.trace_crc == b.trace_crc &&
                             a.recovery_datagrams_total == b.recovery_datagrams_total;

  // The per-object RefreshReq sweep this replaces: one datagram per visitor.
  const double ratio =
      a.client_sweep_datagrams > 0
          ? static_cast<double>(a.crashed_leaf_visitors) /
                static_cast<double>(a.client_sweep_datagrams)
          : 0.0;
  std::printf("  crashed-leaf visitors: %zu\n", a.crashed_leaf_visitors);
  std::printf("  recovery sweep: %llu parent + %llu client BatchedRefreshReq "
              "datagrams (vs %zu per-object RefreshReqs, %.1fx fewer)\n",
              static_cast<unsigned long long>(a.parent_sweep_datagrams),
              static_cast<unsigned long long>(a.client_sweep_datagrams),
              a.crashed_leaf_visitors, ratio);
  std::printf("  reconverged: %s in %d round(s), %.2f virtual ms, "
              "%llu recovery datagrams, %.0f refreshed sightings/s\n",
              a.reconverged ? "yes" : "NO", a.recovery_rounds,
              a.reconverge_virtual_ms,
              static_cast<unsigned long long>(a.recovery_datagrams_total),
              a.refresh_updates_per_sec);
  std::printf("  deterministic across runs: %s (crc %08x)\n",
              deterministic ? "yes" : "NO", a.trace_crc);

  // Replicated mode: unfaulted control + two faulted runs (determinism).
  const ReplicatedMetrics rc = run_replicated("c", /*fault=*/false);
  const ReplicatedMetrics rf = run_replicated("f1", /*fault=*/true);
  const ReplicatedMetrics rf2 = run_replicated("f2", /*fault=*/true);
  const bool rep_answers_equal =
      rf.blackout_crc == rc.blackout_crc && rf.blackout_crc != 0;
  const bool rep_deterministic =
      rf.trace_crc == rf2.trace_crc && rf.blackout_crc == rf2.blackout_crc;
  const double rep_overhead =
      rc.mutation_datagrams > 0
          ? static_cast<double>(rc.tee_datagrams) /
                static_cast<double>(rc.mutation_datagrams)
          : 0.0;
  std::printf("  replicated: %zu mirrored visitors, promoted=%s, "
              "%llu standby-routed queries\n",
              rf.crashed_leaf_visitors, rf.promoted ? "yes" : "NO",
              static_cast<unsigned long long>(rf.standby_routed_queries));
  std::printf("  replicated blackout answers equal control: %s "
              "(crc %08x vs %08x), reconverged=%s, deterministic=%s\n",
              rep_answers_equal ? "yes" : "NO", rf.blackout_crc, rc.blackout_crc,
              rf.reconverged ? "yes" : "NO", rep_deterministic ? "yes" : "NO");
  std::printf("    per family: pos %08x/%08x range %08x/%08x nn %08x/%08x\n",
              rf.pos_crc, rc.pos_crc, rf.range_crc, rc.range_crc, rf.nn_crc,
              rc.nn_crc);
  std::printf("  replication overhead: %llu tee datagrams / %llu mutating "
              "datagrams = %.3f per datagram\n",
              static_cast<unsigned long long>(rc.tee_datagrams),
              static_cast<unsigned long long>(rc.mutation_datagrams),
              rep_overhead);

  FILE* f = std::fopen("BENCH_recovery.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"crash_recovery\",\n"
               "  \"transport\": \"sim_deterministic\",\n"
               "  \"objects\": %zu,\n"
               "  \"crashed_leaf_visitors\": %zu,\n"
               "  \"parent_sweep_datagrams\": %llu,\n"
               "  \"client_sweep_datagrams\": %llu,\n"
               "  \"refresh_datagram_ratio\": %.3f,\n"
               "  \"recovery_datagrams_total\": %llu,\n"
               "  \"recovery_rounds\": %d,\n"
               "  \"reconverge_virtual_ms\": %.3f,\n"
               "  \"reconverged\": %s,\n"
               "  \"deterministic\": %s,\n"
               "  \"refresh_updates_per_sec\": %.1f,\n"
               "  \"replicated_blackout_answers_equal\": %s,\n"
               "  \"replicated_reconverged\": %s,\n"
               "  \"replicated_deterministic\": %s,\n"
               "  \"replication_tee_datagrams\": %llu,\n"
               "  \"replication_datagram_overhead\": %.3f,\n"
               "  \"standby_promotions\": %llu,\n"
               "  \"standby_demotions\": %llu,\n"
               "  \"standby_routed_queries\": %llu\n"
               "}\n",
               kObjects, a.crashed_leaf_visitors,
               static_cast<unsigned long long>(a.parent_sweep_datagrams),
               static_cast<unsigned long long>(a.client_sweep_datagrams), ratio,
               static_cast<unsigned long long>(a.recovery_datagrams_total),
               a.recovery_rounds, a.reconverge_virtual_ms,
               a.reconverged ? "true" : "false", deterministic ? "true" : "false",
               a.refresh_updates_per_sec,
               rep_answers_equal ? "true" : "false",
               rf.reconverged ? "true" : "false",
               rep_deterministic ? "true" : "false",
               static_cast<unsigned long long>(rc.tee_datagrams), rep_overhead,
               static_cast<unsigned long long>(rf.promotions),
               static_cast<unsigned long long>(rf.demotions),
               static_cast<unsigned long long>(rf.standby_routed_queries));
  std::fclose(f);
  // Acceptance bar: recovery must reconverge deterministically with a
  // heavily batched sweep (>= 8x fewer refresh datagrams than per-object),
  // and replicated failover must answer the blackout byte-equal to the
  // unfaulted control.
  return (a.reconverged && deterministic && ratio >= 8.0 && rep_answers_equal &&
          rf.promoted && rf.reconverged && rep_deterministic)
             ? 0
             : 1;
}
