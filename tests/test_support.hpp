// Shared helpers for the test suite: simulated deployments, synchronous
// drivers, and brute-force oracles for the paper's query semantics.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <vector>

#include "core/client.hpp"
#include "core/deployment.hpp"
#include "core/hierarchy_builder.hpp"
#include "core/types.hpp"
#include "geo/circle.hpp"
#include "net/sim_network.hpp"
#include "util/rng.hpp"

namespace locs::test {

using core::AccuracyRange;
using core::LocationDescriptor;
using core::ObjectResult;
using core::QueryClient;
using core::Sighting;
using core::TrackedObject;

/// The LAN model of the paper's evaluation (100 Mbit Ethernet, §7): 250 us
/// per hop plus 80 us/KiB, without jitter, so virtual times are exact.
inline net::SimNetwork::Options lan() {
  net::SimNetwork::Options opts;
  opts.jitter_frac = 0.0;
  return opts;
}

/// Registers objects 1..n at `positions` in one burst from a registrar node
/// that drops the replies, so no client per object is needed; `entry_for`
/// maps a position to the server that takes its registration.
template <typename EntryFor>
void register_at(net::SimNetwork& net, const std::vector<geo::Point>& positions,
                 EntryFor entry_for) {
  constexpr NodeId kRegistrar{99};
  net.attach(kRegistrar, [](const std::uint8_t*, std::size_t) {});
  for (std::size_t i = 0; i < positions.size(); ++i) {
    net::send_message(net, kRegistrar, entry_for(positions[i]),
                      wire::RegisterReq{Sighting{ObjectId{i + 1}, 0, positions[i], 5.0},
                                        "", {10.0, 100.0}, kRegistrar, i + 1});
  }
  net.run_until_idle();
}

struct OpCost {
  Duration us = 0;
  std::uint64_t msgs = 0;
};

/// Issues one operation and steps the network until `done`. The latency
/// ends there; the message count also takes the stragglers that drain
/// afterwards (path repair and the like).
template <typename Issue, typename Done>
OpCost timed_op(net::SimNetwork& net, Issue issue, Done done) {
  const std::uint64_t msgs = net.messages_sent();
  const TimePoint start = net.now();
  issue();
  while (!done() && net.step()) {
  }
  const Duration us = net.now() - start;
  net.run_until_idle();
  return {us, net.messages_sent() - msgs};
}

/// Whether `server` keeps a visitor record for `oid`: a leaf record on a
/// leaf, a forwarding reference on any other server.
inline bool has_visitor(const core::LocationServer& server, ObjectId oid) {
  if (const store::SightingDb* leaf = server.sightings()) {
    return leaf->find(oid) != nullptr;
  }
  return server.visitors()->find(oid).has_value();
}

/// Every visitor of every leaf as a query answer would list it; a record
/// still waiting for its first sighting has no position and is left out.
inline std::vector<ObjectResult> leaf_visitors(core::Deployment& deployment) {
  std::vector<ObjectResult> all;
  for (const NodeId leaf : deployment.leaf_ids()) {
    deployment.server(leaf).sightings()->for_each(
        [&](ObjectId oid, const store::SightingDb::Record& rec) {
          if (rec.has_sighting) all.push_back({oid, {rec.sighting.pos, rec.offered_acc}});
        });
  }
  return all;
}

/// A complete simulated world: network + hierarchy + client id allocation.
struct SimWorld {
  net::SimNetwork net;
  std::unique_ptr<core::Deployment> deployment;
  std::uint32_t next_client_id = 1u << 20;

  explicit SimWorld(core::HierarchySpec spec,
                    core::LocationServer::Options opts = {},
                    net::SimNetwork::Options net_opts = {})
      : net(net_opts) {
    core::Deployment::Config cfg;
    cfg.server = opts;
    deployment = std::make_unique<core::Deployment>(net, net.clock(),
                                                    std::move(spec), cfg);
  }

  /// Full deployment-config variant (cache toggles, standbys, ...).
  SimWorld(core::HierarchySpec spec, core::Deployment::Config cfg,
           net::SimNetwork::Options net_opts = {})
      : net(net_opts) {
    deployment = std::make_unique<core::Deployment>(net, net.clock(),
                                                    std::move(spec), cfg);
  }

  NodeId client_node() { return NodeId{next_client_id++}; }

  void run() { net.run_until_idle(); }

  void tick() { deployment->tick_all(net.now()); }

  /// Advances virtual time in slices, running expiry sweeps in between.
  void advance(Duration d, int slices = 4) {
    for (int i = 0; i < slices; ++i) {
      net.clock().advance(d / slices);
      tick();
      run();
    }
  }

  /// Registers a tracked object synchronously; returns the client handle.
  std::unique_ptr<TrackedObject> register_object(ObjectId oid, geo::Point pos,
                                                 double sensor_acc = 1.0,
                                                 AccuracyRange range = {10.0, 100.0}) {
    auto obj = std::make_unique<TrackedObject>(client_node(), oid, net, net.clock());
    const NodeId entry = deployment->entry_leaf_for(pos);
    EXPECT_TRUE(entry.valid()) << "no leaf covers the registration position";
    obj->start_register(entry, pos, sensor_acc, range);
    run();
    return obj;
  }

  std::unique_ptr<QueryClient> make_query_client(NodeId entry) {
    auto qc = std::make_unique<QueryClient>(client_node(), net, net.clock());
    qc->set_entry(entry);
    return qc;
  }

  QueryClient::PosResult pos_query(QueryClient& qc, ObjectId oid) {
    const std::uint64_t id = qc.send_pos_query(oid);
    run();
    auto res = qc.take_pos(id);
    EXPECT_TRUE(res.has_value()) << "position query did not complete";
    return res.value_or(QueryClient::PosResult{});
  }

  QueryClient::RangeResult range_query(QueryClient& qc, const geo::Polygon& area,
                                       double req_acc, double req_overlap) {
    const std::uint64_t id = qc.send_range_query(area, req_acc, req_overlap);
    run();
    auto res = qc.take_range(id);
    EXPECT_TRUE(res.has_value()) << "range query did not complete";
    return res ? std::move(*res) : QueryClient::RangeResult{};
  }

  QueryClient::NNResult nn_query(QueryClient& qc, geo::Point p, double req_acc,
                                 double near_qual) {
    const std::uint64_t id = qc.send_nn_query(p, req_acc, near_qual);
    run();
    auto res = qc.take_nn(id);
    EXPECT_TRUE(res.has_value()) << "NN query did not complete";
    return res ? std::move(*res) : QueryClient::NNResult{};
  }
};

/// Brute-force oracle for the paper's range-query semantics (§3.2):
/// objSet = { (o, ld) | Overlap(a, o) >= reqOverlap > 0 and ld.acc <= reqAcc }.
inline std::vector<ObjectResult> oracle_range(
    const std::vector<ObjectResult>& all, const geo::Polygon& area, double req_acc,
    double req_overlap) {
  std::vector<ObjectResult> out;
  for (const ObjectResult& o : all) {
    if (o.ld.acc > req_acc) continue;
    const double ov = geo::overlap_degree(area, o.ld.location_area());
    if (ov >= std::max(req_overlap, 1e-12)) out.push_back(o);
  }
  return out;
}

/// Brute-force oracle for the nearest neighbor (§3.2).
inline std::optional<ObjectResult> oracle_nearest(const std::vector<ObjectResult>& all,
                                                  geo::Point p, double req_acc) {
  std::optional<ObjectResult> best;
  double best_d = 0.0;
  for (const ObjectResult& o : all) {
    if (o.ld.acc > req_acc) continue;
    const double d = geo::distance(o.ld.pos, p);
    if (!best || d < best_d || (d == best_d && o.oid < best->oid)) {
      best = o;
      best_d = d;
    }
  }
  return best;
}

/// Brute-force oracle for the whole NN answer (§3.2): the nearest qualifying
/// object and nearObjSet, the other qualifying objects within d* + nearQual,
/// in the server's (distance, id) order. The 1e-9 is the server's own
/// rounding allowance on the nearObjSet bound.
inline QueryClient::NNResult oracle_nn(const std::vector<ObjectResult>& all,
                                       geo::Point p, double req_acc,
                                       double near_qual) {
  QueryClient::NNResult out;
  const auto nearest = oracle_nearest(all, p, req_acc);
  if (!nearest) return out;
  out.found = true;
  out.nearest = *nearest;
  const double bound = geo::distance(nearest->ld.pos, p) + near_qual + 1e-9;
  for (const ObjectResult& o : all) {
    if (o.ld.acc > req_acc || o.oid == nearest->oid) continue;
    if (geo::distance(o.ld.pos, p) <= bound) out.near_set.push_back(o);
  }
  std::sort(out.near_set.begin(), out.near_set.end(),
            [&](const ObjectResult& a, const ObjectResult& b) {
              const double da = geo::distance(a.ld.pos, p);
              const double db = geo::distance(b.ld.pos, p);
              return da != db ? da < db : a.oid < b.oid;
            });
  return out;
}

inline std::vector<ObjectId> sorted_ids(const std::vector<ObjectResult>& v) {
  std::vector<ObjectId> ids;
  ids.reserve(v.size());
  for (const ObjectResult& o : v) ids.push_back(o.oid);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace locs::test

namespace locs::core {

/// gtest printer (found by ADL): "oid@(x, y)~acc".
inline void PrintTo(const ObjectResult& r, std::ostream* os) {
  *os << r.oid.value << "@(" << r.ld.pos.x << ", " << r.ld.pos.y << ")~" << r.ld.acc;
}

}  // namespace locs::core
