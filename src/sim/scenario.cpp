#include "sim/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "core/deployment.hpp"
#include "core/hierarchy_builder.hpp"
#include "core/update_coalescer.hpp"
#include "net/sim_network.hpp"
#include "util/crc32.hpp"

namespace locs::sim {

namespace {

/// Flash-crowd member j carries ObjectId 1 + j * kCrowdIdStride. Fixed, so
/// the flash crowd's pinned trace stays stable.
constexpr std::uint64_t kCrowdIdStride = 64;

}  // namespace

const char* scenario_name(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kUniform: return "uniform";
    case ScenarioKind::kCommuterRush: return "commuter_rush";
    case ScenarioKind::kFlashCrowd: return "flash_crowd";
    case ScenarioKind::kConvoys: return "convoys";
    case ScenarioKind::kDayNight: return "day_night";
  }
  return "unknown";
}

geo::Point Scenario::clamped(geo::Point p) const {
  return {std::clamp(p.x, p_.area.min.x + 1.0, p_.area.max.x - 1.0),
          std::clamp(p.y, p_.area.min.y + 1.0, p_.area.max.y - 1.0)};
}

Scenario::Scenario(ScenarioParams params) : p_(std::move(params)), rng_(p_.seed) {
  const std::size_t n = p_.objects;
  // Every kind draws its placement first, then its per-object parameters, in
  // ascending object order -- the whole construction is one fixed rng
  // schedule, which is what makes same-seed instances bit-identical.
  start_ = uniform_placement(p_.area, n, rng_);
  switch (p_.kind) {
    case ScenarioKind::kUniform: {
      models_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        models_.push_back(make_random_waypoint(p_.area, start_[i], 1.0, 15.0,
                                               seconds(30), rng_));
      }
      break;
    }
    case ScenarioKind::kCommuterRush: {
      const std::size_t z = std::max<std::size_t>(1, p_.zones);
      std::vector<geo::Point> home_centers, work_centers;
      for (std::size_t k = 0; k < z; ++k) {
        home_centers.push_back({rng_.uniform(p_.area.min.x + 1, p_.area.max.x - 1),
                                rng_.uniform(p_.area.min.y + 1, p_.area.max.y - 1)});
      }
      for (std::size_t k = 0; k < z; ++k) {
        work_centers.push_back({rng_.uniform(p_.area.min.x + 1, p_.area.max.x - 1),
                                rng_.uniform(p_.area.min.y + 1, p_.area.max.y - 1)});
      }
      commuters_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        Commuter c;
        const geo::Point hc = home_centers[rng_.next_below(z)];
        const geo::Point wc = work_centers[rng_.next_below(z)];
        c.home = clamped({hc.x + rng_.normal(0.0, p_.zone_sigma),
                          hc.y + rng_.normal(0.0, p_.zone_sigma)});
        c.work = clamped({wc.x + rng_.normal(0.0, p_.zone_sigma),
                          wc.y + rng_.normal(0.0, p_.zone_sigma)});
        c.depart = static_cast<int>(
            rng_.uniform_int(0, std::max(0, p_.rounds / 3)));
        c.arrive = c.depart + static_cast<int>(rng_.uniform_int(
                                  1, std::max(1, p_.rounds / 2)));
        start_[i] = c.home;
        commuters_.push_back(c);
      }
      break;
    }
    case ScenarioKind::kFlashCrowd: {
      crowd_size_ = std::min(
          n, static_cast<std::size_t>(p_.crowd_fraction * static_cast<double>(n)));
      crowd_target_.reserve(crowd_size_);
      for (std::size_t j = 0; j < crowd_size_; ++j) {
        crowd_target_.push_back(clamped({p_.stadium.x + rng_.normal(0.0, 25.0),
                                         p_.stadium.y + rng_.normal(0.0, 25.0)}));
      }
      models_.resize(n);  // crowd entries stay null; wanderers get models
      for (std::size_t i = crowd_size_; i < n; ++i) {
        models_[i] = make_random_waypoint(p_.area, start_[i], 1.0, 15.0,
                                          seconds(30), rng_);
      }
      break;
    }
    case ScenarioKind::kConvoys: {
      const std::size_t c = std::max<std::size_t>(1, p_.convoys);
      for (std::size_t k = 0; k < c; ++k) {
        convoy_origin_.push_back(
            {p_.area.min.x + 1.0,
             rng_.uniform(p_.area.min.y + 1, p_.area.max.y - 1)});
        convoy_speed_.push_back(p_.convoy_speed * rng_.uniform(0.8, 1.2));
      }
      member_offset_.reserve(n);
      const std::size_t per = (n + c - 1) / c;
      for (std::size_t i = 0; i < n; ++i) {
        member_offset_.push_back({rng_.normal(0.0, p_.convoy_spread),
                                  rng_.normal(0.0, p_.convoy_spread)});
        start_[i] = clamped(convoy_origin_[i / per] + member_offset_[i]);
      }
      break;
    }
    case ScenarioKind::kDayNight: {
      models_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        models_.push_back(make_random_waypoint(p_.area, start_[i], 1.0, 15.0,
                                               seconds(30), rng_));
      }
      activity_u_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) activity_u_.push_back(rng_.next_double());
      break;
    }
  }
}

Scenario::~Scenario() = default;

ObjectId Scenario::oid(std::size_t i) const {
  if (p_.kind == ScenarioKind::kFlashCrowd) {
    if (i < crowd_size_) return ObjectId{1 + i * kCrowdIdStride};
    // Non-crowd ids start past the largest crowd id, densely packed.
    return ObjectId{1 + crowd_size_ * kCrowdIdStride + (i - crowd_size_)};
  }
  return ObjectId{1 + i};
}

void Scenario::step_round(int round, const EmitFn& emit) {
  const std::size_t n = p_.objects;
  switch (p_.kind) {
    case ScenarioKind::kUniform: {
      for (std::size_t i = 0; i < n; ++i) emit(i, models_[i]->step(p_.round_dt));
      break;
    }
    case ScenarioKind::kCommuterRush: {
      for (std::size_t i = 0; i < n; ++i) {
        const Commuter& c = commuters_[i];
        geo::Point pos;
        if (round + 1 <= c.depart) {
          pos = c.home;
        } else if (round + 1 >= c.arrive) {
          pos = c.work;
        } else {
          const double t = static_cast<double>(round + 1 - c.depart) /
                           static_cast<double>(c.arrive - c.depart);
          pos = c.home + (c.work - c.home) * t;
        }
        emit(i, pos);
      }
      break;
    }
    case ScenarioKind::kFlashCrowd: {
      const double t =
          std::min(1.0, static_cast<double>(round + 1) /
                            static_cast<double>(std::max(1, p_.crowd_ramp_rounds)));
      for (std::size_t i = 0; i < n; ++i) {
        if (i < crowd_size_) {
          emit(i, start_[i] + (crowd_target_[i] - start_[i]) * t);
        } else {
          emit(i, models_[i]->step(p_.round_dt));
        }
      }
      break;
    }
    case ScenarioKind::kConvoys: {
      const std::size_t c = convoy_origin_.size();
      const std::size_t per = (n + c - 1) / c;
      const double width = p_.area.max.x - p_.area.min.x;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t k = i / per;
        // Leaders roll east and wrap; the whole formation crosses every leaf
        // boundary together (correlated handover bursts by construction).
        const double dist = convoy_speed_[k] * to_seconds(p_.round_dt) *
                            static_cast<double>(round + 1);
        const double x = p_.area.min.x +
                         std::fmod(convoy_origin_[k].x - p_.area.min.x + dist, width);
        emit(i, clamped({x + member_offset_[i].x,
                         convoy_origin_[k].y + member_offset_[i].y}));
      }
      break;
    }
    case ScenarioKind::kDayNight: {
      const double phase = 2.0 * M_PI * static_cast<double>(round + 1) /
                           static_cast<double>(std::max(1, p_.rounds));
      const double frac =
          p_.night_floor + (1.0 - p_.night_floor) * 0.5 * (1.0 - std::cos(phase));
      for (std::size_t i = 0; i < n; ++i) {
        if (activity_u_[i] >= frac) continue;  // off-shift: no report, no draw
        const std::uint32_t burst = p_.burst.draw(rng_);
        const Duration sub = p_.round_dt / static_cast<Duration>(burst);
        for (std::uint32_t k = 0; k < burst; ++k) {
          emit(i, models_[i]->step(sub));
        }
      }
      break;
    }
  }
}

// --- drive_scenario ----------------------------------------------------------

namespace {

constexpr NodeId kGateway{901};
constexpr NodeId kProbe{902};

}  // namespace

DriveResult drive_scenario(const ScenarioParams& sp, const DriveOptions& opts) {
  const auto wall_start = std::chrono::steady_clock::now();
  Scenario scn(sp);

  net::SimNetwork::Options nopts;
  nopts.seed = opts.net_seed;
  net::SimNetwork net(nopts);

  core::Deployment deployment(
      net, net.clock(),
      core::HierarchyBuilder::grid(sp.area, opts.grid_fanout_x,
                                   opts.grid_fanout_y, opts.grid_levels));

  DriveResult res;
  std::vector<NodeId> leaves = deployment.leaf_ids();
  std::sort(leaves.begin(), leaves.end());
  std::unordered_map<std::uint32_t, std::size_t> leaf_index;
  for (std::size_t i = 0; i < leaves.size(); ++i) leaf_index[leaves[i].value] = i;
  res.per_leaf_updates.assign(leaves.size(), 0);

  net.set_tracer([&](TimePoint at, NodeId from, NodeId to, const wire::Buffer& b) {
    res.trace_crc = crc32(&at, sizeof at, res.trace_crc);
    res.trace_crc = crc32(&from.value, sizeof from.value, res.trace_crc);
    res.trace_crc = crc32(&to.value, sizeof to.value, res.trace_crc);
    res.trace_crc = crc32(b.data(), b.size(), res.trace_crc);
    const auto it = leaf_index.find(to.value);
    if (it != leaf_index.end() && b.size() > 1) {
      const auto type = static_cast<wire::MsgType>(b[1]);
      if (type == wire::MsgType::kBatchedUpdateReq ||
          type == wire::MsgType::kUpdateReq ||
          type == wire::MsgType::kRegisterReq) {
        ++res.per_leaf_updates[it->second];
      }
    }
  });

  // The sensor gateway (bench_recovery idiom): one UpdateCoalescer feeds the
  // whole population; AgentChanged fan-in keeps the oid -> agent map current
  // as handovers retarget objects, refresh fan-in re-feeds last positions.
  std::unordered_map<ObjectId, NodeId> agent;
  std::unordered_map<ObjectId, geo::Point> last_pos;
  core::UpdateCoalescer coalescer(kGateway, net, net.clock(), {});
  coalescer.set_on_agent_changed(
      [&](ObjectId oid, NodeId new_agent, double) { agent[oid] = new_agent; });
  coalescer.set_on_refresh([&](ObjectId oid) {
    const auto it = last_pos.find(oid);
    if (it == last_pos.end()) return;
    coalescer.enqueue(agent[oid], core::Sighting{oid, 0, it->second, 5.0});
  });

  const std::size_t n = scn.object_count();
  agent.reserve(n);
  last_pos.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ObjectId id = scn.oid(i);
    const geo::Point p = scn.initial_position(i);
    const NodeId leaf = deployment.entry_leaf_for(p);
    wire::RegisterReq req;
    req.s = core::Sighting{id, 0, p, 5.0};
    req.acc_range = {10.0, 100.0};
    req.reg_inst = kGateway;
    req.req_id = id.value;
    net.send(kGateway, leaf, wire::encode_envelope(kGateway, req));
    agent[id] = leaf;
    last_pos[id] = p;
    // Drain periodically so the event heap stays bounded at 1M objects.
    if ((i & 0xfff) == 0xfff) net.run_until_idle();
  }
  net.run_until_idle();
  deployment.tick_all(net.now());

  const auto rounds_start = std::chrono::steady_clock::now();
  const std::uint64_t msgs_before_rounds = net.messages_sent();
  for (int round = 0; round < sp.rounds; ++round) {
    scn.step_round(round, [&](std::size_t i, geo::Point pos) {
      const ObjectId id = scn.oid(i);
      last_pos[id] = pos;
      coalescer.enqueue(agent[id], core::Sighting{id, 0, pos, 5.0});
      ++res.sightings_emitted;
    });
    coalescer.flush_all();
    net.run_until_idle();
    deployment.tick_all(net.now());  // expiry sweeps
    net.run_until_idle();
  }
  res.rounds_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - rounds_start)
          .count();
  res.round_messages = net.messages_sent() - msgs_before_rounds;

  // Answer probes, folded into answer_crc in PROBE order (one outstanding
  // query at a time, so the fold order never depends on delivery
  // interleaving): pos queries over a deterministic population sample plus
  // one whole-leaf range query per leaf, results sorted by oid. Two runs
  // with equal answer_crc hold the same soft state, even when their traces
  // differ.
  std::uint32_t acrc = 0;
  const auto fold_u64 = [&](std::uint64_t v) { acrc = crc32(&v, sizeof v, acrc); };
  const auto fold_f64 = [&](double v) { acrc = crc32(&v, sizeof v, acrc); };
  net.attach(kProbe, net::DatagramHandler([&](const net::Datagram& dg) {
    auto env = wire::decode_envelope(dg.data(), dg.size());
    if (!env.ok()) return;
    if (const auto* pr = std::get_if<wire::PosQueryRes>(&env.value().msg)) {
      fold_u64(pr->req_id);
      fold_u64(pr->oid.value);
      fold_u64(pr->found ? 1 : 0);
      fold_u64(pr->agent.value);
      fold_f64(pr->ld.pos.x);
      fold_f64(pr->ld.pos.y);
      fold_f64(pr->ld.acc);
    } else if (const auto* rr = std::get_if<wire::RangeQueryRes>(&env.value().msg)) {
      std::vector<wire::ObjectResult> results = rr->results.to_vector();
      std::sort(results.begin(), results.end(),
                [](const wire::ObjectResult& a, const wire::ObjectResult& b) {
                  return a.oid.value < b.oid.value;
                });
      fold_u64(rr->req_id);
      fold_u64(rr->complete ? 1 : 0);
      fold_u64(results.size());
      for (const wire::ObjectResult& r : results) {
        fold_u64(r.oid.value);
        fold_f64(r.ld.pos.x);
        fold_f64(r.ld.pos.y);
        fold_f64(r.ld.acc);
      }
    }
  }));

  const std::size_t stride = std::max<std::size_t>(1, n / std::max<std::size_t>(
                                                          1, opts.pos_probes));
  std::uint64_t req_id = 1;
  for (std::size_t i = 0; i < n; i += stride) {
    wire::PosQueryReq q;
    q.oid = scn.oid(i);
    q.req_id = req_id;
    net.send(kProbe, leaves[req_id % leaves.size()], wire::encode_envelope(kProbe, q));
    net.run_until_idle();
    ++req_id;
  }
  {
    wire::PosQueryReq q;  // unknown object: deterministic not-found path
    q.oid = ObjectId{0xffffffffff00ULL};
    q.req_id = req_id++;
    net.send(kProbe, leaves[0], wire::encode_envelope(kProbe, q));
    net.run_until_idle();
  }
  for (std::size_t li = 0; li < leaves.size(); ++li) {
    wire::RangeQueryReq q;
    q.area = geo::Polygon::from_rect(
        deployment.server(leaves[li]).config().sa.bounding_box());
    q.req_acc = 50.0;
    q.req_overlap = 0.5;
    q.req_id = 1000000 + li;
    net.send(kProbe, leaves[li], wire::encode_envelope(kProbe, q));
    net.run_until_idle();
  }
  net.detach(kProbe);
  net.set_tracer(nullptr);

  res.answer_crc = acrc;
  res.messages = net.messages_sent();
  res.bytes = net.bytes_sent();
  res.virtual_ms = static_cast<double>(net.now()) / 1000.0;
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  return res;
}

}  // namespace locs::sim
