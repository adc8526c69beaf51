#include "sim_world.hpp"

#include <algorithm>

#include "store/sighting_db.hpp"

namespace perfbench {

namespace {

/// The paper's LAN: 250 us one way + 80 us per KiB, no jitter -- virtual
/// response times are then a deterministic function of the message flow.
net::SimNetwork::Options lan_model(std::uint64_t seed) {
  net::SimNetwork::Options o;
  o.base_latency = microseconds(250);
  o.per_kilobyte = microseconds(80);
  o.jitter_frac = 0.0;
  o.seed = seed;
  return o;
}

constexpr std::size_t kCaptureCap = 20000;

}  // namespace

SimWorld::SimWorld(std::uint64_t net_seed, core::HierarchySpec spec, Tracer* tracer,
                   IndexCounters* counters)
    : net_(lan_model(net_seed)),
      spec_(std::move(spec)),
      tracer_(tracer != nullptr ? tracer : &idle_tracer_) {
  core::Deployment::Config cfg;
  if (tracer != nullptr) {
    shim_ = std::make_unique<TracingTransport>(net_, *tracer, [this](NodeId id) {
      const core::HierarchySpec::Node* n = spec_.find(id);
      if (n == nullptr) return TracingTransport::Role::kClient;
      return n->cfg.is_leaf() ? TracingTransport::Role::kLeaf
                              : TracingTransport::Role::kInner;
    });
    cfg.index_factory = tracing_index_factory(*tracer, *counters);
  }
  step_span_ = tracer_->intern("step");
  deployment_ =
      std::make_unique<core::Deployment>(transport(), net_.clock(), spec_, cfg);
  leaves = deployment_->leaf_ids();
  std::sort(leaves.begin(), leaves.end());
  for (const NodeId leaf : leaves) {
    leaf_rect.push_back(spec_.find(leaf)->cfg.sa.bounding_box());
    if (leaf_index_.size() <= leaf.value) leaf_index_.resize(leaf.value + 1, 0);
    leaf_index_[leaf.value] = leaf_rect.size() - 1;
  }
  transport().attach(kDriverNode, net::DatagramHandler([this](const net::Datagram& dg) {
                       on_reply(dg);
                     }));
}

SimWorld::~SimWorld() {
  // Servers detach first; the drain then recycles queued buffers into the
  // pools (some owned by the shim) while those are still alive.
  deployment_.reset();
  transport().detach(kDriverNode);
  net_.set_tracer(nullptr);
  net_.run_until_idle();
}

void SimWorld::set_capture(bool on) {
  if (!on) {
    net_.set_tracer(nullptr);
    return;
  }
  net_.set_tracer([this](TimePoint, NodeId, NodeId, const wire::Buffer& b) {
    if (captured_.size() < kCaptureCap) captured_.emplace_back(b.begin(), b.end());
  });
}

bool SimWorld::register_all(const std::vector<geo::Point>& positions) {
  const std::size_t n = positions.size();
  pos = positions;
  acc.assign(n, 0.0);
  agent.assign(n, NodeId{});
  registered_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    wire::RegisterReq req;
    req.s = core::Sighting{ObjectId{i + 1}, 0, positions[i], 5.0};
    req.acc_range = {10.0, 100.0};
    req.reg_inst = kDriverNode;
    req.req_id = i + 1;
    net::send_message(transport(), kDriverNode, leaf_for(positions[i]), req);
    // Drain periodically so the event heap stays small.
    if ((i & 0xfff) == 0xfff) net_.run_until_idle();
  }
  net_.run_until_idle();
  return registered_ == n && registration_failures == 0;
}

void SimWorld::on_reply(const net::Datagram& dg) {
  const std::int64_t at = now_ns();
  if (!wire::decode_envelope_into(scratch_, dg.data(), dg.size()).is_ok()) return;
  Reply& r = reply_;
  bool answer = true;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, wire::RegisterRes>) {
          const std::size_t i = m.req_id - 1;
          if (i < acc.size()) {
            acc[i] = m.offered_acc;
            agent[i] = m.agent;
            ++registered_;
          }
          answer = false;
        } else if constexpr (std::is_same_v<T, wire::RegisterFailed>) {
          ++registration_failures;
          answer = false;
        } else if constexpr (std::is_same_v<T, wire::UpdateAck>) {
          r.oid = m.oid;
          r.acc = m.offered_acc;
          r.agent = NodeId{};
        } else if constexpr (std::is_same_v<T, wire::AgentChanged>) {
          r.oid = m.oid;
          r.agent = m.new_agent;
          r.acc = m.offered_acc;
        } else if constexpr (std::is_same_v<T, wire::PosQueryRes>) {
          r.req_id = m.req_id;
          r.oid = m.oid;
          r.found = m.found;
          r.ld = m.ld;
        } else if constexpr (std::is_same_v<T, wire::RangeQueryRes>) {
          r.req_id = m.req_id;
          r.complete = m.complete;
          r.results = m.results.to_vector();
        } else if constexpr (std::is_same_v<T, wire::NNQueryRes>) {
          r.req_id = m.req_id;
          r.found = m.found;
          r.nearest = m.nearest;
        } else {
          answer = false;
        }
        if (answer) r.type = T::kType;
      },
      scratch_.msg);
  if (!answer) return;
  r.done = true;
  r.at_ns = at;
  r.at_virtual = net_.now();
}

void sort_by_oid(std::vector<core::ObjectResult>& v) {
  std::sort(v.begin(), v.end(), [](const core::ObjectResult& a, const core::ObjectResult& b) {
    return a.oid.value < b.oid.value;
  });
}

std::vector<core::ObjectResult> oracle_range(const SimWorld& w, const geo::Polygon& area,
                                             double req_acc, double req_overlap) {
  const double overlap = std::max(req_overlap, store::SightingDb::kMinOverlap);
  const geo::Rect box = area.bounding_box().inflated(req_acc);
  std::vector<core::ObjectResult> out;
  for (std::size_t i = 0; i < w.pos.size(); ++i) {
    if (!box.contains(w.pos[i]) || w.acc[i] > req_acc) continue;
    if (geo::overlap_degree(area, {w.pos[i], w.acc[i]}) >= overlap) {
      out.push_back({ObjectId{i + 1}, {w.pos[i], w.acc[i]}});
    }
  }
  return out;  // ascending ObjectId by construction
}

}  // namespace perfbench
