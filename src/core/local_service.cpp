#include "core/local_service.hpp"

namespace locs::core {

namespace {
/// Client node ids live far above server ids.
constexpr std::uint32_t kFirstClientNode = 1u << 20;
}  // namespace

LocalLocationService::LocalLocationService(Config cfg)
    : cfg_(cfg), net_(cfg.network), next_node_id_(kFirstClientNode) {
  // Field assignment, not positional aggregate init: a field added to
  // Deployment::Config must not silently shift the others.
  Deployment::Config dep_cfg;
  dep_cfg.server = cfg_.server;
  deployment_ = std::make_unique<Deployment>(
      net_, net_.clock(),
      HierarchyBuilder::grid(cfg_.area, cfg_.fanout_x, cfg_.fanout_y, cfg_.levels),
      dep_cfg);
  query_client_ = std::make_unique<QueryClient>(alloc_node_id(), net_, net_.clock());
  if (cfg_.coalesce_updates) {
    coalescer_ = std::make_unique<UpdateCoalescer>(alloc_node_id(), net_,
                                                   net_.clock(), cfg_.coalescing);
    // The leaf replies to the coalescer's node; fan acks, agent changes and
    // unknown-object answers back out to the owning TrackedObjects.
    coalescer_->set_on_ack([this](ObjectId oid, double acc) {
      const auto it = objects_.find(oid);
      if (it != objects_.end()) it->second->apply_update_ack(acc);
    });
    coalescer_->set_on_agent_changed(
        [this](ObjectId oid, NodeId new_agent, double acc) {
          const auto it = objects_.find(oid);
          if (it != objects_.end()) it->second->apply_agent_changed(new_agent, acc);
        });
    coalescer_->set_on_unknown_object([this](ObjectId oid, NodeId leaf) {
      const auto it = objects_.find(oid);
      if (it != objects_.end()) it->second->apply_unknown_object(leaf);
    });
  }
}

void LocalLocationService::run() { net_.run_until_idle(); }

Result<double> LocalLocationService::register_object(ObjectId oid, geo::Point pos,
                                                     double sensor_acc,
                                                     AccuracyRange range) {
  const NodeId entry = deployment_->entry_leaf_for(pos);
  if (!entry.valid()) {
    return Status(StatusCode::kOutOfRange, "position outside the service area");
  }
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    auto obj = std::make_unique<TrackedObject>(alloc_node_id(), oid, net_,
                                               net_.clock());
    if (coalescer_) {
      obj->set_update_sink([this](NodeId agent, const Sighting& s) {
        coalescer_->enqueue(agent, s);
      });
    }
    it = objects_.emplace(oid, std::move(obj)).first;
  }
  TrackedObject& obj = *it->second;
  obj.start_register(entry, pos, sensor_acc, range);
  run();
  if (obj.state() == TrackedObject::State::kTracked) return obj.offered_acc();
  if (obj.state() == TrackedObject::State::kRegistering) {
    // No answer came (a lost datagram): the leaf may hold the record, and
    // the object's next feed_position sends the registration again.
    return Status(StatusCode::kUnavailable, "registration unanswered");
  }
  const double best = obj.register_failed_acc();
  objects_.erase(it);
  if (best < 0.0) {
    return Status(StatusCode::kOutOfRange, "position outside the service area");
  }
  return Status(StatusCode::kFailedPrecondition,
                "requested accuracy unavailable; best offer " +
                    std::to_string(best) + " m");
}

bool LocalLocationService::feed_position(ObjectId oid, geo::Point pos) {
  const auto it = objects_.find(oid);
  if (it == objects_.end()) return false;
  const bool sent = it->second->feed_position(pos);
  if (sent) run();
  if (it->second->state() == TrackedObject::State::kDeregistered) {
    objects_.erase(it);
  }
  return sent;
}

Result<double> LocalLocationService::change_accuracy(ObjectId oid,
                                                     AccuracyRange range) {
  const auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status(StatusCode::kNotFound, "object not tracked");
  }
  it->second->request_change_acc(range);
  run();
  return it->second->offered_acc();
}

void LocalLocationService::deregister(ObjectId oid) {
  const auto it = objects_.find(oid);
  if (it == objects_.end()) return;
  it->second->deregister();
  run();
  objects_.erase(it);
}

std::optional<LocationDescriptor> LocalLocationService::position(ObjectId oid) {
  // Entry server: the agent-side leaf of the querying client is arbitrary
  // here; use the leaf responsible for the area the object registered in if
  // known, else the first leaf.
  NodeId entry = kNoNode;
  const auto it = objects_.find(oid);
  if (it != objects_.end()) entry = it->second->agent();
  if (!entry.valid()) entry = deployment_->leaf_ids().front();
  query_client_->set_entry(entry);
  const std::uint64_t id = query_client_->send_pos_query(oid);
  run();
  const auto res = query_client_->take_pos(id);
  if (!res || !res->found) return std::nullopt;
  return res->ld;
}

std::vector<ObjectResult> LocalLocationService::range_query(const geo::Polygon& area,
                                                            double req_acc,
                                                            double req_overlap) {
  NodeId entry = deployment_->entry_leaf_for(area.bounding_box().center());
  if (!entry.valid()) entry = deployment_->leaf_ids().front();
  query_client_->set_entry(entry);
  const std::uint64_t id = query_client_->send_range_query(area, req_acc, req_overlap);
  run();
  auto res = query_client_->take_range(id);
  if (!res) return {};
  return std::move(res->objects);
}

QueryClient::NNResult LocalLocationService::neighbor_query(geo::Point p,
                                                           double req_acc,
                                                           double near_qual) {
  NodeId entry = deployment_->entry_leaf_for(p);
  if (!entry.valid()) entry = deployment_->leaf_ids().front();
  query_client_->set_entry(entry);
  const std::uint64_t id = query_client_->send_nn_query(p, req_acc, near_qual);
  run();
  auto res = query_client_->take_nn(id);
  return res ? std::move(*res) : QueryClient::NNResult{};
}

std::uint64_t LocalLocationService::subscribe_area_count(const geo::Polygon& area,
                                                         std::uint32_t threshold) {
  NodeId entry = deployment_->entry_leaf_for(area.bounding_box().center());
  if (!entry.valid()) entry = deployment_->leaf_ids().front();
  query_client_->set_entry(entry);
  const std::uint64_t sub = query_client_->subscribe_area_count(area, threshold);
  run();
  return sub;
}

std::uint64_t LocalLocationService::subscribe_proximity(ObjectId a, ObjectId b,
                                                        double dist) {
  query_client_->set_entry(deployment_->leaf_ids().front());
  const std::uint64_t sub = query_client_->subscribe_proximity(a, b, dist);
  run();
  return sub;
}

void LocalLocationService::unsubscribe(std::uint64_t sub_id) {
  query_client_->unsubscribe(sub_id);
  run();
}

std::vector<wire::EventNotify> LocalLocationService::poll_events() {
  run();
  return query_client_->take_events();
}

void LocalLocationService::advance_time(Duration d) {
  // Advance in slices so expiry and timeout sweeps interleave with message
  // deliveries roughly the way wall-clock time would.
  constexpr int kSlices = 10;
  const Duration slice = d / kSlices;
  for (int i = 0; i < kSlices; ++i) {
    net_.clock().advance(slice);
    if (coalescer_) coalescer_->tick(net_.now());
    deployment_->tick_all(net_.now());
    run();
  }
}

void LocalLocationService::flush_updates() {
  if (!coalescer_) return;
  coalescer_->flush_all();
  run();
}

bool LocalLocationService::is_tracked(ObjectId oid) const {
  const auto it = objects_.find(oid);
  return it != objects_.end() && it->second->tracked();
}

NodeId LocalLocationService::agent_of(ObjectId oid) const {
  const auto it = objects_.find(oid);
  return it == objects_.end() ? kNoNode : it->second->agent();
}

double LocalLocationService::offered_acc_of(ObjectId oid) const {
  const auto it = objects_.find(oid);
  return it == objects_.end() ? 0.0 : it->second->offered_acc();
}

}  // namespace locs::core
