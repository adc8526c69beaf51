#include "core/client.hpp"

#include <chrono>

namespace locs::core {

namespace wm = locs::wire;

namespace {
/// Resend an unacknowledged update or registration after this long (on the
/// next sensor feed).
constexpr Duration kUpdateRetry = seconds(2);
}  // namespace

// --------------------------------------------------------------------------
// TrackedObject

TrackedObject::TrackedObject(NodeId self, ObjectId oid, net::Transport& net,
                             Clock& clock)
    : self_(self), oid_(oid), net_(net), clock_(clock) {
  net_.attach(self_, [this](const std::uint8_t* data, std::size_t len) {
    handle(data, len);
  });
}

TrackedObject::~TrackedObject() { net_.detach(self_); }

void TrackedObject::start_register(NodeId entry_server, geo::Point pos,
                                   double sensor_acc, AccuracyRange range) {
  std::lock_guard<std::mutex> lock(mu_);
  sensor_acc_ = sensor_acc;
  acc_range_ = range;
  last_fed_pos_ = pos;
  send_register(entry_server);
}

void TrackedObject::send_register(NodeId to) {
  state_ = State::kRegistering;
  register_to_ = to;
  wm::RegisterReq req;
  req.s = Sighting{oid_, clock_.now(), last_fed_pos_, sensor_acc_};
  req.acc_range = acc_range_;
  req.reg_inst = self_;
  req.req_id = ++req_counter_;
  last_sent_pos_ = last_fed_pos_;
  last_send_time_ = clock_.now();
  send_msg(to, req);
}

bool TrackedObject::feed_position(geo::Point pos) {
  std::lock_guard<std::mutex> lock(mu_);
  last_fed_pos_ = pos;
  const auto retry_due = [&] { return clock_.now() - last_send_time_ >= kUpdateRetry; };
  if (state_ == State::kRegistering) {
    // A lost RegisterReq or RegisterRes would leave us registering for good.
    if (!retry_due()) return false;
    send_register(register_to_);
    return true;
  }
  if (state_ != State::kTracked) return false;
  const bool threshold_crossed =
      geo::distance(pos, last_sent_pos_) > offered_acc_;
  const bool retry = update_pending_ && retry_due();
  if (!threshold_crossed && !retry) return false;
  send_update(pos);
  return true;
}

void TrackedObject::send_update(geo::Point pos) {
  const Sighting s{oid_, clock_.now(), pos, sensor_acc_};
  last_sent_pos_ = pos;
  last_send_time_ = clock_.now();
  update_pending_ = true;
  ++updates_sent_;
  if (update_sink_) {
    update_sink_(agent_, s);  // coalescing stage owns the actual send
  } else {
    send_msg(agent_, wm::UpdateReq{s});
  }
}

void TrackedObject::set_update_sink(UpdateSink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  update_sink_ = std::move(sink);
}

void TrackedObject::apply_update_ack(double offered_acc) {
  std::lock_guard<std::mutex> lock(mu_);
  apply_update_ack_locked(offered_acc);
}

void TrackedObject::apply_update_ack_locked(double offered_acc) {
  update_pending_ = false;
  offered_acc_ = offered_acc;
}

void TrackedObject::apply_agent_changed(NodeId new_agent, double offered_acc) {
  std::lock_guard<std::mutex> lock(mu_);
  apply_agent_changed_locked(new_agent, offered_acc);
}

void TrackedObject::apply_agent_changed_locked(NodeId new_agent,
                                               double offered_acc) {
  update_pending_ = false;
  if (new_agent.valid()) {
    agent_ = new_agent;
    offered_acc_ = offered_acc;
    ++handovers_observed_;
    return;
  }
  // Moved out of the root service area: automatically deregistered.
  state_ = State::kDeregistered;
  agent_ = kNoNode;
}

void TrackedObject::apply_unknown_object(NodeId leaf) {
  std::lock_guard<std::mutex> lock(mu_);
  apply_unknown_object_locked(leaf);
}

void TrackedObject::apply_unknown_object_locked(NodeId leaf) {
  if (state_ != State::kTracked || leaf != agent_) return;
  // Our agent lost the record: rebuild the registration from scratch
  // through it. The registration carries the last fed position, so a move
  // out of the agent's area goes up the hierarchy to the right leaf.
  ++reregistrations_;
  update_pending_ = false;
  send_register(agent_);
}

void TrackedObject::request_change_acc(AccuracyRange range) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != State::kTracked) return;
  send_msg(agent_, wm::ChangeAccReq{oid_, range, ++req_counter_});
}

void TrackedObject::deregister() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != State::kTracked) return;
  send_msg(agent_, wm::DeregisterReq{oid_});
  state_ = State::kDeregistered;
}

void TrackedObject::handle(const std::uint8_t* data, std::size_t len) {
  // rx_scratch_ needs no lock (one receive context per node), but the state
  // the visitor mutates below is shared with the feeding thread.
  if (!wm::decode_envelope_into(rx_scratch_, data, len).is_ok()) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        // Only the answer to the latest RegisterReq counts: an earlier
        // attempt's answer may arrive after a retry.
        if constexpr (std::is_same_v<T, wm::RegisterRes>) {
          if (m.req_id != req_counter_) return;
          agent_ = m.agent;
          offered_acc_ = m.offered_acc;
          state_ = State::kTracked;
        } else if constexpr (std::is_same_v<T, wm::RegisterFailed>) {
          if (m.req_id != req_counter_) return;
          register_failed_acc_ = m.best_acc;
          state_ = State::kFailed;
        } else if constexpr (std::is_same_v<T, wm::UpdateAck>) {
          if (m.oid == oid_) apply_update_ack_locked(m.offered_acc);
        } else if constexpr (std::is_same_v<T, wm::AgentChanged>) {
          if (m.oid != oid_) return;
          apply_agent_changed_locked(m.new_agent, m.offered_acc);
        } else if constexpr (std::is_same_v<T, wm::UnknownObject>) {
          if (m.oid == oid_) apply_unknown_object_locked(rx_scratch_.src);
        } else if constexpr (std::is_same_v<T, wm::NotifyAvailAcc>) {
          if (m.oid == oid_) offered_acc_ = m.offered_acc;
        } else if constexpr (std::is_same_v<T, wm::ChangeAccRes>) {
          if (m.ok) offered_acc_ = m.offered_acc;
        } else if constexpr (std::is_same_v<T, wm::BatchedRefreshReq>) {
          // Refresh request (§5): answer if our oid is listed (clients
          // owning one object get single-entry batches; gateways fan out).
          if (state_ != State::kTracked) return;
          auto oids = m.oids.items();
          while (const auto oid = oids.next()) {
            if (oid->value != oid_) continue;
            ++refreshes_answered_;
            send_update(last_fed_pos_);
            break;
          }
        }
      },
      rx_scratch_.msg);
}

// --------------------------------------------------------------------------
// QueryClient

QueryClient::QueryClient(NodeId self, net::Transport& net, Clock& clock)
    : self_(self), net_(net), clock_(clock) {
  net_.attach(self_, [this](const std::uint8_t* data, std::size_t len) {
    handle(data, len);
  });
}

QueryClient::~QueryClient() { net_.detach(self_); }

std::uint64_t QueryClient::next_req_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++req_counter_;
}

void QueryClient::enable_position_cache(double max_speed,
                                        double max_acceptable_acc) {
  std::lock_guard<std::mutex> lock(mu_);
  cache_enabled_ = true;
  cache_max_speed_ = max_speed;
  cache_max_acc_ = max_acceptable_acc;
}

std::uint64_t QueryClient::send_pos_query(ObjectId oid) {
  const std::uint64_t id = next_req_id();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cache_enabled_) {
      const auto cached = position_cache_.find(oid, clock_.now(), cache_max_speed_,
                                               cache_max_acc_);
      if (cached) {
        // Served locally: the result is immediately available to take_pos.
        ++cache_hits_;
        pos_results_[id] = PosResult{true, *cached};
        cv_.notify_all();
        return id;
      }
    }
    pos_targets_[id] = oid;
  }
  send_msg(entry_, wm::PosQueryReq{oid, id});
  return id;
}

std::uint64_t QueryClient::send_range_query(const geo::Polygon& area, double req_acc,
                                            double req_overlap) {
  const std::uint64_t id = next_req_id();
  send_msg(entry_, wm::RangeQueryReq{area, req_acc, req_overlap, id});
  return id;
}

std::uint64_t QueryClient::send_nn_query(geo::Point p, double req_acc,
                                         double near_qual) {
  const std::uint64_t id = next_req_id();
  send_msg(entry_, wm::NNQueryReq{p, req_acc, near_qual, id});
  return id;
}

std::optional<QueryClient::PosResult> QueryClient::take_pos(std::uint64_t req_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = pos_results_.find(req_id);
  if (it == pos_results_.end()) return std::nullopt;
  PosResult res = it->second;
  pos_results_.erase(it);
  return res;
}

std::optional<QueryClient::RangeResult> QueryClient::take_range(std::uint64_t req_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = range_results_.find(req_id);
  if (it == range_results_.end()) return std::nullopt;
  RangeResult res = std::move(it->second);
  range_results_.erase(it);
  return res;
}

std::optional<QueryClient::NNResult> QueryClient::take_nn(std::uint64_t req_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = nn_results_.find(req_id);
  if (it == nn_results_.end()) return std::nullopt;
  NNResult res = std::move(it->second);
  nn_results_.erase(it);
  return res;
}

namespace {

/// Blocks on the condition variable until `take` yields a value or the
/// timeout elapses (wall clock; UDP transport only).
template <typename TakeFn>
auto wait_blocking(std::condition_variable& cv, std::mutex& mu, Duration timeout,
                   TakeFn take) -> decltype(take()) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout);
  std::unique_lock<std::mutex> lock(mu);
  for (;;) {
    if (auto res = take()) return res;
    if (cv.wait_until(lock, deadline) == std::cv_status::timeout) {
      return take();
    }
  }
}

}  // namespace

std::optional<QueryClient::PosResult> QueryClient::pos_query_blocking(
    ObjectId oid, Duration timeout) {
  const std::uint64_t id = send_pos_query(oid);
  return wait_blocking(cv_, mu_, timeout, [&]() -> std::optional<PosResult> {
    const auto it = pos_results_.find(id);
    if (it == pos_results_.end()) return std::nullopt;
    PosResult res = it->second;
    pos_results_.erase(it);
    return res;
  });
}

std::optional<QueryClient::RangeResult> QueryClient::range_query_blocking(
    const geo::Polygon& area, double req_acc, double req_overlap, Duration timeout) {
  const std::uint64_t id = send_range_query(area, req_acc, req_overlap);
  return wait_blocking(cv_, mu_, timeout, [&]() -> std::optional<RangeResult> {
    const auto it = range_results_.find(id);
    if (it == range_results_.end()) return std::nullopt;
    RangeResult res = std::move(it->second);
    range_results_.erase(it);
    return res;
  });
}

std::optional<QueryClient::NNResult> QueryClient::nn_query_blocking(
    geo::Point p, double req_acc, double near_qual, Duration timeout) {
  const std::uint64_t id = send_nn_query(p, req_acc, near_qual);
  return wait_blocking(cv_, mu_, timeout, [&]() -> std::optional<NNResult> {
    const auto it = nn_results_.find(id);
    if (it == nn_results_.end()) return std::nullopt;
    NNResult res = std::move(it->second);
    nn_results_.erase(it);
    return res;
  });
}

std::uint64_t QueryClient::subscribe_area_count(const geo::Polygon& area,
                                                std::uint32_t threshold) {
  const std::uint64_t sub_id = (static_cast<std::uint64_t>(self_.value) << 32) |
                               next_req_id();
  wm::EventSubscribe sub;
  sub.sub_id = sub_id;
  sub.kind = wm::PredicateKind::kAreaCount;
  sub.area = area;
  sub.threshold = threshold;
  sub.subscriber = self_;
  send_msg(entry_, sub);
  return sub_id;
}

std::uint64_t QueryClient::subscribe_proximity(ObjectId a, ObjectId b, double dist) {
  const std::uint64_t sub_id = (static_cast<std::uint64_t>(self_.value) << 32) |
                               next_req_id();
  wm::EventSubscribe sub;
  sub.sub_id = sub_id;
  sub.kind = wm::PredicateKind::kProximity;
  sub.obj_a = a;
  sub.obj_b = b;
  sub.dist = dist;
  sub.subscriber = self_;
  send_msg(entry_, sub);
  return sub_id;
}

void QueryClient::unsubscribe(std::uint64_t sub_id) {
  send_msg(entry_, wm::EventUnsubscribe{sub_id});
}

std::vector<wire::EventNotify> QueryClient::take_events() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<wm::EventNotify> out;
  out.swap(events_);
  return out;
}

void QueryClient::handle(const std::uint8_t* data, std::size_t len) {
  // Only the node's single receive thread calls handle(), so the scratch
  // envelope needs no locking; the result maps below do.
  if (!wm::decode_envelope_into(rx_scratch_, data, len).is_ok()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::visit(
        [&](auto& m) {
          using T = std::decay_t<decltype(m)>;
          if constexpr (std::is_same_v<T, wm::PosQueryRes>) {
            pos_results_[m.req_id] = PosResult{m.found, m.ld};
            const auto target = pos_targets_.find(m.req_id);
            if (target != pos_targets_.end()) {
              if (cache_enabled_ && m.found) {
                position_cache_.learn(target->second, m.ld, clock_.now());
              }
              pos_targets_.erase(target);
            }
          } else if constexpr (std::is_same_v<T, wm::RangeQueryRes>) {
            // Client-facing boundary: unpack the packed framing into the
            // owned vectors the application API hands out.
            range_results_[m.req_id] = RangeResult{m.complete, m.results.to_vector()};
          } else if constexpr (std::is_same_v<T, wm::NNQueryRes>) {
            nn_results_[m.req_id] =
                NNResult{m.found, m.nearest, m.near_set.to_vector()};
          } else if constexpr (std::is_same_v<T, wm::EventNotify>) {
            events_.push_back(m);
          }
        },
        rx_scratch_.msg);
  }
  cv_.notify_all();
}

}  // namespace locs::core
