// Client-side components: tracked objects and query clients (§3, §6.2).
//
// A TrackedObject implements the paper's simple update protocol: it
// "continuously compares its current position -- as reported by the sensor
// system -- with the position that has been sent most recently to its agent.
// If these positions differ by more than the distance defined by the offered
// accuracy, the tracked object sends a new updateReq" (§6.2). It also follows
// agent changes announced by handover and answers post-recovery refresh
// requests. When its agent answers an update with UnknownObject (the leaf
// lost the record), the object registers again through that agent; the same
// answer from a former agent, to a straggler update, changes nothing. A
// registration left unanswered is sent again, like an update, on the first
// sensor feed after the retry interval.
//
// A QueryClient issues position / range / nearest-neighbor queries and event
// subscriptions against an entry server and collects responses. Results are
// exposed both poll-style (deterministic simulations: run the network, then
// take_*) and blocking (real UDP transport: *_blocking with a timeout).
#pragma once

#include <condition_variable>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/caches.hpp"
#include "core/types.hpp"
#include "net/transport.hpp"
#include "util/clock.hpp"
#include "wire/messages.hpp"

namespace locs::core {

class TrackedObject {
 public:
  enum class State { kIdle, kRegistering, kTracked, kFailed, kDeregistered };

  TrackedObject(NodeId self, ObjectId oid, net::Transport& net, Clock& clock);
  /// Detaches from the transport (no callback can outlive the object).
  ~TrackedObject();

  /// Registers with the LS through `entry_server` (Alg 6-1).
  void start_register(NodeId entry_server, geo::Point pos, double sensor_acc,
                      AccuracyRange range);

  /// Sensor feed: remembers the position and sends an update when the
  /// §6.2 threshold (offered accuracy) is exceeded. While registering, it
  /// sends the registration again, at this position, once the last attempt
  /// has gone unanswered for the retry interval. Returns true if a message
  /// was sent.
  bool feed_position(geo::Point pos);

  /// Requests a different accuracy range from the agent (§3.1 changeAcc).
  void request_change_acc(AccuracyRange range);

  void deregister();

  // -- update coalescing hooks (core/update_coalescer.hpp) --
  /// Routes outgoing updates through `sink` (the coalescer's enqueue)
  /// instead of sending an UpdateReq directly; the leaf then replies to the
  /// coalescer, which fans acks, agent changes and unknown-object answers
  /// back in through the apply_* methods below. Set during setup, before
  /// traffic.
  using UpdateSink = std::function<void(NodeId agent, const Sighting& s)>;
  void set_update_sink(UpdateSink sink);

  /// Applies one acknowledged update (same state transition as UpdateAck).
  void apply_update_ack(double offered_acc);
  /// Applies an agent change (same state transition as AgentChanged; an
  /// invalid `new_agent` means the object left the LS and is deregistered).
  void apply_agent_changed(NodeId new_agent, double offered_acc);
  /// Applies `leaf`'s UnknownObject answer (same transition as the message):
  /// a tracked object whose agent is `leaf` registers again through it, at
  /// its last fed position; otherwise nothing changes.
  void apply_unknown_object(NodeId leaf);

  // Accessors lock: over UDP the receive thread mutates this state while
  // the feeding/test thread polls it (same discipline as QueryClient).
  State state() const { return locked(state_); }
  bool tracked() const { return state() == State::kTracked; }
  NodeId agent() const { return locked(agent_); }
  double offered_acc() const { return locked(offered_acc_); }
  double register_failed_acc() const { return locked(register_failed_acc_); }
  NodeId node() const { return self_; }
  ObjectId oid() const { return oid_; }
  /// True while an update has been sent but not yet acknowledged.
  bool update_pending() const { return locked(update_pending_); }
  std::uint64_t updates_sent() const { return locked(updates_sent_); }
  std::uint64_t handovers_observed() const { return locked(handovers_observed_); }
  std::uint64_t refreshes_answered() const { return locked(refreshes_answered_); }
  std::uint64_t reregistrations() const { return locked(reregistrations_); }

 private:
  void handle(const std::uint8_t* data, std::size_t len);
  /// Every RegisterReq: the first, the re-registration after UnknownObject
  /// and their retries, all at the last fed position.
  void send_register(NodeId to);
  void send_update(geo::Point pos);
  void apply_update_ack_locked(double offered_acc);
  void apply_agent_changed_locked(NodeId new_agent, double offered_acc);
  void apply_unknown_object_locked(NodeId leaf);

  /// Encodes into a pooled transport buffer and sends (zero allocations in
  /// steady state; see net/buffer_pool.hpp).
  template <typename M>
  void send_msg(NodeId to, const M& msg) {
    net::send_message(net_, self_, to, msg);
  }

  template <typename T>
  T locked(const T& field) const {
    std::lock_guard<std::mutex> lock(mu_);
    return field;
  }

  NodeId self_;
  ObjectId oid_;
  net::Transport& net_;
  Clock& clock_;
  UpdateSink update_sink_;  // set before traffic; never mutated afterwards

  /// Guards every field below (receive thread vs. feeding thread).
  mutable std::mutex mu_;
  State state_ = State::kIdle;
  NodeId agent_;
  NodeId register_to_;  // where the pending registration went
  double offered_acc_ = 0.0;
  double sensor_acc_ = 0.0;
  AccuracyRange acc_range_;  // remembered for re-registration
  double register_failed_acc_ = 0.0;
  wire::Envelope rx_scratch_;  // receive-side decode scratch (handle())
  geo::Point last_sent_pos_;
  geo::Point last_fed_pos_;
  bool update_pending_ = false;  // sent but unacknowledged
  TimePoint last_send_time_ = 0;  // of the last update or registration
  std::uint64_t updates_sent_ = 0;
  std::uint64_t handovers_observed_ = 0;
  std::uint64_t refreshes_answered_ = 0;
  std::uint64_t reregistrations_ = 0;
  std::uint64_t req_counter_ = 0;
};

class QueryClient {
 public:
  struct PosResult {
    bool found = false;
    LocationDescriptor ld;
  };
  struct RangeResult {
    bool complete = true;
    std::vector<ObjectResult> objects;
  };
  struct NNResult {
    bool found = false;
    ObjectResult nearest;
    std::vector<ObjectResult> near_set;
  };

  QueryClient(NodeId self, net::Transport& net, Clock& clock);
  /// Detaches from the transport (no callback can outlive the client).
  ~QueryClient();

  void set_entry(NodeId entry_server) { entry_ = entry_server; }
  NodeId entry() const { return entry_; }
  NodeId node() const { return self_; }

  // -- asynchronous issue + poll (simulation style) --
  std::uint64_t send_pos_query(ObjectId oid);
  std::uint64_t send_range_query(const geo::Polygon& area, double req_acc,
                                 double req_overlap);
  std::uint64_t send_nn_query(geo::Point p, double req_acc, double near_qual);

  std::optional<PosResult> take_pos(std::uint64_t req_id);
  std::optional<RangeResult> take_range(std::uint64_t req_id);
  std::optional<NNResult> take_nn(std::uint64_t req_id);

  // -- blocking variants (real transports; not usable with SimNetwork) --
  std::optional<PosResult> pos_query_blocking(ObjectId oid, Duration timeout);
  std::optional<RangeResult> range_query_blocking(const geo::Polygon& area,
                                                  double req_acc, double req_overlap,
                                                  Duration timeout);
  std::optional<NNResult> nn_query_blocking(geo::Point p, double req_acc,
                                            double near_qual, Duration timeout);

  // -- events (extension) --
  std::uint64_t subscribe_area_count(const geo::Polygon& area,
                                     std::uint32_t threshold);
  std::uint64_t subscribe_proximity(ObjectId a, ObjectId b, double dist);
  void unsubscribe(std::uint64_t sub_id);
  std::vector<wire::EventNotify> take_events();

  // -- client-side position caching (§6.5: "similar caching mechanisms can
  //    be used on the clients of the LS") --
  /// Serves repeat position queries from a local cache while the aged
  /// accuracy (acc + max_speed * elapsed) stays within max_acceptable_acc.
  void enable_position_cache(double max_speed, double max_acceptable_acc);
  std::uint64_t position_cache_hits() const { return cache_hits_; }

 private:
  void handle(const std::uint8_t* data, std::size_t len);
  std::uint64_t next_req_id();

  /// Encodes into a pooled transport buffer and sends (zero allocations in
  /// steady state; see net/buffer_pool.hpp).
  template <typename M>
  void send_msg(NodeId to, const M& msg) {
    net::send_message(net_, self_, to, msg);
  }

  NodeId self_;
  net::Transport& net_;
  Clock& clock_;
  NodeId entry_;

  wire::Envelope rx_scratch_;  // receive-side decode scratch (handle())
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t req_counter_ = 0;
  std::unordered_map<std::uint64_t, PosResult> pos_results_;
  std::unordered_map<std::uint64_t, RangeResult> range_results_;
  std::unordered_map<std::uint64_t, NNResult> nn_results_;
  std::vector<wire::EventNotify> events_;
  // Outstanding position queries, for cache learning on response.
  std::unordered_map<std::uint64_t, ObjectId> pos_targets_;
  bool cache_enabled_ = false;
  double cache_max_speed_ = 0.0;
  double cache_max_acc_ = 0.0;
  PositionCache position_cache_;
  std::uint64_t cache_hits_ = 0;
};

}  // namespace locs::core
