// A deployment over SimNetwork under the paper's LAN model, plus the
// benchmark's client node and the oracle: the driver's own record of every
// object's position, accuracy and agent.
#pragma once

#include <memory>
#include <vector>

#include "bench.hpp"
#include "core/deployment.hpp"
#include "util/crc32.hpp"
#include "wire/messages.hpp"

namespace perfbench {

inline constexpr NodeId kDriverNode{99};

/// Running CRC over canonicalized answers.
struct AnswerCrc {
  std::uint32_t v = 0;
  void u64(std::uint64_t x) { v = crc32(&x, sizeof x, v); }
  void f64(double x) { v = crc32(&x, sizeof x, v); }
  void pt(geo::Point p) {
    f64(p.x);
    f64(p.y);
  }
};

/// Fingerprint of one set-up plus its check prefix: the same seed must give
/// the same fingerprint, traced or not.
struct Check {
  std::uint32_t crc = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ops = 0;
  double lan_p50_us = 0.0;
};

/// The answer to the one outstanding client request.
struct Reply {
  bool done = false;
  wire::MsgType type = wire::MsgType::kRegisterReq;
  std::int64_t at_ns = 0;
  TimePoint at_virtual = 0;
  std::uint64_t req_id = 0;
  ObjectId oid;
  NodeId agent;
  double acc = 0.0;
  bool found = false;
  bool complete = false;
  core::LocationDescriptor ld;
  core::ObjectResult nearest;
  std::vector<core::ObjectResult> results;
};

class SimWorld {
 public:
  /// `tracer`/`counters` non-null builds the traced variant: the Transport
  /// and SpatialIndex decorators sit between the deployment and the library.
  SimWorld(std::uint64_t net_seed, core::HierarchySpec spec, Tracer* tracer,
           IndexCounters* counters);
  ~SimWorld();
  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  net::Transport& transport() {
    return shim_ ? static_cast<net::Transport&>(*shim_) : net_;
  }
  net::SimNetwork& net() { return net_; }
  core::Deployment& deployment() { return *deployment_; }
  const core::HierarchySpec& spec() const { return spec_; }
  Tracer& tracer() { return *tracer_; }

  /// Registers one object per position (ObjectId = index + 1) through the
  /// client node and waits until every RegisterRes arrived.
  bool register_all(const std::vector<geo::Point>& positions);

  std::size_t leaf_index(NodeId leaf) const { return leaf_index_[leaf.value]; }
  NodeId leaf_for(geo::Point p) const { return spec_.leaf_for(p); }
  bool covers(NodeId leaf, geo::Point p) const {
    const core::HierarchySpec::Node* n = spec_.find(leaf);
    return n != nullptr && n->cfg.is_leaf() && n->cfg.covers(p);
  }

  struct Timed {
    bool answered;
    double wall_us;
    double lan_us;
    std::int64_t active_ns;
  };
  /// Runs one closed-loop client operation: issue(), deliver until the
  /// answer reaches the client node, then drain the follow-up traffic
  /// (path repair). Latency stops at the answer; active time at idle.
  template <typename Issue>
  Timed timed(std::uint32_t op_span, Issue&& issue) {
    reply_.done = false;
    tracer_->begin(op_span);
    const TimePoint v0 = net_.now();
    const std::int64_t t0 = now_ns();
    issue();
    while (!reply_.done) {
      Span s(*tracer_, step_span_);
      if (!net_.step()) break;
    }
    const bool answered = reply_.done;
    const std::int64_t t_answer = answered ? reply_.at_ns : now_ns();
    const TimePoint v_answer = answered ? reply_.at_virtual : net_.now();
    drain();
    const std::int64_t t1 = now_ns();
    tracer_->end();
    return {answered, static_cast<double>(t_answer - t0) / 1e3,
            static_cast<double>(v_answer - v0), t1 - t0};
  }
  /// Delivers every queued datagram, one step span each.
  void drain() {
    for (;;) {
      Span s(*tracer_, step_span_);
      if (!net_.step()) break;
    }
  }

  const Reply& reply() const { return reply_; }
  std::uint64_t next_req_id() { return ++req_counter_; }

  /// Copies every delivered datagram (bounded) for the wire replay.
  void set_capture(bool on);
  const std::vector<std::vector<std::uint8_t>>& captured() const { return captured_; }

  // The oracle's model, indexed by ObjectId - 1.
  std::vector<geo::Point> pos;
  std::vector<double> acc;
  std::vector<NodeId> agent;
  std::vector<NodeId> leaves;  // sorted
  std::vector<geo::Rect> leaf_rect;
  std::uint64_t registration_failures = 0;

 private:
  void on_reply(const net::Datagram& dg);

  net::SimNetwork net_;
  std::unique_ptr<TracingTransport> shim_;
  core::HierarchySpec spec_;
  Tracer idle_tracer_;  // never enabled: untraced runs pay one branch per span
  Tracer* tracer_;
  std::unique_ptr<core::Deployment> deployment_;
  std::vector<std::size_t> leaf_index_;
  std::uint32_t step_span_ = 0;
  wire::Envelope scratch_;
  Reply reply_;
  std::uint64_t req_counter_ = 0;
  std::uint64_t registered_ = 0;
  std::vector<std::vector<std::uint8_t>> captured_;
};

/// Brute-force range answer over the oracle's model, sorted by ObjectId.
std::vector<core::ObjectResult> oracle_range(const SimWorld& w, const geo::Polygon& area,
                                             double req_acc, double req_overlap);
/// Sorts results by ObjectId (answers are compared as sets).
void sort_by_oid(std::vector<core::ObjectResult>& v);

}  // namespace perfbench
