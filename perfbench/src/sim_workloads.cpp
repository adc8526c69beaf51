// The SimNetwork workloads: update_path and query_path on the paper's
// Table-2 world, city_rush on a 4x4-leaf city, and the Table 2 rows in
// virtual time. Everything runs inline on the calling thread with a fixed,
// seeded operation sequence; a block is a fixed amount of work, so wall
// time measures only the CPU cost of the protocol path.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "core/hierarchy_builder.hpp"
#include "core/update_coalescer.hpp"
#include "sim/scenario.hpp"
#include "sim_world.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

// --- generic run structure -------------------------------------------------------

/// Runs whole windows of Bench::kWindowBlocks blocks until `seconds` of
/// wall time have passed (at least three windows). A window holds a fixed
/// operation mix and enough operations for a p99; the end-to-end metrics
/// are medians over windows, so a short slow spell of the host moves one
/// window, not the run. The host-speed factor is measured before every
/// block; a window's timings are scaled by the median of its factors, so
/// no single reference sample decides a window's tail.
template <typename Bench>
void measure(Bench& b, double seconds, Samples& s, Outcome& out, HostSpeed& speed) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    std::array<std::size_t, kOpTypes> first{};
    for (std::size_t t = 0; t < kOpTypes; ++t) first[t] = s.wall_us[t].size();
    std::vector<double> factors;
    std::uint64_t ops = 0;
    std::int64_t active_ns = 0;
    for (std::size_t blk = 0; blk < Bench::kWindowBlocks; ++blk) {
      factors.push_back(speed.calibrate());
      const auto [block_ops, block_ns] = b.block(s, out);
      ops += block_ops;
      active_ns += block_ns;
    }
    const double k = median(factors);
    std::vector<double> window_us;  // every latency of this window
    for (std::size_t t = 0; t < kOpTypes; ++t) {
      for (std::size_t j = first[t]; j < s.wall_us[t].size(); ++j) {
        s.wall_us[t][j] *= k;
        window_us.push_back(s.wall_us[t][j]);
      }
    }
    const double active_s = static_cast<double>(active_ns) * k / 1e9;
    s.window_p50_us.push_back(median(window_us));
    s.window_p99_us.push_back(percentile(window_us, 0.99));
    s.window_ops_s.push_back(static_cast<double>(ops) / std::max(active_s, 1e-9));
    s.blocks += Bench::kWindowBlocks;
    s.ops += ops;
    s.active_s += active_s;
  } while (now_ns() < deadline || s.window_ops_s.size() < 3);
}

bool same(const Check& a, const Check& b) {
  return a.crc == b.crc && a.msgs == b.msgs && a.bytes == b.bytes && a.ops == b.ops &&
         a.lan_p50_us == b.lan_p50_us;
}

std::string describe(const Check& c) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "crc=%08x ops=%llu msgs=%llu bytes=%llu lan_p50=%.1fus",
                c.crc, static_cast<unsigned long long>(c.ops),
                static_cast<unsigned long long>(c.msgs),
                static_cast<unsigned long long>(c.bytes), c.lan_p50_us);
  return buf;
}

/// Counts a traced phase needs besides the span aggregates.
struct TraceTotals {
  std::uint64_t ops = 0;
  std::uint64_t delivered = 0;
  std::uint64_t range_results = 0;
  std::uint64_t nn_answers = 0;
  double handovers = 0.0;
};

void span_metrics(Metrics& m, const Tracer& tr, const IndexCounters& ic,
                  const TraceTotals& t) {
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  const double ops = static_cast<double>(t.ops);
  const Tracer::Agg step = tr.agg_prefix("step");
  const Tracer::Agg leaf = tr.agg_prefix("handle.leaf.");
  const Tracer::Agg inner = tr.agg_prefix("handle.inner.");
  const Tracer::Agg client = tr.agg_prefix("client.");
  const Tracer::Agg index = tr.agg_prefix("index.");
  const Tracer::Agg op = tr.agg_prefix("op.");
  m.set("net.deliver_ns_per_msg", ratio(d(step.self_ns), static_cast<double>(t.delivered)),
        "ns");
  // One mean handler span per message type seen, leaf and inner together.
  std::map<std::string, Tracer::Agg> by_type;
  for (const std::string prefix : {"handle.leaf.", "handle.inner."}) {
    tr.for_each(prefix, [&](const std::string& name, const Tracer::Agg& a) {
      if (a.count == 0) return;
      Tracer::Agg& sum = by_type[name.substr(prefix.size())];
      sum.count += a.count;
      sum.total_ns += a.total_ns;
    });
  }
  for (const auto& [type, a] : by_type) {
    m.set("core.handle_ns." + type, ratio(d(a.total_ns), static_cast<double>(a.count)), "ns");
  }
  m.set("core.leaf_self_ns_per_op", ratio(d(leaf.self_ns), ops), "ns");
  m.set("core.inner_self_ns_per_op", ratio(d(inner.self_ns), ops), "ns");
  m.set("core.handles_per_op", ratio(static_cast<double>(leaf.count + inner.count), ops),
        "count");
  m.set("core.handovers_per_op", ratio(t.handovers, ops), "ratio");
  for (const char* call :
       {"insert", "update", "remove", "query_rect", "query_circle", "k_nearest"}) {
    const Tracer::Agg a = tr.agg_prefix(std::string("index.") + call);
    m.set(std::string("spatial.") + call + "_ns",
          ratio(d(a.total_ns), static_cast<double>(a.count)), "ns");
  }
  m.set("spatial.calls_per_op", ratio(static_cast<double>(ic.calls), ops), "count");
  m.set("spatial.range_candidates_per_result",
        ratio(static_cast<double>(ic.rect_candidates), static_cast<double>(t.range_results)),
        "ratio");
  m.set("spatial.nn_candidates_per_answer",
        ratio(static_cast<double>(ic.circle_candidates + ic.knn_entries),
              static_cast<double>(t.nn_answers)),
        "ratio");
  // Layers: net delivery, core handlers, spatial index, client decode. The
  // rest of an operation span is the driver's own issue and bookkeeping.
  const double layers =
      d(step.self_ns + leaf.self_ns + inner.self_ns + client.self_ns + index.self_ns);
  m.set("trace.coverage", ratio(layers, d(op.total_ns)), "ratio");
}

/// Protocol counters of a traced phase, from Deployment::total_stats().
struct StatsWindow {
  core::LocationServer::Stats s0;
  std::uint64_t msgs0 = 0;

  void begin(SimWorld& w) {
    s0 = w.deployment().total_stats();
    msgs0 = w.net().messages_sent();
  }
  TraceTotals end(SimWorld& w, Metrics& m, std::uint64_t nn_queries) const {
    const core::LocationServer::Stats s1 = w.deployment().total_stats();
    const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(a - b); };
    TraceTotals t;
    t.delivered = w.net().messages_sent() - msgs0;
    t.handovers = d(s1.handovers_initiated, s0.handovers_initiated);
    m.set("core.nn_rings_per_query",
          nn_queries > 0 ? d(s1.nn_rings, s0.nn_rings) / static_cast<double>(nn_queries)
                         : 0.0,
          "count");
    const double pinned = d(s1.sub_res_pinned, s0.sub_res_pinned);
    const double copied = d(s1.sub_res_copied, s0.sub_res_copied);
    m.set("core.sub_res_pinned_frac",
          pinned + copied > 0 ? pinned / (pinned + copied) : 0.0, "ratio");
    return t;
  }
};

/// The shared shape of every SimNetwork workload run:
///  1. set up with seed+1 and run the check prefix (its CRC must differ),
///  2. set up with the seed and run the prefix; set up Bench::kExtraSetups
///     more times for timing only (set-up is short and the host's speed
///     drifts, so setup_s takes a median over many); set up once more and
///     run the prefix, which must match the first bit for bit,
///  3. measure untraced on the last world (the end-to-end metrics),
///  4. with --trace 1: set up a traced world with the seed, check that its
///     prefix matches the untraced one, and measure it for the per-layer
///     metrics.
/// setup_s is the median of every untraced set-up.
template <typename Bench>
Outcome run_sim(const Args& a, const char* why) {
  Outcome out;
  out.note(std::string("why: ") + why);
  HostSpeed speed;
  std::vector<double> setup;
  const auto build = [&](std::uint64_t seed) {
    const double k = speed.calibrate();
    const std::int64_t t0 = now_ns();
    auto b = std::make_unique<Bench>(seed, nullptr, nullptr, out);
    setup.push_back(static_cast<double>(now_ns() - t0) * k / 1e9);
    return b;
  };
  Check other, first, base;
  {
    auto b = build(a.seed + 1);
    other = b->check_prefix(out);
  }
  {
    auto b = build(a.seed);
    first = b->check_prefix(out);
  }
  for (int k = 0; k < Bench::kExtraSetups; ++k) build(a.seed);
  auto b = build(a.seed);
  base = b->check_prefix(out);
  out.note("check prefix, seed " + std::to_string(a.seed) + ":   " + describe(base));
  out.note("check prefix, seed " + std::to_string(a.seed + 1) + ":   " + describe(other));
  if (!same(first, base)) {
    out.fail("determinism: same seed gave " + describe(first) + " then " + describe(base));
  }
  if (other.crc == base.crc) out.fail("determinism: a different seed gave the same CRC");

  const double rss_mb = peak_rss_mb() - speed.table_mb();
  Samples s;
  measure(*b, a.trace ? a.seconds / 2 : a.seconds, s, out, speed);
  fill_e2e(out, s, setup, rss_mb);
  out.note("host speed factor (nominal / measured reference time): " +
           std::to_string(speed.median_factor()));
  if (!a.trace) return out;

  const double untraced_tput = median(s.window_ops_s);
  fill_op_metrics(out.layers, s, out.failed, out.attempted);
  out.layers.set("net.msgs_per_op",
                 static_cast<double>(base.msgs) / static_cast<double>(base.ops), "count");
  out.layers.set("net.bytes_per_op",
                 static_cast<double>(base.bytes) / static_cast<double>(base.ops), "B");
  b.reset();

  Tracer tracer;
  IndexCounters counters;
  auto tb = std::make_unique<Bench>(a.seed, &tracer, &counters, out);
  tb->world().set_capture(true);
  const Check traced = tb->check_prefix(out);
  tb->world().set_capture(false);
  out.note("check prefix, traced: " + describe(traced));
  if (!same(traced, base)) {
    out.fail("shims changed behaviour: untraced " + describe(base) + ", traced " +
             describe(traced));
  }
  replay_wire(out.layers, tb->world().captured());

  counters = IndexCounters{};
  tb->begin_traced();
  tracer.set_enabled(true);
  Samples ts;
  measure(*tb, a.seconds / 2, ts, out, speed);
  tracer.set_enabled(false);
  TraceTotals totals = tb->end_traced(out.layers);
  totals.ops = ts.ops;
  span_metrics(out.layers, tracer, counters, totals);
  out.layers.set("trace.overhead_frac", untraced_tput / median(ts.window_ops_s) - 1.0,
                 "ratio");
  table2_rows(out);

  const std::string path =
      a.trace_dir + "/" + a.workload + "_seed" + std::to_string(a.seed) + ".csv";
  if (tracer.write_csv(path)) {
    out.note("spans: " + std::to_string(tracer.raw_spans()) + " written to " + path);
  }
  return out;
}

// --- Table-2 world: update_path and query_path -------------------------------------

constexpr double kT2Area = 1500.0;
constexpr std::size_t kT2Objects = 10000;

enum class T2Op {
  kUpdateLocal,
  kUpdateCross,
  kPosLocal,
  kPosRemote,
  kRangeLocal1,
  kRangeRemote1,
  kRangeRemote2,
  kRangeRemote4,
  kNN,
};

Op op_type(T2Op op) {
  switch (op) {
    case T2Op::kUpdateLocal:
    case T2Op::kUpdateCross: return Op::kUpdate;
    case T2Op::kPosLocal:
    case T2Op::kPosRemote: return Op::kPos;
    case T2Op::kNN: return Op::kNN;
    default: return Op::kRange;
  }
}

/// Closed loop over the Table-2 world (1 root + 4 leaves, 1.5 km square,
/// 10k objects): one request outstanding at a time, each answer checked
/// against the oracle and folded into the answer CRC.
class Table2Bench {
 public:
  Table2Bench(std::uint64_t seed, Tracer* tracer, IndexCounters* counters, Outcome& out)
      : w_(seed, core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kT2Area, kT2Area}}),
           tracer, counters),
        rng_(seed * 0x9e3779b97f4a7c15ULL + 0x51ed) {
    Rng place(seed);
    std::vector<geo::Point> positions(kT2Objects);
    for (geo::Point& p : positions) p = {place.uniform(0, kT2Area), place.uniform(0, kT2Area)};
    if (!w_.register_all(positions)) out.fail("registration incomplete");
    for (std::size_t k = 0; k < kOpTypes; ++k) {
      op_span_[k] = w_.tracer().intern(std::string("op.") + op_name(static_cast<Op>(k)));
    }
  }

  SimWorld& world() { return w_; }

  /// Issues one operation, checks the answer against the oracle and folds
  /// it into `crc`; samples go to `s`. Returns the time spent in the system.
  std::int64_t run(T2Op op, Samples& s, Outcome& out, AnswerCrc& crc);

  std::uint64_t range_results = 0;
  std::uint64_t nn_answers = 0;
  std::uint64_t nn_queries = 0;

 private:
  NodeId other_leaf(std::size_t idx) { return w_.leaves[(idx + 1 + rng_.next_below(3)) % 4]; }
  SimWorld::Timed update(T2Op op, Outcome& out, AnswerCrc& crc, std::uint32_t span);
  SimWorld::Timed pos_query(T2Op op, Outcome& out, AnswerCrc& crc, std::uint32_t span);
  SimWorld::Timed range_query(T2Op op, Outcome& out, AnswerCrc& crc, std::uint32_t span);
  SimWorld::Timed nn_query(Outcome& out, AnswerCrc& crc, std::uint32_t span);

  SimWorld w_;
  Rng rng_;
  std::array<std::uint32_t, kOpTypes> op_span_{};
};

std::int64_t Table2Bench::run(T2Op op, Samples& s, Outcome& out, AnswerCrc& crc) {
  ++out.attempted;
  const Op type = op_type(op);
  const std::uint32_t span = op_span_[static_cast<std::size_t>(type)];
  SimWorld::Timed t{};
  switch (type) {
    case Op::kUpdate: t = update(op, out, crc, span); break;
    case Op::kPos: t = pos_query(op, out, crc, span); break;
    case Op::kRange: t = range_query(op, out, crc, span); break;
    case Op::kNN: t = nn_query(out, crc, span); break;
  }
  s.wall_us[static_cast<std::size_t>(type)].push_back(t.wall_us);
  s.lan_us.push_back(t.lan_us);
  return t.active_ns;
}

SimWorld::Timed Table2Bench::update(T2Op op, Outcome& out, AnswerCrc& crc,
                                    std::uint32_t span) {
  const std::size_t i = rng_.next_below(w_.pos.size());
  const std::size_t cur = w_.leaf_index(w_.agent[i]);
  const std::size_t dst = op == T2Op::kUpdateCross ? (cur + 1 + rng_.next_below(3)) % 4 : cur;
  const geo::Rect& rect = w_.leaf_rect[dst];
  const geo::Point np{rng_.uniform(rect.min.x + 1, rect.max.x - 1),
                      rng_.uniform(rect.min.y + 1, rect.max.y - 1)};
  const ObjectId oid{i + 1};
  const SimWorld::Timed t = w_.timed(span, [&] {
    net::send_message(w_.transport(), kDriverNode, w_.agent[i],
                      wire::UpdateReq{core::Sighting{oid, 0, np, 5.0}});
  });
  const Reply& r = w_.reply();
  const bool handover = dst != cur;
  const bool ok =
      t.answered && r.oid == oid &&
      (handover ? r.type == wire::MsgType::kAgentChanged && r.agent == w_.leaves[dst]
                : r.type == wire::MsgType::kUpdateAck && r.acc == w_.acc[i]);
  if (!ok) {
    out.fail("update of object " + std::to_string(i + 1) + ": expected " +
             (handover ? "AgentChanged" : "UpdateAck") + " naming leaf " +
             std::to_string(w_.leaves[dst].value));
  }
  w_.pos[i] = np;
  w_.agent[i] = w_.leaves[dst];
  if (t.answered) w_.acc[i] = r.acc;
  crc.u64(oid.value);
  crc.u64(static_cast<std::uint64_t>(r.type));
  crc.u64(r.agent.value);
  crc.f64(r.acc);
  return t;
}

SimWorld::Timed Table2Bench::pos_query(T2Op op, Outcome& out, AnswerCrc& crc,
                                       std::uint32_t span) {
  const std::size_t i = rng_.next_below(w_.pos.size());
  const NodeId entry =
      op == T2Op::kPosLocal ? w_.agent[i] : other_leaf(w_.leaf_index(w_.agent[i]));
  const std::uint64_t id = w_.next_req_id();
  const SimWorld::Timed t = w_.timed(span, [&] {
    net::send_message(w_.transport(), kDriverNode, entry,
                      wire::PosQueryReq{ObjectId{i + 1}, id});
  });
  const Reply& r = w_.reply();
  const bool ok = t.answered && r.type == wire::MsgType::kPosQueryRes && r.req_id == id &&
                  r.found && r.ld.pos == w_.pos[i] && r.ld.acc == w_.acc[i];
  if (!ok) out.fail("position query for object " + std::to_string(i + 1) + " differs from oracle");
  crc.u64(i + 1);
  crc.u64(r.found ? 1 : 0);
  crc.pt(r.ld.pos);
  crc.f64(r.ld.acc);
  return t;
}

SimWorld::Timed Table2Bench::range_query(T2Op op, Outcome& out, AnswerCrc& crc,
                                         std::uint32_t span) {
  const std::size_t home = rng_.next_below(4);
  const geo::Rect& leaf = w_.leaf_rect[home];
  geo::Point center;
  if (op == T2Op::kRangeLocal1 || op == T2Op::kRangeRemote1) {  // inside one leaf
    center = {rng_.uniform(leaf.min.x + 100, leaf.max.x - 100),
              rng_.uniform(leaf.min.y + 100, leaf.max.y - 100)};
  } else if (op == T2Op::kRangeRemote2) {  // straddles one internal boundary
    center = {kT2Area / 2, rng_.uniform(leaf.min.y + 100, leaf.max.y - 100)};
  } else {  // the four-corner point
    center = {kT2Area / 2, kT2Area / 2};
  }
  const NodeId entry = op == T2Op::kRangeLocal1 ? w_.leaves[home] : other_leaf(home);
  wire::RangeQueryReq req;
  req.area = geo::Polygon::from_rect(geo::Rect::from_center(center, 25, 25));
  req.req_acc = 25.0;
  req.req_overlap = 0.5;
  req.req_id = w_.next_req_id();
  const SimWorld::Timed t = w_.timed(
      span, [&] { net::send_message(w_.transport(), kDriverNode, entry, req); });
  const Reply& r = w_.reply();
  std::vector<core::ObjectResult> got = r.results;
  sort_by_oid(got);
  const bool ok = t.answered && r.type == wire::MsgType::kRangeQueryRes &&
                  r.req_id == req.req_id && r.complete &&
                  got == oracle_range(w_, req.area, req.req_acc, req.req_overlap);
  if (!ok) out.fail("range query differs from oracle");
  range_results += got.size();
  crc.u64(got.size());
  for (const core::ObjectResult& o : got) {
    crc.u64(o.oid.value);
    crc.pt(o.ld.pos);
  }
  return t;
}

SimWorld::Timed Table2Bench::nn_query(Outcome& out, AnswerCrc& crc, std::uint32_t span) {
  constexpr double kReqAcc = 50.0;
  const geo::Point p{rng_.uniform(0, kT2Area), rng_.uniform(0, kT2Area)};
  const NodeId entry = w_.leaves[rng_.next_below(4)];
  const std::uint64_t id = w_.next_req_id();
  ++nn_queries;
  const SimWorld::Timed t = w_.timed(span, [&] {
    net::send_message(w_.transport(), kDriverNode, entry,
                      wire::NNQueryReq{p, kReqAcc, 0.0, id});
  });
  std::size_t best = SIZE_MAX;
  double best_d = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < w_.pos.size(); ++i) {
    if (w_.acc[i] > kReqAcc) continue;
    const double d = geo::distance(w_.pos[i], p);
    if (d < best_d) {  // ascending index: a tie keeps the smaller ObjectId
      best_d = d;
      best = i;
    }
  }
  const Reply& r = w_.reply();
  const bool ok = t.answered && r.type == wire::MsgType::kNNQueryRes && r.req_id == id &&
                  r.found && best != SIZE_MAX && r.nearest.oid == ObjectId{best + 1} &&
                  r.nearest.ld.pos == w_.pos[best];
  if (!ok) out.fail("nearest-neighbour query differs from oracle");
  if (t.answered && r.found) ++nn_answers;
  crc.u64(r.found ? r.nearest.oid.value : 0);
  crc.pt(r.nearest.ld.pos);
  return t;
}

/// update_path / query_path: a block is kBlockOps operations drawn by Pick
/// from the seeded stream, a window kWindow blocks; the check prefix is
/// kPrefixOps of them plus kProbes local position queries that check the
/// oracle's model.
template <typename Pick, std::size_t kPrefixOps, std::size_t kBlockOps, std::size_t kProbes,
          std::size_t kWindow>
class Table2Workload {
 public:
  /// ~25 ms each: about half a second of timed set-ups per run.
  static constexpr int kExtraSetups = 20;
  static constexpr std::size_t kWindowBlocks = kWindow;

  Table2Workload(std::uint64_t seed, Tracer* t, IndexCounters* c, Outcome& out)
      : b_(seed, t, c, out), pick_rng_(seed ^ 0x7ab1e2) {}

  SimWorld& world() { return b_.world(); }

  Check check_prefix(Outcome& out) {
    Samples s;
    AnswerCrc crc;
    const std::uint64_t m0 = world().net().messages_sent();
    const std::uint64_t y0 = world().net().bytes_sent();
    for (std::size_t k = 0; k < kPrefixOps; ++k) b_.run(pick_(pick_rng_), s, out, crc);
    for (std::size_t k = 0; k < kProbes; ++k) b_.run(T2Op::kPosLocal, s, out, crc);
    Check c;
    c.crc = crc.v;
    c.msgs = world().net().messages_sent() - m0;
    c.bytes = world().net().bytes_sent() - y0;
    c.ops = kPrefixOps + kProbes;
    c.lan_p50_us = median(s.lan_us);
    return c;
  }

  std::pair<std::uint64_t, std::int64_t> block(Samples& s, Outcome& out) {
    std::int64_t active = 0;
    for (std::size_t k = 0; k < kBlockOps; ++k) {
      active += b_.run(pick_(pick_rng_), s, out, crc_);
    }
    return {kBlockOps, active};
  }

  void begin_traced() {
    window_.begin(world());
    b_.range_results = b_.nn_answers = b_.nn_queries = 0;
  }

  TraceTotals end_traced(Metrics& m) {
    TraceTotals t = window_.end(world(), m, b_.nn_queries);
    t.range_results = b_.range_results;
    t.nn_answers = b_.nn_answers;
    return t;
  }

 private:
  Table2Bench b_;
  Pick pick_;
  Rng pick_rng_;
  AnswerCrc crc_;
  StatsWindow window_;
};

/// ~90 % of moves stay inside the agent leaf; ~10 % cross into another leaf
/// (handover + forwarding-path repair).
struct UpdatePick {
  T2Op operator()(Rng& rng) const {
    return rng.next_below(10) == 0 ? T2Op::kUpdateCross : T2Op::kUpdateLocal;
  }
};

/// The Table 2 query rows: local/remote position queries, range queries
/// over 1, 2 and 4 servers with local and remote entries, and 3 % NN
/// queries from a random entry leaf.
struct QueryPick {
  T2Op operator()(Rng& rng) const {
    const std::uint64_t r = rng.next_below(100);
    if (r < 20) return T2Op::kPosLocal;
    if (r < 40) return T2Op::kPosRemote;
    if (r < 54) return T2Op::kRangeLocal1;
    if (r < 68) return T2Op::kRangeRemote1;
    if (r < 82) return T2Op::kRangeRemote2;
    if (r < 97) return T2Op::kRangeRemote4;
    return T2Op::kNN;
  }
};

// --- city_rush -----------------------------------------------------------------

constexpr std::size_t kCityObjects = 100000;
constexpr int kCityRounds = 8;
constexpr std::size_t kChunk = 512;           // sightings per gateway flush
constexpr std::size_t kQueriesPerRound = 64;  // alternating position / range
constexpr NodeId kGateway{901};

sim::ScenarioParams city_params(std::uint64_t seed) {
  sim::ScenarioParams p;
  p.kind = sim::ScenarioKind::kCommuterRush;
  p.seed = seed;
  p.objects = kCityObjects;
  p.rounds = kCityRounds;
  p.zones = 64;
  return p;
}

/// The commuter rush on a 4x4 leaf grid under one root. Sightings flow
/// through one UpdateCoalescer gateway as BatchedUpdateReqs; between update
/// rounds the driver issues position and range queries and checks them
/// against the scenario's last positions.
class CityRush {
 public:
  /// ~0.4 s each.
  static constexpr int kExtraSetups = 4;
  /// One walk out and back. Departures and arrivals bunch in the middle
  /// rounds, so only whole walks give every window the same work.
  static constexpr std::size_t kWindowBlocks = 2 * (kCityRounds - 1);

  CityRush(std::uint64_t seed, Tracer* tracer, IndexCounters* counters, Outcome& out)
      : scn_(city_params(seed)),
        w_(seed, core::HierarchyBuilder::grid(scn_.params().area, 4, 4, 1), tracer,
           counters),
        rng_(seed * 0x2545f4914f6cdd1dULL + 3) {
    const std::size_t n = scn_.object_count();
    std::vector<geo::Point> positions(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (scn_.oid(i) != ObjectId{i + 1}) out.fail("scenario ObjectIds are not dense");
      positions[i] = scn_.initial_position(i);
    }
    coalescer_ = std::make_unique<core::UpdateCoalescer>(
        kGateway, w_.transport(), w_.net().clock(), core::UpdateCoalescer::Options{});
    coalescer_->set_on_ack(
        [this](ObjectId oid, double acc) { complete(oid, false, NodeId{}, acc); });
    coalescer_->set_on_agent_changed(
        [this](ObjectId oid, NodeId agent, double acc) { complete(oid, true, agent, acc); });
    if (!w_.register_all(positions)) out.fail("registration incomplete");
    w_.deployment().tick_all(w_.net().now());
    w_.net().run_until_idle();
    pending_.assign(n, {});
    issue_ns_.assign(n, 0);
    done_.assign(n, 1);
    Tracer& t = w_.tracer();
    span_update_ = t.intern("op.update");
    span_pos_ = t.intern("op.pos");
    span_range_ = t.intern("op.range");
    span_tick_ = t.intern("op.tick");
  }

  SimWorld& world() { return w_; }

  Check check_prefix(Outcome& out) {
    Samples s;
    AnswerCrc crc;
    const std::uint64_t m0 = w_.net().messages_sent();
    const std::uint64_t y0 = w_.net().bytes_sent();
    const std::uint64_t ops = round(0, s, out, crc).first;
    Check c;
    c.crc = crc.v;
    c.msgs = w_.net().messages_sent() - m0;
    c.bytes = w_.net().bytes_sent() - y0;
    c.ops = ops;
    c.lan_p50_us = median(s.lan_us);
    return c;
  }

  /// One block is one update round plus its queries. Rounds walk the rush
  /// out and back (1..7, 6..0, 1..) so every block sees commuters on the
  /// move and handover storms stay correlated.
  std::pair<std::uint64_t, std::int64_t> block(Samples& s, Outcome& out) {
    const auto k = static_cast<int>(++blocks_ % kWindowBlocks);
    const int r = k < kCityRounds ? k : static_cast<int>(kWindowBlocks) - k;
    return round(r, s, out, crc_);
  }

  void begin_traced() {
    window_.begin(w_);
    co0_ = coalescer_->stats();
    gen_ns_ = 0;
    gen_count_ = range_results_ = 0;
  }

  TraceTotals end_traced(Metrics& m) {
    TraceTotals t = window_.end(w_, m, 0);
    t.range_results = range_results_;
    const core::UpdateCoalescer::Stats co = coalescer_->stats();
    const double batches = static_cast<double>(co.batches_sent - co0_.batches_sent);
    m.set("core.batch_factor",
          batches > 0
              ? static_cast<double>(co.sightings_enqueued - co0_.sightings_enqueued) / batches
              : 0.0,
          "ratio");
    m.set("sim.gen_ns_per_sighting",
          gen_count_ > 0 ? static_cast<double>(gen_ns_) / static_cast<double>(gen_count_)
                         : 0.0,
          "ns");
    return t;
  }

 private:
  void complete(ObjectId oid, bool handover, NodeId agent, double acc) {
    const std::size_t i = oid.value - 1;
    if (i >= done_.size() || done_[i] != 0) return;
    done_[i] = 1;
    ++completed_;
    const geo::Point p = pending_[i];
    // A position on a shared leaf edge is covered by both leaves, so the
    // oracle accepts any agent whose service area covers it.
    const bool ok = handover ? w_.covers(agent, p)
                             : w_.covers(w_.agent[i], p) && acc == w_.acc[i];
    if (!ok) {
      ++mismatches_;
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "update of object %zu to (%.3f, %.3f): %s from agent %u, new agent %u",
                    i + 1, p.x, p.y, handover ? "AgentChanged" : "ack", w_.agent[i].value,
                    agent.value);
      mismatch_ = buf;
    }
    w_.pos[i] = p;
    if (handover) w_.agent[i] = agent;
    w_.acc[i] = acc;
    samples_->wall_us[static_cast<std::size_t>(Op::kUpdate)].push_back(
        static_cast<double>(now_ns() - issue_ns_[i]) / 1e3);
    samples_->lan_us.push_back(static_cast<double>(w_.net().now() - chunk_v0_));
    crc_now_->u64(oid.value);
    crc_now_->u64(handover ? agent.value : 0);
    crc_now_->f64(acc);
  }

  std::pair<std::uint64_t, std::int64_t> round(int r, Samples& s, Outcome& out,
                                               AnswerCrc& crc) {
    samples_ = &s;
    crc_now_ = &crc;
    gen_.clear();
    const std::int64_t g0 = now_ns();
    scn_.step_round(r, [this](std::size_t i, geo::Point p) { gen_.emplace_back(i, p); });
    gen_ns_ += now_ns() - g0;
    gen_count_ += gen_.size();

    std::int64_t active = 0;
    std::uint64_t ops = 0;
    Tracer& tr = w_.tracer();
    for (std::size_t c0 = 0; c0 < gen_.size(); c0 += kChunk) {
      const std::size_t c1 = std::min(gen_.size(), c0 + kChunk);
      for (std::size_t k = c0; k < c1; ++k) done_[gen_[k].first] = 0;
      completed_ = mismatches_ = 0;
      tr.begin(span_update_);
      chunk_v0_ = w_.net().now();
      const std::int64_t t0 = now_ns();
      for (std::size_t k = c0; k < c1; ++k) {
        const auto [i, p] = gen_[k];
        pending_[i] = p;
        issue_ns_[i] = now_ns();
        coalescer_->enqueue(w_.agent[i], core::Sighting{ObjectId{i + 1}, 0, p, 5.0});
      }
      coalescer_->flush_all();
      w_.drain();
      active += now_ns() - t0;
      tr.end();
      out.attempted += c1 - c0;
      ops += completed_;
      for (std::size_t k = completed_; k < c1 - c0; ++k) out.fail("update: no acknowledgement");
      for (std::size_t k = 0; k < mismatches_; ++k) out.fail(mismatch_);
    }
    {
      tr.begin(span_tick_);
      const std::int64_t t0 = now_ns();
      w_.deployment().tick_all(w_.net().now());  // expiry sweeps
      w_.drain();
      active += now_ns() - t0;
      tr.end();
    }
    for (std::size_t q = 0; q < kQueriesPerRound; ++q) {
      ++out.attempted;
      const std::size_t i = rng_.next_below(w_.pos.size());
      const NodeId entry = w_.leaves[rng_.next_below(w_.leaves.size())];
      const Reply& rep = w_.reply();
      SimWorld::Timed t{};
      bool ok = false;
      Op type = Op::kPos;
      if (q % 2 == 0) {
        const std::uint64_t id = w_.next_req_id();
        t = w_.timed(span_pos_, [&] {
          net::send_message(w_.transport(), kDriverNode, entry,
                            wire::PosQueryReq{ObjectId{i + 1}, id});
        });
        ok = t.answered && rep.type == wire::MsgType::kPosQueryRes && rep.req_id == id &&
             rep.found && rep.ld.pos == w_.pos[i] && rep.ld.acc == w_.acc[i];
        crc.u64(i + 1);
        crc.pt(rep.ld.pos);
      } else {
        type = Op::kRange;
        wire::RangeQueryReq req;
        req.area = geo::Polygon::from_rect(geo::Rect::from_center(w_.pos[i], 50, 50));
        req.req_acc = 25.0;
        req.req_overlap = 0.5;
        req.req_id = w_.next_req_id();
        t = w_.timed(span_range_, [&] {
          net::send_message(w_.transport(), kDriverNode, entry, req);
        });
        std::vector<core::ObjectResult> got = rep.results;
        sort_by_oid(got);
        ok = t.answered && rep.type == wire::MsgType::kRangeQueryRes &&
             rep.req_id == req.req_id && rep.complete &&
             got == oracle_range(w_, req.area, req.req_acc, req.req_overlap);
        range_results_ += got.size();
        crc.u64(got.size());
        for (const core::ObjectResult& o : got) crc.u64(o.oid.value);
      }
      if (!ok) out.fail(std::string(op_name(type)) + " query differs from oracle");
      if (t.answered) ++ops;
      s.wall_us[static_cast<std::size_t>(type)].push_back(t.wall_us);
      s.lan_us.push_back(t.lan_us);
      active += t.active_ns;
    }
    return {ops, active};
  }

  sim::Scenario scn_;
  SimWorld w_;
  Rng rng_;
  std::unique_ptr<core::UpdateCoalescer> coalescer_;  // destroyed before w_
  std::vector<std::pair<std::size_t, geo::Point>> gen_;
  std::vector<geo::Point> pending_;
  std::vector<std::int64_t> issue_ns_;
  std::vector<std::uint8_t> done_;
  std::size_t completed_ = 0;
  std::size_t mismatches_ = 0;
  std::string mismatch_;  // the last oracle mismatch, for the report
  TimePoint chunk_v0_ = 0;
  Samples* samples_ = nullptr;
  AnswerCrc* crc_now_ = nullptr;
  AnswerCrc crc_;
  std::uint64_t blocks_ = 0;
  std::int64_t gen_ns_ = 0;
  std::uint64_t gen_count_ = 0;
  std::uint64_t range_results_ = 0;
  std::uint32_t span_update_ = 0, span_pos_ = 0, span_range_ = 0, span_tick_ = 0;
  StatsWindow window_;
  core::UpdateCoalescer::Stats co0_;
};

}  // namespace

Outcome run_update_path(const Args& args) {
  using W = Table2Workload<UpdatePick, 2000, 2000, 256, 50>;  // 100k updates a window
  return run_sim<W>(args,
                    "per-message cost does almost all the work: small-message codec, "
                    "SimNetwork delivery, update/handover dispatch and the quadtree move; "
                    "query and merge code stay idle and the working set fits in cache");
}

Outcome run_query_path(const Args& args) {
  using W = Table2Workload<QueryPick, 1000, 500, 0, 20>;  // 10k queries a window
  return run_sim<W>(args,
                    "read-only: spatial queries, sub-result pinning and merge, and the NN "
                    "expanding ring do the work while the update path is idle");
}

Outcome run_city_rush(const Args& args) {
  return run_sim<CityRush>(args,
                           "reads beside writes on a 10x larger working set: batched "
                           "updates through one gateway, correlated handover storms, "
                           "range and position queries between rounds");
}

void table2_rows(Outcome& out) {
  struct Row {
    const char* name;
    T2Op op;
    const char* paper;
  };
  // Paper figures as quoted in bench/bench_table2_distributed.cpp.
  static const Row rows[] = {
      {"update", T2Op::kUpdateLocal, "1.2 ms"},
      {"local_pos", T2Op::kPosLocal, "2.0 ms"},
      {"remote_pos", T2Op::kPosRemote, "6.3 ms"},
      {"local_range", T2Op::kRangeLocal1, "5.1 ms"},
      {"remote_range_1", T2Op::kRangeRemote1, "13.0 ms"},
      {"remote_range_2", T2Op::kRangeRemote2, "14.6 ms"},
      {"remote_range_4", T2Op::kRangeRemote4, "13.8 ms"},
      {"nn", T2Op::kNN, "not measured"},
  };
  Table2Bench b(2002, nullptr, nullptr, out);
  out.note("Table 2 rows, SimNetwork virtual time (LAN model), median of 32:");
  for (const Row& row : rows) {
    Samples s;
    AnswerCrc crc;
    for (int k = 0; k < 32; ++k) b.run(row.op, s, out, crc);
    const double us = median(s.lan_us);
    out.layers.set(std::string("paper.t2.") + row.name + "_us", us, "us");
    char line[160];
    std::snprintf(line, sizeof line, "  %-15s %9.1f us   (paper: %s)", row.name, us,
                  row.paper);
    out.note(line);
  }
}

}  // namespace perfbench
