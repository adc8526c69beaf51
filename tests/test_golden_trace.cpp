// Golden message trace of one fixed protocol run over the deterministic
// SimNetwork (default options, seed 42): 10k registrations on the Table-2
// topology (1500 m x 1500 m, placement Rng(11)), then a short mix of
// updates, handovers, position, range and NN queries. Every delivered
// datagram is fingerprinted as (at, from, to, payload): one crc32 call over
// uint64_t[3]{at, from, to}, then one over the payload, chained from seed 0.
// A second fingerprint folds in only the payloads addressed to the driver:
// the answers a client sees, which hold still when only the internal
// protocol traffic changes.
//
// Any change to the bytes on the wire, to routing or to timing moves these
// numbers. Change the expected values only for an intended protocol change,
// and say so in the change description.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "core/deployment.hpp"
#include "core/hierarchy_builder.hpp"
#include "net/sim_network.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "wire/messages.hpp"

namespace locs {
namespace {

constexpr NodeId kDriver{99};
constexpr std::size_t kObjects = 10'000;
constexpr double kSide = 1500.0;

struct Fingerprint {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
};

class GoldenRun {
 public:
  GoldenRun()
      : dep_(net_, net_.clock(),
             core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kSide, kSide}})) {
    net_.set_tracer([this](TimePoint at, NodeId from, NodeId to, const wire::Buffer& b) {
      const std::uint64_t head[3] = {static_cast<std::uint64_t>(at), from.value,
                                     to.value};
      fp_.crc = crc32(head, sizeof head, fp_.crc);
      fp_.crc = crc32(b.data(), b.size(), fp_.crc);
      ++fp_.msgs;
      fp_.bytes += b.size();
      if (b.size() > 1 && b[1] < per_type_.size()) ++per_type_[b[1]];
      if (to == kDriver) {
        answers_.crc = crc32(b.data(), b.size(), answers_.crc);
        ++answers_.msgs;
        answers_.bytes += b.size();
      }
    });
  }

  template <typename M>
  void send(NodeId to, const M& msg) {
    net::send_message(net_, kDriver, to, msg);
  }

  void register_all() {
    Rng place(11);
    pos_.resize(kObjects);
    for (std::size_t i = 0; i < kObjects; ++i) {
      pos_[i] = {place.uniform(0, kSide), place.uniform(0, kSide)};
      send(leaf_for(pos_[i]),
           wire::RegisterReq{core::Sighting{ObjectId{i + 1}, 0, pos_[i], 5.0}, "",
                             {10.0, 100.0}, kDriver, i + 1});
    }
    net_.run_until_idle();
  }

  /// Closed-loop mix: each operation runs to completion before the next.
  void run_mix(int ops) {
    Rng mix(12);
    const std::vector<NodeId> leaves = dep_.leaf_ids();
    for (int op = 0; op < ops; ++op) {
      const std::uint64_t req_id = 1'000'000 + static_cast<std::uint64_t>(op);
      const NodeId entry = leaves[mix.next_below(leaves.size())];
      switch (op % 5) {
        case 0:
        case 1: {
          // Update: small moves stay on the leaf, every third jump anywhere
          // (a handover whenever the new position lies on another leaf).
          const std::size_t i = mix.next_below(kObjects);
          geo::Point p = pos_[i];
          if (op % 3 == 0) {
            p = {mix.uniform(0, kSide), mix.uniform(0, kSide)};
          } else {
            p.x = std::clamp(p.x + mix.uniform(-20, 20), 0.0, kSide - 1e-6);
            p.y = std::clamp(p.y + mix.uniform(-20, 20), 0.0, kSide - 1e-6);
          }
          const NodeId agent = leaf_for(pos_[i]);
          pos_[i] = p;
          send(agent, wire::UpdateReq{core::Sighting{
                          ObjectId{i + 1}, net_.now(), p, 5.0}});
          break;
        }
        case 2:
          send(entry, wire::PosQueryReq{ObjectId{1 + mix.next_below(kObjects)}, req_id});
          break;
        case 3: {
          const double x = mix.uniform(0, kSide - 400);
          const double y = mix.uniform(0, kSide - 400);
          const double w = mix.uniform(50, 400);
          wire::RangeQueryReq req;
          req.area = geo::Polygon::from_rect(geo::Rect{{x, y}, {x + w, y + w}});
          req.req_acc = 100.0;
          req.req_overlap = 0.5;
          req.req_id = req_id;
          send(entry, req);
          break;
        }
        default:
          send(entry, wire::NNQueryReq{{mix.uniform(0, kSide), mix.uniform(0, kSide)},
                                       100.0, 10.0, req_id});
          break;
      }
      net_.run_until_idle();
    }
  }

  const Fingerprint& fingerprint() const { return fp_; }
  const Fingerprint& answers() const { return answers_; }
  std::uint64_t seen(wire::MsgType t) const {
    return per_type_[static_cast<std::size_t>(t)];
  }

 private:
  NodeId leaf_for(geo::Point p) const { return dep_.entry_leaf_for(p); }

  net::SimNetwork net_;
  core::Deployment dep_;
  Fingerprint fp_;
  Fingerprint answers_;  // payloads addressed to kDriver only
  std::array<std::uint64_t, 64> per_type_{};
  std::vector<geo::Point> pos_;
};

TEST(GoldenTrace, Table2RegistrationThenOperationMix) {
  GoldenRun run;
  run.register_all();
  const Fingerprint reg = run.fingerprint();
  EXPECT_EQ(reg.msgs, 30000u);
  EXPECT_EQ(reg.bytes, 779492u);
  EXPECT_EQ(reg.crc, 0xa12235a3u) << std::hex << reg.crc;

  run.run_mix(500);
  const Fingerprint all = run.fingerprint();
  EXPECT_EQ(all.msgs, 32282u);
  EXPECT_EQ(all.bytes, 2316980u);
  EXPECT_EQ(all.crc, 0xb4e603e5u) << std::hex << all.crc;

  // Client-visible answers: every RegisterRes, UpdateAck, AgentChanged and
  // query result the driver received, in delivery order.
  const Fingerprint answers = run.answers();
  EXPECT_EQ(answers.msgs, 10500u);
  EXPECT_EQ(answers.bytes, 959112u);
  EXPECT_EQ(answers.crc, 0xc8b40edeu) << std::hex << answers.crc;

  // The mix reaches every protocol path it is meant to pin.
  using wire::MsgType;
  for (const MsgType t :
       {MsgType::kUpdateAck, MsgType::kHandoverReq, MsgType::kHandoverRes,
        MsgType::kAgentChanged, MsgType::kPosQueryFwd, MsgType::kPosQueryRes,
        MsgType::kRangeQueryFwd, MsgType::kRangeQuerySubRes, MsgType::kRangeQueryRes,
        MsgType::kNNProbeFwd, MsgType::kNNProbeSubRes, MsgType::kNNQueryRes}) {
    EXPECT_GT(run.seen(t), 0u) << wire::msg_type_name(t);
  }
}

}  // namespace
}  // namespace locs
