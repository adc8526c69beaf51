// Distributed deployment over real UDP sockets -- the paper's §7.2 testbed
// shape (one root, four leaf servers, Fig 8) on loopback. Demonstrates the
// lower-level Deployment/Transport API that a real multi-host installation
// would use (one process per server; here one thread per server socket).
#include <cstdio>

#include "core/client.hpp"
#include "core/deployment.hpp"
#include "core/hierarchy_builder.hpp"
#include "net/udp_network.hpp"

using namespace locs;

int main() {
  // 1.5 km x 1.5 km service area split into quarters (Fig 8).
  const geo::Rect area{{0, 0}, {1500, 1500}};
  net::UdpNetwork net;
  SystemClock clock;

  core::Deployment::Config cfg;
  cfg.server.enable_leaf_area_cache = true;
  cfg.server.enable_agent_cache = true;
  core::Deployment deployment(net, clock, core::HierarchyBuilder::table2(area), cfg);
  std::printf("location servers listening on UDP ports:");
  for (const auto& node : deployment.spec().nodes) {
    std::printf(" %u (server %u)", net.port_of(node.id), node.id.value);
  }
  std::printf("\n");

  // A tracked object enters at the south-west leaf.
  core::TrackedObject car(NodeId{6000}, ObjectId{1}, net, clock);
  car.start_register(deployment.entry_leaf_for({200, 200}), {200, 200}, 5.0,
                     core::AccuracyRange{10.0, 50.0});
  for (int i = 0; i < 200 && !car.tracked(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!car.tracked()) {
    std::printf("registration did not complete\n");
    return 1;
  }
  std::printf("car registered at server %u, offered accuracy %.0f m\n",
              car.agent().value, car.offered_acc());

  // Drive diagonally across the whole area: one handover, where the path
  // crosses the centre from the south-west leaf into the north-east one.
  for (double d = 200; d <= 1400; d += 100) {
    car.feed_position({d, d});
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::printf("after the drive: agent server %u, %llu updates, %llu handovers\n",
              car.agent().value,
              static_cast<unsigned long long>(car.updates_sent()),
              static_cast<unsigned long long>(car.handovers_observed()));

  // Query from the opposite corner's entry server.
  core::QueryClient client(NodeId{6001}, net, clock);
  client.set_entry(deployment.entry_leaf_for({100, 100}));
  if (const auto pos = client.pos_query_blocking(ObjectId{1}, seconds(5))) {
    if (pos->found) {
      std::printf("remote position query: car at (%.0f, %.0f) +/- %.0f m\n",
                  pos->ld.pos.x, pos->ld.pos.y, pos->ld.acc);
    }
  }
  const auto range = client.range_query_blocking(
      geo::Polygon::from_rect(geo::Rect{{1200, 1200}, {1500, 1500}}), 25.0, 0.5,
      seconds(5));
  if (range) {
    std::printf("remote range query over the north-east corner: %zu object(s), "
                "complete=%s\n",
                range->objects.size(), range->complete ? "yes" : "no");
  }

  // Per-server message statistics (the hierarchy at work).
  for (const auto& node : deployment.spec().nodes) {
    const auto& stats = deployment.server(node.id).stats();
    std::printf("  server %u (%s): handled %llu msgs, sent %llu\n", node.id.value,
                node.cfg.is_root() ? "root" : "leaf",
                static_cast<unsigned long long>(stats.msgs_handled),
                static_cast<unsigned long long>(stats.msgs_sent));
  }
  return 0;
}
