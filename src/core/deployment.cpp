#include "core/deployment.hpp"

namespace locs::core {

Deployment::Deployment(net::Transport& net, Clock& clock, HierarchySpec spec)
    : Deployment(net, clock, std::move(spec), Config{}) {}

Deployment::Deployment(net::Transport& net, Clock& clock, HierarchySpec spec,
                       Config cfg)
    : net_(net), spec_(std::move(spec)), clock_(clock), cfg_(std::move(cfg)) {
  // Entries are built in place: the transport handler keeps a pointer to its
  // entry, and unordered_map never relocates an element.
  for (const HierarchySpec::Node& node : spec_.nodes) {
    make_entry(node, servers_[node.id]);
  }
  // Hot standbys are EXTRA servers outside the spec: each replica reuses its
  // primary's ConfigRecord (same service area and parent, so a promoted
  // standby answers exactly the primary's slice of the query space) under
  // its own NodeId.
  for (const auto& [primary, standby] : cfg_.leaf_standby) {
    const HierarchySpec::Node* node = spec_.find(primary);
    if (node == nullptr || !node->cfg.is_leaf()) continue;
    if (servers_.count(standby) > 0) continue;  // id collision: skip
    HierarchySpec::Node replica = *node;
    replica.id = standby;
    make_entry(replica, servers_[standby]);
    wire_standby(primary, standby);
  }
}

void Deployment::wire_standby(NodeId primary, NodeId standby) {
  const auto pit = servers_.find(primary);
  const auto sit = servers_.find(standby);
  if (pit == servers_.end() || sit == servers_.end()) return;
  {
    Entry& entry = sit->second;
    std::lock_guard<std::mutex> lock(entry.mu);
    if (entry.server != nullptr) entry.server->set_standby_role(primary);
  }
  {
    Entry& entry = pit->second;
    std::lock_guard<std::mutex> lock(entry.mu);
    if (entry.server != nullptr) entry.server->set_standby(standby);
  }
  const HierarchySpec::Node* node = spec_.find(primary);
  if (node == nullptr || !node->cfg.parent.valid()) return;
  const auto parent_it = servers_.find(node->cfg.parent);
  if (parent_it == servers_.end()) return;
  Entry& parent = parent_it->second;
  std::lock_guard<std::mutex> lock(parent.mu);
  if (parent.server != nullptr) parent.server->set_child_standby(primary, standby);
}

void Deployment::make_entry(const HierarchySpec::Node& node, Entry& entry) {
  LocationServer::Options opts = cfg_.server;
  if (cfg_.options_fn) opts = cfg_.options_fn(node.id, node.cfg, opts);

  store::VisitorLog log;
  if (cfg_.visitor_db_factory) log = cfg_.visitor_db_factory(node.id);
  {
    std::lock_guard<std::mutex> lock(entry.mu);
    entry.server = std::make_unique<LocationServer>(
        node.id, node.cfg, net_, clock_, opts, std::move(log), cfg_.index_factory);
  }
  net_.attach(node.id, net::DatagramHandler([&entry](const net::Datagram& dg) {
    std::lock_guard<std::mutex> lock(entry.mu);
    entry.server->handle(dg);
  }));
}

Deployment::~Deployment() {
  for (const auto& [id, entry] : servers_) net_.detach(id);
}

void Deployment::crash(NodeId id) {
  Entry& entry = servers_.at(id);
  if (!entry.up()) return;
  // Teardown protocol: detach first so the transport never delivers into a
  // dying server (UdpNetwork blocks on an in-flight callback), then drop
  // all volatile state. The persistent visitorDB log -- if any -- stays on
  // disk for the restart to replay.
  net_.detach(id);
  std::lock_guard<std::mutex> lock(entry.mu);
  entry.server.reset();
}

void Deployment::restart(NodeId id, bool announce) {
  Entry& entry = servers_.at(id);
  if (entry.up()) return;
  const HierarchySpec::Node* node = spec_.find(id);
  if (node == nullptr) return;
  make_entry(*node, entry);
  // Rebuilt servers lost their replication wiring; re-apply every pair the
  // restarted node participates in (as primary, as the parent of one, or --
  // for completeness -- as a standby brought back by hand).
  for (const auto& [primary, standby] : cfg_.leaf_standby) {
    const HierarchySpec::Node* pnode = spec_.find(primary);
    if (id == primary || id == standby ||
        (pnode != nullptr && pnode->cfg.parent == id)) {
      wire_standby(primary, standby);
    }
  }
  if (!announce || !node->cfg.is_leaf()) return;
  std::lock_guard<std::mutex> lock(entry.mu);
  entry.server->announce_recovery();
}

bool Deployment::is_down(NodeId id) const {
  return !servers_.at(id).up();
}

bool Deployment::find_sighting(NodeId id, ObjectId oid,
                               store::SightingDb::Record& out) const {
  const Entry& entry = servers_.at(id);
  std::lock_guard<std::mutex> lock(entry.mu);
  if (entry.server == nullptr) return false;  // crashed
  const store::SightingDb* db = entry.server->sightings();
  if (db == nullptr) return false;
  const store::SightingDb::Record* rec = db->find(oid);
  if (rec == nullptr || !rec->has_sighting) return false;
  out = *rec;
  return true;
}

void Deployment::tick_all(TimePoint now) {
  for (auto& [id, entry] : servers_) {
    std::lock_guard<std::mutex> lock(entry.mu);
    if (entry.server != nullptr) entry.server->tick(now);  // crashed: nothing to sweep
  }
}

LocationServer::Stats Deployment::total_stats() const {
  LocationServer::Stats total;
  for (const auto& [id, entry] : servers_) {
    std::lock_guard<std::mutex> lock(entry.mu);
    if (entry.server != nullptr) total.add(entry.server->stats());
  }
  return total;
}

}  // namespace locs::core
