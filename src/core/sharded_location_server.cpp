#include "core/sharded_location_server.hpp"

#include <algorithm>
#include <cassert>

namespace locs::core {

namespace {
// splitmix64 finalizer: spreads sequential and strided object ids uniformly.
std::uint64_t mix_key(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}
}  // namespace

std::uint32_t ShardedLocationServer::shard_of(ObjectId oid,
                                              std::uint32_t shard_count) {
  return static_cast<std::uint32_t>(mix_key(oid.value) % shard_count);
}

ShardedLocationServer::ShardedLocationServer(NodeId self, ConfigRecord cfg,
                                             net::Transport& net, Clock& clock,
                                             Options opts,
                                             const VisitorDbFactory& visitor_db_factory,
                                             spatial::IndexFactory index_factory)
    : self_(self) {
  assert(cfg.is_leaf() && "only leaf servers shard their object space");
  const std::uint32_t n = std::max<std::uint32_t>(opts.shards, 1);

  for (std::uint32_t i = 0; i < n; ++i) {
    store::VisitorDb vdb;
    if (visitor_db_factory) vdb = visitor_db_factory(self, i);
    shards_.push_back(std::make_unique<LocationServer>(
        self, cfg, net, clock, opts.server, std::move(vdb), index_factory));
    const store::SightingDb* slice = shards_.back()->sightings();
    assert(slice != nullptr);
    merged_view_.add_slice(slice);
  }

  for (std::uint32_t i = 0; i < n; ++i) {
    LocationServer::SightingEventHook hook;
    if (i != 0) {
      hook = [this](ObjectId oid, bool present, geo::Point pos) {
        LocationServer& coord = *shards_[0];
        if (coord.leaf_event_count() == 0) return;  // hot path: no predicates
        coord.apply_sighting_event(oid, present, pos);
      };
    }
    shards_[i]->configure_shard(i, i == 0 ? &merged_view_ : nullptr,
                                std::move(hook));
    // One shared §6.5 cache set per leaf: hit patterns (and the message
    // counts they produce) match an unsharded leaf.
    shards_[i]->share_caches(&shared_leaf_cache_, &shared_agent_cache_,
                             &shared_position_cache_);
  }
}

std::uint32_t ShardedLocationServer::route(const std::uint8_t* data,
                                           std::size_t len) const {
  if (shards_.size() == 1) return 0;
  const std::optional<ObjectId> key = wire::peek_object_key(data, len);
  // Area-keyed and malformed datagrams run on the coordinator shard (the
  // latter so exactly one shard counts the decode error).
  if (!key) return 0;
  return shard_of(*key, shard_count());
}

void ShardedLocationServer::handle(const net::Datagram& dg) {
  const std::uint8_t* data = dg.data();
  const std::size_t len = dg.size();
  const auto type = len > 1 ? static_cast<wire::MsgType>(data[1]) : wire::MsgType{};
  // Batched updates and recovery sweeps carry entries for MANY objects:
  // split them per owning shard instead of routing the whole datagram to one
  // shard, so each shard updates / refreshes only its own slice. A
  // malformed list falls through to shard 0, which counts the decode error.
  if (shards_.size() > 1) {
    if (type == wire::MsgType::kBatchedUpdateReq &&
        split_by_owner<wire::BatchedUpdateReq>(data, len)) {
      return;
    }
    if (type == wire::MsgType::kBatchedRefreshReq &&
        split_by_owner<wire::BatchedRefreshReq>(data, len)) {
      return;
    }
  }
  if (type == wire::MsgType::kReplicaTee) {
    // Mirror stream from the primary: each packed entry routes to the shard
    // owning its ObjectId, so every standby shard mirrors its own slice.
    if (shards_.size() > 1 && split_by_owner<wire::ReplicaTee>(data, len)) return;
    shards_[0]->handle(dg);
    return;
  }
  if (type == wire::MsgType::kStandbyPromote || type == wire::MsgType::kStandbyDemote) {
    // Promotion flips every shard of the replica leaf (ascending index order
    // keeps SimNetwork execution deterministic): each shard fans
    // AgentChanged for -- or drops -- exactly its own mirrored slice.
    for (auto& sh : shards_) sh->handle(dg);
    return;
  }
  shards_[route(data, len)]->handle(dg);
}

namespace {
// The ObjectId that picks the owning shard of a packed-list entry.
ObjectId owner_key(ObjectId oid) { return oid; }
ObjectId owner_key(const Sighting& s) { return s.oid; }
ObjectId owner_key(const wire::ReplicaTee::Entry& e) { return e.s.oid; }
}  // namespace

template <typename M>
bool ShardedLocationServer::split_by_owner(const std::uint8_t* data, std::size_t len) {
  const auto items = wire::list_items<M>(data, len);
  if (!items) return false;
  const std::uint32_t n = shard_count();
  // Pass 1: a list whose entries all belong to one shard (or an empty list)
  // forwards unchanged -- no copy, no re-framing.
  {
    auto peek = *items;
    std::optional<std::uint32_t> first;
    bool mixed = false;
    while (const auto item = peek.next()) {
      const std::uint32_t owner = shard_of(owner_key(item->value), n);
      if (!first) {
        first = owner;
      } else if (owner != *first) {
        mixed = true;
        break;
      }
    }
    if (!mixed) {
      shards_[first.value_or(0)]->handle(data, len);
      return true;
    }
  }
  // Pass 2: re-frame. The entry byte ranges are copied verbatim into
  // per-shard packed regions (scratch buffers, capacity reused), then each
  // sub-list is re-enveloped under the ORIGINAL header bytes, so the source
  // node -- and with it the reply destination or the tee's primary -- is
  // preserved.
  split_packed_.resize(n);
  split_counts_.assign(n, 0);
  for (auto& buf : split_packed_) buf.clear();
  auto view = *items;
  while (const auto item = view.next()) {
    const std::uint32_t owner = shard_of(owner_key(item->value), n);
    split_packed_[owner].insert(split_packed_[owner].end(), item->data,
                                item->data + item->len);
    ++split_counts_[owner];
  }
  constexpr std::size_t kHeaderLen = 6;  // [version][type][src u32_fixed]
  for (std::uint32_t s = 0; s < n; ++s) {
    if (split_counts_[s] == 0) continue;
    split_datagram_.clear();
    wire::Writer w(split_datagram_);
    w.reserve(kHeaderLen + 20 + split_packed_[s].size());
    w.bytes(data, kHeaderLen);
    wire::put(w, wire::PackedRegion{split_counts_[s], split_packed_[s]});
    w.flush();
    shards_[s]->handle(split_datagram_.data(), split_datagram_.size());
  }
  return true;
}

void ShardedLocationServer::set_standby(NodeId standby) {
  for (auto& sh : shards_) sh->set_standby(standby);
}

void ShardedLocationServer::set_standby_role(NodeId primary) {
  for (auto& sh : shards_) sh->set_standby_role(primary);
}

void ShardedLocationServer::tick(TimePoint now) {
  for (auto& sh : shards_) sh->tick(now);
}

void ShardedLocationServer::request_refresh_all() {
  for (auto& sh : shards_) sh->request_refresh_all();
}

void ShardedLocationServer::announce_recovery() {
  // One hello per leaf NodeId: shard 0 speaks for the node (a root leaf's
  // announce degenerates to a local sweep, which the other shards mirror for
  // their own slices via request_refresh_all below).
  shards_[0]->announce_recovery();
  if (!shards_[0]->config().is_root()) return;
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    shards_[i]->request_refresh_all();
  }
}

LocationServer::Stats ShardedLocationServer::stats() const {
  LocationServer::Stats total;
  for (const auto& sh : shards_) total.add(sh->stats());
  return total;
}

std::vector<ShardedLocationServer::ShardLoad> ShardedLocationServer::shard_loads()
    const {
  std::vector<ShardLoad> loads;
  loads.reserve(shards_.size());
  for (std::uint32_t i = 0; i < shards_.size(); ++i) {
    const LocationServer& sh = *shards_[i];
    ShardLoad load;
    load.shard = i;
    load.sightings = sh.sightings()->size();
    load.visitors = sh.visitors().size();
    load.msgs_handled = sh.stats().msgs_handled;
    loads.push_back(load);
  }
  return loads;
}

}  // namespace locs::core
