#include "core/sharded_location_server.hpp"

#include <cassert>
#include <chrono>

namespace locs::core {

namespace {
// Consumer pacing: drain in small batches, spin-yield briefly when idle,
// then sleep with a bounded timeout (the producer's wakeup is best-effort).
constexpr int kDrainBatch = 64;
constexpr int kIdleSpinRounds = 64;
constexpr auto kSleepSlice = std::chrono::microseconds(200);
// Per-shard inbox capacity (threaded mode); overflow drops datagrams after
// kPushRetries (UDP semantics -- senders own retries).
constexpr std::size_t kInboxCapacity = 4096;
// Producer backoff before dropping on a persistently full inbox.
constexpr int kPushRetries = 1024;

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
                                             ShardVisitorDbFactory visitor_db_factory,
                                             spatial::IndexFactory index_factory)
    : self_(self), net_(net), opts_(opts) {
  assert(cfg.is_leaf() && "only leaf servers shard their object space");
  if (opts_.shards == 0) opts_.shards = 1;
  const std::uint32_t n = opts_.shards;

  for (std::uint32_t i = 0; i < n; ++i) {
    auto sh = std::make_unique<Shard>(kInboxCapacity);
    sh->index = i;
    sh->pool = std::make_shared<net::BufferPool>();
    // In-flight PooledBuffers outlive this object (SimNetwork queues them);
    // the transport keeps the pool alive for them.
    net_.adopt_pool(sh->pool);
    store::VisitorDb vdb;
    if (visitor_db_factory) vdb = visitor_db_factory(i);
    sh->server = std::make_unique<LocationServer>(self, cfg, net, clock,
                                                  opts_.server, std::move(vdb),
                                                  index_factory);
    shards_.push_back(std::move(sh));
  }

  // Slice wiring: each slice gets a lock serializing its owning shard's
  // mutations against cross-shard reads -- the coordinator's query merges
  // (N > 1) and external find_sighting() probes (any threaded setup,
  // including a threaded single shard).
  for (auto& sh : shards_) {
    store::SightingDb* slice = sh->server->sightings_mutable();
    assert(slice != nullptr);
    std::mutex* mu = n > 1 || opts_.threaded ? &sh->slice_mu : nullptr;
    slice->set_slice_lock(mu);
    merged_view_.add_slice(slice, mu);
  }

  for (auto& sh : shards_) {
    const bool coordinator = sh->index == 0;
    LocationServer::SightingEventHook hook;
    if (!coordinator) {
      hook = [this](ObjectId oid, bool present, geo::Point pos) {
        LocationServer& coord = *shards_[0]->server;
        if (coord.leaf_event_count() == 0) return;  // hot path: no predicates
        if (!opts_.threaded) {
          coord.apply_sighting_event(oid, present, pos);
          return;
        }
        {
          std::lock_guard<std::mutex> lock(delta_mu_);
          deltas_.push_back({oid, present, pos});
        }
        wake(*shards_[0]);
      };
    }
    sh->server->configure_shard(sh->index, sh->pool.get(),
                                coordinator ? &merged_view_ : nullptr,
                                std::move(hook));
    // One shared §6.5 cache set per leaf: hit patterns (and the message
    // counts they produce) match an unsharded leaf. Inline mode needs no
    // lock -- datagrams arrive one at a time from the delivery loop.
    sh->server->share_caches(&shared_leaf_cache_, &shared_agent_cache_,
                             &shared_position_cache_,
                             opts_.threaded ? &cache_mu_ : nullptr);
  }

  if (opts_.threaded) {
    for (auto& sh : shards_) {
      sh->thread = std::thread([this, shard = sh.get()] { shard_loop(*shard); });
    }
  }
}

ShardedLocationServer::~ShardedLocationServer() {
  // Teardown protocol (see Transport::detach): unregister first so the
  // transport never delivers into a dying reactor, then stop the shards.
  net_.detach(self_);
  if (opts_.threaded) {
    stop_.store(true, std::memory_order_release);
    for (auto& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh->wake_mu);
      sh->wake_cv.notify_all();
    }
    for (auto& sh : shards_) {
      if (sh->thread.joinable()) sh->thread.join();
    }
    // Deterministic send-side teardown: whatever the final drain bursts
    // left on the shard channels goes to the wire before destruction.
    for (auto& sh : shards_) {
      if (sh->tx != nullptr) sh->tx->flush();
    }
  }
}

void ShardedLocationServer::open_tx_senders() {
  if (!opts_.threaded) return;
  for (auto& sh : shards_) {
    if (sh->tx != nullptr) continue;
    sh->tx = net_.open_sender(self_);
    if (sh->tx == nullptr) return;  // transport has no per-sender channels
    {
      std::lock_guard<std::mutex> lock(sh->reactor_mu);
      sh->server->set_tx_sender(sh->tx.get());
    }
    // Publish to the already-running shard_loop last (release pairs with its
    // acquire load), so the reactor only corks a fully wired channel.
    sh->tx_raw.store(sh->tx.get(), std::memory_order_release);
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
  // reactor, so each shard updates / refreshes only its own slice. A
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
    deliver(*shards_[0], dg);
    return;
  }
  if (type == wire::MsgType::kStandbyPromote || type == wire::MsgType::kStandbyDemote) {
    // Promotion flips every shard of the replica leaf (ascending index order
    // keeps inline SimNetwork execution deterministic): each shard fans
    // AgentChanged for -- or drops -- exactly its own mirrored slice.
    for (auto& sh : shards_) deliver(*sh, dg);
    return;
  }
  deliver(*shards_[route(data, len)], dg);
}

void ShardedLocationServer::deliver(Shard& sh, const net::Datagram& dg) {
  const std::uint8_t* data = dg.data();
  const std::size_t len = dg.size();
  if (!opts_.threaded) {
    // Inline: forward the Datagram itself so the coordinator's merge paths
    // can pin the receive buffer exactly like an unsharded server.
    sh.server->handle(dg);
    return;
  }
  for (int attempt = 0;; ++attempt) {
    if (sh.inbox.try_push(data, len)) break;
    if (attempt >= kPushRetries) {
      // Persistently full inbox: drop, like a full UDP socket buffer would.
      inbox_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    wake(sh);
    std::this_thread::yield();
  }
  wake(sh);
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
      deliver(*shards_[first.value_or(0)], net::Datagram(data, len));
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
    deliver(*shards_[s],
            net::Datagram(split_datagram_.data(), split_datagram_.size()));
  }
  return true;
}

void ShardedLocationServer::set_standby(NodeId standby) {
  for (auto& sh : shards_) {
    store::MaybeGuard guard(reactor_lock(*sh));
    sh->server->set_standby(standby);
  }
}

void ShardedLocationServer::set_standby_role(NodeId primary) {
  for (auto& sh : shards_) {
    store::MaybeGuard guard(reactor_lock(*sh));
    sh->server->set_standby_role(primary);
  }
}

void ShardedLocationServer::wake(Shard& sh) {
  if (sh.sleeping.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(sh.wake_mu);
    sh.wake_cv.notify_one();
  }
}

void ShardedLocationServer::shard_loop(Shard& sh) {
  int idle_rounds = 0;
  while (true) {
    bool did_work = false;
    // Cork the shard's transmit channel across the drain burst: replies for
    // up to kDrainBatch datagrams coalesce into sendmmsg batches, flushed by
    // the uncork below (mirrors the UdpNetwork receive-loop bracket).
    net::Sender* tx = sh.tx_raw.load(std::memory_order_acquire);
    if (tx != nullptr) tx->cork();
    for (int i = 0; i < kDrainBatch; ++i) {
      const bool popped = sh.inbox.try_pop([&](const std::uint8_t* d, std::size_t l) {
        std::lock_guard<std::mutex> lock(sh.reactor_mu);
        sh.server->handle(d, l);
      });
      if (!popped) break;
      did_work = true;
    }
    if (sh.index == 0) did_work |= drain_sighting_deltas();
    if (tx != nullptr) tx->uncork();
    if (did_work) {
      idle_rounds = 0;
      continue;
    }
    // Idle with an empty inbox: exit once stop is requested (everything
    // already delivered has been processed).
    if (stop_.load(std::memory_order_acquire)) return;
    if (++idle_rounds < kIdleSpinRounds) {
      std::this_thread::yield();
      continue;
    }
    std::unique_lock<std::mutex> lock(sh.wake_mu);
    sh.sleeping.store(true, std::memory_order_release);
    sh.wake_cv.wait_for(lock, kSleepSlice, [&] {
      return stop_.load(std::memory_order_acquire) || !sh.inbox.empty();
    });
    sh.sleeping.store(false, std::memory_order_release);
    idle_rounds = 0;
  }
}

bool ShardedLocationServer::drain_sighting_deltas() {
  {
    std::lock_guard<std::mutex> lock(delta_mu_);
    if (deltas_.empty()) return false;
    delta_scratch_.swap(deltas_);
  }
  {
    std::lock_guard<std::mutex> lock(shards_[0]->reactor_mu);
    for (const SightingDelta& d : delta_scratch_) {
      shards_[0]->server->apply_sighting_event(d.oid, d.present, d.pos);
    }
  }
  delta_scratch_.clear();
  return true;
}

void ShardedLocationServer::tick(TimePoint now) {
  for (auto& sh : shards_) {
    store::MaybeGuard guard(reactor_lock(*sh));
    sh->server->tick(now);
  }
}

void ShardedLocationServer::request_refresh_all() {
  for (auto& sh : shards_) {
    store::MaybeGuard guard(reactor_lock(*sh));
    sh->server->request_refresh_all();
  }
}

void ShardedLocationServer::announce_recovery() {
  // One hello per leaf NodeId: shard 0 speaks for the node (a root leaf's
  // announce degenerates to a local sweep, which the other shards mirror for
  // their own slices via request_refresh_all below).
  {
    store::MaybeGuard guard(reactor_lock(*shards_[0]));
    shards_[0]->server->announce_recovery();
  }
  if (!shards_[0]->server->config().is_root()) return;
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    store::MaybeGuard guard(reactor_lock(*shards_[i]));
    shards_[i]->server->request_refresh_all();
  }
}

LocationServer::Stats ShardedLocationServer::stats() const {
  LocationServer::Stats total;
  for (const auto& sh : shards_) {
    store::MaybeGuard guard(reactor_lock(*sh));
    total.add(sh->server->stats());
  }
  return total;
}

std::vector<ShardedLocationServer::ShardLoad> ShardedLocationServer::shard_loads()
    const {
  std::vector<ShardLoad> loads;
  loads.reserve(shards_.size());
  for (const auto& sh : shards_) {
    ShardLoad load;
    load.shard = sh->index;
    load.inbox_depth = sh->inbox.size();
    {
      store::MaybeGuard guard(reactor_lock(*sh));
      const store::SightingDb* slice = sh->server->sightings();
      load.sightings = slice != nullptr ? slice->size() : 0;
      load.visitors = sh->server->visitors().size();
      load.msgs_handled = sh->server->stats().msgs_handled;
    }
    loads.push_back(load);
  }
  return loads;
}

}  // namespace locs::core
