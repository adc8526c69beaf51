#include "core/update_coalescer.hpp"

namespace locs::core {

namespace wm = locs::wire;

UpdateCoalescer::UpdateCoalescer(NodeId self, net::Transport& net, Clock& clock,
                                 Options opts)
    : self_(self), net_(net), clock_(clock), opts_(opts) {
  if (opts_.max_batch == 0) opts_.max_batch = 1;
  net_.attach(self_, [this](const std::uint8_t* data, std::size_t len) {
    handle(data, len);
  });
}

UpdateCoalescer::~UpdateCoalescer() {
  flush_all();
  net_.detach(self_);
}

void UpdateCoalescer::enqueue(NodeId agent, const Sighting& s) {
  if (!agent.valid()) return;
  std::lock_guard<std::mutex> lock(mu_);
  Pending& p = pending_[agent];
  if (p.batch.sightings.empty()) p.oldest = clock_.now();
  p.batch.sightings.append(s);
  ++stats_.sightings_enqueued;
  if (p.batch.sightings.count >= opts_.max_batch) {
    ++stats_.flushes_size;
    flush_locked(agent, p);
  } else if (p.batch.sightings.packed.size() >= opts_.max_bytes) {
    ++stats_.flushes_bytes;
    flush_locked(agent, p);
  }
}

void UpdateCoalescer::flush_locked(NodeId agent, Pending& p) {
  if (p.batch.sightings.empty()) return;
  ++stats_.batches_sent;
  net::send_message(net_, self_, agent, p.batch);
  p.batch.sightings.clear();  // count = 0; packed keeps its capacity
}

void UpdateCoalescer::tick(TimePoint now) {
  std::lock_guard<std::mutex> lock(mu_);
  // Send-burst bracket: a deadline sweep can flush one batch PER AGENT, so
  // cork the sender and let the transport coalesce those datagrams into
  // sendmmsg batches (no-op over SimNetwork; the enqueue-triggered single
  // flush in enqueue() stays inline, keeping per-batch latency unchanged).
  net_.cork(self_);
  for (auto& [agent, p] : pending_) {
    if (p.batch.sightings.empty() || now - p.oldest < opts_.max_delay) continue;
    ++stats_.flushes_deadline;
    flush_locked(agent, p);
  }
  net_.uncork(self_);
  net_.flush(self_);
}

void UpdateCoalescer::flush_all() {
  std::lock_guard<std::mutex> lock(mu_);
  net_.cork(self_);  // one per-agent batch each -- same bracket as tick()
  for (auto& [agent, p] : pending_) {
    if (p.batch.sightings.empty()) continue;
    ++stats_.flushes_forced;
    flush_locked(agent, p);
  }
  net_.uncork(self_);
  net_.flush(self_);
}

UpdateCoalescer::Stats UpdateCoalescer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t UpdateCoalescer::pending_sightings() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [agent, p] : pending_) n += p.batch.sightings.count;
  return n;
}

void UpdateCoalescer::handle(const std::uint8_t* data, std::size_t len) {
  // Only the node's single receive context calls handle(), so the scratch
  // envelope needs no lock; callbacks run WITHOUT mu_ (see header).
  if (!wm::decode_envelope_into(rx_scratch_, data, len).is_ok()) return;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, wm::BatchedUpdateAck>) {
          auto acks = m.acks.items();
          std::uint64_t n = 0;
          while (const auto ack = acks.next()) {
            ++n;
            if (on_ack_) on_ack_(ack->value.oid, ack->value.offered_acc);
          }
          std::lock_guard<std::mutex> lock(mu_);
          stats_.acks_received += n;
        } else if constexpr (std::is_same_v<T, wm::AgentChanged>) {
          if (on_agent_changed_) {
            on_agent_changed_(m.oid, m.new_agent, m.offered_acc);
          }
        } else if constexpr (std::is_same_v<T, wm::BatchedRefreshReq>) {
          if (on_refresh_) {
            auto oids = m.oids.items();
            while (const auto oid = oids.next()) on_refresh_(oid->value);
          }
        } else if constexpr (std::is_same_v<T, wm::UnknownObject>) {
          if (on_unknown_object_) on_unknown_object_(m.oid, rx_scratch_.src);
        }
      },
      rx_scratch_.msg);
}

}  // namespace locs::core
