// Open-addressing ObjectId set and map with reusable capacity.
//
// The query merge's dedup-on-emit needs a membership test per merged result,
// twice per merge (size pass + copy pass). A node-based std::unordered_set
// heap-allocates one node per insert -- two allocations per merged result,
// which alone would dominate the zero-materialization merge path. OidSet is
// a flat linear-probing table: clear() keeps the slot array, insert()
// allocates only when the table grows, so a scratch instance reaches its
// working size once and then dedups merge after merge allocation-free.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/ids.hpp"

namespace locs::util {

class OidSet {
 public:
  /// Inserts `id`; returns true if it was not present before.
  bool insert(ObjectId id) {
    if (id.value == kEmptySlot) {
      // The sentinel value cannot live in the table; track it out of band.
      const bool added = !has_sentinel_;
      has_sentinel_ = true;
      return added;
    }
    // Grow at ~70% load (and on first use).
    if ((size_ + 1) * 10 > slots_.size() * 7) grow();
    std::size_t i = slot_of(id.value);
    while (slots_[i] != kEmptySlot) {
      if (slots_[i] == id.value) return false;
      i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i] = id.value;
    ++size_;
    return true;
  }

  bool contains(ObjectId id) const {
    if (id.value == kEmptySlot) return has_sentinel_;
    if (slots_.empty()) return false;
    std::size_t i = slot_of(id.value);
    while (slots_[i] != kEmptySlot) {
      if (slots_[i] == id.value) return true;
      i = (i + 1) & (slots_.size() - 1);
    }
    return false;
  }

  /// Empties the set, KEEPING the slot array (the reuse contract).
  void clear() {
    std::fill(slots_.begin(), slots_.end(), kEmptySlot);
    size_ = 0;
    has_sentinel_ = false;
  }

  std::size_t size() const { return size_ + (has_sentinel_ ? 1 : 0); }
  std::size_t capacity() const { return slots_.size(); }

 private:
  static constexpr std::uint64_t kEmptySlot = 0;  // ObjectId{0}: see insert

  std::size_t slot_of(std::uint64_t v) const {
    // splitmix64 finalizer: sequential ids spread uniformly.
    std::uint64_t x = v + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x) & (slots_.size() - 1);
  }

  void grow() {
    const std::size_t next_cap = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(next_cap, kEmptySlot);
    size_ = 0;
    for (const std::uint64_t v : old) {
      if (v == kEmptySlot) continue;
      std::size_t i = slot_of(v);
      while (slots_[i] != kEmptySlot) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = v;
      ++size_;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
  bool has_sentinel_ = false;
};

/// Companion flat map (ObjectId -> V) with the same reuse contract: clear()
/// keeps the slot array, insertion allocates only on growth, and a lookup is
/// one probe run instead of a node-based map's chain of dependent loads and
/// heap node per entry. Its users:
///  * the NN merge's candidate state (one entry per candidate streamed off a
///    probe sub-result);
///  * store::VisitorDb's forwarding references (one entry per object on a
///    non-leaf server);
///  * store::SightingDb's leaf table (one record per visitor of a leaf);
///  * the point quadtree's id -> slot map.
/// Linear probing over a power-of-two slot array, grown at 70% load; erase
/// shifts the rest of the probe run back instead of leaving a tombstone, so
/// lookups never walk over deleted slots and runs do not lengthen under churn.
///
/// A pointer returned by find/try_emplace stays valid only until the next
/// insertion or erase on the same map (either may move entries).
/// Iteration (for_each) runs in slot order; callers needing a canonical
/// order must impose a total order themselves (the NN paths do: winner and
/// nearObjSet are selected by (distance, id)).
template <typename V>
class OidMap {
 public:
  V* find(ObjectId id) {
    return const_cast<V*>(std::as_const(*this).find(id));
  }

  const V* find(ObjectId id) const {
    if (id.value == kEmptySlot) return has_sentinel_ ? &sentinel_value_ : nullptr;
    if (size_ == 0) return nullptr;
    std::size_t i = slot_of(id.value);
    while (slots_[i].key != kEmptySlot) {
      if (slots_[i].key == id.value) return &slots_[i].value;
      i = (i + 1) & (slots_.size() - 1);
    }
    return nullptr;
  }

  /// Returns the entry for `id` and whether it was added; a new entry is
  /// value-initialised.
  std::pair<V*, bool> try_emplace(ObjectId id) {
    if (id.value == kEmptySlot) {
      const bool added = !has_sentinel_;
      if (added) sentinel_value_ = V{};
      has_sentinel_ = true;
      return {&sentinel_value_, added};
    }
    if ((size_ + 1) * 10 > slots_.size() * 7) grow();
    std::size_t i = slot_of(id.value);
    while (slots_[i].key != kEmptySlot) {
      if (slots_[i].key == id.value) return {&slots_[i].value, false};
      i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i].key = id.value;
    slots_[i].value = V{};
    ++size_;
    return {&slots_[i].value, true};
  }

  V& operator[](ObjectId id) { return *try_emplace(id).first; }

  /// Removes `id`; returns true if it was present. Backward-shift deletion:
  /// walking the rest of the probe run, each entry whose home slot is not
  /// cyclically after the hole moves into it, and its old slot becomes the
  /// hole. The run's last hole is emptied.
  bool erase(ObjectId id) {
    if (id.value == kEmptySlot) {
      const bool had = has_sentinel_;
      has_sentinel_ = false;
      return had;
    }
    if (size_ == 0) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = slot_of(id.value);
    while (slots_[hole].key != id.value) {
      if (slots_[hole].key == kEmptySlot) return false;
      hole = (hole + 1) & mask;
    }
    erase_at(hole);
    return true;
  }

  /// Removes the entry `value` points to: a still-valid pointer from
  /// find/try_emplace, so the caller's lookup is not repeated.
  void erase(const V* value) {
    if (value == &sentinel_value_) {
      has_sentinel_ = false;
      return;
    }
    // Every value sits at the same offset of its slot.
    const auto offset = reinterpret_cast<const char*>(value) -
                        reinterpret_cast<const char*>(&slots_.front().value);
    erase_at(static_cast<std::size_t>(offset) / sizeof(Slot));
  }

  void clear() {
    for (auto& slot : slots_) slot.key = kEmptySlot;
    size_ = 0;
    has_sentinel_ = false;
  }

  bool empty() const { return size_ == 0 && !has_sentinel_; }
  std::size_t size() const { return size_ + (has_sentinel_ ? 1 : 0); }

  /// Invokes fn(ObjectId, const V&) per entry, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (has_sentinel_) fn(ObjectId{kEmptySlot}, sentinel_value_);
    for (const auto& slot : slots_) {
      if (slot.key != kEmptySlot) fn(ObjectId{slot.key}, slot.value);
    }
  }

 private:
  static constexpr std::uint64_t kEmptySlot = 0;

  struct Slot {
    std::uint64_t key = kEmptySlot;
    V value{};
  };

  std::size_t slot_of(std::uint64_t v) const {
    std::uint64_t x = v + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x) & (slots_.size() - 1);
  }

  /// Empties slot `hole` and shifts the rest of its probe run back.
  void erase_at(std::size_t hole) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; slots_[j].key != kEmptySlot;
         j = (j + 1) & mask) {
      // Cyclic distances to j: home no closer than the hole, so a probe
      // from home still reaches the hole.
      if (((j - slot_of(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].key = kEmptySlot;
    --size_;
  }

  void grow() {
    const std::size_t next_cap = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(next_cap, Slot{});
    size_ = 0;
    for (Slot& slot : old) {
      if (slot.key == kEmptySlot) continue;
      std::size_t i = slot_of(slot.key);
      while (slots_[i].key != kEmptySlot) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = std::move(slot);
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  bool has_sentinel_ = false;
  V sentinel_value_{};
};

}  // namespace locs::util
