// Open-addressing ObjectId table with reusable capacity: one flat map, which
// over an empty value is also the service's ObjectId set.
//
// The query merge's dedup-on-emit needs a membership test per merged result,
// twice per merge (size pass + copy pass). A node-based std::unordered_set
// heap-allocates one node per insert -- two allocations per merged result,
// which alone would dominate the zero-materialization merge path. OidMap is
// a flat linear-probing table: clear() keeps the slot array, try_emplace()
// allocates only when the table grows, so a scratch instance reaches its
// working size once and then dedups merge after merge allocation-free.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/ids.hpp"

namespace locs::util {

/// Flat map (ObjectId -> V): clear() keeps the slot array, insertion
/// allocates only on growth, and a lookup is one probe run instead of a
/// node-based map's chain of dependent loads and heap node per entry. Its
/// users:
///  * the range merge's dedup-on-emit set and bench_query_merge's copy of
///    it, an OidMap<std::monostate>: the empty value takes no space, so a
///    slot is the 8-byte key alone, and try_emplace(id).second is a set's
///    insert;
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
  /// Slots in the array, which clear() keeps.
  std::size_t capacity() const { return slots_.size(); }

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
    [[no_unique_address]] V value{};
  };
  static_assert(!std::is_empty_v<V> || sizeof(Slot) == sizeof(std::uint64_t),
                "an empty value must add nothing to the slot");

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
