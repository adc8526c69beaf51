// Field-list codec: the one statement of every wire layout.
//
// Each wire struct declares its fields once, in wire order, with
// LOCS_WIRE_FIELDS. Encoding, decoding into a reused scratch value and the
// encode size hint are all derived from that list by the generic
// put/get/extra_size below. Leaf field types each have
// exactly one put/get overload; a field of any other type hits the deleted
// catch-all and fails to compile, so no value is ever encoded through an
// implicit conversion.
//
// Packed lists ([count][packed_len][packed]) are one more field type,
// PackedList<E>: the entries are the concatenated encodings of E, so a
// batch entry is encoded exactly like the value it carries.
//
// Decoding fills the target in place: strings, polygons, optionals and
// packed lists keep their capacity, so decoding a steady stream allocates
// nothing. Every get() leaves the Reader's sticky failure flag set on
// malformed input; callers check ok() once per message.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/types.hpp"
#include "geo/polygon.hpp"
#include "util/ids.hpp"
#include "wire/codec.hpp"

namespace locs::wire {

/// Declares the wire field list of T: its fields in wire order, spelled as
/// members of `m`, e.g. LOCS_WIRE_FIELDS(UpdateAck, m.oid, m.offered_acc).
#define LOCS_WIRE_FIELDS(T, ...)                               \
  inline auto fields(T& m) { return std::tie(__VA_ARGS__); }  \
  inline auto fields(const T& m) { return std::tie(__VA_ARGS__); }

// --- leaf field types: one put/get pair per type ----------------------------

inline void put(Writer& w, std::uint64_t v) { w.u64(v); }
inline void get(Reader& r, std::uint64_t& v) { v = r.u64(); }
inline void put(Writer& w, std::uint32_t v) { w.u32(v); }
inline void get(Reader& r, std::uint32_t& v) { v = r.u32(); }
inline void put(Writer& w, std::int64_t v) { w.i64(v); }
inline void get(Reader& r, std::int64_t& v) { v = r.i64(); }
inline void put(Writer& w, double v) { w.f64(v); }
inline void get(Reader& r, double& v) { v = r.f64(); }
inline void put(Writer& w, bool v) { w.boolean(v); }
inline void get(Reader& r, bool& v) { v = r.boolean(); }
inline void put(Writer& w, ObjectId id) { w.u64(id.value); }
inline void get(Reader& r, ObjectId& id) { id = ObjectId{r.u64()}; }
inline void put(Writer& w, NodeId id) { w.u32(id.value); }
inline void get(Reader& r, NodeId& id) { id = NodeId{r.u32()}; }
inline void put(Writer& w, const std::string& s) { w.str(s); }
/// Owns the bytes (a decoded message outlives its datagram); assign reuses
/// the target's capacity.
inline void get(Reader& r, std::string& s) {
  const std::string_view v = r.str();
  s.assign(v.data(), v.size());
}

/// Polygon: [n u64][n x (x f64, y f64)].
void put(Writer& w, const geo::Polygon& p);
/// Sticky-fails when `n` cannot fit in the remaining bytes (16 per point);
/// reuses the target's vertex capacity.
void get(Reader& r, geo::Polygon& p);

/// No implicit conversions: a field type without an overload above (or a
/// field list below) does not compile.
template <typename T>
void put(Writer&, const T&) = delete;
template <typename T>
void get(Reader&, T&) = delete;

// --- composite types: field lists --------------------------------------------

LOCS_WIRE_FIELDS(geo::Point, m.x, m.y)
LOCS_WIRE_FIELDS(core::Sighting, m.oid, m.t, m.pos, m.acc_sens)
LOCS_WIRE_FIELDS(core::LocationDescriptor, m.pos, m.acc)
LOCS_WIRE_FIELDS(core::AccuracyRange, m.desired, m.minimum)
LOCS_WIRE_FIELDS(core::RegInfo, m.reg_inst, m.acc_range)
LOCS_WIRE_FIELDS(core::ObjectResult, m.oid, m.ld)

template <typename T>
concept FieldList = requires(const T& v) { fields(v); };

template <FieldList T>
void put(Writer& w, const T& v) {
  std::apply([&w](const auto&... f) { (put(w, f), ...); }, fields(v));
}

template <FieldList T>
void get(Reader& r, T& v) {
  std::apply([&r](auto&... f) { (get(r, f), ...); }, fields(v));
}

/// Optional field: [present bool][value].
template <FieldList T>
void put(Writer& w, const std::optional<T>& o) {
  w.boolean(o.has_value());
  if (o) put(w, *o);
}

template <FieldList T>
void get(Reader& r, std::optional<T>& o) {
  if (!r.boolean()) {
    o.reset();
    return;
  }
  if (!o) o.emplace();
  get(r, *o);
}

// --- packed lists ------------------------------------------------------------

/// A borrowed [count][packed_len][packed] region: views INTO the datagram
/// (valid only while it is; see the read-path lifetime contract in
/// wire/messages.hpp). `count` is advisory; the length prefix bounds it.
struct PackedRegion {
  std::uint64_t count = 0;
  std::span<const std::uint8_t> bytes;
};

inline void put(Writer& w, const PackedRegion& p) {
  w.u64(p.count);
  w.u64(p.bytes.size());
  w.bytes(p.bytes.data(), p.bytes.size());
}

inline void get(Reader& r, PackedRegion& p) {
  p.count = r.u64();
  p.bytes = r.bytes(static_cast<std::size_t>(r.u64()));
}

/// Iterates the raw bytes of a packed region, yielding each decoded entry
/// PLUS the raw byte range of its encoding, so a consumer can re-frame
/// entries by memcpy (the merge loops) instead of re-encoding.
/// Stops at the end of the region or at the first malformed entry. Items
/// point into the caller's buffer.
template <typename E>
class ItemView {
 public:
  ItemView(const std::uint8_t* data, std::size_t len) : r_(data, len), base_(data), len_(len) {}

  struct Item {
    E value;
    const std::uint8_t* data;  // raw encoding of this entry
    std::size_t len;
  };

  std::optional<Item> next() {
    if (r_.remaining() == 0) return std::nullopt;
    const std::size_t start = len_ - r_.remaining();
    Item item{};
    get(r_, item.value);
    if (!r_.ok()) return std::nullopt;  // malformed tail: stop iterating
    item.data = base_ + start;
    item.len = len_ - r_.remaining() - start;
    return item;
  }

 private:
  Reader r_;
  const std::uint8_t* base_;
  std::size_t len_;
};

/// An owned packed list of E: append() packs on the sender, items() lazily
/// unpacks on the receiver, and no intermediate vector of entries exists on
/// either side. `count` is advisory: consumers iterate the packed bytes and
/// stop at the first malformed entry.
template <typename E>
struct PackedList {
  std::uint64_t count = 0;  // entries in `packed` (advisory)
  Buffer packed;            // concatenated entry encodings

  void clear() {
    count = 0;
    packed.clear();
  }
  bool empty() const { return count == 0; }

  void append(const E& e) {
    Writer w(packed);
    put(w, e);
    ++count;
  }

  /// Lazy unpacker: decodes one entry per next() call, stopping at the end
  /// of the packed region or the first malformed entry.
  ItemView<E> items() const { return ItemView<E>(packed.data(), packed.size()); }

  /// Cold-path conveniences (tests, client-facing boundaries).
  std::vector<E> to_vector() const {
    std::vector<E> v;
    // `count` is unvalidated: every entry takes at least one byte, so clamp
    // the reserve by the bytes present; a hostile count cannot pin memory.
    v.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(count, packed.size())));
    ItemView<E> it = items();
    while (const auto item = it.next()) v.push_back(item->value);
    return v;
  }
  void assign(const std::vector<E>& v) {
    clear();
    for (const E& e : v) append(e);
  }

  bool operator==(const PackedList&) const = default;
};

template <typename E>
void put(Writer& w, const PackedList<E>& l) {
  put(w, PackedRegion{l.count, l.packed});
}

/// Owns the packed region (assign reuses the target's capacity); the
/// entries are decoded lazily later.
template <typename E>
void get(Reader& r, PackedList<E>& l) {
  PackedRegion region;
  get(r, region);
  if (!r.ok()) {
    l.clear();
    return;
  }
  l.count = region.count;
  l.packed.assign(region.bytes.begin(), region.bytes.end());
}

// --- encode size hints --------------------------------------------------------
//
// Bytes a value may add beyond the fixed per-message allowance. Exactness is
// not required: the hint only has to make pooled buffers converge on their
// working capacity quickly (Writer::reserve).

template <typename T>
std::size_t extra_size(const T&) {
  return 0;  // fixed-size: covered by the per-message allowance
}
inline std::size_t extra_size(const std::string& s) { return s.size(); }
inline std::size_t extra_size(const geo::Polygon& p) { return 16 * p.size(); }
template <typename E>
std::size_t extra_size(const PackedList<E>& l) {
  return 20 + l.packed.size();  // count + packed_len varints + packed bytes
}
template <FieldList T>
std::size_t extra_size(const std::optional<T>& o) {
  return o ? 8 + extra_size(*o) : 1;
}
template <FieldList T>
std::size_t extra_size(const T& v) {
  return std::apply([](const auto&... f) { return (std::size_t{0} + ... + extra_size(f)); },
                    fields(v));
}

}  // namespace locs::wire
