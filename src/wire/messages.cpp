#include "wire/messages.hpp"


namespace locs::wire {

// --- polygon field -----------------------------------------------------------

void put(Writer& w, const geo::Polygon& poly) {
  w.u64(poly.size());
  for (const geo::Point& p : poly.vertices()) put(w, p);
}

void get(Reader& r, geo::Polygon& out) {
  // Steal the target's vertex vector so its capacity is reused across
  // messages (zero allocations in steady state).
  std::vector<geo::Point> pts = out.take_vertices();
  pts.clear();
  const std::uint64_t n = r.u64();
  // A count the remaining bytes cannot hold is malformed: fail rather than
  // read the following fields from the wrong offset. This also bounds the
  // reserve, so a corrupt prefix cannot pin memory in a scratch envelope.
  if (n > r.remaining() / 16) {
    r.fail();
  } else {
    pts.resize(static_cast<std::size_t>(n));
    for (geo::Point& p : pts) get(r, p);
  }
  out = geo::Polygon(std::move(pts));
}

namespace {

// Reserve allowance covering every fixed-size field of a message; variable
// fields add their extra_size() on top.
constexpr std::size_t kEnvelopeBase = 64;

/// The variant alternatives are listed in strictly ascending MsgType order
/// (retired numbers leave gaps).
template <std::size_t... I>
constexpr bool variant_in_msg_type_order(std::index_sequence<I...>) {
  return ((std::variant_alternative_t<I, Message>::kType <
           std::variant_alternative_t<I + 1, Message>::kType) &&
          ...);
}
static_assert(
    variant_in_msg_type_order(std::make_index_sequence<std::variant_size_v<Message> - 1>{}),
    "LOCS_WIRE_FOR_EACH_MESSAGE must list the messages in ascending MsgType order");

template <typename M>
void encode_envelope_impl(Buffer& out, NodeId src, const M& m) {
  out.clear();
  Writer w(out);
  w.reserve(kEnvelopeBase + extra_size(m));
  begin_envelope(w, src, M::kType);
  put(w, m);
}

/// Decodes into the envelope's current alternative when the type matches --
/// its strings/polygons/lists keep their capacity across messages.
template <typename M>
void decode_into(Reader& r, Message& msg) {
  M* m = std::get_if<M>(&msg);
  get(r, m != nullptr ? *m : msg.emplace<M>());
}

}  // namespace

void begin_envelope(Writer& w, NodeId src, MsgType type) {
  w.u8(version_of(type));
  w.u8(static_cast<std::uint8_t>(type));
  w.u32_fixed(src.value);
}

const char* msg_type_name(MsgType t) {
  switch (t) {
#define LOCS_WIRE_NAME_CASE(T) \
  case MsgType::k##T:          \
    return #T;
    LOCS_WIRE_FOR_EACH_MESSAGE(LOCS_WIRE_NAME_CASE)
#undef LOCS_WIRE_NAME_CASE
  }
  return "Unknown";
}

MsgType message_type(const Message& msg) {
  return std::visit([](const auto& m) { return std::decay_t<decltype(m)>::kType; },
                    msg);
}

#define LOCS_WIRE_DEFINE_ENCODE_INTO(T)                             \
  void encode_envelope_into(Buffer& out, NodeId src, const T& msg) { \
    encode_envelope_impl(out, src, msg);                             \
  }
LOCS_WIRE_FOR_EACH_MESSAGE(LOCS_WIRE_DEFINE_ENCODE_INTO)
#undef LOCS_WIRE_DEFINE_ENCODE_INTO

void encode_envelope_into(Buffer& out, NodeId src, const Message& msg) {
  std::visit([&](const auto& m) { encode_envelope_impl(out, src, m); }, msg);
}

Buffer encode_envelope(NodeId src, const Message& msg) {
  Buffer buf;
  encode_envelope_into(buf, src, msg);
  return buf;
}

Status decode_envelope_into(Envelope& env, const std::uint8_t* data,
                            std::size_t len) {
  Reader r(data, len);
  const std::uint8_t version = r.u8();
  const auto type = static_cast<MsgType>(r.u8());
  env.src = NodeId{r.u32_fixed()};
  if (!r.ok()) return Status(StatusCode::kCorruptData, "truncated message");
  switch (type) {
#define LOCS_WIRE_DECODE_CASE(T)                                        \
  case MsgType::k##T:                                                   \
    if (version != version_of(MsgType::k##T)) {                         \
      return Status(StatusCode::kCorruptData, "bad wire version");      \
    }                                                                   \
    decode_into<T>(r, env.msg);                                         \
    break;
    LOCS_WIRE_FOR_EACH_MESSAGE(LOCS_WIRE_DECODE_CASE)
#undef LOCS_WIRE_DECODE_CASE
    default:
      return Status(StatusCode::kCorruptData, "unknown message type");
  }
  if (!r.ok()) {
    return Status(StatusCode::kCorruptData, "truncated message");
  }
  return Status::ok();
}

Result<Envelope> decode_envelope(const std::uint8_t* data, std::size_t len) {
  Envelope env;
  Status status = decode_envelope_into(env, data, len);
  if (!status.is_ok()) return status;
  return env;
}

SubResView::SubResView(const std::uint8_t* data, std::size_t len) {
  Reader r(data, len);
  // Envelope prefix: [version u8][type u8][src u32_fixed].
  if (r.u8() != kWireVersionPacked) return;
  type_ = static_cast<MsgType>(r.u8());
  if (type_ != MsgType::kRangeQuerySubRes && type_ != MsgType::kNNProbeSubRes) return;
  src_ = NodeId{r.u32_fixed()};
  get(r, req_id_);
  get(r, covered_size_);
  get(r, results_);
  if (!r.ok()) return;
  tail_ = r.bytes(r.remaining());
  valid_ = true;
}

bool SubResView::origin(std::optional<OriginArea>& out) const {
  if (!valid_) return false;
  Reader r(tail_.data(), tail_.size());
  get(r, out);
  if (!r.ok()) {
    out.reset();
    return false;
  }
  return out.has_value();
}

}  // namespace locs::wire
