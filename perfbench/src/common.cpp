#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <unordered_map>
#include <utility>

#include "bench.hpp"
#include "wire/messages.hpp"

namespace perfbench {

// --- metrics and statistics ----------------------------------------------------

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kUpdate: return "update";
    case Op::kPos: return "pos";
    case Op::kRange: return "range";
    case Op::kNN: return "nn";
  }
  return "?";
}

void Outcome::fail(const std::string& what) {
  ++failed;
  if (errors.size() < 10) errors.push_back(what);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1),
                       std::floor(q * static_cast<double>(v.size()))));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: that one survives execve, so it
  // reported the launching Python process's RSS whenever that was larger.
  double kib = 0.0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

namespace {

// The reference kernel's code: 1024 distinct small functions, called
// through a table in data-dependent order. Like the protocol path (codec,
// handler dispatch, std::function and variant visits), it keeps the front
// end busy with mispredicted indirect calls over a large code footprint, so
// it slows down with the host the way that path does. A dependent chain
// over a data table tracked the host's slow spells only a third as much.
template <int I>
std::uint64_t ref_step(std::uint64_t x) {
  x ^= x >> (I % 29 + 3);
  x *= 0x9e3779b97f4a7c15ULL + 2 * static_cast<std::uint64_t>(I);
  return x + I;
}

using RefStep = std::uint64_t (*)(std::uint64_t);

template <std::size_t... I>
std::array<RefStep, sizeof...(I)> ref_steps(std::index_sequence<I...>) {
  return {&ref_step<static_cast<int>(I)>...};
}

const std::array<RefStep, 1024> kRefSteps = ref_steps(std::make_index_sequence<1024>());

// The reference table: 200k hash-table nodes of 32 bytes plus the bucket
// array, 8 MiB in all, so most lookups miss L2 whatever the measured work
// left there.
constexpr std::uint64_t kTableKeys = 200000;
constexpr std::uint64_t kTableStride = 0x9e3779b97f4a7c15ULL;
constexpr std::size_t kArenaBytes = 16u << 20;

/// Bump allocation from one private mapping that is never freed before the
/// table: the table stays off the program's heap, and its resident size is
/// exactly the bytes handed out.
struct Arena {
  char* base = nullptr;
  std::size_t used = 0;

  Arena() {
    void* p = mmap(nullptr, kArenaBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    madvise(p, kArenaBytes, MADV_NOHUGEPAGE);
    base = static_cast<char*>(p);
  }
  ~Arena() { munmap(base, kArenaBytes); }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  void* take(std::size_t bytes, std::size_t align) {
    const std::size_t at = (used + align - 1) / align * align;
    if (at + bytes > kArenaBytes) throw std::bad_alloc();
    used = at + bytes;
    return base + at;
  }
};

template <typename T>
struct ArenaAlloc {
  using value_type = T;
  Arena* arena;
  explicit ArenaAlloc(Arena* a) : arena(a) {}
  template <typename U>
  ArenaAlloc(const ArenaAlloc<U>& o) : arena(o.arena) {}  // NOLINT: rebinding
  T* allocate(std::size_t n) { return static_cast<T*>(arena->take(n * sizeof(T), alignof(T))); }
  void deallocate(T*, std::size_t) {}
  bool operator==(const ArenaAlloc& o) const { return arena == o.arena; }
};

}  // namespace

struct HostSpeed::Table {
  // The padded value makes a node 32 bytes, the spacing glibc gives a
  // 24-byte node; the kernel's tracking was measured with that layout.
  using Value = std::array<std::uint64_t, 2>;
  using Map = std::unordered_map<std::uint64_t, Value, std::hash<std::uint64_t>,
                                 std::equal_to<>,
                                 ArenaAlloc<std::pair<const std::uint64_t, Value>>>;
  Arena arena;
  Map map{0, std::hash<std::uint64_t>{}, std::equal_to<>{}, Map::allocator_type(&arena)};
};

HostSpeed::HostSpeed() : table_(std::make_unique<Table>()) {
  table_->map.reserve(kTableKeys);
  for (std::uint64_t i = 0; i < kTableKeys; ++i) table_->map[i * kTableStride] = {i, 0};
}

HostSpeed::~HostSpeed() = default;

double HostSpeed::table_mb() const {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t resident = (table_->arena.used + page - 1) / page * page;
  return static_cast<double>(resident) / (1024.0 * 1024.0);
}

double HostSpeed::calibrate() {
  // Untimed: call every function once first, so the timed pass never
  // refetches code the measured work evicted. The table is not warmed: it
  // is too large for L2 either way, and a 96 MiB random-write sweep before
  // the kernel slowed the whole kernel by only ~1 % against a 512 KiB one.
  std::uint64_t x = 0x9e3779b97f4a7c15ULL ^ sink_;
  for (const RefStep step : kRefSteps) x = step(x);
  // Each part takes about a quarter of the time, the allocator half: that
  // mix tracked the protocol path's slow spells best of the kernels tried.
  constexpr int kCalls = 20000;
  constexpr int kLookups = 6000;
  constexpr int kAllocs = 30000;
  std::array<void*, 256> live{};
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kCalls; ++i) x = kRefSteps[(x >> 20) & (kRefSteps.size() - 1)](x);
  for (int i = 0; i < kLookups; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto it = table_->map.find(((x >> 33) % kTableKeys) * kTableStride);
    if (it != table_->map.end()) it->second[0] += x;
  }
  // Allocator churn on the program's own heap: fixed sizes and order, the
  // message buffers' size range, at most 256 blocks live.
  std::uint64_t y = 12345;
  for (int i = 0; i < kAllocs; ++i) {
    y = y * 6364136223846793005ULL + 1442695040888963407ULL;
    void*& slot = live[(y >> 40) & 255];
    std::free(slot);
    slot = std::malloc(16 + ((y >> 20) & 511));
    if (slot == nullptr) throw std::bad_alloc();
    static_cast<char*>(slot)[0] = static_cast<char>(x);
  }
  for (void* p : live) std::free(p);
  sink_ = x;
  const double factor =
      kNominalNs / static_cast<double>(std::max<std::int64_t>(now_ns() - t0, 1));
  factors_.push_back(factor);
  return factor;
}

double HostSpeed::median_factor() const { return median(factors_); }

namespace {

/// A p99 needs at least this many samples of one operation type to mean
/// something (ten samples beyond it).
constexpr std::size_t kMinP99Samples = 1000;

double p99_or_zero(const std::vector<double>& v) {
  return v.size() >= kMinP99Samples ? percentile(v, 0.99) : 0.0;
}

}  // namespace

void fill_e2e(Outcome& out, const Samples& s, const std::vector<double>& setup_s,
              double rss_mb) {
  out.e2e.set("setup_s", median(setup_s), "s");
  out.e2e.set("throughput_ops_s", median(s.window_ops_s), "ops/s");
  out.e2e.set("latency_p50_us", median(s.window_p50_us), "us");
  out.e2e.set("latency_p99_us", median(s.window_p99_us), "us");
  out.e2e.set("rss_mb", rss_mb, "MiB");
  char line[256];
  std::snprintf(line, sizeof line,
                "measured: %llu ops in %llu blocks, %zu windows, %.3f s inside the system",
                static_cast<unsigned long long>(s.ops),
                static_cast<unsigned long long>(s.blocks), s.window_ops_s.size(),
                s.active_s);
  out.note(line);
  for (const auto& [name, v] : {std::pair{"throughput (ops/s)", &s.window_ops_s},
                                std::pair{"latency p50 (us)", &s.window_p50_us},
                                std::pair{"latency p99 (us)", &s.window_p99_us}}) {
    std::snprintf(line, sizeof line, "window %-18s min %.2f  median %.2f  max %.2f", name,
                  *std::min_element(v->begin(), v->end()), median(*v),
                  *std::max_element(v->begin(), v->end()));
    out.note(line);
  }
  for (std::size_t t = 0; t < kOpTypes; ++t) {
    const auto& v = s.wall_us[t];
    if (v.empty()) continue;
    std::snprintf(line, sizeof line, "  %-6s n=%-8zu p50 %9.2f us   p99 %9.2f us%s",
                  op_name(static_cast<Op>(t)), v.size(), median(v),
                  percentile(v, 0.99),
                  v.size() >= kMinP99Samples ? "" : " (p99 needs >= 1000 samples)");
    out.note(line);
  }
}

void fill_op_metrics(Metrics& m, const Samples& s, std::uint64_t failed,
                     std::uint64_t attempted) {
  const auto& w = s.wall_us;
  const auto idx = [](Op op) { return static_cast<std::size_t>(op); };
  m.set("op.update_p50_us", median(w[idx(Op::kUpdate)]), "us");
  m.set("op.update_p99_us", p99_or_zero(w[idx(Op::kUpdate)]), "us");
  m.set("op.pos_p50_us", median(w[idx(Op::kPos)]), "us");
  m.set("op.range_p50_us", median(w[idx(Op::kRange)]), "us");
  m.set("op.range_p99_us", p99_or_zero(w[idx(Op::kRange)]), "us");
  m.set("op.nn_p50_us", median(w[idx(Op::kNN)]), "us");
  m.set("op.nn_p99_us", p99_or_zero(w[idx(Op::kNN)]), "us");
  m.set("op.lan_p50_us", median(s.lan_us), "us");
  m.set("op.failed_frac",
        attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                      : 0.0,
        "ratio");
}

// --- tracer --------------------------------------------------------------------

std::uint32_t Tracer::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  aggs_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void Tracer::end() {
  if (!enabled_ || stack_.empty()) return;
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t t = now_ns();
  const std::int64_t dur = t - o.start;
  Agg& a = aggs_[o.name];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += dur - o.child_ns;
  std::uint64_t parent = 0;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    parent = stack_.back().id;
  }
  if (raw_.size() < kRawCap) raw_.push_back(Raw{o.id, parent, op_, o.name, o.start, t});
}

Tracer::Agg Tracer::agg_prefix(const std::string& prefix) const {
  Agg sum;
  for_each(prefix, [&](const std::string&, const Agg& a) {
    sum.count += a.count;
    sum.total_ns += a.total_ns;
    sum.self_ns += a.self_ns;
  });
  return sum;
}

void Tracer::for_each(
    const std::string& prefix,
    const std::function<void(const std::string&, const Agg&)>& fn) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i].compare(0, prefix.size(), prefix) == 0) fn(names_[i], aggs_[i]);
  }
}

bool Tracer::write_csv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,op,name,start_ns,end_ns\n");
  for (const Raw& r : raw_) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.op), names_[r.name].c_str(),
                 static_cast<long long>(r.start), static_cast<long long>(r.end));
  }
  return std::fclose(f) == 0;
}

// --- shims -----------------------------------------------------------------------

TracingTransport::TracingTransport(net::SimNetwork& inner, Tracer& tracer,
                                   std::function<Role(NodeId)> role)
    : inner_(inner), tracer_(tracer), role_(std::move(role)) {
  constexpr auto kLast = static_cast<std::size_t>(wire::MsgType::kStandbyDemote);
  const char* prefixes[] = {"client.", "handle.inner.", "handle.leaf."};
  for (std::size_t r = 0; r < names_.size(); ++r) {
    for (std::size_t t = 0; t < names_[r].size(); ++t) {
      const std::string type =
          t >= 1 && t <= kLast ? wire::msg_type_name(static_cast<wire::MsgType>(t))
                               : "Unknown";
      names_[r][t] = tracer_.intern(prefixes[r] + type);
    }
  }
}

void TracingTransport::attach(NodeId node, net::DatagramHandler handler) {
  const auto* names = &names_[static_cast<std::size_t>(role_(node))];
  inner_.attach(node, net::DatagramHandler([this, names, h = std::move(handler)](
                                               const net::Datagram& dg) {
    const std::size_t type = dg.size() > 1 ? (dg.data()[1] & 63u) : 0;
    Span span(tracer_, (*names)[type]);
    h(dg);
  }));
}

namespace {

struct IndexSpanNames {
  std::uint32_t insert, update, remove, query_rect, query_circle, k_nearest;
};

class TracingIndex final : public spatial::SpatialIndex {
 public:
  TracingIndex(std::unique_ptr<spatial::SpatialIndex> inner, Tracer& tracer,
               IndexCounters& counters, IndexSpanNames names)
      : inner_(std::move(inner)), tracer_(tracer), c_(counters), n_(names) {}

  void insert(ObjectId id, geo::Point pos) override {
    ++c_.calls;
    Span s(tracer_, n_.insert);
    inner_->insert(id, pos);
  }
  bool remove(ObjectId id) override {
    ++c_.calls;
    Span s(tracer_, n_.remove);
    return inner_->remove(id);
  }
  void update(ObjectId id, geo::Point pos) override {
    ++c_.calls;
    Span s(tracer_, n_.update);
    inner_->update(id, pos);
  }
  void query_rect(const geo::Rect& rect, std::vector<spatial::Entry>& out) const override {
    ++c_.calls;
    const std::size_t before = out.size();
    Span s(tracer_, n_.query_rect);
    inner_->query_rect(rect, out);
    c_.rect_candidates += out.size() - before;
  }
  void query_circle(const geo::Circle& circle,
                    std::vector<spatial::Entry>& out) const override {
    ++c_.calls;
    const std::size_t before = out.size();
    Span s(tracer_, n_.query_circle);
    inner_->query_circle(circle, out);
    c_.circle_candidates += out.size() - before;
  }
  std::vector<spatial::Entry> k_nearest(geo::Point p, std::size_t k) const override {
    ++c_.calls;
    Span s(tracer_, n_.k_nearest);
    std::vector<spatial::Entry> out = inner_->k_nearest(p, k);
    c_.knn_entries += out.size();
    return out;
  }
  std::size_t size() const override { return inner_->size(); }
  void clear() override { inner_->clear(); }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<spatial::SpatialIndex> inner_;
  Tracer& tracer_;
  IndexCounters& c_;
  IndexSpanNames n_;
};

}  // namespace

spatial::IndexFactory tracing_index_factory(Tracer& tracer, IndexCounters& counters) {
  const IndexSpanNames names{tracer.intern("index.insert"),
                             tracer.intern("index.update"),
                             tracer.intern("index.remove"),
                             tracer.intern("index.query_rect"),
                             tracer.intern("index.query_circle"),
                             tracer.intern("index.k_nearest")};
  return [&tracer, &counters, names] {
    return std::make_unique<TracingIndex>(spatial::make_point_quadtree(), tracer,
                                          counters, names);
  };
}

void replay_wire(Metrics& m, const std::vector<std::vector<std::uint8_t>>& datagrams) {
  if (datagrams.empty()) return;
  std::vector<wire::Envelope> decoded(datagrams.size());
  double bytes = 0.0;
  for (std::size_t i = 0; i < datagrams.size(); ++i) {
    (void)wire::decode_envelope_into(decoded[i], datagrams[i].data(), datagrams[i].size());
    bytes += static_cast<double>(datagrams[i].size());
  }
  // Whole passes over the capture until at least 50 ms were timed, so the
  // per-message figure is not dominated by clock resolution.
  constexpr std::int64_t kMinTimedNs = 50'000'000;
  wire::Envelope scratch;
  std::uint64_t n = 0;
  const std::int64_t d0 = now_ns();
  do {
    for (const auto& d : datagrams) {
      (void)wire::decode_envelope_into(scratch, d.data(), d.size());
      ++n;
    }
  } while (now_ns() - d0 < kMinTimedNs);
  const double decode_ns = static_cast<double>(now_ns() - d0) / static_cast<double>(n);

  wire::Buffer out;
  std::uint64_t e = 0;
  const std::int64_t e0 = now_ns();
  do {
    for (const wire::Envelope& env : decoded) {
      wire::encode_envelope_into(out, env.src, env.msg);
      ++e;
    }
  } while (now_ns() - e0 < kMinTimedNs);
  const double encode_ns = static_cast<double>(now_ns() - e0) / static_cast<double>(e);

  m.set("wire.decode_ns_per_msg", decode_ns, "ns");
  m.set("wire.encode_ns_per_msg", encode_ns, "ns");
  m.set("wire.bytes_per_msg", bytes / static_cast<double>(datagrams.size()), "B");
}

}  // namespace perfbench
