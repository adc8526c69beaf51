// Shared pieces of the location-service benchmark: metrics, result
// statistics, the span tracer and the two measuring shims (a Transport
// decorator and a SpatialIndex decorator) that wrap the layers' public
// interfaces from outside the library.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/sim_network.hpp"
#include "spatial/spatial_index.hpp"
#include "util/ids.hpp"

namespace perfbench {

using namespace locs;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
};

/// Ordered (name, value, unit) list; the last stdout line is built from it.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// The four client operation types of the paper's Table 2.
enum class Op : std::uint8_t { kUpdate, kPos, kRange, kNN };
inline constexpr std::size_t kOpTypes = 4;
const char* op_name(Op op);

/// Timing samples of one measured phase (untraced or traced).
struct Samples {
  std::array<std::vector<double>, kOpTypes> wall_us;  // request -> answer
  std::vector<double> lan_us;  // virtual response times (SimNetwork)
  // One entry per window: a fixed number of blocks with a fixed operation
  // mix. Latency percentiles are over every operation type of the window.
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  std::vector<double> window_ops_s;
  std::uint64_t blocks = 0;
  std::uint64_t ops = 0;
  double active_s = 0.0;  // time spent inside the system (excludes oracle)
};

/// What a workload run hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few mismatches, for stderr
  Metrics e2e;     // end-to-end metrics (untraced run)
  Metrics layers;  // per-layer metrics (traced run)
  std::vector<std::string> notes;  // human-readable report lines

  void fail(const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
};

/// Host-speed reference. The benchmark host's speed drifts by up to about
/// +-30 % over seconds to minutes, and a plain CPU loop drifts with it, so
/// fixed work and medians alone leave the medians of two sets of runs that
/// far apart. Every wall-time measurement is therefore scaled by how long a
/// fixed reference kernel took just before it, relative to the kernel's
/// nominal time: timings read as on a host that runs the kernel in
/// kNominalNs. The kernel has three parts, timed together: indirect calls
/// through many small functions (front-end bound, its code brought into
/// cache by an untimed pass first), lookups in a hash table far larger
/// than L2 (cache- and memory-bound) and malloc/free churn on the heap.
/// The host's slow spells hit the protocol path through all three. The
/// report prints the median speed factor of each run.
class HostSpeed {
 public:
  static constexpr double kNominalNs = 1300000.0;

  HostSpeed();
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Runs the reference kernel; returns the factor to multiply durations
  /// measured right after it by (nominal time / measured time).
  double calibrate();
  /// Median of every factor returned so far (for the report).
  double median_factor() const;
  /// Resident memory of the reference table, to keep out of rss_mb. The
  /// table lives in its own mapping, so the program's heap is as without it.
  double table_mb() const;

 private:
  struct Table;
  std::unique_ptr<Table> table_;
  std::uint64_t sink_ = 0;
  std::vector<double> factors_;
};

double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double peak_rss_mb();

/// Fills the end-to-end metrics shared by every workload (latencies and
/// throughput as medians over windows, setup_s as the median set-up) and
/// the per-type latency lines of the report. `rss_mb` is read before the
/// measured phase, so the benchmark's own sample buffers do not count.
void fill_e2e(Outcome& out, const Samples& s, const std::vector<double>& setup_s,
              double rss_mb);
/// Per-operation-type latencies (the op.* per-layer entries).
void fill_op_metrics(Metrics& m, const Samples& s, std::uint64_t failed,
                     std::uint64_t attempted);

// --- tracing -----------------------------------------------------------------

/// Span recorder. Spans nest (operation -> step -> handle -> index call);
/// each closed span adds its duration to its name's total and its self time
/// (duration minus the time covered by its child spans). A top-level span
/// starts a new operation id, shared by every span inside it. Raw spans are
/// kept in memory up to a cap and written out once, at the end of the run.
class Tracer {
 public:
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  std::uint32_t intern(const std::string& name);

  void begin(std::uint32_t name) {
    if (!enabled_) return;
    if (stack_.empty()) ++op_;
    stack_.push_back(Open{name, now_ns(), 0, next_id_++});
  }
  void end();

  /// Toggle only between operations (no span open).
  void set_enabled(bool on) { enabled_ = on; }

  /// Sum over every span name starting with `prefix`.
  Agg agg_prefix(const std::string& prefix) const;
  /// Visits (name, agg) for every name starting with `prefix`.
  void for_each(const std::string& prefix,
                const std::function<void(const std::string&, const Agg&)>& fn) const;

  /// Writes the raw spans as CSV (id,parent,op,name,start_ns,end_ns).
  bool write_csv(const std::string& path) const;
  std::size_t raw_spans() const { return raw_.size(); }

 private:
  struct Open {
    std::uint32_t name;
    std::int64_t start;
    std::int64_t child_ns;
    std::uint64_t id;
  };
  struct Raw {
    std::uint64_t id, parent, op;
    std::uint32_t name;
    std::int64_t start, end;
  };
  static constexpr std::size_t kRawCap = 200000;

  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::uint64_t next_id_ = 1;
  std::vector<std::string> names_;
  std::vector<Agg> aggs_;
  std::vector<Open> stack_;
  std::vector<Raw> raw_;
};

class Span {
 public:
  Span(Tracer& t, std::uint32_t name) : t_(t) { t_.begin(name); }
  ~Span() { t_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
};

/// Transport decorator: forwards everything to a SimNetwork and wraps each
/// handler handed to attach() in a span named after the receiving node's
/// role and the message type (envelope byte 1): handle.leaf.<MsgType>,
/// handle.inner.<MsgType>, or client.<MsgType> for the benchmark's own
/// client nodes.
class TracingTransport : public net::Transport {
 public:
  enum class Role : std::uint8_t { kClient, kInner, kLeaf };
  TracingTransport(net::SimNetwork& inner, Tracer& tracer,
                   std::function<Role(NodeId)> role);

  using Transport::attach;
  void attach(NodeId node, net::DatagramHandler handler) override;
  void detach(NodeId node) override { inner_.detach(node); }
  using Transport::send;
  void send(NodeId from, NodeId to, net::PooledBuffer bytes) override {
    inner_.send(from, to, std::move(bytes));
  }

 private:
  net::SimNetwork& inner_;
  Tracer& tracer_;
  std::function<Role(NodeId)> role_;
  std::array<std::array<std::uint32_t, 64>, 3> names_{};  // [role][type]
};

/// Work counted by the SpatialIndex decorator.
struct IndexCounters {
  std::uint64_t calls = 0;
  std::uint64_t rect_candidates = 0;
  std::uint64_t circle_candidates = 0;
  std::uint64_t knn_entries = 0;
};

/// Builds spatial::make_point_quadtree() indexes wrapped in a decorator that
/// forwards every virtual (update and query_circle included, so the wrapped
/// index's own implementations run) inside a span, counting candidates.
spatial::IndexFactory tracing_index_factory(Tracer& tracer, IndexCounters& counters);

/// Replays captured datagrams through wire::decode_envelope_into and
/// wire::encode_envelope_into; fills the wire.* metrics.
void replay_wire(Metrics& m, const std::vector<std::vector<std::uint8_t>>& datagrams);

// --- workloads -----------------------------------------------------------------
// A traced run reports only the per-layer metrics its workload reaches;
// run.py takes the full list from BENCHMARK.json and fills the rest with 0.

Outcome run_update_path(const Args& args);
Outcome run_query_path(const Args& args);
Outcome run_city_rush(const Args& args);

/// The paper's Table 2 rows in SimNetwork virtual time (paper.t2.*).
void table2_rows(Outcome& out);

}  // namespace perfbench
