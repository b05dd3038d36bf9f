#pragma once

// Shared pieces of the repository benchmark (see perfbench/README.md):
// seeded inputs, the outside-in span recorder used by traced runs, library
// counter snapshots, and the per-spawn record every workload fills in.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/field.hpp"
#include "dad/dist_array.hpp"
#include "rt/communicator.hpp"

namespace perfbench {

using dad_index = mxn::dad::Index;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- seeded inputs ----------------------------------------------------------

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Element value of global linear index `g` of field `field` at `stamp`.
/// Never zero, exact in a double, and different for every stamp, so a
/// destination that missed a transfer cannot match the current stamp.
inline double element_value(std::uint64_t seed, int field, std::int64_t g,
                            std::uint64_t stamp) {
  const std::uint64_t h =
      mix64(seed ^ (static_cast<std::uint64_t>(field) << 48) ^
            static_cast<std::uint64_t>(g));
  return 1.0 + static_cast<double>(h >> 44) +
         static_cast<double>(stamp) * 1048576.0;
}

/// Visit this rank's local storage of `d` as runs contiguous in both local
/// storage and the global row-major index: fn(local_offset, global_index,
/// length).
template <class Fn>
void for_each_local_run(const mxn::dad::Descriptor& d, int rank, Fn&& fn) {
  const auto& patches = d.patches_of(rank);
  for (std::size_t i = 0; i < patches.size(); ++i) {
    const auto base = d.patch_base(rank, i);
    mxn::dad::for_each_row(
        patches[i], [&](const mxn::dad::Point& row, dad_index len) {
          dad_index g = 0;
          for (int a = 0; a < d.ndim(); ++a) g = g * d.extent(a) + row[a];
          fn(base + patches[i].offset_of(row), g, len);
        });
  }
}

/// Write element_value(...) into every locally owned element.
void fill_stamp(mxn::dad::DistArray<double>& a, std::uint64_t seed, int field,
                std::uint64_t stamp);

/// Number of locally owned elements that differ from element_value(...).
std::uint64_t count_mismatches(const mxn::dad::DistArray<double>& a,
                               std::uint64_t seed, int field,
                               std::uint64_t stamp);

// --- outside-in spans -------------------------------------------------------

/// One span recorded by the benchmark around a call into a library layer.
struct SpanRecord {
  const char* name = nullptr;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0: no enclosing span on this thread
  std::uint32_t op = 0;
  int rank = 0;
};

/// Per-name totals of one phase.
struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t ns = 0;
  std::uint64_t bytes = 0;
};

/// Span recorder of one rank thread. Spans stay in memory (the first
/// `cap` in full, every one in the per-name totals) and are written out
/// after the run. Op 0 is set-up; ops 1.. are timed.
class SpanLog {
 public:
  SpanLog(int rank, std::size_t cap) : rank_(rank), cap_(cap) {
    spans_.reserve(cap);
  }

  void set_op(std::uint32_t op) { op_ = op; }

  std::uint32_t open();
  /// Close the innermost open span (which must be `id`).
  void close(std::uint32_t id, const char* name, std::int64_t t0,
             std::uint64_t bytes, bool sample);

  /// Totals keyed by phase ("setup": op 0, "loop": ops 1..) and name.
  [[nodiscard]] std::map<std::string, std::map<std::string, SpanTotals>>
  totals() const;
  /// Durations of sampled spans in timed ops, by name.
  [[nodiscard]] const std::map<std::string, std::vector<std::int64_t>>&
  samples() const {
    return samples_;
  }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  struct Named {
    const char* name;
    SpanTotals totals;
  };
  SpanTotals& slot(std::uint32_t op, const char* name);

  int rank_;
  std::size_t cap_;
  std::uint32_t op_ = 0;
  std::uint32_t next_id_ = 1;
  std::vector<std::uint32_t> stack_;
  std::vector<SpanRecord> spans_;
  std::vector<Named> by_phase_[2];  // setup, loop
  std::map<std::string, std::vector<std::int64_t>> samples_;
};

/// The calling rank thread's recorder; null when the spawn is untraced.
SpanLog*& thread_log();

/// RAII span on the calling thread's recorder; free when untraced.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t bytes = 0,
                 bool sample = false)
      : log_(thread_log()), name_(name), bytes_(bytes), sample_(sample) {
    if (log_ != nullptr) {
      id_ = log_->open();
      t0_ = now_ns();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (log_ != nullptr) log_->close(id_, name_, t0_, bytes_, sample_);
  }

 private:
  SpanLog* log_;
  const char* name_;
  std::uint64_t bytes_;
  bool sample_;
  std::uint32_t id_ = 0;
  std::int64_t t0_ = 0;
};

/// Wrap a field registration's extract/inject closures in dad.extract /
/// dad.inject spans (traced spawns only).
mxn::core::FieldRegistration traced_field(mxn::core::FieldRegistration f);

// --- library counters -------------------------------------------------------

/// Values of every library counter plus count/sum of the library's latency
/// histograms ("<name>.count", "<name>.sum"), read between spawns.
using Counters = std::map<std::string, double>;
Counters read_counters();
/// a - b, counter by counter.
Counters delta(const Counters& a, const Counters& b);
inline double get(const Counters& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

// --- one spawn --------------------------------------------------------------

/// What one spawn of a workload measured.
struct SpawnRecord {
  double setup_s = 0;
  std::vector<double> op_us;     // timed ops, in order
  int ops_per_round = 1;
  std::vector<double> round_s;   // window of each round of timed ops
  double timed_s = 0;            // sum of round windows
  std::uint64_t ops = 0;         // timed ops
  std::uint64_t attempted = 0;   // warm-up op + timed ops
  std::uint64_t failed = 0;
  std::uint64_t delivered_bytes = 0;  // into destinations, timed ops
  Counters delta;                // library counters across the spawn
  std::uint64_t ctrl_messages = 0;    // benchmark control traffic
  std::uint64_t ctrl_bytes = 0;
  std::int64_t ctrl_ns = 0;      // rank time inside control collectives
  std::vector<SpanLog> logs;     // traced spawns only, one per rank
  std::string error;             // non-empty when the spawn threw
};

/// How a spawn is run.
struct SpawnPlan {
  bool setup_only = false;  // set up, warm up, tear down; no timed loop
  bool traced = false;
  double seconds = 0;       // timed-loop length
};

/// A workload: owns its seeded inputs across spawns and runs one spawn at a
/// time. payload_bytes() is what one op delivers into destinations.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual SpawnRecord spawn(const SpawnPlan& plan) = 0;
  [[nodiscard]] virtual std::uint64_t payload_bytes() const = 0;
  /// Single-threaded copy of the same redistribution, in GB/s.
  [[nodiscard]] virtual double baseline_copy_gbps() = 0;
};

std::unique_ptr<Workload> make_couple_bulk(std::uint64_t seed);
std::unique_ptr<Workload> make_couple_fine(std::uint64_t seed);
std::unique_ptr<Workload> make_prmi_mixed(std::uint64_t seed);

// --- timed loop -------------------------------------------------------------

/// What one rank thread of a spawn reports back.
struct RankState {
  std::vector<std::int64_t> t0;  // entry time of each timed op
  std::vector<std::int64_t> t1;  // exit time of each timed op
  std::int64_t setup_done = 0;   // warm-up op returned; 0 if not timed here
  std::uint64_t failed = 0;      // ops whose check failed
  std::int64_t ctrl_ns = 0;      // time inside control collectives
};

/// Round protocol shared by the workloads: a control collective before each
/// round of timed ops doubles as the barrier that separates the
/// benchmark's own between-round work (rewriting sources, checking
/// destinations) from the ops. Control rank 0 decides when the loop ends.
class RoundControl {
 public:
  RoundControl(mxn::rt::Communicator ctrl, double seconds)
      : ctrl_(std::move(ctrl)), seconds_(seconds) {}

  void start() { start_ns_ = now_ns(); }
  /// Collective over the control communicator: true to run another round.
  bool next_round();
  [[nodiscard]] std::int64_t ctrl_ns() const { return ctrl_ns_; }

 private:
  mxn::rt::Communicator ctrl_;
  double seconds_;
  std::int64_t start_ns_ = 0;
  std::int64_t ctrl_ns_ = 0;
};

/// Run `body` on ranks.size() rank threads with the spawn deadlines below
/// and fill `rec`: the library counter delta, any error, set-up time (from
/// the spawn call to the last rank's warm-up op), check failures, and the
/// timed ops. Op j runs from the earliest entry among `starters` to the
/// latest exit on any rank; a round's window from its first op's start to
/// its last op's end.
void run_spawn(SpawnRecord& rec, std::vector<RankState>& ranks,
               const std::vector<int>& starters, int ops_per_round,
               std::uint64_t payload_bytes,
               const std::function<void(mxn::rt::Communicator&)>& body);

/// One source array whose overlap with one destination array is copied.
struct CopyPair {
  const mxn::dad::DistArray<double>* src;
  mxn::dad::DistArray<double>* dst;
};

/// Single-threaded reference for a redistribution: the overlap of every
/// pair copied straight from source to destination local storage by memcpy
/// over precomputed contiguous runs — one thread, no messages. Returns the
/// median GB/s of repeated passes.
double baseline_copy_gbps(const std::vector<CopyPair>& pairs);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

// --- spawn deadlines --------------------------------------------------------

/// Every blocking receive without an explicit deadline fails after this
/// long, so a hang becomes a counted failed op instead of a stuck run.
inline constexpr int kRecvTimeoutMs = 20000;
inline constexpr int kDeadlockTimeoutMs = 10000;

}  // namespace perfbench
