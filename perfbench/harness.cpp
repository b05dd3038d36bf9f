#include "harness.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "rt/runtime.hpp"
#include "trace/trace.hpp"

namespace perfbench {

namespace {

// The library's latency histograms, read as "<name>.count" / "<name>.sum".
constexpr const char* kHistograms[] = {"rt.recv_wait_ns", "sched.build_ns",
                                       "prmi.invoke_ns"};

constexpr const char* kPhases[] = {"setup", "loop"};

int phase_of(std::uint32_t op) { return op == 0 ? 0 : 1; }

}  // namespace

void fill_stamp(mxn::dad::DistArray<double>& a, std::uint64_t seed, int field,
                std::uint64_t stamp) {
  double* data = a.local().data();
  for_each_local_run(a.descriptor(), a.rank(),
                     [&](dad_index off, dad_index g, dad_index len) {
                       for (dad_index i = 0; i < len; ++i)
                         data[off + i] =
                             element_value(seed, field, g + i, stamp);
                     });
}

std::uint64_t count_mismatches(const mxn::dad::DistArray<double>& a,
                               std::uint64_t seed, int field,
                               std::uint64_t stamp) {
  const double* data = a.local().data();
  std::uint64_t bad = 0;
  for_each_local_run(a.descriptor(), a.rank(),
                     [&](dad_index off, dad_index g, dad_index len) {
                       for (dad_index i = 0; i < len; ++i)
                         bad += data[off + i] !=
                                element_value(seed, field, g + i, stamp);
                     });
  return bad;
}

std::uint32_t SpanLog::open() {
  const std::uint32_t id = next_id_++;
  stack_.push_back(id);
  return id;
}

void SpanLog::close(std::uint32_t id, const char* name, std::int64_t t0,
                    std::uint64_t bytes, bool sample) {
  const std::int64_t t1 = now_ns();
  stack_.pop_back();
  const std::uint32_t parent = stack_.empty() ? 0 : stack_.back();
  if (spans_.size() < cap_)
    spans_.push_back({name, t0, t1, id, parent, op_, rank_});
  SpanTotals& t = slot(op_, name);
  ++t.count;
  t.ns += t1 - t0;
  t.bytes += bytes;
  if (sample && op_ != 0)
    samples_[name].push_back(t1 - t0);
}

SpanTotals& SpanLog::slot(std::uint32_t op, const char* name) {
  // Span names are string literals: a pointer match is the fast path.
  auto& named = by_phase_[phase_of(op)];
  for (auto& n : named)
    if (n.name == name || std::strcmp(n.name, name) == 0) return n.totals;
  named.push_back({name, {}});
  return named.back().totals;
}

std::map<std::string, std::map<std::string, SpanTotals>> SpanLog::totals()
    const {
  std::map<std::string, std::map<std::string, SpanTotals>> out;
  for (int p = 0; p < 2; ++p)
    for (const auto& n : by_phase_[p]) out[kPhases[p]][n.name] = n.totals;
  return out;
}

SpanLog*& thread_log() {
  thread_local SpanLog* log = nullptr;
  return log;
}

mxn::core::FieldRegistration traced_field(mxn::core::FieldRegistration f) {
  const std::size_t elem = f.elem_size;
  if (f.extract) {
    f.extract = [inner = std::move(f.extract), elem](
                    const mxn::dad::Patch& region, std::byte* out) {
      Scope s("dad.extract",
              static_cast<std::uint64_t>(region.volume()) * elem);
      inner(region, out);
    };
  }
  if (f.inject) {
    f.inject = [inner = std::move(f.inject), elem](
                   const mxn::dad::Patch& region, const std::byte* in) {
      Scope s("dad.inject",
              static_cast<std::uint64_t>(region.volume()) * elem);
      inner(region, in);
    };
  }
  return f;
}

Counters read_counters() {
  Counters c;
  for (const auto& [name, v] : mxn::trace::counters())
    c[name] = static_cast<double>(v);
  for (const char* h : kHistograms) {
    const auto& hist = mxn::trace::histogram(h);
    c[std::string(h) + ".count"] = static_cast<double>(hist.count());
    c[std::string(h) + ".sum"] = static_cast<double>(hist.sum());
  }
  return c;
}

Counters delta(const Counters& a, const Counters& b) {
  Counters d = a;
  for (const auto& [name, v] : b) d[name] -= v;
  return d;
}

bool RoundControl::next_round() {
  int stop = 0;
  if (ctrl_.rank() == 0)
    stop = now_ns() - start_ns_ >= static_cast<std::int64_t>(seconds_ * 1e9);
  const std::int64_t t = now_ns();
  stop = ctrl_.allreduce(stop, [](int a, int b) { return std::max(a, b); });
  ctrl_ns_ += now_ns() - t;
  return stop == 0;
}

void run_spawn(SpawnRecord& rec, std::vector<RankState>& ranks,
               const std::vector<int>& starters, int ops_per_round,
               std::uint64_t payload_bytes,
               const std::function<void(mxn::rt::Communicator&)>& body) {
  mxn::rt::SpawnOptions opts;
  opts.default_recv_timeout_ms = kRecvTimeoutMs;
  opts.deadlock_timeout_ms = kDeadlockTimeoutMs;
  const Counters before = read_counters();
  const std::int64_t start = now_ns();
  try {
    mxn::rt::spawn(static_cast<int>(ranks.size()), body, opts);
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  rec.delta = delta(read_counters(), before);

  for (const RankState& r : ranks) {
    if (r.setup_done != 0)
      rec.setup_s = std::max(rec.setup_s,
                             static_cast<double>(r.setup_done - start) / 1e9);
    rec.failed += r.failed;
    rec.ctrl_ns += r.ctrl_ns;
  }
  const std::size_t n = ranks[starters.front()].t0.size();
  rec.ops = n;
  rec.attempted = 1 + n;  // the warm-up op and the timed ops
  if (!rec.error.empty()) {
    ++rec.attempted;  // the op that was running
    ++rec.failed;
    return;
  }
  rec.delivered_bytes = n * payload_bytes;
  rec.ops_per_round = ops_per_round;
  auto first_in = [&](std::size_t j) {
    std::int64_t t = ranks[starters.front()].t0[j];
    for (int r : starters) t = std::min(t, ranks[r].t0[j]);
    return t;
  };
  auto last_out = [&](std::size_t j) {
    std::int64_t t = 0;
    for (const RankState& r : ranks)
      if (!r.t1.empty()) t = std::max(t, r.t1[j]);
    return t;
  };
  rec.op_us.resize(n);
  for (std::size_t j = 0; j < n; ++j)
    rec.op_us[j] = static_cast<double>(last_out(j) - first_in(j)) / 1e3;
  for (std::size_t j = 0; j + ops_per_round <= n; j += ops_per_round) {
    rec.round_s.push_back(
        static_cast<double>(last_out(j + ops_per_round - 1) - first_in(j)) /
        1e9);
    rec.timed_s += rec.round_s.back();
  }
}

double baseline_copy_gbps(const std::vector<CopyPair>& pairs) {
  struct Run {
    const double* from;
    double* to;
    std::size_t bytes;
  };
  std::vector<Run> runs;
  std::uint64_t total = 0;
  for (const auto& [s, d] : pairs) {
    const auto& sd = s->descriptor();
    const auto& sp = sd.patches_of(s->rank());
    const auto& dd = d->descriptor();
    const auto& dp = dd.patches_of(d->rank());
    for (std::size_t i = 0; i < sp.size(); ++i) {
      for (std::size_t j = 0; j < dp.size(); ++j) {
        const auto common = mxn::dad::Patch::intersect(sp[i], dp[j]);
        if (!common) continue;
        mxn::dad::for_each_row(
            *common, [&](const mxn::dad::Point& row, dad_index len) {
              runs.push_back({s->local().data() +
                                  sd.patch_base(s->rank(), i) +
                                  sp[i].offset_of(row),
                              d->local().data() +
                                  dd.patch_base(d->rank(), j) +
                                  dp[j].offset_of(row),
                              static_cast<std::size_t>(len) * sizeof(double)});
              total += static_cast<std::uint64_t>(len) * sizeof(double);
            });
      }
    }
  }
  std::vector<std::int64_t> passes;
  const std::int64_t start = now_ns();
  while (passes.size() < 3 ||
         (passes.size() < 50 && now_ns() - start < 300'000'000)) {
    const std::int64_t t0 = now_ns();
    for (const Run& r : runs) std::memcpy(r.to, r.from, r.bytes);
    passes.push_back(now_ns() - t0);
  }
  std::sort(passes.begin(), passes.end());
  return static_cast<double>(total) /
         static_cast<double>(passes[passes.size() / 2]);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace perfbench
