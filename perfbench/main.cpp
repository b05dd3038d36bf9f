// Repository benchmark driver (see perfbench/README.md).
//
//   mxnbench --workload <couple-bulk|couple-fine|prmi-mixed> --seed <n>
//            --seconds <s> --trace <0|1> [--spans-out <file>]
//
// --trace 0 measures the end-to-end metrics with no benchmark spans;
// --trace 1 runs the workload untraced and then traced, and reports the
// per-layer metrics. The last stdout line is one JSON object; the line
// before it ("EXACT {...}") lists the counts that must repeat exactly for
// a given workload and seed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace pb = perfbench;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

/// Set-up-only spawns per run, besides the measured spawn(s); set-up time
/// is the median over all of them.
constexpr int kSetupSpawns = 20;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "mxnbench: %s\nusage: mxnbench --workload "
               "<couple-bulk|couple-fine|prmi-mixed> --seed <n> --seconds "
               "<s> --trace <0|1> [--spans-out <file>]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--spans-out") {
      o.spans_out = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Smallest number of ops in a slice of the timed loop (see LoopStats), so
/// that each slice's p90 has at least ten samples beyond it.
constexpr std::size_t kSliceOps = 100;

/// Timings of a measured spawn's loop. The loop is cut into slices of
/// consecutive whole rounds of at least kSliceOps ops, and each timing is
/// the median over slices of that slice's statistic. The shared machine
/// stalls the benchmark in bursts shorter than a second; a burst moves only
/// the slices it covers, and the median ignores them while they are fewer
/// than half. The percentiles pooled over every op are printed beside them.
struct LoopStats {
  double p50 = 0, p90 = 0, gbps = 0;
  std::size_t slices = 0;

  LoopStats(const pb::SpawnRecord& r, std::uint64_t payload_bytes) {
    const std::size_t rounds = r.round_s.size();
    const auto k = static_cast<std::size_t>(r.ops_per_round);
    const std::size_t per_slice = (kSliceOps + k - 1) / k;  // rounds
    slices = std::max<std::size_t>(1, rounds / per_slice);
    std::vector<double> p50s, p90s, rates;
    for (std::size_t i = 0; i < slices && rounds > 0; ++i) {
      // The last slice takes the rounds left over.
      const std::size_t r0 = i * per_slice;
      const std::size_t r1 = i + 1 == slices ? rounds : r0 + per_slice;
      const std::vector<double> ops(r.op_us.begin() + r0 * k,
                                    r.op_us.begin() + r1 * k);
      double window = 0;
      for (std::size_t j = r0; j < r1; ++j) window += r.round_s[j];
      p50s.push_back(quantile(ops, 0.5));
      p90s.push_back(quantile(ops, 0.9));
      rates.push_back(ratio(static_cast<double>(ops.size() * payload_bytes),
                            window) /
                      1e9);
    }
    p50 = quantile(p50s, 0.5);
    p90 = quantile(p90s, 0.5);
    gbps = quantile(rates, 0.5);
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_object(const std::vector<Metric>& ms, bool with_units) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": ";
    s += with_units ? "{\"value\": " + json_number(ms[i].value) +
                          ", \"unit\": \"" + ms[i].unit + "\"}"
                    : json_number(ms[i].value);
  }
  return s + "}";
}

/// Per-op library counts of a measured spawn, net of set-up, warm-up,
/// teardown (the set-up-only spawn `base` runs exactly those) and of the
/// benchmark's own control traffic.
struct LoopCounts {
  const pb::SpawnRecord& run;
  pb::Counters loop;  // run.delta - base.delta

  LoopCounts(const pb::SpawnRecord& r, const pb::SpawnRecord& base)
      : run(r), loop(pb::delta(r.delta, base.delta)) {}

  [[nodiscard]] double ops() const { return static_cast<double>(run.ops); }
  [[nodiscard]] double per_op(const std::string& counter) const {
    return ratio(pb::get(loop, counter), ops());
  }
  [[nodiscard]] double messages_per_op() const {
    return ratio(pb::get(loop, "rt.messages") -
                     static_cast<double>(run.ctrl_messages),
                 ops());
  }
  [[nodiscard]] double bytes_per_op() const {
    return ratio(
        pb::get(loop, "rt.bytes") - static_cast<double>(run.ctrl_bytes),
        ops());
  }
  [[nodiscard]] double calls_per_batch() const {
    return ratio(pb::get(loop, "prmi.batched_calls_sent"),
                 pb::get(loop, "prmi.batches_sent"));
  }
};

/// Span totals of one phase summed over ranks.
std::map<std::string, pb::SpanTotals> merged(const pb::SpawnRecord& r,
                                             const std::string& phase) {
  std::map<std::string, pb::SpanTotals> out;
  for (const auto& log : r.logs) {
    const auto totals = log.totals();
    auto it = totals.find(phase);
    if (it == totals.end()) continue;
    for (const auto& [name, t] : it->second) {
      auto& o = out[name];
      o.count += t.count;
      o.ns += t.ns;
      o.bytes += t.bytes;
    }
  }
  return out;
}

double sample_p50_us(const pb::SpawnRecord& r, const std::string& name) {
  std::vector<double> v;
  for (const auto& log : r.logs) {
    auto it = log.samples().find(name);
    if (it == log.samples().end()) continue;
    for (auto ns : it->second) v.push_back(static_cast<double>(ns) / 1e3);
  }
  return quantile(std::move(v), 0.5);
}

void write_spans(const std::string& path, const pb::SpawnRecord& r) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "mxnbench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  std::int64_t origin = INT64_MAX;
  for (const auto& log : r.logs)
    for (const auto& s : log.spans()) origin = std::min(origin, s.t0);
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const auto& log : r.logs) {
    for (const auto& s : log.spans()) {
      out << (first ? "\n" : ",\n");
      first = false;
      out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 0"
          << ", \"tid\": " << s.rank
          << ", \"ts\": "
          << json_number(static_cast<double>(s.t0 - origin) / 1e3)
          << ", \"dur\": "
          << json_number(static_cast<double>(s.t1 - s.t0) / 1e3)
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"op\": " << s.op << "}}";
    }
  }
  out << "\n]}\n";
}

/// Counts that must repeat exactly for one workload and seed.
std::vector<Metric> exact_counts(const LoopCounts& c) {
  return {
      {"rt.messages_per_op", c.messages_per_op(), "count"},
      {"core.transfers_per_op", c.per_op("mxn.transfers"), "count"},
      {"prmi.calls_per_batch", c.calls_per_batch(), "count"},
  };
}

/// Totals over every spawn of a run.
struct RunTotals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool spawn_error = false;
  std::vector<double> setups;  // set-up times of the spawns that completed
  pb::Counters counters;

  explicit RunTotals(const std::vector<pb::SpawnRecord>& runs) {
    for (const auto& r : runs) {
      attempted += r.attempted;
      failed += std::min(r.failed, r.attempted);
      spawn_error = spawn_error || !r.error.empty();
      if (r.error.empty()) setups.push_back(r.setup_s);
      for (const auto& [k, v] : r.delta) counters[k] += v;
    }
    // A spawn that threw lost at least the op it was running.
    if (spawn_error) failed = std::max<std::uint64_t>(failed, 1);
  }
};

std::string fixed(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

/// The end-to-end metrics of an untraced run, printed with their sample
/// counts.
std::vector<Metric> end_to_end(const pb::SpawnRecord& plain,
                               std::uint64_t payload_bytes,
                               const RunTotals& t) {
  const double error_rate = ratio(static_cast<double>(t.failed),
                                  static_cast<double>(t.attempted));
  const LoopStats stats(plain, payload_bytes);
  const std::vector<Metric> out = {
      {"op_us_p50", stats.p50, "us"},
      {"op_us_p90", stats.p90, "us"},
      {"redist_gbps", stats.gbps, "GB/s"},
      {"setup_s", quantile(t.setups, 0.5), "s"},
      {"peak_rss_mb", pb::peak_rss_mb(), "MiB"},
      {"success_ratio", 1.0 - error_rate, "ratio"},
  };
  const std::string n_ops = "n=" + std::to_string(plain.ops) + " ops";
  const std::string sliced = n_ops + ", median of " +
                             std::to_string(stats.slices) +
                             " slices; pooled ";
  const std::string notes[] = {
      sliced + fixed(quantile(plain.op_us, 0.5)),
      sliced + fixed(quantile(plain.op_us, 0.9)),
      sliced +
          fixed(ratio(static_cast<double>(plain.delivered_bytes),
                      plain.timed_s) /
                1e9) +
          " over " + fixed(plain.timed_s) + " s timed",
      "median of n=" + std::to_string(t.setups.size()) + " set-ups",
      "whole process",
      "n=" + std::to_string(t.attempted) + " ops attempted",
  };
  for (std::size_t i = 0; i < out.size(); ++i)
    std::printf("  %-14s %16.4f %-6s (%s)\n", out[i].name.c_str(),
                out[i].value, out[i].unit.c_str(), notes[i].c_str());
  std::printf("  %-14s %16.4f %-6s (%s; printed, not gated)\n", "op_us_p99",
              quantile(plain.op_us, 0.99), "us", n_ops.c_str());
  std::printf("  %-14s %16.6f %-6s (%llu failed / %llu attempted)\n",
              "error_rate", error_rate, "ratio",
              static_cast<unsigned long long>(t.failed),
              static_cast<unsigned long long>(t.attempted));
  return out;
}

/// The per-layer metrics of a traced run (see perfbench/README.md for
/// their definitions), printed.
std::vector<Metric> per_layer(pb::Workload& w, const pb::SpawnRecord& base,
                              const pb::SpawnRecord& plain,
                              const pb::SpawnRecord& traced,
                              const RunTotals& t) {
  const LoopCounts c(traced, base);
  const auto loop = merged(traced, "loop");
  auto span = [&](const std::string& name) {
    auto it = loop.find(name);
    return it == loop.end() ? pb::SpanTotals{} : it->second;
  };
  auto us_per_op = [&](double ns) { return ratio(ns / 1e3, c.ops()); };
  auto per_op = [&](std::uint64_t n) {
    return ratio(static_cast<double>(n), c.ops());
  };
  auto gbps = [](std::uint64_t bytes, std::int64_t ns) {
    return ratio(static_cast<double>(bytes), static_cast<double>(ns));
  };

  const auto ex = span("dad.extract");
  const auto in = span("dad.inject");
  const double src_ready_us =
      us_per_op(static_cast<double>(span("core.data_ready.src").ns));
  const double dst_ready_us =
      us_per_op(static_cast<double>(span("core.data_ready.dst").ns));
  double servant_ns = 0;
  for (const auto& [name, totals] : loop)
    if (name.rfind("prmi.servant.", 0) == 0)
      servant_ns += static_cast<double>(totals.ns);
  // Set-up critical path: the slowest rank's time inside establish().
  std::int64_t establish_ns = 0;
  for (const auto& log : traced.logs) {
    const auto totals = log.totals();
    auto it = totals.find("setup");
    if (it == totals.end()) continue;
    auto e = it->second.find("core.establish");
    if (e != it->second.end())
      establish_ns = std::max(establish_ns, e->second.ns);
  }
  // Receive waits net of the benchmark's own control collectives.
  const double recv_wait_us = std::max(
      0.0, us_per_op(pb::get(c.loop, "rt.recv_wait_ns.sum") -
                     static_cast<double>(traced.ctrl_ns)));
  const double ready_us = src_ready_us + dst_ready_us;
  const double self_us =
      ready_us > 0 ? ready_us - us_per_op(static_cast<double>(ex.ns)) -
                         us_per_op(static_cast<double>(in.ns)) - recv_wait_us
                   : 0.0;
  const double calls_per_op =
      c.per_op("prmi.invocations") + c.per_op("prmi.batched_calls_sent");
  const double hits = pb::get(traced.delta, "sched.cache.hits");
  const double misses = pb::get(traced.delta, "sched.cache.misses");
  const double pool_hit = pb::get(c.loop, "rt.pool.hit");
  const double pool_miss = pb::get(c.loop, "rt.pool.miss");
  const double untraced_p50 = LoopStats(plain, w.payload_bytes()).p50;
  const double traced_p50 = LoopStats(traced, w.payload_bytes()).p50;

  const std::vector<Metric> out = {
      {"dad.extract_us", us_per_op(static_cast<double>(ex.ns)), "us"},
      {"dad.inject_us", us_per_op(static_cast<double>(in.ns)), "us"},
      {"dad.extract_calls", per_op(ex.count), "count"},
      {"dad.inject_calls", per_op(in.count), "count"},
      {"dad.extract_gbps", gbps(ex.bytes, ex.ns), "GB/s"},
      {"dad.inject_gbps", gbps(in.bytes, in.ns), "GB/s"},
      {"dad.ns_per_region",
       ratio(static_cast<double>(ex.ns + in.ns),
             static_cast<double>(ex.count + in.count)),
       "ns"},
      {"sched.build_count", pb::get(base.delta, "sched.build_ns.count"),
       "count"},
      {"sched.build_us", pb::get(base.delta, "sched.build_ns.sum") / 1e3,
       "us"},
      {"sched.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"sched.kernel_memcpy_bytes", c.per_op("sched.kernel.memcpy_bytes"),
       "B"},
      {"sched.kernel_simd_bytes", c.per_op("sched.kernel.simd_bytes"), "B"},
      {"sched.kernel_scalar_bytes", c.per_op("sched.kernel.scalar_bytes"),
       "B"},
      {"sched.align_fallback", c.per_op("sched.align.fallback"), "count"},
      {"rt.messages_per_op", c.messages_per_op(), "count"},
      {"rt.bytes_per_op", c.bytes_per_op(), "B"},
      {"rt.copies_per_byte",
       ratio(pb::get(c.loop, "rt.bytes_copied"),
             static_cast<double>(traced.delivered_bytes)),
       "ratio"},
      {"rt.pool_hit_ratio", ratio(pool_hit, pool_hit + pool_miss), "ratio"},
      {"rt.recv_wait_us", recv_wait_us, "us"},
      {"rt.recv_waits", c.per_op("rt.recv_wait_ns.count"), "count"},
      {"rt.lane_contention", c.per_op("rt.mailbox.lane_contention"),
       "count"},
      {"core.src_data_ready_us", src_ready_us, "us"},
      {"core.dst_data_ready_us", dst_ready_us, "us"},
      {"core.self_us", self_us, "us"},
      {"core.establish_ms", static_cast<double>(establish_ns) / 1e6, "ms"},
      {"core.transfers_per_op", c.per_op("mxn.transfers"), "count"},
      {"core.retries", pb::get(t.counters, "mxn.retries"), "count"},
      {"core.failures", pb::get(t.counters, "mxn.transfer_failures"),
       "count"},
      {"prmi.push_us_p50", sample_p50_us(traced, "prmi.push"), "us"},
      {"prmi.pull_us_p50", sample_p50_us(traced, "prmi.pull"), "us"},
      {"prmi.batch_us_p50", sample_p50_us(traced, "prmi.batch"), "us"},
      {"prmi.invoke_us", c.per_op("prmi.invoke_ns.sum") / 1e3, "us"},
      {"prmi.servant_us", us_per_op(servant_ns), "us"},
      {"prmi.calls_per_batch", c.calls_per_batch(), "count"},
      {"prmi.messages_per_call", ratio(c.messages_per_op(), calls_per_op),
       "count"},
      {"prmi.retries", pb::get(t.counters, "prmi.retries"), "count"},
      {"prmi.dup_requests", pb::get(t.counters, "prmi.dup_requests"),
       "count"},
      {"baseline.copy_gbps", w.baseline_copy_gbps(), "GB/s"},
      {"trace.overhead_ratio", ratio(traced_p50, untraced_p50), "ratio"},
  };
  for (const auto& m : out)
    std::printf("  %-26s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("  (per op: sums over ranks, %llu traced ops; op_us_p50 "
              "untraced %.1f us, traced %.1f us)\n",
              static_cast<unsigned long long>(traced.ops), untraced_p50,
              traced_p50);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  std::unique_ptr<pb::Workload> w;
  if (opt.workload == "couple-bulk")
    w = pb::make_couple_bulk(opt.seed);
  else if (opt.workload == "couple-fine")
    w = pb::make_couple_fine(opt.seed);
  else if (opt.workload == "prmi-mixed")
    w = pb::make_prmi_mixed(opt.seed);
  else
    usage(("unknown workload " + opt.workload).c_str());

  // Set-up-only spawns first (the last one is the base that per-op counts
  // are taken net of), then the measured spawn(s). After a failed spawn
  // the rest are skipped, so a hang costs one deadline, not one per spawn.
  std::vector<pb::SpawnRecord> runs;
  auto run = [&](pb::SpawnPlan plan) {
    if (!runs.empty() && !runs.back().error.empty()) {
      runs.emplace_back().error = "skipped after an earlier failure";
      return;
    }
    runs.push_back(w->spawn(plan));
    if (!runs.back().error.empty())
      std::fprintf(stderr, "mxnbench: spawn failed: %s\n",
                   runs.back().error.c_str());
  };
  for (int i = 0; i < kSetupSpawns; ++i) run({.setup_only = true});
  const double loop_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  run({.seconds = loop_s});
  if (opt.trace) run({.traced = true, .seconds = loop_s});

  const pb::SpawnRecord& base = runs[kSetupSpawns - 1];
  const pb::SpawnRecord& plain = runs[kSetupSpawns];
  const RunTotals totals(runs);
  bool correct = totals.failed == 0 && plain.ops > 0;
  std::printf("perfbench %s seed=%llu trace=%d: %zu spawns, %llu ops "
              "attempted, %llu failed\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, runs.size(),
              static_cast<unsigned long long>(totals.attempted),
              static_cast<unsigned long long>(totals.failed));

  std::vector<Metric> exact = exact_counts(LoopCounts(plain, base));
  std::vector<Metric> out;
  if (!opt.trace) {
    out = end_to_end(plain, w->payload_bytes(), totals);
  } else {
    const pb::SpawnRecord& traced = runs[kSetupSpawns + 1];
    out = per_layer(*w, base, plain, traced, totals);
    // Library counts must not depend on the benchmark's own tracing.
    const auto traced_exact = exact_counts(LoopCounts(traced, base));
    for (std::size_t i = 0; i < exact.size(); ++i) {
      if (exact[i].value == traced_exact[i].value) continue;
      std::fprintf(stderr,
                   "mxnbench: %s differs between the untraced (%.17g) and "
                   "traced (%.17g) spawn\n",
                   exact[i].name.c_str(), exact[i].value,
                   traced_exact[i].value);
      correct = false;
    }
    for (const auto& m : out)
      if (m.name == "dad.extract_calls" || m.name == "dad.inject_calls")
        exact.push_back(m);
    if (!opt.spans_out.empty()) write_spans(opt.spans_out, traced);
  }

  std::printf("EXACT %s\n", json_object(exact, false).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(totals.attempted),
              static_cast<unsigned long long>(totals.failed),
              json_object(out, true).c_str());
  return 0;
}
