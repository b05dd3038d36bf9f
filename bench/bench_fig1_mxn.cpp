// Figure 1 reproduction: the M×N problem. Two parallel programs with M and
// N processes share a 3-D block-decomposed array; we sweep (M, N) —
// including the paper's illustrated 8 x 27 — and report the redistribution
// cost: schedule build time, per-transfer time, messages and bytes moved.
// The shape to observe: message count grows toward M*N as decompositions
// interleave, while per-transfer time stays dominated by bytes moved.

#include <cmath>
#include <memory>

#include "bench_util.hpp"
#include "rt/runtime.hpp"
#include "sched/cache.hpp"
#include "sched/executor.hpp"
#include "trace/trace.hpp"

namespace dad = mxn::dad;
namespace sched = mxn::sched;
namespace rt = mxn::rt;
using dad::AxisDist;
using dad::Point;

namespace {

struct Result {
  double build_s = 0;
  double xfer_s = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// 3-D grid dims for p processes: factor p as close to a cube as possible.
std::array<int, 3> cube(int p) {
  for (int a = static_cast<int>(std::cbrt(double(p)) + 0.5); a >= 1; --a) {
    if (p % a) continue;
    const int rest = p / a;
    for (int b = static_cast<int>(std::sqrt(double(rest)) + 0.5); b >= 1;
         --b)
      if (rest % b == 0) return {a, b, rest / b};
  }
  return {1, 1, p};
}

Result run_case(int m, int n, dad::Index extent) {
  const auto gm = cube(m);
  const auto gn = cube(n);
  auto src = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(extent, gm[0]), AxisDist::block(extent, gm[1]),
      AxisDist::block(extent, gm[2])});
  auto dst = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(extent, gn[0]), AxisDist::block(extent, gn[1]),
      AxisDist::block(extent, gn[2])});

  Result res;
  rt::spawn(m + n, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, m, n);
    const int ms = c.my_src_rank(), md = c.my_dst_rank();
    std::unique_ptr<dad::DistArray<double>> a, b;
    if (ms >= 0) {
      a = std::make_unique<dad::DistArray<double>>(src, ms);
      a->fill([](const Point& p) { return double(p[0] + p[1] + p[2]); });
    }
    if (md >= 0) b = std::make_unique<dad::DistArray<double>>(dst, md);

    world.barrier();
    const double t0 = bench::now_s();
    // Route the schedule through the cache: rep 0 misses and builds, every
    // later rep hits (same descriptors, same roles).
    sched::ScheduleCache cache;
    cache.get(src, dst, ms, md);
    world.barrier();
    const double t1 = bench::now_s();
    const auto stats0 = world.stats();
    constexpr int kReps = 3;
    for (int r = 0; r < kReps; ++r) {
      const auto s = cache.get(src, dst, ms, md);
      sched::execute<double>(*s, a.get(), b.get(), c, 5);
    }
    world.barrier();
    const double t2 = bench::now_s();
    if (world.rank() == 0) {
      const auto moved = world.stats() - stats0;
      res.build_s = t1 - t0;
      res.xfer_s = (t2 - t1) / kReps;
      // Subtract the barrier traffic (2*(m+n-1) empty messages per barrier).
      res.messages = (moved.messages - 2ull * (m + n - 1)) / kReps;
      res.bytes = moved.bytes / kReps;
    }
  });
  return res;
}

}  // namespace

int main() {
  std::printf("=== Figure 1: the M x N problem — parallel data "
              "redistribution across process counts ===\n");
  const dad::Index extent = 24;  // 24^3 doubles = 110 KiB
  bench::Table t({"M", "N", "elements", "messages", "bytes", "build_us",
                  "xfer_us", "MB/s"});
  for (auto [m, n] : std::vector<std::pair<int, int>>{
           {1, 4}, {4, 1}, {2, 3}, {4, 4}, {8, 8}, {8, 27}}) {
    auto r = run_case(m, n, extent);
    t.row({std::to_string(m), std::to_string(n),
           std::to_string(extent * extent * extent),
           std::to_string(r.messages), std::to_string(r.bytes),
           bench::fmt_us(r.build_s), bench::fmt_us(r.xfer_s),
           bench::fmt_mbs(double(r.bytes), r.xfer_s)});
  }
  t.print();
  std::printf("\nNote: M=8, N=27 is the exact scenario of the paper's "
              "Figure 1 (every N-side process assembles its block from "
              "several M-side exporters).\n");
  if (mxn::trace::enabled()) {
    const char* path = "trace_fig1_mxn.json";
    if (mxn::trace::write_chrome_trace(path))
      std::printf("trace: wrote %s (load in https://ui.perfetto.dev)\n",
                  path);
    else
      std::printf("trace: could not write %s\n", path);
  }
  return 0;
}
