// The two M×N coupling workloads: 2 producer ranks → 2 consumer ranks of
// one paired MxNComponent, a closed loop of data_ready() steps.
//
//  couple-bulk  one 256×256×128 field, block(axis 0) → block(axis 1),
//               rendezvous ("handshake") policy: bandwidth-bound.
//  couple-fine  16 fields of 64×256, row-block → column-cyclic, reliable
//               two-phase policy, fields readied in a seeded order:
//               message- and per-region-bound.

#include <algorithm>
#include <array>
#include <atomic>
#include <string>

#include "core/mxn_component.hpp"
#include "harness.hpp"

namespace perfbench {

namespace core = mxn::core;
namespace dad = mxn::dad;
namespace rt = mxn::rt;
using dad::AxisDist;

namespace {

constexpr int kProducers = 2;
constexpr int kConsumers = 2;
constexpr int kRanks = kProducers + kConsumers;
constexpr std::size_t kSpanCap = 4096;

struct CoupleConfig {
  int nfields = 1;
  dad::DescriptorPtr src_desc;
  dad::DescriptorPtr dst_desc;
  core::ConnectionSpec spec;  // field names are filled in per field
  int ops_per_round = 1;
};

class CoupleWorkload final : public Workload {
 public:
  CoupleWorkload(CoupleConfig cfg, std::uint64_t seed)
      : cfg_(std::move(cfg)), seed_(seed) {
    for (int f = 0; f < cfg_.nfields; ++f) {
      names_.push_back("f" + std::to_string(f));
      for (int p = 0; p < kProducers; ++p)
        src_[p].push_back(
            std::make_unique<dad::DistArray<double>>(cfg_.src_desc, p));
      for (int q = 0; q < kConsumers; ++q)
        dst_[q].push_back(
            std::make_unique<dad::DistArray<double>>(cfg_.dst_desc, q));
    }
  }

  [[nodiscard]] std::uint64_t payload_bytes() const override {
    return static_cast<std::uint64_t>(cfg_.nfields) *
           static_cast<std::uint64_t>(cfg_.src_desc->total_volume()) *
           sizeof(double);
  }

  double baseline_copy_gbps() override {
    std::vector<CopyPair> pairs;
    for (int f = 0; f < cfg_.nfields; ++f)
      for (auto& s : src_)
        for (auto& d : dst_) pairs.push_back({s[f].get(), d[f].get()});
    return perfbench::baseline_copy_gbps(pairs);
  }

  SpawnRecord spawn(const SpawnPlan& plan) override;

 private:
  /// Order in which every rank readies the fields in op `op`: a seeded
  /// permutation that all ranks derive identically.
  [[nodiscard]] std::vector<int> order(std::uint32_t op) const {
    std::vector<int> o(cfg_.nfields);
    for (int i = 0; i < cfg_.nfields; ++i) o[i] = i;
    std::uint64_t h = mix64(seed_ ^ (0x6f72646572ULL + op));
    for (int i = cfg_.nfields - 1; i > 0; --i) {
      h = mix64(h);
      std::swap(o[i], o[h % static_cast<std::uint64_t>(i + 1)]);
    }
    return o;
  }

  CoupleConfig cfg_;
  std::uint64_t seed_;
  std::vector<std::string> names_;
  std::array<std::vector<std::unique_ptr<dad::DistArray<double>>>, kProducers>
      src_;
  std::array<std::vector<std::unique_ptr<dad::DistArray<double>>>, kConsumers>
      dst_;
  std::uint64_t next_stamp_ = 1;
};

SpawnRecord CoupleWorkload::spawn(const SpawnPlan& plan) {
  SpawnRecord rec;
  // The warm-up op carries a fresh stamp, written before the clock starts
  // (the seeded fill is not set-up work); round r carries base + 1 + r.
  const std::uint64_t base = next_stamp_;
  for (int f = 0; f < cfg_.nfields; ++f)
    for (int p = 0; p < kProducers; ++p)
      fill_stamp(*src_[p][f], seed_, f, base);

  std::vector<RankState> ranks(kRanks);
  if (plan.traced)
    for (int r = 0; r < kRanks; ++r) rec.logs.emplace_back(r, kSpanCap);
  std::atomic<std::uint64_t> rounds{0};

  auto body = [&](rt::Communicator& world) {
    const int rank = world.rank();
    RankState& me = ranks[rank];
    SpanLog* log = plan.traced ? &rec.logs[rank] : nullptr;
    thread_log() = log;
    const bool producer = rank < kProducers;
    const int cr = producer ? rank : rank - kProducers;

    auto mxn = core::make_paired_mxn(world, kProducers, kConsumers);
    rt::Communicator ctrl = world.split(0, rank);
    for (int f = 0; f < cfg_.nfields; ++f) {
      auto reg = producer ? core::make_field(names_[f], src_[cr][f].get(),
                                             core::AccessMode::Read)
                          : core::make_field(names_[f], dst_[cr][f].get(),
                                             core::AccessMode::Write);
      mxn->register_field(plan.traced ? traced_field(std::move(reg)) : reg);
    }
    for (int f = 0; f < cfg_.nfields; ++f) {
      core::ConnectionSpec spec = cfg_.spec;
      spec.src_field = spec.dst_field = names_[f];
      Scope s("core.establish");
      mxn->establish(spec);
    }

    const char* ready_span =
        producer ? "core.data_ready.src" : "core.data_ready.dst";
    auto run_op = [&](std::uint32_t op) {
      if (log != nullptr) log->set_op(op);
      const std::vector<int> fields = order(op);
      const std::int64_t t0 = now_ns();
      {
        Scope s("op");
        for (int f : fields) {
          Scope r(ready_span);
          mxn->data_ready(names_[f]);
        }
      }
      const std::int64_t t1 = now_ns();
      if (op > 0) {
        me.t0.push_back(t0);
        me.t1.push_back(t1);
      }
    };
    auto check = [&](std::uint64_t stamp) {
      if (producer) return;
      for (int f = 0; f < cfg_.nfields; ++f)
        if (count_mismatches(*dst_[cr][f], seed_, f, stamp) != 0) {
          ++me.failed;
          return;
        }
    };

    run_op(0);  // warm-up: the op that completes set-up
    me.setup_done = now_ns();
    check(base);

    if (!plan.setup_only) {
      RoundControl rc(ctrl, plan.seconds);
      rc.start();
      std::uint32_t op = 1;
      for (std::uint64_t r = 0;; ++r) {
        const std::uint64_t stamp = base + 1 + r;
        if (producer)
          for (int f = 0; f < cfg_.nfields; ++f)
            fill_stamp(*src_[cr][f], seed_, f, stamp);
        if (!rc.next_round()) break;
        for (int k = 0; k < cfg_.ops_per_round; ++k) run_op(op++);
        check(stamp);
        if (rank == 0) rounds.store(r + 1);
      }
      me.ctrl_ns = rc.ctrl_ns();
    }
    // Teardown: once every rank is past its last control collective, the
    // control communicator's traffic count is final.
    world.barrier();
    if (rank == 0) {
      const auto st = ctrl.stats();
      rec.ctrl_messages = st.messages;
      rec.ctrl_bytes = st.bytes;
    }
    thread_log() = nullptr;
  };
  run_spawn(rec, ranks, {0, 1}, cfg_.ops_per_round, payload_bytes(), body);
  // Stamps up to base + 1 + rounds were written into the sources.
  next_stamp_ = base + 2 + rounds.load();
  return rec;
}

}  // namespace

std::unique_ptr<Workload> make_couple_bulk(std::uint64_t seed) {
  // 256×256×128 doubles = 64 MiB; each producer→consumer region is
  // 128×128×128 doubles = 16 MiB, the rt::Buffer pool's largest bucket.
  CoupleConfig cfg;
  cfg.nfields = 1;
  cfg.src_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(256, kProducers), AxisDist::collapsed(256),
      AxisDist::collapsed(128)});
  cfg.dst_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::collapsed(256), AxisDist::block(256, kConsumers),
      AxisDist::collapsed(128)});
  cfg.spec.one_shot = false;
  cfg.spec.handshake = true;
  cfg.ops_per_round = 8;
  return std::make_unique<CoupleWorkload>(std::move(cfg), seed);
}

std::unique_ptr<Workload> make_couple_fine(std::uint64_t seed) {
  // 16 fields of 64×256 doubles (128 KiB each): producers own 32-row
  // blocks, consumers every other column — 128 single-column patches each.
  CoupleConfig cfg;
  cfg.nfields = 16;
  cfg.src_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(64, kProducers), AxisDist::collapsed(256)});
  cfg.dst_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::collapsed(64), AxisDist::cyclic(256, kConsumers)});
  cfg.spec.one_shot = false;
  cfg.spec.reliable = true;
  cfg.spec.timeout_ms = 5000;
  cfg.spec.max_retries = 2;
  cfg.ops_per_round = 16;
  return std::make_unique<CoupleWorkload>(std::move(cfg), seed);
}

}  // namespace perfbench
