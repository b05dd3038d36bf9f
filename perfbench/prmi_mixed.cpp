// The PRMI workload: 2 caller ranks → 2 callee ranks of a
// DistributedFramework, one connection. One op is one iteration of
//
//   push(in parallel array<double,1>)   1 MiB, block → block-cyclic(1024)
//   pull(out parallel array<double,1>)  the same array back
//   32 × ping(int), queued and sent as one flush_batch, round-robin
//   caller-cohort barrier
//
// The barrier is required: serve() orders calls per caller only, so
// without it a callee that dequeued one caller's next collective call can
// block on the other caller's parallel data while that caller still waits
// for its batch reply (see perfbench/README.md).

#include <algorithm>
#include <array>
#include <atomic>

#include "harness.hpp"
#include "prmi/distributed_framework.hpp"
#include "sidl/parser.hpp"

namespace perfbench {

namespace core = mxn::core;
namespace dad = mxn::dad;
namespace prmi = mxn::prmi;
namespace rt = mxn::rt;
using dad::AxisDist;
using prmi::Value;

namespace {

constexpr int kCallers = 2;
constexpr int kCallees = 2;
constexpr int kRanks = kCallers + kCallees;
constexpr dad_index kLen = 131072;  // 1 MiB of doubles
constexpr dad_index kCalleeBlock = 1024;
constexpr int kPings = 32;  // per caller per op
constexpr int kPingsPerCallee = kCallers * kPings / kCallees;
constexpr int kOpsPerRound = 32;
constexpr int kField = 0;
constexpr std::size_t kSpanCap = 4096;

const char* kSidl = R"(
  package perfbench {
    interface Mixed {
      collective void push(in parallel array<double,1> field);
      collective void pull(out parallel array<double,1> field);
      independent int ping(in int token);
    }
  }
)";

std::int32_t ping_reply(std::int32_t token) {
  return static_cast<std::int32_t>((static_cast<std::int64_t>(token) * 3 + 1) &
                                   0x7fffffff);
}

class PrmiMixed final : public Workload {
 public:
  explicit PrmiMixed(std::uint64_t seed)
      : seed_(seed),
        caller_desc_(dad::make_regular(
            std::vector<AxisDist>{AxisDist::block(kLen, kCallers)})),
        callee_desc_(dad::make_regular(std::vector<AxisDist>{
            AxisDist::block_cyclic(kLen, kCallees, kCalleeBlock)})) {
    for (int c = 0; c < kCallers; ++c) {
      src_[c] = std::make_unique<dad::DistArray<double>>(caller_desc_, c);
      for (int k = 0; k < kOpsPerRound; ++k)
        dst_[c][k] = std::make_unique<dad::DistArray<double>>(caller_desc_, c);
    }
    for (int e = 0; e < kCallees; ++e)
      target_[e] = std::make_unique<dad::DistArray<double>>(callee_desc_, e);
  }

  /// push delivers the array into the callee targets, pull back into the
  /// caller destinations.
  [[nodiscard]] std::uint64_t payload_bytes() const override {
    return 2 * static_cast<std::uint64_t>(kLen) * sizeof(double);
  }

  double baseline_copy_gbps() override {
    std::vector<CopyPair> pairs;
    for (auto& s : src_)
      for (auto& t : target_) pairs.push_back({s.get(), t.get()});
    return perfbench::baseline_copy_gbps(pairs);
  }

  SpawnRecord spawn(const SpawnPlan& plan) override;

 private:
  [[nodiscard]] std::int32_t token(std::uint32_t op, int caller,
                                   int i) const {
    return static_cast<std::int32_t>(
        mix64(seed_ ^ (static_cast<std::uint64_t>(op) << 20) ^
              (static_cast<std::uint64_t>(caller) << 10) ^
              static_cast<std::uint64_t>(i)) &
        0x3fffffff);
  }

  std::uint64_t seed_;
  dad::DescriptorPtr caller_desc_;
  dad::DescriptorPtr callee_desc_;
  std::array<std::unique_ptr<dad::DistArray<double>>, kCallers> src_;
  std::array<std::array<std::unique_ptr<dad::DistArray<double>>, kOpsPerRound>,
             kCallers>
      dst_;
  std::array<std::unique_ptr<dad::DistArray<double>>, kCallees> target_;
  std::uint64_t next_stamp_ = 1;
};

SpawnRecord PrmiMixed::spawn(const SpawnPlan& plan) {
  SpawnRecord rec;
  // The warm-up op carries a fresh stamp, written before the clock starts;
  // round r carries base + 1 + r. pull returns the negated array (the pull
  // handler negates the target), so a missed push cannot pass, and every
  // destination slot still holds an older stamp until its pull lands.
  const std::uint64_t base = next_stamp_;
  for (int c = 0; c < kCallers; ++c) fill_stamp(*src_[c], seed_, kField, base);

  std::vector<RankState> ranks(kRanks);
  if (plan.traced)
    for (int r = 0; r < kRanks; ++r) rec.logs.emplace_back(r, kSpanCap);
  std::atomic<std::uint64_t> rounds{0};

  auto callee = [&](prmi::DistributedFramework& fw, SpanLog* log) {
    auto cohort = fw.cohort("callee");
    dad::DistArray<double>& target = *target_[cohort.rank()];
    auto pkg = mxn::sidl::parse_package(kSidl);
    auto servant = std::make_shared<prmi::Servant>(pkg.interface("Mixed"));
    servant->bind("push", [](prmi::CalleeContext&, std::vector<Value>&) {
      Scope s("prmi.servant.push");
      return Value{};  // the array was redistributed into the target
    });
    servant->bind("pull",
                  [&target](prmi::CalleeContext&, std::vector<Value>&) {
                    Scope s("prmi.servant.pull");
                    for (double& v : target.local()) v = -v;
                    return Value{};  // the target flows back after return
                  });
    // The callee learns op ids from the call stream: every op ends with
    // kPingsPerCallee pings here, and the callers' barrier keeps the next
    // op's push behind them.
    int pings = 0;
    servant->bind("ping", [&pings, log](prmi::CalleeContext&,
                                        std::vector<Value>& args) {
      Value reply;
      {
        Scope s("prmi.servant.ping");
        reply = ping_reply(std::get<std::int32_t>(args[0]));
      }
      if (++pings % kPingsPerCallee == 0 && log != nullptr)
        log->set_op(static_cast<std::uint32_t>(pings / kPingsPerCallee));
      return reply;
    });
    auto binding =
        core::make_field("field", &target, core::AccessMode::ReadWrite);
    if (plan.traced) binding = traced_field(std::move(binding));
    servant->set_parallel_target("push", "field", binding);
    servant->set_parallel_target("pull", "field", binding);
    fw.add_provides("callee", "port", servant);
    fw.connect("caller", "port", "callee", "port");
    fw.serve("callee", -1);
  };

  auto caller = [&](prmi::DistributedFramework& fw, SpanLog* log) {
    auto pkg = mxn::sidl::parse_package(kSidl);
    fw.register_uses("caller", "port", pkg.interface("Mixed"));
    fw.connect("caller", "port", "callee", "port");
    auto port = fw.get_port("caller", "port");
    rt::Communicator cohort = fw.cohort("caller");
    rt::Communicator ctrl = cohort.split(0, cohort.rank());
    const int c = cohort.rank();
    RankState& me = ranks[c];  // callers are world ranks 0 and 1

    auto field = [&](dad::DistArray<double>* a, core::AccessMode mode) {
      auto f = core::make_field("field", a, mode);
      return plan.traced ? traced_field(std::move(f)) : f;
    };
    const core::FieldRegistration src = field(src_[c].get(),
                                              core::AccessMode::Read);
    std::vector<core::FieldRegistration> dst;
    for (auto& d : dst_[c])
      dst.push_back(field(d.get(), core::AccessMode::Write));
    std::array<std::array<std::int32_t, kPings>, kOpsPerRound> replies{};

    const std::uint64_t bytes =
        static_cast<std::uint64_t>(kLen) * sizeof(double);
    auto run_op = [&](std::uint32_t op, int k) {
      if (log != nullptr) log->set_op(op);
      const std::int64_t t0 = now_ns();
      std::vector<prmi::RemotePort::Result> batch;
      {
        Scope s("op");
        {
          Scope p("prmi.push", bytes, true);
          port->call("push", {prmi::ParallelRef{&src}});
        }
        {
          Scope p("prmi.pull", bytes, true);
          port->call("pull", {prmi::ParallelRef{&dst[k]}});
        }
        {
          Scope p("prmi.batch", 0, true);
          for (int i = 0; i < kPings; ++i)
            port->queue_independent("ping", {token(op, c, i)}, i % kCallees);
          batch = port->flush_batch();
        }
        cohort.barrier();
      }
      const std::int64_t t1 = now_ns();
      if (op > 0) {
        me.t0.push_back(t0);
        me.t1.push_back(t1);
      }
      for (int i = 0; i < kPings; ++i)
        replies[k][i] = i < static_cast<int>(batch.size())
                            ? std::get<std::int32_t>(batch[i].ret)
                            : -1;
    };
    // Check ops first_op .. first_op + n - 1, which used dst slots 0 .. n-1,
    // against the source they pulled back negated.
    auto check = [&](std::uint32_t first_op, int n) {
      const auto s = src_[c]->local();
      for (int k = 0; k < n; ++k) {
        const auto d = dst_[c][k]->local();
        bool ok = true;
        for (std::size_t i = 0; i < s.size(); ++i) ok = ok && d[i] == -s[i];
        for (int i = 0; i < kPings; ++i)
          ok = ok && replies[k][i] == ping_reply(token(first_op + k, c, i));
        if (!ok) ++me.failed;
      }
    };

    run_op(0, 0);  // warm-up: the op that completes set-up
    me.setup_done = now_ns();
    check(0, 1);

    if (!plan.setup_only) {
      RoundControl rc(ctrl, plan.seconds);
      rc.start();
      std::uint32_t op = 1;
      for (std::uint64_t r = 0;; ++r) {
        fill_stamp(*src_[c], seed_, kField, base + 1 + r);
        if (!rc.next_round()) break;
        const std::uint32_t first = op;
        for (int k = 0; k < kOpsPerRound; ++k) run_op(op++, k);
        check(first, kOpsPerRound);
        if (c == 0) rounds.store(r + 1);
      }
      me.ctrl_ns = rc.ctrl_ns();
    }
    // Teardown: quiesce before the shutdown notice; past this barrier the
    // control communicator's traffic count is final.
    cohort.barrier();
    if (c == 0) {
      const auto st = ctrl.stats();
      rec.ctrl_messages = st.messages;
      rec.ctrl_bytes = st.bytes;
    }
    port->shutdown_provider();
  };

  auto body = [&](rt::Communicator& world) {
    SpanLog* log = plan.traced ? &rec.logs[world.rank()] : nullptr;
    thread_log() = log;
    prmi::DistributedFramework fw(world);
    fw.instantiate("caller", {0, 1});
    fw.instantiate("callee", {2, 3});
    if (fw.member_of("callee"))
      callee(fw, log);
    else
      caller(fw, log);
    thread_log() = nullptr;
  };

  run_spawn(rec, ranks, {0, 1}, kOpsPerRound, payload_bytes(), body);
  next_stamp_ = base + 2 + rounds.load();
  return rec;
}

}  // namespace

std::unique_ptr<Workload> make_prmi_mixed(std::uint64_t seed) {
  return std::make_unique<PrmiMixed>(seed);
}

}  // namespace perfbench
