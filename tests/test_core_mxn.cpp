// Tests for the CCA component model (direct-connected framework, ports,
// cohorts) and the M×N data-redistribution component (src/core).

#include <gtest/gtest.h>

#include <memory>

#include "core/framework.hpp"
#include "core/mxn_component.hpp"
#include "rt/runtime.hpp"

namespace core = mxn::core;
namespace dad = mxn::dad;
namespace rt = mxn::rt;
using dad::AxisDist;
using dad::Point;

namespace {

// --- toy components for framework tests -------------------------------------

class CounterPort : public core::Port {
 public:
  virtual int increment() = 0;
};

class CounterComponent : public core::Component, public CounterPort {
 public:
  void set_services(core::Services& s) override {
    s.add_provides_port("counter", "test.Counter",
                        std::shared_ptr<core::Port>(
                            static_cast<CounterPort*>(this), [](auto*) {}));
  }
  int increment() override { return ++count_; }
  int count_ = 0;
};

class DriverComponent : public core::Component, public core::GoPort {
 public:
  void set_services(core::Services& s) override {
    svc_ = &s;
    s.register_uses_port("work", "test.Counter");
    s.add_provides_port("go", "cca.Go",
                        std::shared_ptr<core::Port>(
                            static_cast<core::GoPort*>(this), [](auto*) {}));
  }
  int go() override {
    auto port = svc_->get_port_as<CounterPort>("work");
    for (int i = 0; i < 3; ++i) last_ = port->increment();
    return 0;
  }
  core::Services* svc_ = nullptr;
  int last_ = 0;
};

double value_at(const Point& p) { return 7.0 * p[0] + p[1]; }

}  // namespace

// ---------------------------------------------------------------------------
// Direct-connected framework
// ---------------------------------------------------------------------------

TEST(Framework, ConnectAndInvokeIsADirectCall) {
  rt::spawn(1, [](rt::Communicator& world) {
    core::Framework fw(world);
    auto counter = std::make_shared<CounterComponent>();
    auto driver = std::make_shared<DriverComponent>();
    fw.instantiate("counter", counter);
    fw.instantiate("driver", driver);
    fw.connect("driver", "work", "counter", "counter");
    EXPECT_EQ(fw.go("driver"), 0);
    EXPECT_EQ(counter->count_, 3);
    EXPECT_EQ(driver->last_, 3);
  });
}

TEST(Framework, GoAllRunsEveryGoPort) {
  rt::spawn(1, [](rt::Communicator& world) {
    core::Framework fw(world);
    auto counter = std::make_shared<CounterComponent>();
    auto d1 = std::make_shared<DriverComponent>();
    auto d2 = std::make_shared<DriverComponent>();
    fw.instantiate("counter", counter);
    fw.instantiate("d1", d1);
    fw.instantiate("d2", d2);
    fw.connect("d1", "work", "counter", "counter");
    fw.connect("d2", "work", "counter", "counter");
    EXPECT_EQ(fw.go_all(), 0);
    EXPECT_EQ(counter->count_, 6);
  });
}

TEST(Framework, TypeMismatchRejected) {
  rt::spawn(1, [](rt::Communicator& world) {
    core::Framework fw(world);
    fw.instantiate("counter", std::make_shared<CounterComponent>());
    fw.instantiate("driver", std::make_shared<DriverComponent>());
    EXPECT_THROW(fw.connect("driver", "work", "counter", "nope"),
                 rt::UsageError);
    // Port exists but type string differs.
    class Bogus : public core::Component {
      void set_services(core::Services& s) override {
        s.register_uses_port("work", "test.OtherType");
      }
    };
    fw.instantiate("bogus", std::make_shared<Bogus>());
    EXPECT_THROW(fw.connect("bogus", "work", "counter", "counter"),
                 rt::UsageError);
  });
}

TEST(Framework, UnconnectedUsesPortThrowsOnGet) {
  rt::spawn(1, [](rt::Communicator& world) {
    core::Framework fw(world);
    auto driver = std::make_shared<DriverComponent>();
    fw.instantiate("driver", driver);
    EXPECT_THROW(fw.go("driver"), rt::UsageError);
  });
}

TEST(Framework, DisconnectAndReconnect) {
  rt::spawn(1, [](rt::Communicator& world) {
    core::Framework fw(world);
    auto counter = std::make_shared<CounterComponent>();
    auto driver = std::make_shared<DriverComponent>();
    fw.instantiate("counter", counter);
    fw.instantiate("driver", driver);
    fw.connect("driver", "work", "counter", "counter");
    fw.disconnect("driver", "work");
    EXPECT_THROW(fw.go("driver"), rt::UsageError);
    fw.connect("driver", "work", "counter", "counter");
    EXPECT_EQ(fw.go("driver"), 0);
  });
}

TEST(Framework, CohortSpansFrameworkProcesses) {
  rt::spawn(4, [](rt::Communicator& world) {
    core::Framework fw(world);
    class CohortProbe : public core::Component {
     public:
      void set_services(core::Services& s) override {
        auto c = s.cohort();
        sum = c.allreduce(c.rank(), [](int a, int b) { return a + b; });
      }
      int sum = -1;
    };
    auto probe = std::make_shared<CohortProbe>();
    fw.instantiate("probe", probe);
    EXPECT_EQ(probe->sum, 6);
  });
}

TEST(Framework, DuplicateInstanceNameRejected) {
  rt::spawn(1, [](rt::Communicator& world) {
    core::Framework fw(world);
    fw.instantiate("c", std::make_shared<CounterComponent>());
    EXPECT_THROW(fw.instantiate("c", std::make_shared<CounterComponent>()),
                 rt::UsageError);
  });
}

// ---------------------------------------------------------------------------
// MxN component
// ---------------------------------------------------------------------------

namespace {

/// Spawn m+n processes with paired MxN components and hand each process its
/// component, side and cohort communicator.
void with_paired_mxn(
    int m, int n,
    const std::function<void(core::MxNComponent&, int /*side*/,
                             rt::Communicator& /*cohort*/)>& body) {
  rt::spawn(m + n, [&](rt::Communicator& world) {
    auto comp = core::make_paired_mxn(world, m, n);
    auto cohort = world.split(world.rank() < m ? 0 : 1, world.rank());
    body(*comp, world.rank() < m ? 0 : 1, cohort);
  });
}

}  // namespace

TEST(MxNComponent, OneShotTransferMovesField) {
  const int m = 3, n = 2;
  auto src_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(12, m), AxisDist::collapsed(5)});
  auto dst_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::cyclic(12, n), AxisDist::collapsed(5)});
  with_paired_mxn(m, n, [&](core::MxNComponent& mxn, int side,
                            rt::Communicator& cohort) {
    dad::DistArray<double> arr(side == 0 ? src_desc : dst_desc,
                               cohort.rank());
    if (side == 0) arr.fill(value_at);
    mxn.register_field(core::make_field(
        "temperature", &arr,
        side == 0 ? core::AccessMode::Read : core::AccessMode::Write));

    core::ConnectionSpec spec;
    spec.src_field = spec.dst_field = "temperature";
    spec.src_side = 0;
    spec.one_shot = true;
    auto id = mxn.establish(spec);
    EXPECT_TRUE(mxn.active(id));

    EXPECT_EQ(mxn.data_ready("temperature"), 1);
    EXPECT_FALSE(mxn.active(id));

    if (side == 1) {
      arr.for_each_owned([&](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, value_at(p));
      });
      EXPECT_EQ(mxn.stats(id).transfers, 1u);
      EXPECT_EQ(mxn.stats(id).elements, 12u * 5u / n);
    }

    // A retired one-shot connection moves nothing further.
    EXPECT_EQ(mxn.data_ready("temperature"), 0);
  });
}

TEST(MxNComponent, PublicConstructorBuildsAWorkingComponent) {
  // Constructed and destroyed directly, outside src/core: the destructor is
  // defined where the connection type is complete, so this compiles.
  auto src_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(16, 2), AxisDist::collapsed(3)});
  auto dst_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::cyclic(16, 2), AxisDist::collapsed(3)});
  rt::spawn(4, [&](rt::Communicator& world) {
    const int side = world.rank() < 2 ? 0 : 1;
    auto cohort = world.split(side, world.rank());
    core::MxNComponent mxn(world, cohort, side, {0, 1}, {2, 3});
    dad::DistArray<double> arr(side == 0 ? src_desc : dst_desc,
                               cohort.rank());
    if (side == 0) arr.fill(value_at);
    mxn.register_field(core::make_field(
        "f", &arr,
        side == 0 ? core::AccessMode::Read : core::AccessMode::Write));

    core::ConnectionSpec spec;
    spec.src_field = spec.dst_field = "f";
    const auto id = mxn.establish(spec);
    EXPECT_EQ(mxn.data_ready("f"), 1);
    if (side == 1) {
      arr.for_each_owned([&](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, value_at(p));
      });
      EXPECT_EQ(mxn.stats(id).elements, 16u * 3u / 2u);
    }
  });
}

TEST(MxNComponent, PersistentPeriodicTransfers) {
  const int m = 2, n = 2;
  auto src_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(8, m)});
  auto dst_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(8, n)});
  with_paired_mxn(m, n, [&](core::MxNComponent& mxn, int side,
                            rt::Communicator& cohort) {
    dad::DistArray<int> arr(side == 0 ? src_desc : dst_desc, cohort.rank());
    mxn.register_field(
        core::make_field("field", &arr,
                         side == 0 ? core::AccessMode::Read
                                   : core::AccessMode::Write));
    core::ConnectionSpec spec;
    spec.src_field = spec.dst_field = "field";
    spec.src_side = 0;
    spec.one_shot = false;
    spec.period = 3;  // source exports every 3rd iteration
    auto id = mxn.establish(spec);

    const int iterations = 9;
    if (side == 0) {
      for (int it = 1; it <= iterations; ++it) {
        arr.fill([&](const Point& p) {
          return static_cast<int>(100 * it + p[0]);
        });
        mxn.data_ready("field");
      }
      EXPECT_EQ(mxn.stats(id).transfers, 3u);
    } else {
      for (int t = 1; t <= iterations / 3; ++t) {
        mxn.data_ready("field");
        const int it = 3 * t;  // every 3rd source iteration arrives
        arr.for_each_owned([&](const Point& p, const int& v) {
          EXPECT_EQ(v, 100 * it + static_cast<int>(p[0]));
        });
      }
      EXPECT_EQ(mxn.stats(id).transfers, 3u);
    }
    EXPECT_TRUE(mxn.active(id));
    mxn.disconnect(id);
    EXPECT_FALSE(mxn.active(id));
  });
}

TEST(MxNComponent, HandshakeBoundsProducerSkew) {
  // With handshake on, the source's dataReady cannot complete before the
  // destination has acknowledged; we verify the transfer count stays in
  // lockstep even when the consumer is "slow".
  const int m = 2, n = 1;
  auto src_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(10, m)});
  auto dst_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::collapsed(10)});
  with_paired_mxn(m, n, [&](core::MxNComponent& mxn, int side,
                            rt::Communicator& cohort) {
    dad::DistArray<double> arr(side == 0 ? src_desc : dst_desc,
                               cohort.rank());
    if (side == 0) arr.fill(value_at);
    mxn.register_field(
        core::make_field("f", &arr,
                         side == 0 ? core::AccessMode::Read
                                   : core::AccessMode::Write));
    core::ConnectionSpec spec;
    spec.src_field = spec.dst_field = "f";
    spec.src_side = 0;
    spec.one_shot = false;
    spec.handshake = true;
    auto id = mxn.establish(spec);
    for (int it = 0; it < 4; ++it) mxn.data_ready("f");
    EXPECT_EQ(mxn.stats(id).transfers, 4u);
  });
}

TEST(MxNComponent, ReverseDirectionConnection) {
  // src_side == 1: side 1 exports, side 0 imports.
  const int m = 2, n = 3;
  auto a_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(9, m)});
  auto b_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(9, n)});
  with_paired_mxn(m, n, [&](core::MxNComponent& mxn, int side,
                            rt::Communicator& cohort) {
    dad::DistArray<double> arr(side == 0 ? a_desc : b_desc, cohort.rank());
    if (side == 1)
      arr.fill([](const Point& p) { return 3.0 * p[0]; });
    mxn.register_field(core::make_field("f", &arr,
                                        core::AccessMode::ReadWrite));
    core::ConnectionSpec spec;
    spec.src_field = spec.dst_field = "f";
    spec.src_side = 1;
    mxn.establish(spec);
    mxn.data_ready("f");
    if (side == 0)
      arr.for_each_owned([](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, 3.0 * p[0]);
      });
  });
}

TEST(MxNComponent, ProposalInitiatedConnection) {
  // Side 0 proposes; side 1 merely accepts whatever arrives — the legacy-
  // code pattern where one side (or a third party driving it) decides the
  // coupling.
  const int m = 2, n = 2;
  auto src_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(6, m)});
  auto dst_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::cyclic(6, n)});
  with_paired_mxn(m, n, [&](core::MxNComponent& mxn, int side,
                            rt::Communicator& cohort) {
    dad::DistArray<float> arr(side == 0 ? src_desc : dst_desc,
                              cohort.rank());
    if (side == 0)
      arr.fill([](const Point& p) { return static_cast<float>(p[0]); });
    mxn.register_field(core::make_field("f", &arr,
                                        core::AccessMode::ReadWrite));
    core::ConnectionId id;
    if (side == 0) {
      core::ConnectionSpec spec;
      spec.src_field = spec.dst_field = "f";
      spec.src_side = 0;
      id = mxn.propose(spec);
    } else {
      id = mxn.accept_proposal();
    }
    mxn.data_ready("f");
    EXPECT_EQ(mxn.stats(id).transfers, 1u);
    if (side == 1)
      arr.for_each_owned([](const Point& p, const float& v) {
        EXPECT_EQ(v, static_cast<float>(p[0]));
      });
  });
}

TEST(MxNComponent, MultipleConnectionsSameField) {
  // One exporter feeds two separate connections (different periods) of the
  // same field to the peer side.
  const int m = 2, n = 2;
  auto src_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(8, m)});
  auto dst_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(8, n)});
  with_paired_mxn(m, n, [&](core::MxNComponent& mxn, int side,
                            rt::Communicator& cohort) {
    dad::DistArray<int> a(side == 0 ? src_desc : dst_desc, cohort.rank());
    dad::DistArray<int> b(side == 0 ? src_desc : dst_desc, cohort.rank());
    mxn.register_field(core::make_field("a", &a, core::AccessMode::ReadWrite));
    mxn.register_field(core::make_field("b", &b, core::AccessMode::ReadWrite));
    core::ConnectionSpec s1;
    s1.src_field = "a";
    s1.dst_field = "a";
    s1.src_side = 0;
    s1.one_shot = false;
    core::ConnectionSpec s2 = s1;
    s2.src_field = "a";
    s2.dst_field = "b";
    auto id1 = mxn.establish(s1);
    auto id2 = mxn.establish(s2);
    if (side == 0) {
      a.fill([](const Point& p) { return static_cast<int>(p[0] + 1); });
      EXPECT_EQ(mxn.data_ready("a"), 2);
    } else {
      EXPECT_EQ(mxn.data_ready("a"), 1);
      EXPECT_EQ(mxn.data_ready("b"), 1);
      a.for_each_owned([](const Point& p, const int& v) {
        EXPECT_EQ(v, static_cast<int>(p[0] + 1));
      });
      b.for_each_owned([](const Point& p, const int& v) {
        EXPECT_EQ(v, static_cast<int>(p[0] + 1));
      });
    }
    EXPECT_TRUE(mxn.active(id1));
    EXPECT_TRUE(mxn.active(id2));
  });
}

TEST(MxNComponent, AccessModeEnforced) {
  const int m = 1, n = 1;
  auto desc = dad::make_regular(std::vector<AxisDist>{AxisDist::block(4, 1)});
  with_paired_mxn(m, n, [&](core::MxNComponent& mxn, int side,
                            rt::Communicator& cohort) {
    dad::DistArray<int> arr(desc, cohort.rank());
    // Register with the *wrong* mode for the role each side will play.
    mxn.register_field(core::make_field(
        "f", &arr,
        side == 0 ? core::AccessMode::Write : core::AccessMode::Read));
    core::ConnectionSpec spec;
    spec.src_field = spec.dst_field = "f";
    spec.src_side = 0;
    EXPECT_THROW(mxn.establish(spec), rt::UsageError);
  });
}

TEST(MxNComponent, RegistrationValidation) {
  with_paired_mxn(1, 1, [&](core::MxNComponent& mxn, int /*side*/,
                            rt::Communicator& cohort) {
    auto desc =
        dad::make_regular(std::vector<AxisDist>{AxisDist::block(4, 2)});
    dad::DistArray<int> arr(desc, 0);
    // Descriptor decomposed over 2 ranks but cohort has 1.
    EXPECT_THROW(mxn.register_field(
                     core::make_field("f", &arr, core::AccessMode::Read)),
                 rt::UsageError);
    EXPECT_THROW(mxn.data_ready("ghost"), rt::UsageError);
    EXPECT_THROW(mxn.unregister_field("ghost"), rt::UsageError);
    auto ok = dad::make_regular(std::vector<AxisDist>{AxisDist::block(4, 1)});
    dad::DistArray<int> arr2(ok, cohort.rank());
    mxn.register_field(core::make_field("g", &arr2, core::AccessMode::Read));
    EXPECT_THROW(mxn.register_field(
                     core::make_field("g", &arr2, core::AccessMode::Read)),
                 rt::UsageError);
    mxn.unregister_field("g");
  });
}

TEST(MxNComponent, ProvidesMxNServicePortThroughFramework) {
  // Figure 3 wiring: application components talk to the co-located MxN
  // component through an ordinary CCA port connection.
  const int m = 2, n = 2;
  auto src_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(8, m)});
  auto dst_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(8, n)});
  rt::spawn(m + n, [&](rt::Communicator& world) {
    const int side = world.rank() < m ? 0 : 1;
    auto cohort = world.split(side, world.rank());
    core::Framework fw(cohort);  // one framework instance per program

    auto mxn = core::make_paired_mxn(world, m, n);
    fw.instantiate("mxn", mxn);

    class App : public core::Component {
     public:
      void set_services(core::Services& s) override {
        svc = &s;
        s.register_uses_port("coupler", "mxn.MxNService");
      }
      core::Services* svc = nullptr;
    };
    auto app = std::make_shared<App>();
    fw.instantiate("app", app);
    fw.connect("app", "coupler", "mxn", "mxn");

    auto port = app->svc->get_port_as<core::MxNService>("coupler");
    dad::DistArray<double> arr(side == 0 ? src_desc : dst_desc,
                               cohort.rank());
    if (side == 0) arr.fill(value_at);
    port->register_field(
        core::make_field("f", &arr, core::AccessMode::ReadWrite));
    core::ConnectionSpec spec;
    spec.src_field = spec.dst_field = "f";
    spec.src_side = 0;
    port->establish(spec);
    port->data_ready("f");
    if (side == 1)
      arr.for_each_owned([&](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, value_at(p));
      });
  });
}

// Parameterized sweep over (M, N) shapes, including the paper's 8x27.
class MxNShapeSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(MxNShapeSweep, BlockToBlockAcrossShapes) {
  const auto [m, n] = GetParam();
  const dad::Index extent = 36;
  auto src_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(extent, m)});
  auto dst_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(extent, n)});
  with_paired_mxn(m, n, [&](core::MxNComponent& mxn, int side,
                            rt::Communicator& cohort) {
    dad::DistArray<double> arr(side == 0 ? src_desc : dst_desc,
                               cohort.rank());
    if (side == 0)
      arr.fill([](const Point& p) { return 2.5 * p[0]; });
    mxn.register_field(
        core::make_field("f", &arr, core::AccessMode::ReadWrite));
    core::ConnectionSpec spec;
    spec.src_field = spec.dst_field = "f";
    spec.src_side = 0;
    mxn.establish(spec);
    mxn.data_ready("f");
    if (side == 1)
      arr.for_each_owned([](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, 2.5 * p[0]);
      });
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MxNShapeSweep,
    ::testing::Values(std::pair{1, 4}, std::pair{4, 1}, std::pair{2, 3},
                      std::pair{3, 2}, std::pair{4, 4}, std::pair{8, 27}));

TEST(MxNComponent, CheckpointRestoreRoundTrip) {
  // CUMULVS-style fault tolerance: snapshot registered fields, clobber
  // them (the "failure"), restore, and verify bit-exact recovery.
  const int m = 2, n = 1;
  auto desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(10, m), AxisDist::collapsed(3)});
  auto ser = dad::make_regular(std::vector<AxisDist>{
      AxisDist::collapsed(10), AxisDist::collapsed(3)});
  with_paired_mxn(m, n, [&](core::MxNComponent& mxn, int side,
                            rt::Communicator& cohort) {
    dad::DistArray<double> temp(side == 0 ? desc : ser, cohort.rank());
    dad::DistArray<double> salt(side == 0 ? desc : ser, cohort.rank());
    if (side == 0) {
      temp.fill([](const Point& p) { return 1.5 * p[0] + p[1]; });
      salt.fill([](const Point& p) { return 40.0 - p[0]; });
    }
    mxn.register_field(
        core::make_field("temp", &temp, core::AccessMode::ReadWrite));
    mxn.register_field(
        core::make_field("salt", &salt, core::AccessMode::ReadWrite));

    if (side == 0) {
      const auto blob = mxn.checkpoint_fields();
      for (auto& v : temp.local()) v = -777.0;  // simulated corruption
      for (auto& v : salt.local()) v = -888.0;
      mxn.restore_fields(blob);
      temp.for_each_owned([](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, 1.5 * p[0] + p[1]);
      });
      salt.for_each_owned([](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, 40.0 - p[0]);
      });
    }
  });
}

TEST(MxNComponent, RestoreValidatesShapeAndNames) {
  with_paired_mxn(1, 1, [&](core::MxNComponent& mxn, int /*side*/,
                            rt::Communicator& cohort) {
    auto d1 = dad::make_regular(std::vector<AxisDist>{AxisDist::block(8, 1)});
    auto d2 = dad::make_regular(std::vector<AxisDist>{AxisDist::block(4, 1)});
    dad::DistArray<double> a(d1, cohort.rank());
    mxn.register_field(core::make_field("a", &a, core::AccessMode::ReadWrite));
    const auto blob = mxn.checkpoint_fields();

    // Unknown field name after re-registration under another name.
    mxn.unregister_field("a");
    dad::DistArray<double> b(d2, cohort.rank());
    mxn.register_field(core::make_field("b", &b, core::AccessMode::ReadWrite));
    EXPECT_THROW(mxn.restore_fields(blob), rt::UsageError);

    // Same name, wrong decomposition size.
    mxn.unregister_field("b");
    dad::DistArray<double> a2(d2, cohort.rank());
    mxn.register_field(core::make_field("a", &a2, core::AccessMode::ReadWrite));
    EXPECT_THROW(mxn.restore_fields(blob), rt::UsageError);
  });
}

TEST(MxNComponent, WriteOnlyFieldsSkippedInCheckpoint) {
  with_paired_mxn(1, 1, [&](core::MxNComponent& mxn, int /*side*/,
                            rt::Communicator& cohort) {
    auto d = dad::make_regular(std::vector<AxisDist>{AxisDist::block(4, 1)});
    dad::DistArray<double> r(d, cohort.rank()), w(d, cohort.rank());
    r.local()[0] = 3.25;
    mxn.register_field(core::make_field("r", &r, core::AccessMode::Read));
    mxn.register_field(core::make_field("w", &w, core::AccessMode::Write));
    const auto blob = mxn.checkpoint_fields();
    // Only the readable field is in the blob; restoring fails because "r"
    // is read-only (not writable) — restore into a ReadWrite registration.
    mxn.unregister_field("r");
    dad::DistArray<double> r2(d, cohort.rank());
    mxn.register_field(core::make_field("r", &r2, core::AccessMode::ReadWrite));
    mxn.restore_fields(blob);
    EXPECT_DOUBLE_EQ(r2.local()[0], 3.25);
    EXPECT_DOUBLE_EQ(w.local()[0], 0.0);  // untouched
  });
}
