// Static-timing-analysis tests: arrival propagation, endpoint selection,
// critical-path tracing and per-module segmentation.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "netlist/bus.h"
#include "netlist/circuit.h"
#include "netlist/report.h"
#include "netlist/techlib.h"
#include "netlist/timing.h"
#include "rtl/adders.h"

namespace mfm::netlist {
namespace {

const TechLib& lib() { return TechLib::lp45(); }

TEST(Sta, ChainDelayIsSumOfGateDelays) {
  Circuit c;
  const NetId a = c.input("a");
  NetId n = a;
  for (int i = 0; i < 5; ++i) n = c.add(GateKind::Xor2, n, c.const1());
  c.output("o", n);
  Sta sta(c, lib());
  EXPECT_DOUBLE_EQ(sta.arrival(n), 5 * lib().delay_ps(GateKind::Xor2));
  EXPECT_DOUBLE_EQ(sta.max_delay_ps(), sta.arrival(n));
}

TEST(Sta, MaxOverFaninsWins) {
  Circuit c;
  const NetId a = c.input("a");
  NetId slow = a;
  for (int i = 0; i < 4; ++i) slow = c.add(GateKind::Xor2, slow, c.const1());
  const NetId fast = c.add(GateKind::Not, a);
  const NetId join = c.and2(slow, fast);
  c.output("o", join);
  Sta sta(c, lib());
  EXPECT_DOUBLE_EQ(sta.arrival(join),
                   4 * lib().delay_ps(GateKind::Xor2) +
                       lib().delay_ps(GateKind::And2));
}

TEST(Sta, DffBoundsAreClkToQAndSetup) {
  // in -> xor -> DFF -> xor -> out.  Two timing paths:
  //   input to DFF.D:   xor + setup
  //   DFF.Q to output:  clk2q + xor
  Circuit c;
  const NetId a = c.input("a");
  const NetId s1 = c.add(GateKind::Xor2, a, c.const1());
  const NetId q = c.dff(s1);
  const NetId s2 = c.add(GateKind::Xor2, q, c.const1());
  c.output("o", s2);
  Sta sta(c, lib());
  const double path1 = lib().delay_ps(GateKind::Xor2) + lib().setup_ps();
  const double path2 = lib().clk_to_q_ps() + lib().delay_ps(GateKind::Xor2);
  EXPECT_DOUBLE_EQ(sta.max_delay_ps(), std::max(path1, path2));
}

TEST(Sta, CriticalPathSegmentsFollowModules) {
  Circuit c;
  const NetId a = c.input("a");
  NetId n = a;
  {
    Circuit::Scope s(c, "front");
    for (int i = 0; i < 3; ++i) n = c.add(GateKind::Xor2, n, c.const1());
  }
  {
    Circuit::Scope s(c, "back");
    for (int i = 0; i < 2; ++i) n = c.add(GateKind::Xor2, n, c.const1());
  }
  c.output("o", n);
  Sta sta(c, lib());
  const auto cp = sta.critical_path();
  ASSERT_EQ(cp.segments.size(), 2u);
  EXPECT_EQ(cp.segments[0].module, "top/front");
  EXPECT_EQ(cp.segments[0].gates, 3);
  EXPECT_EQ(cp.segments[1].module, "top/back");
  EXPECT_EQ(cp.segments[1].gates, 2);
  double total = 0;
  for (const auto& s : cp.segments) total += s.delay_ps;
  EXPECT_DOUBLE_EQ(total, cp.delay_ps);
}

TEST(Sta, ModuleSettleTracksWorstNetInModule) {
  Circuit c;
  const NetId a = c.input("a");
  NetId n = a;
  {
    Circuit::Scope s(c, "blk");
    for (int i = 0; i < 3; ++i) n = c.add(GateKind::Xor2, n, c.const1());
  }
  c.output("o", c.not_(n));
  Sta sta(c, lib());
  EXPECT_DOUBLE_EQ(sta.module_settle_ps("top/blk"),
                   3 * lib().delay_ps(GateKind::Xor2));
}

// Architecture property: prefix adders get faster (or equal) in the order
// ripple >= Brent-Kung >= Sklansky >= Kogge-Stone, and larger in the
// reverse order.
class AdderArchTiming : public ::testing::TestWithParam<int> {};

TEST_P(AdderArchTiming, SpeedAndSizeOrdering) {
  const int n = GetParam();
  auto build = [&](rtl::PrefixKind kind) {
    auto c = std::make_unique<Circuit>();
    const Bus a = c->input_bus("a", n);
    const Bus b = c->input_bus("b", n);
    const auto out = rtl::prefix_adder(*c, a, b, c->const0(), kind);
    c->output_bus("s", out.sum);
    Sta sta(*c, lib());
    return std::pair{sta.max_delay_ps(), total_area_nand2(*c, lib())};
  };
  auto ripple = [&] {
    auto c = std::make_unique<Circuit>();
    const Bus a = c->input_bus("a", n);
    const Bus b = c->input_bus("b", n);
    const auto out = rtl::ripple_adder(*c, a, b, c->const0());
    c->output_bus("s", out.sum);
    Sta sta(*c, lib());
    return std::pair{sta.max_delay_ps(), total_area_nand2(*c, lib())};
  }();

  const auto bk = build(rtl::PrefixKind::BrentKung);
  const auto sk = build(rtl::PrefixKind::Sklansky);
  const auto ks = build(rtl::PrefixKind::KoggeStone);
  EXPECT_GE(ripple.first, bk.first);
  EXPECT_GE(bk.first, sk.first);
  EXPECT_GE(sk.first, ks.first);
  EXPECT_LE(bk.second, sk.second + 1e-9);
  EXPECT_LE(sk.second, ks.second + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderArchTiming,
                         ::testing::Values(16, 32, 64, 128));

}  // namespace
}  // namespace mfm::netlist
