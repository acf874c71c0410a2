// Power-model tests: energy accounting, clock/leakage terms, per-module
// breakdown consistency, and activity monotonicity.
#include <gtest/gtest.h>

#include <random>

#include "netlist/circuit.h"
#include "netlist/power.h"
#include "netlist/report.h"
#include "netlist/sim_event.h"
#include "rtl/adders.h"

namespace mfm::netlist {
namespace {

const TechLib& lib() { return TechLib::lp45(); }

TEST(PowerModel, SingleGateEnergyAccounting) {
  // One unloaded inverter toggling once per cycle for N cycles.
  Circuit c;
  const NetId a = c.input("a");
  const NetId n = c.not_(a);
  c.output("o", n);
  EventSim ev(c, lib());
  const int cycles = 100;
  for (int i = 0; i < cycles; ++i) {
    ev.set(a, (i & 1) != 0);
    ev.cycle();
  }
  PowerModel pm(c, lib());
  const auto rep = pm.report(ev, 100.0);
  // Expected: (input net + inverter output) toggle every cycle from cycle 1.
  const double e_in = pm.toggle_energy_fj(a);
  const double e_out = pm.toggle_energy_fj(n);
  const double expect_mw =
      (cycles - 1) * (e_in + e_out) / (cycles * 10.0) / 1000.0;
  EXPECT_NEAR(rep.dynamic_mw, expect_mw, expect_mw * 0.02 + 1e-9);
  EXPECT_EQ(rep.clock_mw, 0.0);  // no flops
}

TEST(PowerModel, LeakageProportionalToArea) {
  Circuit c1;
  c1.output("o", c1.not_(c1.input("a")));
  Circuit c2;
  {
    const NetId a = c2.input("a");
    NetId n = a;
    for (int i = 0; i < 10; ++i) n = c2.add(GateKind::Not, n);
    c2.output("o", n);
  }
  EventSim e1(c1, lib()), e2(c2, lib());
  e1.cycle();
  e2.cycle();
  PowerModel p1(c1, lib()), p2(c2, lib());
  const auto r1 = p1.report(e1, 100.0);
  const auto r2 = p2.report(e2, 100.0);
  EXPECT_NEAR(r2.leakage_mw / r1.leakage_mw, p2.area_nand2() / p1.area_nand2(),
              1e-9);
}

TEST(PowerModel, ClockPowerScalesWithFlopsAndFrequency) {
  Circuit c;
  const Bus in = c.input_bus("in", 16);
  const Bus q = dff_bus(c, in);
  c.output_bus("o", q);
  EventSim ev(c, lib());
  ev.cycle();
  PowerModel pm(c, lib());
  const auto r100 = pm.report(ev, 100.0);
  const auto r800 = pm.report(ev, 800.0);
  EXPECT_GT(r100.clock_mw, 0.0);
  EXPECT_NEAR(r800.clock_mw / r100.clock_mw, 8.0, 1e-9);
}

TEST(PowerModel, ModuleBreakdownSumsToDynamic) {
  Circuit c;
  const Bus a = c.input_bus("a", 32);
  const Bus b = c.input_bus("b", 32);
  Bus s;
  {
    Circuit::Scope scope(c, "adder");
    s = rtl::kogge_stone_adder(c, a, b, c.const0()).sum;
  }
  c.output_bus("s", s);
  EventSim ev(c, lib());
  std::mt19937_64 rng(3);
  for (int i = 0; i < 50; ++i) {
    ev.set_port("a", rng() & 0xFFFFFFFF);
    ev.set_port("b", rng() & 0xFFFFFFFF);
    ev.cycle();
  }
  PowerModel pm(c, lib());
  const auto rep = pm.report(ev, 100.0);
  double sum = 0;
  for (const auto& [m, mw] : rep.by_module_mw) sum += mw;
  EXPECT_NEAR(sum, rep.dynamic_mw, rep.dynamic_mw * 1e-9 + 1e-12);
  EXPECT_TRUE(rep.by_module_mw.contains("top/adder"));
}

TEST(PowerModel, MoreActivityMoreDynamicPower) {
  Circuit c;
  const Bus a = c.input_bus("a", 32);
  const Bus b = c.input_bus("b", 32);
  const auto s = rtl::kogge_stone_adder(c, a, b, c.const0());
  c.output_bus("s", s.sum);
  PowerModel pm(c, lib());

  auto run = [&](std::uint64_t mask) {
    EventSim ev(c, lib());
    std::mt19937_64 rng(4);
    for (int i = 0; i < 100; ++i) {
      ev.set_port("a", rng() & mask);
      ev.set_port("b", rng() & mask);
      ev.cycle();
    }
    return pm.report(ev, 100.0).dynamic_mw;
  };
  const double quiet = run(0x000000FF);   // only 8 LSBs active
  const double busy = run(0xFFFFFFFF);    // all bits active
  EXPECT_GT(busy, quiet * 1.5);
}

TEST(PowerModel, AreaReportMatchesTotals) {
  Circuit c;
  const Bus a = c.input_bus("a", 16);
  const Bus b = c.input_bus("b", 16);
  Bus s;
  {
    Circuit::Scope scope(c, "blk");
    s = rtl::ripple_adder(c, a, b, c.const0()).sum;
  }
  c.output_bus("s", s);
  PowerModel pm(c, lib());
  EXPECT_NEAR(pm.area_nand2(), total_area_nand2(c, lib()), 1e-9);
  EXPECT_NEAR(pm.area_um2(), pm.area_nand2() * lib().nand2_area_um2(), 1e-9);

  const auto by_mod = area_by_module(c, lib());
  double sum = 0;
  for (const auto& [m, ma] : by_mod) sum += ma.area_nand2;
  EXPECT_NEAR(sum, pm.area_nand2(), 1e-9);
}

TEST(PowerModel, TechLibAnchorsMatchPaper) {
  // The library is anchored at the paper's two published constants.
  EXPECT_DOUBLE_EQ(lib().fo4_ps(), 64.0);
  EXPECT_DOUBLE_EQ(lib().nand2_area_um2(), 1.06);
  EXPECT_DOUBLE_EQ(lib().area_nand2(GateKind::Nand2), 1.0);
}

}  // namespace
}  // namespace mfm::netlist
