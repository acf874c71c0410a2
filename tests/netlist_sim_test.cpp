// Simulator tests: zero-delay levelized vs event-driven equivalence,
// sequential (DFF) behaviour, glitch generation and inertial filtering.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "netlist/bus.h"
#include "netlist/circuit.h"
#include "netlist/sim_event.h"
#include "netlist/sim_level.h"
#include "rtl/adders.h"

namespace mfm::netlist {
namespace {

TEST(LevelSim, CombinationalChain) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  const NetId s = c.xor2(a, b);
  const NetId k = c.and2(a, b);
  c.output("s", s);
  c.output("k", k);
  LevelSim sim(c);
  for (int v = 0; v < 4; ++v) {
    sim.set(a, v & 1);
    sim.set(b, v & 2);
    sim.eval();
    EXPECT_EQ(sim.value(s), ((v & 1) != 0) != ((v & 2) != 0));
    EXPECT_EQ(sim.value(k), (v & 1) && (v & 2));
  }
}

TEST(LevelSim, SetOnNonInputThrows) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId n = c.not_(a);
  c.output("o", n);
  LevelSim sim(c);
  // Always-on guards (not NDEBUG asserts): driving an internal net or a
  // bogus id would silently corrupt a measurement in a release build.
  EXPECT_THROW(sim.set(n, true), std::invalid_argument);
  EXPECT_THROW(sim.set(static_cast<NetId>(c.size()), true),
               std::invalid_argument);
  EXPECT_NO_THROW(sim.set(a, true));
}

TEST(LevelSim, ReadBusWiderThan128Throws) {
  Circuit c;
  const Bus a = c.input_bus("a", 130);
  c.output_bus("o", a);
  LevelSim sim(c);
  sim.eval();
  EXPECT_THROW(sim.read_bus(c.out_port("o")), std::invalid_argument);
  const Bus head(a.begin(), a.begin() + 128);
  EXPECT_NO_THROW(sim.read_bus(head));
}

TEST(LevelSim, SetBusWiderThan128Throws) {
  Circuit c;
  const Bus a = c.input_bus("a", 130);
  c.output_bus("o", a);
  LevelSim sim(c);
  // Bits from index 128 up have no source in a u128 value.
  EXPECT_THROW(sim.set_bus(a, 0), std::invalid_argument);
  const Bus head(a.begin(), a.begin() + 128);
  EXPECT_NO_THROW(sim.set_bus(head, ~static_cast<u128>(0)));
}

TEST(LevelSim, DffShiftsRegisterChain) {
  Circuit c;
  const NetId d = c.input("d");
  const NetId q1 = c.dff(d);
  const NetId q2 = c.dff(q1);
  c.output("q2", q2);
  LevelSim sim(c);
  const int pattern[6] = {1, 0, 1, 1, 0, 0};
  int seen[6] = {-1, -1, -1, -1, -1, -1};
  for (int t = 0; t < 6; ++t) {
    sim.set(d, pattern[t] != 0);
    sim.eval();
    seen[t] = sim.value(q2) ? 1 : 0;
    sim.clock();
  }
  // q2 lags d by two cycles.
  for (int t = 2; t < 6; ++t) EXPECT_EQ(seen[t], pattern[t - 2]) << t;
}

TEST(EventSim, FinalValuesMatchLevelSimOnAdder) {
  Circuit c;
  const Bus a = c.input_bus("a", 16);
  const Bus b = c.input_bus("b", 16);
  const auto sum = rtl::kogge_stone_adder(c, a, b, c.const0());
  c.output_bus("s", sum.sum);

  LevelSim ref(c);
  EventSim ev(c, TechLib::lp45());
  std::mt19937_64 rng(11);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t av = rng() & 0xFFFF, bv = rng() & 0xFFFF;
    ref.set_port("a", av);
    ref.set_port("b", bv);
    ref.eval();
    ev.set_port("a", av);
    ev.set_port("b", bv);
    ev.cycle();
    ASSERT_EQ(ev.read_port("s"), ref.read_port("s")) << av << "+" << bv;
    ASSERT_EQ(ev.read_port("s"), ((av + bv) & 0xFFFF));
  }
}

TEST(EventSim, SequentialMatchesLevelSim) {
  // 2-stage pipeline: out = dff(dff(in) + in); event-driven and levelized
  // simulation must agree cycle by cycle.
  Circuit c2;
  const Bus i2 = c2.input_bus("in", 8);
  const Bus r1 = dff_bus(c2, i2);
  const auto add = rtl::ripple_adder(c2, r1, i2, c2.const0());
  const Bus r2 = dff_bus(c2, add.sum);
  c2.output_bus("out", r2);

  LevelSim ref(c2);
  EventSim ev(c2, TechLib::lp45());
  std::mt19937_64 rng(13);
  for (int t = 0; t < 100; ++t) {
    const std::uint64_t v = rng() & 0xFF;
    ref.set_port("in", v);
    ref.eval();
    const u128 want = ref.read_port("out");
    ref.clock();
    ev.set_port("in", v);
    ev.cycle();
    ASSERT_EQ(ev.read_port("out"), want) << "cycle " << t;
  }
}

TEST(EventSim, StaggeredInputsProduceGlitches) {
  // x -> NOT -> AND(x, !x) is a classic glitch generator: when x rises,
  // the AND sees (1, stale 1) for one NOT delay and pulses high -- but the
  // pulse (22 ps) is SHORTER than the AND's own delay (45 ps), so inertial
  // filtering must remove it.  A wider pulse built from a longer
  // complement path (3 cascaded XOR2 = 192 ps) must survive.
  Circuit c;
  const NetId x = c.input("x");
  const NetId nx = c.not_(x);
  const NetId glitch_short = c.and2(x, nx);
  // Slow complement: xor chain odd number of times.
  const NetId s1 = c.add(GateKind::Xor2, x, c.const0());
  const NetId s2 = c.add(GateKind::Xor2, s1, c.const0());
  const NetId s3 = c.add(GateKind::Xor2, s2, c.const0());
  const NetId slow_nx = c.not_(s3);
  const NetId glitch_wide = c.and2(x, slow_nx);
  c.output("gs", glitch_short);
  c.output("gw", glitch_wide);

  EventSim ev(c, TechLib::lp45());
  ev.set(x, true);
  ev.cycle();
  ev.set(x, false);
  ev.cycle();
  ev.set(x, true);
  ev.cycle();
  // Short pulse filtered: the narrow AND output must never have toggled.
  EXPECT_EQ(ev.toggles()[glitch_short], 0u);
  // Wide pulse survives: two rising inputs -> at least 2 up/down pairs.
  EXPECT_GE(ev.toggles()[glitch_wide], 4u);
  // Final values must still be glitch-free logic values.
  EXPECT_FALSE(ev.value(glitch_short));
  EXPECT_FALSE(ev.value(glitch_wide));
}

TEST(EventSim, ToggleCountsAreStableUnderRepetition) {
  Circuit c;
  const Bus a = c.input_bus("a", 8);
  const Bus b = c.input_bus("b", 8);
  const auto sum = rtl::ripple_adder(c, a, b, c.const0());
  c.output_bus("s", sum.sum);
  EventSim ev(c, TechLib::lp45());
  ev.set_port("a", 0x55);
  ev.set_port("b", 0x0F);
  ev.cycle();
  const auto after_first = ev.events_processed();
  // Same vector again: nothing changes, no events.
  ev.cycle();
  EXPECT_EQ(ev.events_processed(), after_first);
  EXPECT_EQ(ev.cycles_run(), 2u);
  ev.reset_counts();
  EXPECT_EQ(ev.events_processed(), 0u);
  EXPECT_EQ(ev.cycles_run(), 0u);
}

TEST(EventSim, ReadBackMatchesInputsOnWires) {
  Circuit c;
  const Bus a = c.input_bus("a", 32);
  c.output_bus("o", a);
  EventSim ev(c, TechLib::lp45());
  ev.set_port("a", 0xDEADBEEF);
  ev.cycle();
  EXPECT_EQ(ev.read_port("o"), 0xDEADBEEFu);
}

}  // namespace
}  // namespace mfm::netlist
