// Static glitch analysis tests: arrival-window propagation in Sta (and
// its always-on accessor guards), the window/bound hazard analyzer, the
// measured EventSim functional/glitch counterpart, and the static-vs-
// measured cross-validation used as the CI gate.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "netlist/circuit.h"
#include "netlist/glitch.h"
#include "netlist/power.h"
#include "netlist/techlib.h"
#include "netlist/ternary.h"
#include "netlist/timing.h"

namespace mfm::netlist {
namespace {

const TechLib& lib() { return TechLib::lp45(); }

// A deliberately skewed reconvergence: a feeds an Xor2 directly and
// through a 3-Buf chain (3 x 38 = 114 ps), so the xor's arrival window
// is 114 ps > its own 64 ps inertial delay -- the canonical glitch
// generator.  (A skew below the gate delay is filtered; see the
// InertialFilterCapsBound test.)
struct SkewedJoin {
  Circuit c;
  NetId a, b1, b2, b3, x;
  SkewedJoin() {
    a = c.input("a");
    b1 = c.add(GateKind::Buf, a);
    b2 = c.add(GateKind::Buf, b1);
    b3 = c.add(GateKind::Buf, b2);
    x = c.add(GateKind::Xor2, a, b3);
    c.output("o", x);
  }
};

TEST(StaWindows, MinArrivalAndWindowPropagate) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId b1 = c.add(GateKind::Buf, a);
  const NetId b2 = c.add(GateKind::Buf, b1);
  const NetId join = c.and2(a, b2);
  c.output("o", join);
  Sta sta(c, lib());
  const double buf = lib().delay_ps(GateKind::Buf);
  const double and2 = lib().delay_ps(GateKind::And2);
  EXPECT_DOUBLE_EQ(sta.arrival(join), 2 * buf + and2);
  EXPECT_DOUBLE_EQ(sta.arrival_min(join), and2);  // the direct a path
  EXPECT_DOUBLE_EQ(sta.window_ps(join), 2 * buf);
  // Single-path nets have zero-width windows.
  EXPECT_DOUBLE_EQ(sta.window_ps(b2), 0.0);
  EXPECT_DOUBLE_EQ(sta.arrival_min(b2), 2 * buf);
}

TEST(StaWindows, AccessorsThrowOnOutOfRangeNetEvenInRelease) {
  Circuit c;
  const NetId a = c.input("a");
  c.output("o", c.not_(a));
  Sta sta(c, lib());
  const NetId bad = static_cast<NetId>(c.size());
  EXPECT_THROW(sta.arrival(bad), std::invalid_argument);
  EXPECT_THROW(sta.arrival_min(bad), std::invalid_argument);
  EXPECT_THROW(sta.window_ps(bad), std::invalid_argument);
  EXPECT_NO_THROW(sta.window_ps(a));
}

TEST(AnalyzeGlitch, BalancedJoinScoresZero) {
  // Both xor fan-ins arrive at t = 0: zero window, bound capped at 1.
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  c.output("o", c.add(GateKind::Xor2, a, b));
  const GlitchReport rep = analyze_glitch(c, lib());
  EXPECT_EQ(rep.nets, 1u);
  EXPECT_EQ(rep.glitchy_nets, 0u);
  EXPECT_DOUBLE_EQ(rep.total_score, 0.0);
  EXPECT_DOUBLE_EQ(rep.total_energy_fj, 0.0);
}

TEST(AnalyzeGlitch, SkewedJoinScoresAndPricesTheHazard) {
  SkewedJoin s;
  const GlitchReport rep = analyze_glitch(s.c, lib());
  // Window 114 ps across a 64 ps xor: bound min(1+1, floor(114/64)+1) = 2,
  // one potential extra transition.
  EXPECT_DOUBLE_EQ(rep.score[s.x], 1.0);
  EXPECT_DOUBLE_EQ(rep.window_ps[s.x], 3 * lib().delay_ps(GateKind::Buf));
  const PowerModel pm(s.c, lib());
  EXPECT_DOUBLE_EQ(rep.energy_fj[s.x], pm.toggle_energy_fj(s.x));
  EXPECT_EQ(rep.glitchy_nets, 1u);
  EXPECT_DOUBLE_EQ(rep.total_energy_fj, rep.energy_fj[s.x]);
  // Buffers are single-fan-in: no window, no score.
  EXPECT_DOUBLE_EQ(rep.score[s.b3], 0.0);
  // The hot list carries exactly the scoring net.
  ASSERT_EQ(rep.hot.size(), 1u);
  EXPECT_EQ(rep.hot[0].net, s.x);
  EXPECT_EQ(rep.hot[0].module, "top");
  // Module aggregates sum to the totals.
  double mod_energy = 0.0;
  for (const GlitchModule& m : rep.modules) mod_energy += m.energy_fj;
  EXPECT_DOUBLE_EQ(mod_energy, rep.total_energy_fj);
}

TEST(AnalyzeGlitch, InertialFilterCapsBound) {
  // Skew of one Not (22 ps) into a 64 ps xor: the pulse is shorter than
  // the gate's own delay, so the window bound stays at 1 -- score 0,
  // matching what EventSim's inertial cancellation would measure.
  Circuit c;
  const NetId a = c.input("a");
  c.output("o", c.add(GateKind::Xor2, a, c.not_(a)));
  const GlitchReport rep = analyze_glitch(c, lib());
  EXPECT_EQ(rep.glitchy_nets, 0u);
  EXPECT_GT(rep.max_window_ps, 0.0);  // the window exists, but is filtered
}

TEST(AnalyzeGlitch, PinsBlankConstantCones) {
  SkewedJoin s;
  GlitchOptions opt;
  opt.pins = {{s.a, false}};
  const GlitchReport rep = analyze_glitch(s.c, lib(), opt);
  EXPECT_EQ(rep.glitchy_nets, 0u);
  EXPECT_DOUBLE_EQ(rep.total_energy_fj, 0.0);
  EXPECT_DOUBLE_EQ(static_glitch_energy_fj(s.c, lib(), opt.pins), 0.0);
  // Unpinned, the scalar helper agrees with the full report.
  EXPECT_DOUBLE_EQ(static_glitch_energy_fj(s.c, lib()),
                   analyze_glitch(s.c, lib()).total_energy_fj);
}

TEST(AnalyzeGlitch, MaxHotTruncatesButTotalsCoverEverything) {
  // Two independent skewed joins; keep only the single hottest net.
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  auto skew = [&](NetId in) {
    NetId n = in;
    for (int i = 0; i < 3; ++i) n = c.add(GateKind::Buf, n);
    return c.add(GateKind::Xor2, in, n);
  };
  const NetId x1 = skew(a);
  const NetId x2 = skew(b);
  c.output("o", c.and2(x1, x2));
  GlitchOptions opt;
  opt.max_hot = 1;
  const GlitchReport rep = analyze_glitch(c, lib(), opt);
  EXPECT_GE(rep.glitchy_nets, 2u);
  ASSERT_EQ(rep.hot.size(), 1u);
  // Totals are unaffected by the hot-list truncation.
  EXPECT_GT(rep.total_energy_fj, rep.hot[0].energy_fj);
}

TEST(AnalyzeGlitch, ReportsRenderScoresAndModules) {
  SkewedJoin s;
  const GlitchReport rep = analyze_glitch(s.c, lib());
  const std::string text = glitch_report_text(rep, "unit-x");
  EXPECT_NE(text.find("=== glitch: unit-x ==="), std::string::npos);
  EXPECT_NE(text.find("glitch-prone"), std::string::npos);
  EXPECT_NE(text.find("hot nets"), std::string::npos);
  const std::string json = glitch_report_json(rep, "unit-x");
  EXPECT_NE(json.find("\"title\":\"unit-x\""), std::string::npos);
  EXPECT_NE(json.find("\"total_energy_fj\":"), std::string::npos);
  EXPECT_NE(json.find("\"hot\":["), std::string::npos);
  EXPECT_NE(json.find("\"modules\":["), std::string::npos);

  // Wide values used to overrun a fixed 64-byte buffer and cut the
  // hot-net record short, leaving invalid JSON.
  GlitchReport wide;
  wide.hot = {{9, 12345.5, 123456.25, 12345.0, "top"}};
  EXPECT_NE(glitch_report_json(wide, "w").find(
                "\"energy_fj\":123456.250,\"window_ps\":12345.000}]"),
            std::string::npos);
}

TEST(MeasureGlitch, SplitPartitionsTogglesAndPinsHold) {
  SkewedJoin s;
  const CompiledCircuit cc(s.c);
  const MeasuredGlitch m = measure_glitch(cc, lib(), {}, 50, 0xFEED);
  EXPECT_EQ(m.cycles, 50u);
  EXPECT_EQ(m.functional + m.glitch, m.counts.total_toggles());
  ASSERT_TRUE(m.counts.has_split());
  // The skewed xor actually glitches under simulation: whenever a
  // toggles, the direct edge and the 114 ps buffered edge both hit it.
  EXPECT_GT(m.counts.toggles[s.x], m.counts.functional[s.x]);
  EXPECT_GT(m.glitch_energy_total_fj, 0.0);
  EXPECT_DOUBLE_EQ(m.glitch_energy_fj[s.x],
                   static_cast<double>(m.counts.toggles[s.x] -
                                       m.counts.functional[s.x]) *
                       PowerModel(s.c, lib()).toggle_energy_fj(s.x));

  // Pinning the only input freezes the whole cone.
  const MeasuredGlitch held =
      measure_glitch(cc, lib(), {{s.a, true}}, 50, 0xFEED);
  EXPECT_EQ(held.counts.toggles[s.x], 0u);
  EXPECT_EQ(held.glitch, 0u);
}

TEST(MeasureGlitch, RejectsNonInputPins) {
  SkewedJoin s;
  const CompiledCircuit cc(s.c);
  EXPECT_THROW(measure_glitch(cc, lib(), {{s.x, false}}, 4, 1),
               std::invalid_argument);
  EXPECT_THROW(
      measure_glitch(cc, lib(), {{static_cast<NetId>(s.c.size()), false}}, 4,
                     1),
      std::invalid_argument);
}

TEST(CrossValidate, DegenerateAndPerfectAndInvertedRankings) {
  GlitchReport stat;
  MeasuredGlitch meas;
  stat.energy_fj = {0.0, 0.0, 0.0};
  meas.glitch_energy_fj = {0.0, 0.0, 0.0};
  const GlitchCrossCheck none = cross_validate_glitch(stat, meas, 20);
  EXPECT_EQ(none.k, 0);
  EXPECT_DOUBLE_EQ(none.overlap_frac, 1.0);  // vacuous agreement
  EXPECT_DOUBLE_EQ(none.rank_corr, 1.0);
  EXPECT_EQ(none.compared, 0u);

  stat.energy_fj = {0.0, 3.0, 2.0, 1.0};
  meas.glitch_energy_fj = {0.0, 30.0, 20.0, 10.0};
  const GlitchCrossCheck same = cross_validate_glitch(stat, meas, 2);
  EXPECT_EQ(same.k, 2);
  EXPECT_EQ(same.overlap, 2);
  EXPECT_DOUBLE_EQ(same.overlap_frac, 1.0);
  EXPECT_DOUBLE_EQ(same.rank_corr, 1.0);
  EXPECT_EQ(same.compared, 3u);

  meas.glitch_energy_fj = {0.0, 10.0, 20.0, 30.0};  // reversed ranking
  const GlitchCrossCheck inv = cross_validate_glitch(stat, meas, 2);
  EXPECT_DOUBLE_EQ(inv.rank_corr, -1.0);
  EXPECT_EQ(inv.overlap, 1);  // {1,2} static vs {3,2} measured
}

TEST(CrossValidate, StaticEstimateAgreesWithItself) {
  // Feeding the static energies in as the "measured" ranking must give
  // perfect agreement -- a self-consistency check of both top_k and the
  // tie-aware rank correlation.
  SkewedJoin s;
  const GlitchReport rep = analyze_glitch(s.c, lib());
  MeasuredGlitch meas;
  meas.glitch_energy_fj = rep.energy_fj;
  const GlitchCrossCheck cv = cross_validate_glitch(rep, meas, 20);
  EXPECT_DOUBLE_EQ(cv.overlap_frac, 1.0);
  EXPECT_DOUBLE_EQ(cv.rank_corr, 1.0);
}

}  // namespace
}  // namespace mfm::netlist
