// Tests for the netlist static analyzer: the ternary constant-propagation
// engine, structural hashing, each lint rule (one positive firing on a
// synthetic dirty circuit and one negative), and the paper-level proofs --
// fp32x2 lane isolation (Fig. 4), the fp32x1 idle lane, and the Table V
// active-gate ordering.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "mf/mf_unit.h"
#include "netlist/bus.h"
#include "netlist/compiled.h"
#include "netlist/fault.h"
#include "netlist/glitch.h"
#include "netlist/lint.h"
#include "netlist/structural_hash.h"
#include "netlist/ternary.h"
#include "netlist/verify.h"

namespace mfm::netlist {
namespace {

// ---- ternary engine --------------------------------------------------------

TEST(Ternary, PinnedControlBlanksGates) {
  Circuit c;
  const NetId x = c.input("x");
  const NetId kill = c.input("kill");
  const NetId g = c.add(GateKind::AndNot2, x, kill);
  c.output("y", g);

  const auto free_run = ternary_propagate(c);
  EXPECT_EQ(free_run.value[g], Tern::kX);
  EXPECT_EQ(free_run.const_comb, 0u);

  const auto killed = ternary_propagate(c, {{kill, true}});
  EXPECT_EQ(killed.value[g], Tern::k0);
  EXPECT_EQ(killed.const_comb, 1u);
  EXPECT_EQ(killed.const0_comb, 1u);

  const auto live = ternary_propagate(c, {{kill, false}});
  EXPECT_EQ(live.value[g], Tern::kX);
}

TEST(Ternary, MuxWithKnownSelectTakesOneBranch) {
  Circuit c;
  const NetId d0 = c.input("d0");
  const NetId d1 = c.input("d1");
  const NetId sel = c.input("sel");
  const NetId m = c.add(GateKind::Mux2, d0, d1, sel);
  c.output("y", m);

  const auto run = ternary_propagate(c, {{sel, false}, {d0, true}});
  EXPECT_EQ(run.value[m], Tern::k1);  // d1 stays X, the mux ignores it
}

TEST(Ternary, FirstCycleFlopsAreUnknown) {
  Circuit c;
  const NetId q = c.dff(c.const1());
  c.output("y", q);

  EXPECT_EQ(ternary_propagate(c).value[q], Tern::k1);  // steady state
  const auto first = ternary_propagate(c, {}, {.flops_transparent = false});
  EXPECT_EQ(first.value[q], Tern::kX);
  EXPECT_EQ(first.x_flops, 1u);
}

// ---- circuit construction guards ------------------------------------------

TEST(CircuitGuards, AddRejectsBadFanins) {
  Circuit c;
  const NetId a = c.input("a");
  EXPECT_THROW(c.add(GateKind::And2, a, 12345), std::invalid_argument);
  EXPECT_THROW(c.add(GateKind::And2, a, kNoNet), std::invalid_argument);
  // A net may not feed a gate built before it exists.
  EXPECT_THROW(c.add(GateKind::Not, static_cast<NetId>(c.size())),
               std::invalid_argument);
  // Unused fan-in slots must stay empty.
  EXPECT_THROW(c.add(GateKind::Not, a, a), std::invalid_argument);
}

TEST(CircuitGuards, OutputRejectsBadNets) {
  Circuit c;
  const NetId a = c.input("a");
  EXPECT_THROW(c.output("y", 999), std::out_of_range);
  EXPECT_THROW(c.output_bus("y", Bus{a, 999}), std::out_of_range);
  EXPECT_NO_THROW(c.output("y", a));
}

// ---- structure rule (lint_circuit and verify_circuit) ----------------------

TEST(LintStructure, RawBackdoorViolationsAreReported) {
  Circuit c;
  const NetId a = c.input("a");
  c.add_raw(GateKind::And2, {a, 12345, kNoNet, kNoNet});  // out of range
  c.add_raw(GateKind::Not, {a, a, kNoNet, kNoNet});       // dirty unused slot
  c.output_raw("y", Bus{99999});                          // bad port net

  std::vector<std::string> findings;
  verify_circuit(c, &findings);
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_NE(findings[0].find("not topological"), std::string::npos);
  EXPECT_NE(findings[1].find("kNoNet"), std::string::npos);
  EXPECT_NE(findings[2].find("out-of-range"), std::string::npos);

  const LintReport rep = lint_circuit(c);
  EXPECT_EQ(rep.errors, 3u);
  EXPECT_FALSE(rep.clean());
  // Value-based rules must not run on a structurally broken circuit.
  EXPECT_FALSE(rep.rules_ran);
}

TEST(LintStructure, FindingListIsCappedButCountsAreNot) {
  // 20 structural violations: verify_circuit lists every one, while
  // lint_circuit counts all 20 errors but lists only 16 per rule.  The
  // "value-based rules skipped" info is counted past the cap too.
  Circuit c;
  const NetId a = c.input("a");
  for (NetId i = 0; i < 20; ++i)
    c.add_raw(GateKind::And2, {a, 12345 + i, kNoNet, kNoNet});
  c.output("y", a);

  std::vector<std::string> findings;
  const CircuitStats st = verify_circuit(c, &findings);
  ASSERT_EQ(findings.size(), 20u);
  for (const std::string& f : findings)
    EXPECT_NE(f.find("not topological"), std::string::npos) << f;
  EXPECT_EQ(st.combinational, 20u);

  const LintReport rep = lint_circuit(c);
  EXPECT_EQ(rep.errors, 20u);
  EXPECT_EQ(rep.infos, 1u);
  ASSERT_EQ(rep.findings.size(), 16u);
  for (const LintFinding& f : rep.findings) {
    EXPECT_EQ(f.rule, LintRule::kStructure);
    EXPECT_EQ(f.severity, LintSeverity::kError);
  }
  EXPECT_EQ(rep.findings.front().net, 3u);  // gates 0..2: consts and a
  EXPECT_EQ(rep.findings.back().net, 18u);
}

TEST(LintStructure, CleanCircuitHasNoErrors) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  c.output("y", c.xor2(a, b));

  std::vector<std::string> findings;
  const CircuitStats st = verify_circuit(c, &findings);
  EXPECT_TRUE(findings.empty());
  EXPECT_EQ(st.combinational, 1u);
  EXPECT_EQ(st.inputs, 2u);

  const LintReport rep = lint_circuit(c);
  EXPECT_EQ(rep.errors, 0u);
  EXPECT_TRUE(rep.rules_ran);
}

// ---- constant rule ---------------------------------------------------------

TEST(LintConstant, BlankedGatesAndStuckOutputsUnderPins) {
  Circuit c;
  const NetId x = c.input("x");
  const NetId en = c.input("en");
  const NetId g = c.add(GateKind::And2, x, en);
  c.output("y", g);

  LintOptions opt;
  opt.pins.push_back({en, false});
  const LintReport rep = lint_circuit(c, opt);
  EXPECT_EQ(rep.blanked_gates, 1u);
  EXPECT_EQ(rep.blanked0_gates, 1u);
  EXPECT_EQ(rep.active_gates, 0u);
  EXPECT_EQ(rep.constant_output_bits, 1u);
  EXPECT_TRUE(rep.clean());  // blanking under pins is informational
}

TEST(LintConstant, StuckOutputWithoutPinsWarns) {
  Circuit c;
  c.output("y", c.const0());
  const LintReport rep = lint_circuit(c);
  EXPECT_EQ(rep.constant_output_bits, 1u);
  EXPECT_GE(rep.warnings, 1u);
  EXPECT_FALSE(rep.clean(LintSeverity::kWarning));
}

TEST(LintConstant, NoFalseBlanking) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  c.output("y", c.xor2(a, b));
  const LintReport rep = lint_circuit(c);
  EXPECT_EQ(rep.blanked_gates, 0u);
  EXPECT_EQ(rep.constant_output_bits, 0u);
}

TEST(LintConstant, UninitializedFlopReachesOutput) {
  Circuit c;
  c.output("q", c.dff(c.const1()));
  const LintReport rep = lint_circuit(c);
  // Steady state is constant 1, but on the first cycle the register
  // exposes X to the output.
  EXPECT_EQ(rep.uninit_output_bits, 1u);
}

// ---- lane-isolation rule ---------------------------------------------------

TEST(LintLane, DetectsLeakIntoForbiddenCone) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  const NetId y = c.and2(a, b);
  c.output("y", y);

  LintOptions opt;
  opt.lanes.push_back({"leaky", Bus{y}, Bus{b}});
  const LintReport rep = lint_circuit(c, opt);
  ASSERT_EQ(rep.lanes.size(), 1u);
  EXPECT_FALSE(rep.lanes[0].ok);
  ASSERT_EQ(rep.lanes[0].offenders.size(), 1u);
  EXPECT_EQ(rep.lanes[0].offenders[0], b);
  EXPECT_GE(rep.errors, 1u);
}

TEST(LintLane, PinnedMuxSelectPrunesTheDeadBranch) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  const NetId sel = c.input("sel");
  const NetId y = c.add(GateKind::Mux2, a, b, sel);
  c.output("y", y);

  LintOptions isolated;
  isolated.pins.push_back({sel, false});
  isolated.lanes.push_back({"mux", Bus{y}, Bus{b}});
  EXPECT_TRUE(lint_circuit(c, isolated).lanes[0].ok);

  // Without the pin the select is free and both branches are in the cone.
  LintOptions free_sel;
  free_sel.lanes.push_back({"mux", Bus{y}, Bus{b}});
  EXPECT_FALSE(lint_circuit(c, free_sel).lanes[0].ok);
}

TEST(LintLane, RequireConstantProvesAndRefutes) {
  Circuit c;
  const NetId x = c.input("x");
  const NetId kill = c.input("kill");
  const NetId dead = c.add(GateKind::AndNot2, x, kill);
  c.output("y", dead);

  LintOptions killed;
  killed.pins.push_back({kill, true});
  killed.lanes.push_back({"idle", Bus{dead}, {}, /*require_constant=*/true});
  EXPECT_TRUE(lint_circuit(c, killed).lanes[0].ok);

  LintOptions live;
  live.pins.push_back({kill, false});
  live.lanes.push_back({"idle", Bus{dead}, {}, /*require_constant=*/true});
  const LintReport rep = lint_circuit(c, live);
  EXPECT_FALSE(rep.lanes[0].ok);
  EXPECT_GE(rep.errors, 1u);
}

// ---- duplicate rule --------------------------------------------------------

TEST(LintDuplicate, CommutedAndTransitiveDuplicates) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  const NetId g1 = c.add(GateKind::And2, a, b);
  const NetId g2 = c.add(GateKind::And2, b, a);  // commuted duplicate of g1
  const NetId g3 = c.add(GateKind::Xor2, g1, a);
  const NetId g4 = c.add(GateKind::Xor2, g2, a);  // duplicate via rep(g2)=g1
  c.output("y", g4);
  c.output("z", g3);

  const StrashResult strash = structural_hash(c);
  EXPECT_EQ(strash.rep[g2], g1);
  EXPECT_EQ(strash.rep[g4], g3);
  EXPECT_EQ(strash.duplicate_gates, 2u);
  EXPECT_EQ(strash.classes, 2u);

  const LintReport rep = lint_circuit(c);
  EXPECT_EQ(rep.duplicate_gates, 2u);
  EXPECT_EQ(rep.structural_classes, 2u);
}

TEST(LintDuplicate, StateAndDistinctLogicNotMerged) {
  Circuit c;
  const NetId d = c.input("d");
  const NetId q1 = c.dff(d);
  const NetId q2 = c.dff(d);  // same D, still distinct state
  c.output("y", c.and2(q1, q2));

  const LintReport rep = lint_circuit(c);
  EXPECT_EQ(rep.duplicate_gates, 0u);
}

// ---- unobservable rule -----------------------------------------------------

TEST(LintUnobservable, OrphanConeIsFlagged) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  const NetId orphan = c.and2(a, b);
  (void)orphan;
  c.output("y", c.or2(a, b));

  const LintReport rep = lint_circuit(c);
  EXPECT_EQ(rep.unobservable_gates, 1u);
  EXPECT_GE(rep.warnings, 1u);
}

TEST(LintUnobservable, FullyObservedCircuitIsQuiet) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  c.output("y", c.and2(a, b));
  EXPECT_EQ(lint_circuit(c).unobservable_gates, 0u);
}

// ---- fanout rule -----------------------------------------------------------

TEST(LintFanout, BufferChainsAndHotNets) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId b1 = c.add(GateKind::Buf, a);
  const NetId b2 = c.add(GateKind::Buf, b1);  // Buf -> Buf chain
  const NetId n1 = c.add(GateKind::Not, a);
  const NetId n2 = c.add(GateKind::Not, n1);  // double inverter
  c.output("y", c.and2(b2, n2));
  // Fan a out to three more loads.
  Bus loads;
  for (int i = 0; i < 3; ++i) loads.push_back(c.add(GateKind::Buf, a));
  c.output_bus("z", loads);

  LintOptions opt;
  opt.fanout_warning_threshold = 4;
  const LintReport rep = lint_circuit(c, opt);
  EXPECT_EQ(rep.buffer_chain_gates, 2u);
  EXPECT_EQ(rep.max_fanout, 5);  // a drives b1, n1 and the three loads
  EXPECT_EQ(rep.max_fanout_net, a);
  EXPECT_GE(rep.warnings, 1u);  // threshold exceeded
  ASSERT_EQ(rep.fanout_hist.size(), static_cast<std::size_t>(kFanoutBuckets));
  // Every non-constant net lands in exactly one bucket.
  std::size_t total = 0;
  for (const std::size_t n : rep.fanout_hist) total += n;
  EXPECT_EQ(total, c.size() - 2);
}

TEST(LintFanout, NoChainsInCleanLogic) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  c.output("y", c.or2(c.and2(a, b), c.xor2(a, b)));
  const LintReport rep = lint_circuit(c);
  EXPECT_EQ(rep.buffer_chain_gates, 0u);
}

TEST(LintGlitch, SkewedReconvergenceFiresGlitchProneInfo) {
  // a feeds an Xor2 directly and through a 3-Buf chain: a 114 ps
  // arrival window across a 64 ps gate, the canonical hazard.
  Circuit c;
  const NetId a = c.input("a");
  NetId n = a;
  for (int i = 0; i < 3; ++i) n = c.add(GateKind::Buf, n);
  const NetId x = c.add(GateKind::Xor2, a, n);
  c.output("y", x);

  const LintReport rep = lint_circuit(c);
  EXPECT_TRUE(rep.rules_ran);
  EXPECT_EQ(rep.glitch_prone_nets, 1u);
  EXPECT_GT(rep.glitch_score_total, 0.0);
  // The one hot net scores above the finding threshold, so it fires.
  EXPECT_GE(rep.glitch_energy_fj, kGlitchFindingThresholdFj);
  bool fired = false;
  for (const LintFinding& f : rep.findings)
    if (f.rule == LintRule::kGlitchProne) {
      fired = true;
      EXPECT_EQ(f.severity, LintSeverity::kInfo);
      EXPECT_EQ(f.net, x);
      EXPECT_NE(f.message.find("glitch-prone"), std::string::npos);
    }
  EXPECT_TRUE(fired);
  const std::string json = lint_report_json(rep, "skew");
  EXPECT_NE(json.find("\"glitch_prone_nets\":1"), std::string::npos);
  EXPECT_NE(json.find("\"glitch_energy_fj\":"), std::string::npos);

  // Pinning the input freezes the cone: the rule still runs, nothing
  // fires.
  LintOptions pinned;
  pinned.pins = {{a, false}};
  const LintReport quiet = lint_circuit(c, pinned);
  EXPECT_TRUE(quiet.rules_ran);
  EXPECT_EQ(quiet.glitch_prone_nets, 0u);
  for (const LintFinding& f : quiet.findings)
    EXPECT_NE(f.rule, LintRule::kGlitchProne);
}

// ---- the one pin check -----------------------------------------------------

TEST(PinCheck, PinOnAGateProvesNoIsolation) {
  // Pinning gate y itself would make y's cone constant and "prove" the
  // lane free of b, which y reads.  Pins name primary inputs only.
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  const NetId y = c.and2(a, b);
  c.output("y", y);
  LintOptions opt;
  opt.pins = {{y, false}};
  opt.lanes.push_back({"y", Bus{y}, Bus{b}});
  EXPECT_THROW(lint_circuit(c, opt), std::invalid_argument);
  opt.pins = {{a, false}};
  EXPECT_TRUE(lint_circuit(c, opt).lanes[0].ok);  // a = 0 blanks y
  opt.pins.clear();
  EXPECT_FALSE(lint_circuit(c, opt).lanes[0].ok);
}

TEST(PinCheck, EveryPinnedAnalysisRejectsNonInputPins) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  const NetId y = c.and2(a, b);
  c.output("y", y);
  const CompiledCircuit cc(c);
  for (const NetId bad : {y, NetId{12345}}) {
    const std::vector<TernaryPin> pins{{bad, true}};
    LintOptions lo;
    lo.pins = pins;
    EXPECT_THROW(lint_circuit(c, lo), std::invalid_argument) << bad;
    EXPECT_THROW(ternary_propagate(cc, pins), std::invalid_argument) << bad;
    GlitchOptions go;
    go.pins = pins;
    EXPECT_THROW(analyze_glitch(cc, TechLib::lp45(), go),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(FaultVectors(c, 4, /*seed=*/1, pins), std::invalid_argument)
        << bad;
    EXPECT_THROW(FaultVectors::exhaustive(c, pins), std::invalid_argument)
        << bad;
  }
  // The message names the analysis that was called.
  try {
    LintOptions lo;
    lo.pins = {{y, true}};
    lint_circuit(c, lo);
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "lint_circuit: pin net " + std::to_string(y) +
                  " is not a primary input");
  }
  // Input pins pass every one of them.
  const std::vector<TernaryPin> good{{a, true}, {b, false}};
  EXPECT_EQ(ternary_propagate(cc, good).value[y], Tern::k0);
  EXPECT_NO_THROW(FaultVectors(c, 4, /*seed=*/1, good));
}

// ---- helpers ---------------------------------------------------------------

TEST(LintHelpers, PinPortValidatesItsArguments) {
  Circuit c;
  c.input_bus("a", 8);
  std::vector<TernaryPin> pins;
  EXPECT_THROW(pin_port(c, "nope", 0, pins), std::out_of_range);
  EXPECT_THROW(pin_port_bits(c, "a", 4, 8, 0, pins), std::out_of_range);
  pin_port(c, "a", 0xA5, pins);
  ASSERT_EQ(pins.size(), 8u);
  EXPECT_TRUE(pins[0].value);
  EXPECT_FALSE(pins[1].value);
  EXPECT_TRUE(pins[7].value);
}

TEST(LintHelpers, ReportsRenderBothFormats) {
  Circuit c;
  const NetId a = c.input("a");
  c.output("y", c.not_(a));
  const LintReport rep = lint_circuit(c);
  const std::string text = lint_report_text(rep, "tiny");
  EXPECT_NE(text.find("=== lint: tiny ==="), std::string::npos);
  const std::string json = lint_report_json(rep, "tiny");
  EXPECT_NE(json.find("\"title\":\"tiny\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\":0"), std::string::npos);
}

// ---- the paper-level proofs ------------------------------------------------

class MfLint : public ::testing::Test {
 protected:
  static const mf::MfUnit& unit() {
    static const mf::MfUnit u = mf::build_mf_unit({});
    return u;
  }

  static LintOptions format_pins(mf::Format f) {
    LintOptions opt;
    pin_port(*unit().circuit, "frmt", mf::frmt_bits(f), opt.pins);
    return opt;
  }
};

TEST_F(MfLint, Fp32x2LaneIsolationProven) {
  const mf::MfUnit& u = unit();
  LintOptions opt = format_pins(mf::Format::Fp32Dual);
  Bus lo_ops = slice(u.a, 0, 32);
  const Bus lo_b = slice(u.b, 0, 32);
  lo_ops.insert(lo_ops.end(), lo_b.begin(), lo_b.end());
  Bus hi_ops = slice(u.a, 32, 32);
  const Bus hi_b = slice(u.b, 32, 32);
  hi_ops.insert(hi_ops.end(), hi_b.begin(), hi_b.end());
  opt.lanes.push_back({"upper", slice(u.ph, 32, 32), lo_ops});
  opt.lanes.push_back({"lower", slice(u.ph, 0, 32), hi_ops});

  const LintReport rep = lint_circuit(*u.circuit, opt);
  ASSERT_EQ(rep.lanes.size(), 2u);
  EXPECT_TRUE(rep.lanes[0].ok) << "upper product cone reaches "
                               << rep.lanes[0].offenders.size()
                               << " lower-lane operand bits";
  EXPECT_TRUE(rep.lanes[1].ok) << "lower product cone reaches "
                               << rep.lanes[1].offenders.size()
                               << " upper-lane operand bits";
  EXPECT_TRUE(rep.clean());
}

TEST_F(MfLint, LaneProverIsNotVacuous) {
  // Adversarial control: with the format free (no pins) the cross-lane
  // muxes are live and the "proof" must fail.
  const mf::MfUnit& u = unit();
  LintOptions opt;
  Bus lo_ops = slice(u.a, 0, 32);
  const Bus lo_b = slice(u.b, 0, 32);
  lo_ops.insert(lo_ops.end(), lo_b.begin(), lo_b.end());
  opt.lanes.push_back({"upper", slice(u.ph, 32, 32), lo_ops});
  const LintReport rep = lint_circuit(*u.circuit, opt);
  EXPECT_FALSE(rep.lanes[0].ok);
  EXPECT_FALSE(rep.lanes[0].offenders.empty());
}

TEST_F(MfLint, Fp32x1IdleLaneIsConstant) {
  const mf::MfUnit& u = unit();
  LintOptions opt = format_pins(mf::Format::Fp32Dual);
  pin_port_bits(*u.circuit, "a", 32, 32, 0, opt.pins);
  pin_port_bits(*u.circuit, "b", 32, 32, 0, opt.pins);
  opt.lanes.push_back(
      {"idle-upper", slice(u.ph, 32, 32), {}, /*require_constant=*/true});

  const LintReport rep = lint_circuit(*u.circuit, opt);
  ASSERT_EQ(rep.lanes.size(), 1u);
  EXPECT_TRUE(rep.lanes[0].ok);
  EXPECT_TRUE(rep.clean());
}

TEST_F(MfLint, TableVActiveGateOrdering) {
  // Table V's average-activity ordering, stated structurally: the number
  // of combinational gates that can toggle at all shrinks monotonically
  // int64 -> fp64 -> fp32x2 -> fp32x1.
  const mf::MfUnit& u = unit();
  auto active = [&](const LintOptions& opt) {
    return lint_circuit(*u.circuit, opt).active_gates;
  };
  const std::size_t int64_active = active(format_pins(mf::Format::Int64));
  const std::size_t fp64_active = active(format_pins(mf::Format::Fp64));
  const std::size_t fp32x2_active =
      active(format_pins(mf::Format::Fp32Dual));
  LintOptions single = format_pins(mf::Format::Fp32Dual);
  pin_port_bits(*u.circuit, "a", 32, 32, 0, single.pins);
  pin_port_bits(*u.circuit, "b", 32, 32, 0, single.pins);
  const std::size_t fp32x1_active = active(single);

  EXPECT_GT(int64_active, fp64_active);
  EXPECT_GT(fp64_active, fp32x2_active);
  EXPECT_GT(fp32x2_active, fp32x1_active);
}

TEST_F(MfLint, ShippedGeneratorIsErrorClean) {
  EXPECT_TRUE(lint_circuit(*unit().circuit).clean());
}

}  // namespace
}  // namespace mfm::netlist
