// Rewrite-engine tests: the replace_cone contract (splice semantics and
// malformed-edit rejection), per-rule positive/negative matcher cases on
// hand-built cones, fixpoint-pass properties on real generators (always
// verified equivalent, never larger), sequential cosim re-verification,
// and the lint-fusion/optimizer agreement guarantee.
#include <gtest/gtest.h>

#include <stdexcept>

#include "mf/fp_reduce.h"
#include "mf/mf_unit.h"
#include "mult/multiplier.h"
#include "netlist/equiv.h"
#include "netlist/lint.h"
#include "netlist/pattern.h"
#include "netlist/report.h"
#include "netlist/rewrite.h"
#include "netlist/verify.h"

namespace mfm::netlist {
namespace {

std::size_t kind_count(const Circuit& c, GateKind k) {
  return c.kind_histogram()[static_cast<std::size_t>(k)];
}

const RewriteRuleStats& rule_stats(const RewriteReport& rep,
                                   std::string_view name) {
  for (const RewriteRuleStats& r : rep.rules)
    if (r.rule == name) return r;
  static const RewriteRuleStats none;
  return none;
}

// ---- replace_cone: splice semantics ----------------------------------------

TEST(ReplaceCone, SplicesAo21AndRewiresAllReaders) {
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b"), cin = c.input("cin");
  const NetId g_and = c.add(GateKind::And2, a, b);
  const NetId g_or = c.add(GateKind::Or2, g_and, cin);
  const NetId g_not = c.add(GateKind::Not, g_or);  // second reader of g_or
  c.output("o", g_or);
  c.output("n", g_not);

  ConeEdit e;
  e.cone = {g_and, g_or};
  e.root = g_or;
  e.gates = {ConeGate{GateKind::Ao21, {a, b, cin, kNoNet}}};
  e.out = kConeLocal | 0;
  const ConeRewrite cr = c.replace_cone({e});

  EXPECT_EQ(cr.removed_gates, 2u);
  EXPECT_EQ(cr.added_gates, 1u);
  EXPECT_EQ(cr.net_map[g_and], kNoNet);
  ASSERT_NE(cr.net_map[g_or], kNoNet);
  EXPECT_EQ(cr.circuit->gate(cr.net_map[g_or]).kind, GateKind::Ao21);
  // The surviving Not reader and the output port both follow the root.
  EXPECT_EQ(cr.circuit->gate(cr.net_map[g_not]).in[0], cr.net_map[g_or]);
  EXPECT_EQ(cr.circuit->out_port("o")[0], cr.net_map[g_or]);
  EXPECT_EQ(kind_count(*cr.circuit, GateKind::And2), 0u);
  EXPECT_EQ(kind_count(*cr.circuit, GateKind::Or2), 0u);

  std::vector<std::string> findings;
  verify_circuit(*cr.circuit, &findings);
  EXPECT_TRUE(findings.empty()) << (findings.empty() ? "" : findings[0]);
  const EquivResult eq = check_equivalence(c, *cr.circuit, 500);
  EXPECT_TRUE(eq.equivalent) << eq.counterexample;
}

TEST(ReplaceCone, PureRewiringEditForwardsToExistingNet) {
  // Not(Not(x)) with the inner inverter shared: only the outer gate is
  // removed and its readers forward straight to x.
  Circuit c;
  const NetId x = c.input("x");
  const NetId n1 = c.add(GateKind::Not, x);
  const NetId n2 = c.add(GateKind::Not, n1);
  c.output("inv", n1);
  c.output("o", n2);

  ConeEdit e;
  e.cone = {n2};
  e.root = n2;
  e.out = x;  // no replacement gates at all
  const ConeRewrite cr = c.replace_cone({e});
  EXPECT_EQ(cr.removed_gates, 1u);
  EXPECT_EQ(cr.added_gates, 0u);
  EXPECT_EQ(cr.circuit->out_port("o")[0], cr.net_map[x]);
  const EquivResult eq = check_equivalence(c, *cr.circuit, 200);
  EXPECT_TRUE(eq.equivalent) << eq.counterexample;
}

TEST(ReplaceCone, EmptyEditListIsPlainCopy) {
  const auto unit = mult::build_multiplier({});
  const ConeRewrite cr = unit.circuit->replace_cone({});
  EXPECT_EQ(cr.circuit->size(), unit.circuit->size());
  EXPECT_EQ(cr.removed_gates, 0u);
  const EquivResult eq = check_equivalence(*unit.circuit, *cr.circuit, 500);
  EXPECT_TRUE(eq.equivalent) << eq.counterexample;
}

TEST(ReplaceCone, TwoIndependentEditsInOneBatch) {
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b");
  const NetId x = c.input("x"), y = c.input("y");
  const NetId and1 = c.add(GateKind::And2, a, b);
  const NetId or1 = c.add(GateKind::Or2, and1, x);
  const NetId and2 = c.add(GateKind::And2, x, y);
  const NetId or2 = c.add(GateKind::Or2, and2, a);
  c.output("p", or1);
  c.output("q", or2);

  ConeEdit e1;
  e1.cone = {and1, or1};
  e1.root = or1;
  e1.gates = {ConeGate{GateKind::Ao21, {a, b, x, kNoNet}}};
  e1.out = kConeLocal | 0;
  ConeEdit e2;
  e2.cone = {and2, or2};
  e2.root = or2;
  e2.gates = {ConeGate{GateKind::Ao21, {x, y, a, kNoNet}}};
  e2.out = kConeLocal | 0;
  const ConeRewrite cr = c.replace_cone({e1, e2});
  EXPECT_EQ(cr.removed_gates, 4u);
  EXPECT_EQ(cr.added_gates, 2u);
  const EquivResult eq = check_equivalence(c, *cr.circuit, 500);
  EXPECT_TRUE(eq.equivalent) << eq.counterexample;
}

// ---- replace_cone: malformed edits -----------------------------------------

TEST(ReplaceCone, RejectsMalformedEdits) {
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b"), x = c.input("x");
  const NetId g_and = c.add(GateKind::And2, a, b);
  const NetId g_or = c.add(GateKind::Or2, g_and, x);
  const NetId g_xor = c.add(GateKind::Xor2, g_and, x);  // 2nd reader of g_and
  c.output("o", g_or);
  c.output("t", g_xor);

  auto edit = [&] {
    ConeEdit e;
    e.cone = {g_or};
    e.root = g_or;
    e.gates = {ConeGate{GateKind::Or2, {g_and, x, kNoNet, kNoNet}}};
    e.out = kConeLocal | 0;
    return e;
  };

  {  // baseline edit is accepted
    EXPECT_NO_THROW(c.replace_cone({edit()}));
  }
  {  // cone net out of range
    ConeEdit e = edit();
    e.cone.push_back(static_cast<NetId>(c.size()) + 5);
    EXPECT_THROW(c.replace_cone({e}), std::invalid_argument);
  }
  {  // primary input in the cone
    ConeEdit e = edit();
    e.cone.push_back(a);
    EXPECT_THROW(c.replace_cone({e}), std::invalid_argument);
  }
  {  // constant source in the cone
    ConeEdit e = edit();
    e.cone.push_back(c.const0());
    EXPECT_THROW(c.replace_cone({e}), std::invalid_argument);
  }
  {  // root not a member of its cone
    ConeEdit e = edit();
    e.cone = {g_and};
    EXPECT_THROW(c.replace_cone({e}), std::invalid_argument);
  }
  {  // duplicate net within one cone
    ConeEdit e = edit();
    e.cone = {g_or, g_or};
    EXPECT_THROW(c.replace_cone({e}), std::invalid_argument);
  }
  {  // same net claimed by two edits
    EXPECT_THROW(c.replace_cone({edit(), edit()}), std::invalid_argument);
  }
  {  // internal cone net with a reader outside the cone (g_xor reads g_and)
    ConeEdit e = edit();
    e.cone = {g_and, g_or};
    e.gates = {ConeGate{GateKind::Ao21, {a, b, x, kNoNet}}};
    EXPECT_THROW(c.replace_cone({e}), std::invalid_argument);
  }
  {  // replacement references a net the edit removes
    ConeEdit e = edit();
    e.gates = {ConeGate{GateKind::Or2, {g_or, x, kNoNet, kNoNet}}};
    EXPECT_THROW(c.replace_cone({e}), std::invalid_argument);
  }
  {  // local reference to a not-yet-emitted replacement gate
    ConeEdit e = edit();
    e.gates = {ConeGate{GateKind::Or2, {kConeLocal | 1, x, kNoNet, kNoNet}},
               ConeGate{GateKind::Buf, {g_and, kNoNet, kNoNet, kNoNet}}};
    EXPECT_THROW(c.replace_cone({e}), std::invalid_argument);
  }
  {  // edit output references a net defined after the root
    ConeEdit e = edit();
    e.gates.clear();
    e.out = g_xor;
    EXPECT_THROW(c.replace_cone({e}), std::invalid_argument);
  }
  {  // replacement gate may not be a source or a flop
    ConeEdit e = edit();
    e.gates = {ConeGate{GateKind::Input, {kNoNet, kNoNet, kNoNet, kNoNet}}};
    EXPECT_THROW(c.replace_cone({e}), std::invalid_argument);
  }
  {  // unused replacement fan-in slot must stay kNoNet
    ConeEdit e = edit();
    e.gates = {ConeGate{GateKind::Or2, {g_and, x, x, kNoNet}}};
    EXPECT_THROW(c.replace_cone({e}), std::invalid_argument);
  }
  {  // missing edit output
    ConeEdit e = edit();
    e.out = kNoNet;
    EXPECT_THROW(c.replace_cone({e}), std::invalid_argument);
  }
}

TEST(ReplaceCone, RejectsPortExposedInternalNet) {
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b"), x = c.input("x");
  const NetId g_and = c.add(GateKind::And2, a, b);
  const NetId g_or = c.add(GateKind::Or2, g_and, x);
  c.output("o", g_or);
  c.output("leak", g_and);  // the internal net is observable
  ConeEdit e;
  e.cone = {g_and, g_or};
  e.root = g_or;
  e.gates = {ConeGate{GateKind::Ao21, {a, b, x, kNoNet}}};
  e.out = kConeLocal | 0;
  EXPECT_THROW(c.replace_cone({e}), std::invalid_argument);
}

TEST(ReplaceCone, RejectsFlopInCone) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId q = c.dff(a);
  c.output("q", q);
  ConeEdit e;
  e.cone = {q};
  e.root = q;
  e.out = a;
  EXPECT_THROW(c.replace_cone({e}), std::invalid_argument);
}

// ---- per-rule matcher cases ------------------------------------------------

TEST(RewriteRules, FusesAo22) {
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b");
  const NetId x = c.input("x"), y = c.input("y");
  const NetId p = c.add(GateKind::And2, a, b);
  const NetId q = c.add(GateKind::And2, x, y);
  c.output("o", c.add(GateKind::Or2, p, q));
  const RewriteResult r = optimize_circuit(c);
  EXPECT_EQ(rule_stats(r.report, "fuse-ao22").matches, 1u);
  EXPECT_EQ(r.report.applied, 1u);
  EXPECT_EQ(kind_count(*r.circuit, GateKind::Ao22), 1u);
  EXPECT_EQ(r.report.gates_after, 1u);
  EXPECT_DOUBLE_EQ(r.report.area_removed_nand2(), 2.25);
  ASSERT_TRUE(r.report.verify_ran);
  EXPECT_TRUE(r.report.verified) << r.report.counterexample;
}

TEST(RewriteRules, FusesAo21WhenOneAndIsShared) {
  // The second And2 is port-observable, so only the private one fuses.
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b");
  const NetId x = c.input("x"), y = c.input("y");
  const NetId p = c.add(GateKind::And2, a, b);
  const NetId q = c.add(GateKind::And2, x, y);
  c.output("o", c.add(GateKind::Or2, p, q));
  c.output("q", q);
  const RewriteResult r = optimize_circuit(c);
  EXPECT_EQ(rule_stats(r.report, "fuse-ao22").matches, 0u);
  EXPECT_EQ(rule_stats(r.report, "fuse-ao21").matches, 1u);
  EXPECT_EQ(kind_count(*r.circuit, GateKind::Ao21), 1u);
  EXPECT_EQ(kind_count(*r.circuit, GateKind::And2), 1u);
  EXPECT_TRUE(r.report.verified) << r.report.counterexample;
}

TEST(RewriteRules, FusesOa21) {
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b"), x = c.input("x");
  const NetId o = c.add(GateKind::Or2, a, b);
  c.output("o", c.add(GateKind::And2, o, x));
  const RewriteResult r = optimize_circuit(c);
  EXPECT_EQ(rule_stats(r.report, "fuse-oa21").matches, 1u);
  EXPECT_EQ(kind_count(*r.circuit, GateKind::Oa21), 1u);
  EXPECT_DOUBLE_EQ(r.report.area_removed_nand2(), 1.0);
  EXPECT_TRUE(r.report.verified) << r.report.counterexample;
}

TEST(RewriteRules, SharedFaninBlocksAllFusion) {
  // The And2 feeds both the Or2 and an output port: no rule may swallow
  // it, and nothing else is rewritable.
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b"), x = c.input("x");
  const NetId p = c.add(GateKind::And2, a, b);
  c.output("o", c.add(GateKind::Or2, p, x));
  c.output("p", p);
  const RewriteResult r = optimize_circuit(c);
  EXPECT_EQ(r.report.applied, 0u);
  EXPECT_EQ(r.report.iterations, 0);
  EXPECT_EQ(r.report.gates_after, r.report.gates_before);
  EXPECT_TRUE(r.report.verified) << r.report.counterexample;
}

TEST(RewriteRules, CollapsesInverterChain) {
  // Built with raw add(): the convenience builders would fold the chain
  // at construction time.
  Circuit c;
  const NetId x = c.input("x");
  const NetId n1 = c.add(GateKind::Not, x);
  const NetId n2 = c.add(GateKind::Not, n1);
  c.output("o", n2);
  const RewriteResult r = optimize_circuit(c);
  EXPECT_GE(rule_stats(r.report, "collapse-chain").matches, 1u);
  EXPECT_EQ(r.report.gates_after, 0u);
  EXPECT_TRUE(r.report.verified) << r.report.counterexample;
}

TEST(RewriteRules, CollapsesBufferChain) {
  Circuit c;
  const NetId x = c.input("x");
  c.output("o", c.buf(c.buf(x)));
  const RewriteResult r = optimize_circuit(c);
  EXPECT_GE(rule_stats(r.report, "collapse-chain").matches, 1u);
  EXPECT_EQ(r.report.gates_after, 0u);
  EXPECT_TRUE(r.report.verified) << r.report.counterexample;
}

TEST(RewriteRules, PushesNotIntoPrivateDriver) {
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b");
  const NetId g = c.add(GateKind::And2, a, b);
  c.output("o", c.add(GateKind::Not, g));
  const RewriteResult r = optimize_circuit(c);
  EXPECT_EQ(rule_stats(r.report, "push-not").matches, 1u);
  EXPECT_EQ(kind_count(*r.circuit, GateKind::Nand2), 1u);
  EXPECT_EQ(r.report.gates_after, 1u);
  EXPECT_TRUE(r.report.verified) << r.report.counterexample;
}

TEST(RewriteRules, SharedDriverBlocksNotPush) {
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b");
  const NetId g = c.add(GateKind::And2, a, b);
  c.output("o", c.add(GateKind::Not, g));
  c.output("g", g);  // second observer pins the And2 in place
  const RewriteResult r = optimize_circuit(c);
  EXPECT_EQ(r.report.applied, 0u);
  EXPECT_TRUE(r.report.verified) << r.report.counterexample;
}

TEST(RewriteRules, AbsorbsBothNotsIntoNor) {
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b");
  const NetId na = c.add(GateKind::Not, a);
  const NetId nb = c.add(GateKind::Not, b);
  c.output("o", c.add(GateKind::And2, na, nb));
  const RewriteResult r = optimize_circuit(c);
  EXPECT_EQ(rule_stats(r.report, "absorb-not").matches, 1u);
  EXPECT_EQ(kind_count(*r.circuit, GateKind::Nor2), 1u);
  EXPECT_EQ(r.report.gates_after, 1u);
  EXPECT_DOUBLE_EQ(r.report.area_removed_nand2(), 1.25);
  EXPECT_TRUE(r.report.verified) << r.report.counterexample;
}

TEST(RewriteRules, AbsorbsSingleNotIntoAndNot) {
  Circuit c;
  const NetId a = c.input("a"), y = c.input("y");
  const NetId na = c.add(GateKind::Not, a);
  c.output("o", c.add(GateKind::And2, na, y));
  const RewriteResult r = optimize_circuit(c);
  EXPECT_EQ(rule_stats(r.report, "absorb-not").matches, 1u);
  EXPECT_EQ(kind_count(*r.circuit, GateKind::AndNot2), 1u);
  EXPECT_TRUE(r.report.verified) << r.report.counterexample;
}

TEST(RewriteRules, AbsorbsNotIntoXnor) {
  Circuit c;
  const NetId a = c.input("a"), y = c.input("y");
  const NetId na = c.add(GateKind::Not, a);
  c.output("o", c.add(GateKind::Xor2, y, na));
  const RewriteResult r = optimize_circuit(c);
  EXPECT_EQ(rule_stats(r.report, "absorb-not").matches, 1u);
  EXPECT_EQ(kind_count(*r.circuit, GateKind::Xnor2), 1u);
  EXPECT_TRUE(r.report.verified) << r.report.counterexample;
}

TEST(RewriteRules, IteratesToFixpoint) {
  // A Buf shields the And2 from the Or2: the chain collapse must rewire
  // the Or2's fan-in in iteration one before Ao21 fusion can see the
  // And2 in iteration two.
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b"), x = c.input("x");
  const NetId g = c.add(GateKind::And2, a, b);
  const NetId bf = c.add(GateKind::Buf, g);
  c.output("o", c.add(GateKind::Or2, bf, x));
  const RewriteResult r = optimize_circuit(c);
  EXPECT_GE(r.report.iterations, 2);
  EXPECT_EQ(kind_count(*r.circuit, GateKind::Ao21), 1u);
  EXPECT_EQ(r.report.gates_after, 1u);
  EXPECT_TRUE(r.report.verified) << r.report.counterexample;
}

// ---- sequential re-verification --------------------------------------------

TEST(Rewrite, SequentialCircuitVerifiedByCosim) {
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b"), x = c.input("x");
  const NetId g = c.add(GateKind::And2, a, b);
  const NetId o = c.add(GateKind::Or2, g, x);
  c.output("q", c.dff(o));
  const RewriteResult r = optimize_circuit(c);
  EXPECT_EQ(rule_stats(r.report, "fuse-ao21").matches, 1u);
  ASSERT_TRUE(r.report.verify_ran);
  EXPECT_TRUE(r.report.verified) << r.report.counterexample;
  EXPECT_GT(r.report.verify_vectors, 0u);
}

TEST(EquivCosim, CatchesSequentialDifference) {
  Circuit lhs;
  {
    const NetId a = lhs.input("a"), b = lhs.input("b");
    lhs.output("q", lhs.dff(lhs.xor2(a, b)));
  }
  Circuit rhs;
  {
    const NetId a = rhs.input("a"), b = rhs.input("b");
    rhs.output("q", rhs.dff(rhs.and2(a, b)));
  }
  const EquivResult eq = check_equivalence_cosim(lhs, rhs, {}, 1000, 7);
  EXPECT_FALSE(eq.equivalent);
  EXPECT_NE(eq.counterexample.find("q"), std::string::npos);

  Circuit same;
  {
    const NetId a = same.input("a"), b = same.input("b");
    same.output("q", same.dff(same.xor2(b, a)));
  }
  const EquivResult ok = check_equivalence_cosim(lhs, same, {}, 1000, 7);
  EXPECT_TRUE(ok.equivalent) << ok.counterexample;
}

// ---- generator properties --------------------------------------------------

void expect_optimizes_verified(const Circuit& c, const RewriteOptions& opt) {
  const RewriteResult r = optimize_circuit(c, opt);
  ASSERT_TRUE(r.report.verify_ran);
  EXPECT_TRUE(r.report.verified) << r.report.counterexample;
  EXPECT_LE(r.report.area_after_nand2, r.report.area_before_nand2);
  std::vector<std::string> findings;
  verify_circuit(*r.circuit, &findings);
  EXPECT_TRUE(findings.empty()) << (findings.empty() ? "" : findings[0]);
}

TEST(RewriteProperty, Mult8OptimizesVerifiedAndSmaller) {
  mult::MultiplierOptions o;
  o.n = 8;
  o.g = 4;
  const auto unit = mult::build_multiplier(o);
  RewriteOptions opt;
  opt.verify_vectors = 2000;
  const RewriteResult r = optimize_circuit(*unit.circuit, opt);
  ASSERT_TRUE(r.report.verify_ran);
  EXPECT_TRUE(r.report.verified) << r.report.counterexample;
  // The acceptance claim: AO/OA fusion finds real savings on mult8.
  EXPECT_GT(rule_stats(r.report, "fuse-ao22").matches +
                rule_stats(r.report, "fuse-ao21").matches +
                rule_stats(r.report, "fuse-oa21").matches,
            0u);
  EXPECT_LT(r.report.area_after_nand2, r.report.area_before_nand2);
}

TEST(RewriteProperty, ReduceUnitOptimizesVerifiedAndSmaller) {
  const auto unit = mf::build_reduce_unit();
  RewriteOptions opt;
  opt.verify_vectors = 2000;
  expect_optimizes_verified(*unit.circuit, opt);
}

TEST(RewriteProperty, MfUnitOptimizesUnderFormatPins) {
  mf::MfOptions build;
  build.pipeline = mf::MfPipeline::Combinational;
  const mf::MfUnit unit = mf::build_mf_unit(build);
  const Circuit& c = *unit.circuit;
  {
    RewriteOptions opt;
    opt.verify_vectors = 1000;
    expect_optimizes_verified(c, opt);
  }
  {
    RewriteOptions opt;
    opt.verify_vectors = 1000;
    pin_port(c, "frmt", mf::frmt_bits(mf::Format::Fp32Dual), opt.pins);
    expect_optimizes_verified(c, opt);
  }
}

// ---- lint-fusion / optimizer agreement -------------------------------------

void expect_lint_matches_pass(const Circuit& c) {
  const LintReport before = lint_circuit(c);
  ASSERT_TRUE(before.rules_ran);

  RewriteOptions opt;
  opt.verify_vectors = 1000;
  const RewriteResult r = rewrite_circuit(c, fusion_rewrite_rules(), opt);
  EXPECT_TRUE(r.report.verified) << r.report.counterexample;
  // Same matcher, same greedy overlap resolution: the advisory count IS
  // the applied count, and the fusion-only pass converges in one pass
  // (fusion introduces no new Or2/And2 roots).
  EXPECT_EQ(before.fusion_opportunities, r.report.applied);
  EXPECT_LE(r.report.iterations, 1);

  const LintReport after = lint_circuit(*r.circuit);
  EXPECT_EQ(after.fusion_opportunities, 0u);
  EXPECT_DOUBLE_EQ(after.fusion_area_nand2, 0.0);
}

TEST(FusionLint, AgreesWithOptimizerOnMult8) {
  mult::MultiplierOptions o;
  o.n = 8;
  o.g = 4;
  const auto unit = mult::build_multiplier(o);
  expect_lint_matches_pass(*unit.circuit);
}

TEST(FusionLint, AgreesWithOptimizerOnReduceUnit) {
  const auto unit = mf::build_reduce_unit();
  expect_lint_matches_pass(*unit.circuit);
}

// ---- reports ---------------------------------------------------------------

TEST(RewriteReport, JsonAndTextCarryRuleBreakdown) {
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b");
  const NetId x = c.input("x"), y = c.input("y");
  const NetId p = c.add(GateKind::And2, a, b);
  const NetId q = c.add(GateKind::And2, x, y);
  c.output("o", c.add(GateKind::Or2, p, q));
  const RewriteResult r = optimize_circuit(c);
  const std::string j = rewrite_report_json(r.report, "tiny");
  EXPECT_NE(j.find("\"unit\":\"tiny\""), std::string::npos);
  EXPECT_NE(j.find("\"rule\":\"fuse-ao22\""), std::string::npos);
  EXPECT_NE(j.find("\"verified\":true"), std::string::npos);
  const std::string t = rewrite_report_text(r.report, "tiny");
  EXPECT_NE(t.find("fuse-ao22"), std::string::npos);
  EXPECT_NE(t.find("verify: PASS"), std::string::npos);
}

}  // namespace
}  // namespace mfm::netlist
