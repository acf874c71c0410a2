// Sweep pipeline tests: strash normalization corner cases, signature
// collisions that the confirmation stage must refute or leave unmerged,
// pinned-mode merges, the merge_rewrite preconditions, and post-merge
// equivalence (plus netlist-vs-model) cross-checks on real generators,
// with their merge counts pinned.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "mf/fp_reduce.h"
#include "mf/mf_unit.h"
#include "mult/multiplier.h"
#include "netlist/compiled.h"
#include "netlist/equiv.h"
#include "netlist/lint.h"
#include "netlist/sim_pack.h"
#include "netlist/structural_hash.h"
#include "netlist/sweep.h"

namespace mfm::netlist {
namespace {

// ---- strash normalization --------------------------------------------------

TEST(Strash, Ao22PairOrderNormalized) {
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b");
  const NetId x = c.input("x"), y = c.input("y");
  // Same function four ways: swapped within each AND pair and with the
  // two pairs exchanged.
  const NetId g1 = c.ao22(a, b, x, y);
  const NetId g2 = c.ao22(b, a, y, x);
  const NetId g3 = c.ao22(x, y, a, b);
  const NetId g4 = c.ao22(y, x, b, a);
  c.output("o", c.or2(g1, c.or2(g2, c.or2(g3, g4))));
  const StrashResult r = structural_hash(c);
  EXPECT_EQ(r.rep[g2], g1);
  EXPECT_EQ(r.rep[g3], g1);
  EXPECT_EQ(r.rep[g4], g1);
  // But a genuinely different pairing must stay distinct: (a&x)|(b&y).
  Circuit c2;
  const NetId a2 = c2.input("a"), b2 = c2.input("b");
  const NetId x2 = c2.input("x"), y2 = c2.input("y");
  const NetId h1 = c2.ao22(a2, b2, x2, y2);
  const NetId h2 = c2.ao22(a2, x2, b2, y2);
  c2.output("o", c2.or2(h1, h2));
  const StrashResult r2 = structural_hash(c2);
  EXPECT_EQ(r2.rep[h2], h2);
}

TEST(Strash, Maj3PermutationsNormalized) {
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b"), s = c.input("s");
  const NetId m1 = c.maj3(a, b, s);
  const NetId m2 = c.maj3(s, a, b);
  const NetId m3 = c.maj3(b, s, a);
  const NetId m4 = c.maj3(s, b, a);
  c.output("o", c.xor2(m1, c.xor2(m2, c.xor2(m3, m4))));
  const StrashResult r = structural_hash(c);
  EXPECT_EQ(r.rep[m2], m1);
  EXPECT_EQ(r.rep[m3], m1);
  EXPECT_EQ(r.rep[m4], m1);
}

// ---- signature collisions must not merge -----------------------------------

/// Builds a "needle" comparator: output 1 exactly when the @p n input
/// bits equal @p needle.  With a needle that is neither all-zeros,
/// all-ones nor within one bit of either, none of the sweep's directed
/// patterns hit it and a random 64-bit lane hits with probability
/// 2^-n -- so for n around 20 the net's signature collides with
/// constant 0 and only the exact-confirmation stage can tell them
/// apart.
NetId needle_comparator(Circuit& c, const Bus& x, std::uint64_t needle) {
  NetId acc = kNoNet;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const NetId bit = (needle >> i) & 1 ? x[i] : c.not_(x[i]);
    acc = acc == kNoNet ? bit : c.and2(acc, bit);
  }
  return acc;
}

TEST(Sweep, WideSupportCollisionStaysUnmerged) {
  // 20 free inputs: beyond the exhaustive-support limit, and with the
  // random refuter off nothing can decide the pair (comparator, const0):
  // it must count as unresolved and stay unmerged.
  Circuit c;
  const Bus x = c.input_bus("x", 20);
  const NetId eq = needle_comparator(c, x, 0xA6D36u);
  c.output("eq", eq);
  SweepOptions opt;
  opt.exhaustive_support_limit = 14;
  opt.random_refute_passes = 0;
  const SweepResult res = sweep_circuit(c, opt);
  EXPECT_GE(res.report.candidates, 1u) << "signature did not collide";
  EXPECT_GE(res.report.unresolved, 1u);
  EXPECT_EQ(res.leader[eq], eq) << "comparator was merged into a constant";
  ASSERT_TRUE(res.report.verify_ran);
  EXPECT_TRUE(res.report.verified) << res.report.counterexample;
  const EquivResult eqr = check_equivalence(c, *res.circuit, 2000);
  EXPECT_TRUE(eqr.equivalent) << eqr.counterexample;
}

TEST(Sweep, WideSupportCollisionRefutedByRandomPasses) {
  // 16 free inputs: a 12-bit needle gated by the parity of the other
  // four fires on 1 in 8192 assignments, so one signature round misses
  // it and the pair (g, const0) -- like (g, needle) -- is past the
  // exhaustive limit.  Only the random cone passes can refute it.
  Circuit c;
  const Bus x = c.input_bus("x", 16);
  const NetId needle =
      needle_comparator(c, Bus(x.begin(), x.begin() + 12), 0xA6Du);
  const NetId g = c.and2(
      needle, c.xor2(c.xor2(x[12], x[13]), c.xor2(x[14], x[15])));
  c.output("g", g);
  SweepOptions opt;
  opt.signature_rounds = 1;
  opt.random_refute_passes = 0;
  const SweepResult blind = sweep_circuit(c, opt);
  ASSERT_GE(blind.report.unresolved, 1u) << "signature did not collide";

  opt.random_refute_passes = 2048;  // ~16 expected hits per pair
  const SweepResult res = sweep_circuit(c, opt);
  EXPECT_EQ(res.report.unresolved, 0u);
  EXPECT_GT(res.report.refuted, blind.report.refuted);
  EXPECT_EQ(res.leader[g], g);
  ASSERT_TRUE(res.report.verify_ran);
  EXPECT_TRUE(res.report.verified) << res.report.counterexample;
}

TEST(Sweep, SignatureCollisionRefutedExhaustively) {
  // 14 free inputs: right at the exhaustive limit, so the refutation
  // must come from complete cone evaluation (16384 assignments) -- and
  // wide enough that the fixed-seed signature rounds (512 random
  // vectors, hit probability 2^-14 each) never hit the needle.
  Circuit c;
  const Bus x = c.input_bus("x", 14);
  const NetId eq = needle_comparator(c, x, 0x2A53u);
  c.output("eq", eq);
  const SweepResult res = sweep_circuit(c, {});
  EXPECT_GE(res.report.candidates, 1u) << "signature did not collide";
  EXPECT_GE(res.report.refuted, 1u);
  EXPECT_EQ(res.report.proven_sat, 0u);
  EXPECT_EQ(res.leader[eq], eq);
  EXPECT_TRUE(res.report.verified) << res.report.counterexample;
}

// ---- pass-block edges of the cone evaluator --------------------------------
//
// The confirmation stage runs a pair's passes 16 at a time.  Each needle
// below fires in exactly one pass of its pair's cone, placed at an edge
// of that blocking; the counts are pinned so a loop that drops, repeats
// or misreads a pass moves them.

TEST(Sweep, ExhaustiveNeedleInLastPassIsRefuted) {
  // 14 free inputs, the exhaustive limit: 256 passes of 64 lanes, where
  // x[6..13] count the pass.  x[6..13] all ones puts the only hit of the
  // pair (comparator, const0) in pass 255, the last lane of the last walk.
  Circuit c;
  const Bus x = c.input_bus("x", 14);
  const NetId eq = needle_comparator(c, x, 0x3FDAu);
  c.output("eq", eq);
  const SweepResult res = sweep_circuit(c, {});
  EXPECT_GE(res.report.candidates, 1u) << "signature did not collide";
  EXPECT_EQ(res.report.candidates, 13u);
  EXPECT_EQ(res.report.refuted, 13u);
  EXPECT_EQ(res.report.proven_exhaustive, 0u);
  EXPECT_EQ(res.report.unresolved, 0u);
  EXPECT_EQ(res.leader[eq], eq) << "comparator was merged into a constant";
  EXPECT_TRUE(res.report.verified) << res.report.counterexample;
}

TEST(Sweep, ExhaustiveNeedleInSecondOfTwoPasses) {
  // 7 free inputs: 2 passes, less than one walk.  x[6] = 1 puts the only
  // hit in pass 1.  Without random signature rounds the directed
  // patterns (all zeros, all ones, one-hot) miss the needle.
  Circuit c;
  const Bus x = c.input_bus("x", 7);
  const NetId eq = needle_comparator(c, x, 0x4Bu);
  c.output("eq", eq);
  SweepOptions opt;
  opt.signature_rounds = 0;
  const SweepResult res = sweep_circuit(c, opt);
  EXPECT_GE(res.report.candidates, 1u) << "signature did not collide";
  EXPECT_EQ(res.report.candidates, 15u);
  EXPECT_EQ(res.report.refuted, 15u);
  EXPECT_EQ(res.report.proven_exhaustive, 0u);
  EXPECT_EQ(res.report.unresolved, 0u);
  EXPECT_EQ(res.leader[eq], eq) << "comparator was merged into a constant";
  EXPECT_TRUE(res.report.verified) << res.report.counterexample;
}

TEST(Sweep, RandomPassCountsOffTheBlockSize) {
  // The WideSupportCollisionRefutedByRandomPasses circuit at pass counts
  // that are not multiples of 16: 1 (less than one walk), 17 (one pass
  // into the second walk) and 2047 (one short of 128 walks).  The first
  // hit of the pair (g, const0) under the default seed is pass 234, lane
  // 10 of walk 14: 234 passes leave it unresolved, 235 refute it (and g
  // is then refuted against every other leader of its class too).
  Circuit c;
  const Bus x = c.input_bus("x", 16);
  const NetId needle =
      needle_comparator(c, Bus(x.begin(), x.begin() + 12), 0xA6Du);
  const NetId g = c.and2(
      needle, c.xor2(c.xor2(x[12], x[13]), c.xor2(x[14], x[15])));
  c.output("g", g);
  SweepOptions opt;
  opt.signature_rounds = 1;
  struct Pinned {
    int passes;
    std::size_t refuted, unresolved;
  };
  for (const Pinned& p : {Pinned{1, 28, 1}, Pinned{17, 28, 1},
                          Pinned{234, 28, 1}, Pinned{235, 36, 0},
                          Pinned{2047, 36, 0}}) {
    opt.random_refute_passes = p.passes;
    const SweepResult res = sweep_circuit(c, opt);
    EXPECT_GE(res.report.candidates, 1u) << p.passes;
    EXPECT_EQ(res.report.refuted, p.refuted) << p.passes;
    EXPECT_EQ(res.report.unresolved, p.unresolved) << p.passes;
    EXPECT_EQ(res.leader[g], g) << p.passes;
    EXPECT_TRUE(res.report.verified) << res.report.counterexample;
  }
}

TEST(Sweep, FlopOutputInExhaustiveSupport) {
  // 13 inputs and one flop output q = D(x[0]): a 14-variable support in
  // which q, the highest net id, is variable 13, i.e. bit 7 of the pass
  // number.  The needle needs q = 1 and x[12..6] = 0110101: pass 181,
  // lane 5 of walk 11.
  Circuit c;
  const Bus x = c.input_bus("x", 13);
  const NetId q = c.dff(x[0]);
  Bus bits = x;
  bits.push_back(q);
  const NetId eq = needle_comparator(c, bits, 0x2D6Du);
  c.output("eq", eq);
  const SweepResult res = sweep_circuit(c, {});
  EXPECT_GE(res.report.candidates, 1u) << "signature did not collide";
  EXPECT_EQ(res.report.candidates, 11u);
  EXPECT_EQ(res.report.refuted, 11u);
  EXPECT_EQ(res.report.proven_exhaustive, 0u);
  EXPECT_EQ(res.report.unresolved, 0u);
  EXPECT_EQ(res.leader[eq], eq) << "comparator was merged into a constant";
  ASSERT_TRUE(res.report.verify_ran);
  EXPECT_TRUE(res.report.verified) << res.report.counterexample;
}

// ---- pinned-mode merges ----------------------------------------------------

TEST(Sweep, PinnedConstantMergesOnlyUnderPins) {
  Circuit c;
  const NetId x = c.input("x");
  const NetId en = c.input("en");
  const NetId y = c.and2(x, en);
  c.output("y", y);

  // Unpinned: x & en is NOT x (en = 0 distinguishes them).
  const SweepResult plain = sweep_circuit(c, {});
  EXPECT_EQ(plain.leader[y], y);
  EXPECT_EQ(plain.report.gates_removed(), 0u);
  EXPECT_TRUE(plain.report.verified) << plain.report.counterexample;

  // With en pinned to 1 the AND is x itself and must merge into it.
  SweepOptions opt;
  opt.pins.push_back(TernaryPin{en, true});
  const SweepResult pinned = sweep_circuit(c, opt);
  EXPECT_EQ(pinned.leader[y], x);
  EXPECT_GE(pinned.report.gates_removed(), 1u);
  ASSERT_TRUE(pinned.report.verify_ran);
  EXPECT_TRUE(pinned.report.verified) << pinned.report.counterexample;
  // The merged circuit is equivalent under the pin but NOT absolutely.
  const EquivResult under_pin =
      check_equivalence(c, *pinned.circuit, opt.pins, 500);
  EXPECT_TRUE(under_pin.equivalent) << under_pin.counterexample;
  const EquivResult absolute = check_equivalence(c, *pinned.circuit, 500);
  EXPECT_FALSE(absolute.equivalent);
}

TEST(Sweep, PinNotAPrimaryInputThrows) {
  Circuit c;
  const NetId x = c.input("x");
  const NetId g = c.not_(x);
  c.output("y", g);
  SweepOptions opt;
  opt.pins.push_back(TernaryPin{g, false});
  EXPECT_THROW(sweep_circuit(c, opt), std::invalid_argument);
}

// ---- functional (non-structural) merges ------------------------------------

TEST(Sweep, MergesDifferentDecompositionsOfSameFunction) {
  // AND built two ways: strash cannot unify NOT(NAND) with AND2, the
  // signature stage groups them and exhaustive confirmation proves it.
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b");
  const NetId and_direct = c.and2(a, b);
  const NetId and_via_nand = c.not_(c.nand2(a, b));
  c.output("o1", and_direct);
  c.output("o2", and_via_nand);
  const SweepResult res = sweep_circuit(c, {});
  EXPECT_EQ(res.leader[and_via_nand], and_direct);
  EXPECT_GE(res.report.proven_exhaustive, 1u);
  EXPECT_GE(res.report.gates_removed(), 2u);  // the NOT and the NAND
  EXPECT_TRUE(res.report.verified) << res.report.counterexample;
}

TEST(Sweep, SequentialCircuitUsesCosimVerify) {
  // A flop in the fanin: the DFF output is a free cut variable, the two
  // decompositions downstream of it still merge, and re-verification
  // runs the multi-cycle cosimulation (check_equivalence would reject
  // the sequential circuit).
  Circuit c;
  const NetId a = c.input("a");
  const NetId q = c.dff(c.not_(a));
  const NetId f1 = c.and2(a, q);
  const NetId f2 = c.not_(c.nand2(a, q));
  c.output("o1", f1);
  c.output("o2", f2);
  const SweepResult res = sweep_circuit(c, {});
  EXPECT_EQ(res.leader[f2], f1);
  ASSERT_TRUE(res.report.verify_ran);
  EXPECT_TRUE(res.report.verified) << res.report.counterexample;
  EXPECT_GT(res.report.verify_vectors, 0u);
  EXPECT_FALSE(res.circuit->flops().empty());
}

// ---- merge_rewrite preconditions -------------------------------------------

TEST(MergeRewrite, RejectsMalformedLeaderMaps) {
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b");
  const NetId g1 = c.and2(a, b);
  const NetId g2 = c.and2(b, a);
  c.output("o", c.or2(g1, g2));

  std::vector<NetId> leader(c.size());
  for (NetId i = 0; i < c.size(); ++i) leader[i] = i;

  // Size mismatch.
  std::vector<NetId> short_map(c.size() - 1);
  EXPECT_THROW(c.merge_rewrite(short_map), std::invalid_argument);

  // leader[n] > n breaks topological order.
  auto up = leader;
  up[g1] = g2;
  EXPECT_THROW(c.merge_rewrite(up), std::invalid_argument);

  // Non-canonical map: leader[leader[n]] != leader[n].
  Circuit c3;
  const NetId i3 = c3.input("i");
  const NetId n1 = c3.buf(i3);
  const NetId n2 = c3.buf(n1);
  c3.output("o", n2);
  std::vector<NetId> chain(c3.size());
  for (NetId i = 0; i < c3.size(); ++i) chain[i] = i;
  chain[n1] = i3;
  chain[n2] = n1;  // n2 -> n1 -> i3 but chain[n2] != chain[chain[n2]]
  EXPECT_THROW(c3.merge_rewrite(chain), std::invalid_argument);

  // A primary input must be its own leader.
  auto in_merged = leader;
  in_merged[b] = a;
  EXPECT_THROW(c.merge_rewrite(in_merged), std::invalid_argument);

  // A flop must be its own leader.
  Circuit c2;
  const NetId x = c2.input("x");
  const NetId q1 = c2.dff(x);
  const NetId q2 = c2.dff(x);
  c2.output("o", c2.and2(q1, q2));
  std::vector<NetId> dff_map(c2.size());
  for (NetId i = 0; i < c2.size(); ++i) dff_map[i] = i;
  dff_map[q2] = q1;
  EXPECT_THROW(c2.merge_rewrite(dff_map), std::invalid_argument);
}

TEST(MergeRewrite, ValidMergeRewiresAndSweepsDead) {
  Circuit c;
  const NetId a = c.input("a"), b = c.input("b");
  const NetId g1 = c.and2(a, b);
  const NetId dup = c.not_(c.nand2(a, b));  // same function, 2 gates
  c.output("o", c.or2(g1, dup));
  std::vector<NetId> leader(c.size());
  for (NetId i = 0; i < c.size(); ++i) leader[i] = i;
  leader[dup] = g1;
  const MergeRewrite mr = c.merge_rewrite(leader);
  EXPECT_EQ(mr.merged_gates, 1u);
  EXPECT_EQ(mr.dead_gates, 1u);  // the orphaned NAND
  EXPECT_EQ(mr.net_map[dup], mr.net_map[g1]);
  EXPECT_EQ(mr.circuit->size(), c.size() - 2);
  // OR(x, x) is fine; the rewired circuit still computes AND(a, b).
  const EquivResult eq = check_equivalence(c, *mr.circuit, 200);
  EXPECT_TRUE(eq.equivalent) << eq.counterexample;
}

// ---- guards added with the sweeper -----------------------------------------

TEST(PackSim, SetBusRejectsBusesWiderThan128) {
  Circuit c;
  const Bus wide = c.input_bus("w", 129);
  c.output_bus("o", wide);
  const CompiledCircuit cc(c);
  PackSim sim(cc);
  EXPECT_THROW(sim.set_bus(wide, 0, 1), std::invalid_argument);
  const Bus ok = Bus(wide.begin(), wide.begin() + 128);
  EXPECT_NO_THROW(sim.set_bus(ok, 0, 1));
}

TEST(Equivalence, PinnedOverloadChecksModeOnly) {
  Circuit lhs;
  const NetId x1 = lhs.input("x");
  const NetId en1 = lhs.input("en");
  lhs.output("y", lhs.and2(x1, en1));
  Circuit rhs;
  const NetId x2 = rhs.input("x");
  (void)rhs.input("en");
  rhs.output("y", rhs.buf(x2));

  const EquivResult plain = check_equivalence(lhs, rhs, 500);
  EXPECT_FALSE(plain.equivalent);
  const EquivResult pinned = check_equivalence(
      lhs, rhs, {TernaryPin{en1, true}}, 500);
  EXPECT_TRUE(pinned.equivalent) << pinned.counterexample;

  // Pinning a non-input net is a usage error.
  const NetId g = lhs.out_port("y")[0];
  EXPECT_THROW(check_equivalence(lhs, rhs, {TernaryPin{g, true}}, 10),
               std::invalid_argument);
}

// ---- generator cross-checks ------------------------------------------------

TEST(Sweep, Mult8SweepsAndStaysCorrect) {
  mult::MultiplierOptions o;
  o.n = 8;
  o.g = 4;
  const auto unit = mult::build_multiplier(o);
  SweepOptions opt;
  opt.verify_vectors = 2000;
  const SweepResult res = sweep_circuit(*unit.circuit, opt);
  EXPECT_GT(res.report.gates_removed(), 0u);
  EXPECT_EQ(res.report.merged_gates, 107u);
  EXPECT_EQ(res.report.dead_gates, 43u);
  EXPECT_EQ(res.report.gates_after, 511u);
  ASSERT_TRUE(res.report.verify_ran);
  EXPECT_TRUE(res.report.verified) << res.report.counterexample;

  // Netlist-vs-model: the swept netlist still multiplies.
  const CompiledCircuit cc(*res.circuit);
  PackSim sim(cc);
  std::mt19937_64 rng(7);
  for (int lane = 0; lane < PackSim::kLanes; ++lane) {
    const std::uint64_t x = rng() & 0xFF, y = rng() & 0xFF;
    sim.set_port("x", lane, x);
    sim.set_port("y", lane, y);
  }
  sim.eval();
  std::mt19937_64 replay(7);
  for (int lane = 0; lane < PackSim::kLanes; ++lane) {
    const std::uint64_t x = replay() & 0xFF, y = replay() & 0xFF;
    EXPECT_EQ(static_cast<std::uint64_t>(sim.read_port("p", lane)), x * y)
        << "lane " << lane;
  }
}

TEST(Sweep, ReduceUnitSweepsAndVerifies) {
  const auto unit = mf::build_reduce_unit();
  SweepOptions opt;
  opt.verify_vectors = 2000;
  const SweepResult res = sweep_circuit(*unit.circuit, opt);
  EXPECT_EQ(res.report.merged_gates, 5u);
  EXPECT_EQ(res.report.dead_gates, 34u);
  EXPECT_EQ(res.report.gates_after, 50u);
  ASSERT_TRUE(res.report.verify_ran);
  EXPECT_TRUE(res.report.verified) << res.report.counterexample;
  const EquivResult eq = check_equivalence(*unit.circuit, *res.circuit, 2000);
  EXPECT_TRUE(eq.equivalent) << eq.counterexample;
}

TEST(Sweep, MfUnitFp32x1ModeSpecializes) {
  // The headline use: under the fp32x2 format pins with the upper
  // lane's operands idle, the blanked upper-lane logic must collapse
  // into the constants -- the structural counterpart of the fp32x1
  // power saving.  Combinational build so check_equivalence re-verifies.
  mf::MfOptions build;
  build.pipeline = mf::MfPipeline::Combinational;
  const mf::MfUnit unit = mf::build_mf_unit(build);
  const Circuit& c = *unit.circuit;
  SweepOptions opt;
  pin_port(c, "frmt", mf::frmt_bits(mf::Format::Fp32Dual), opt.pins);
  pin_port_bits(c, "a", 32, 32, 0, opt.pins);
  pin_port_bits(c, "b", 32, 32, 0, opt.pins);
  opt.signature_rounds = 4;
  opt.verify_vectors = 1000;
  const SweepResult res = sweep_circuit(c, opt);
  EXPECT_GT(res.report.gates_removed(), 0u);
  EXPECT_EQ(res.report.merged_gates, 14705u);
  EXPECT_EQ(res.report.dead_gates, 604u);
  EXPECT_EQ(res.report.gates_after, 3657u);
  ASSERT_TRUE(res.report.verify_ran);
  EXPECT_TRUE(res.report.verified) << res.report.counterexample;
}

}  // namespace
}  // namespace mfm::netlist
