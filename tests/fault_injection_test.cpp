// Fault injection: the lane-masked campaign (netlist/fault.h) must (a)
// produce provably exact verdicts on a hand-built circuit with known
// detectable and undetectable faults, (b) agree bit-for-bit with the
// slow copy-circuit injector on EVERY gate of the 8x8 multiplier, (c)
// scale to thousands of multi-format-unit sites, which is the meta-test
// the seed version could only sample: vectors that never detect
// injected faults prove nothing about the netlist, and (d) agree with an
// independent scalar machine on stuck and flip sites, across vector
// blocks and over the whole pipelined multi-format unit.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <vector>

#include "mf/mf_unit.h"
#include "mult/multiplier.h"
#include "netlist/compiled.h"
#include "netlist/fault.h"
#include "netlist/lint.h"
#include "netlist/sim_level.h"

namespace mfm::netlist {
namespace {

std::vector<NetId> output_nets(const Circuit& c) {
  std::vector<NetId> outs;
  for (const auto& [name, bus] : c.out_ports()) {
    (void)name;
    outs.insert(outs.end(), bus.begin(), bus.end());
  }
  return outs;
}

/// Independent oracle for one fault under the campaign's window
/// semantics, sharing no code with PackSim or the campaign: eval_gate
/// over the gates in id order, DFF state captured at each clock, and the
/// victim overridden right after its gate evaluates (stuck: on every
/// eval; flip: on the first eval of each window).  Power-on (all-zero)
/// start, inputs held for cycles+1 evals, state carried across vectors.
/// Returns the outputs sampled after every eval; @p fault == nullptr
/// runs the fault-free machine.
std::vector<bool> scalar_fault_run(const Circuit& c, const FaultVectors& fv,
                                   int cycles, const std::vector<NetId>& outs,
                                   const FaultSite* fault) {
  std::vector<std::size_t> ordinal(c.size(), 0);
  for (std::size_t i = 0; i < fv.inputs().size(); ++i)
    ordinal[fv.inputs()[i]] = i;
  for (std::size_t k = 0; k < c.flops().size(); ++k)
    ordinal[c.flops()[k]] = k;
  std::vector<bool> val(c.size(), false);
  std::vector<bool> state(c.flops().size(), false);
  std::vector<bool> sampled;
  for (std::size_t v = 0; v < fv.count(); ++v)
    for (int cyc = 0; cyc <= cycles; ++cyc) {
      if (cyc > 0)
        for (std::size_t k = 0; k < state.size(); ++k)
          state[k] = val[c.gate(c.flops()[k]).in[0]];
      for (NetId n = 0; n < c.size(); ++n) {
        const Gate& g = c.gate(n);
        bool in[4] = {false, false, false, false};
        for (int p = 0; p < fanin_count(g.kind); ++p) in[p] = val[g.in[p]];
        if (g.kind == GateKind::Input)
          val[n] = fv.bit(v, ordinal[n]);
        else if (g.kind == GateKind::Dff)
          val[n] = state[ordinal[n]];
        else
          val[n] = eval_gate(g.kind, in[0], in[1], in[2], in[3]);
        if (fault == nullptr || fault->net != n) continue;
        if (fault->kind == FaultKind::kFlip) {
          if (cyc == 0) val[n] = !val[n];
        } else {
          val[n] = fault->kind == FaultKind::kStuckAt1;
        }
      }
      for (const NetId o : outs) sampled.push_back(val[o]);
    }
  return sampled;
}

/// Asserts every verdict of @p rep against scalar_fault_run.
void expect_oracle_verdicts(const Circuit& c,
                            const std::vector<FaultSite>& sites,
                            const FaultVectors& fv, int cycles,
                            const FaultCampaignReport& rep) {
  const std::vector<NetId> outs = output_nets(c);
  const std::vector<bool> golden =
      scalar_fault_run(c, fv, cycles, outs, nullptr);
  ASSERT_EQ(rep.site_detected.size(), sites.size());
  for (std::size_t s = 0; s < sites.size(); ++s) {
    const bool caught =
        scalar_fault_run(c, fv, cycles, outs, &sites[s]) != golden;
    EXPECT_EQ(rep.site_detected[s] != 0, caught)
        << "site " << s << ": net " << sites[s].net << " "
        << fault_kind_name(sites[s].kind);
  }
}

/// 16 bit slices of o = dff(dff(a ^ b) ^ dff(maj(a, b, a ^ b))), plus
/// the first register stage on a second port: 96 eligible gates, 48 of
/// them flops, two register stages between the inputs and "o".
void build_two_stage16(Circuit& c) {
  const Bus a = c.input_bus("a", 16);
  const Bus b = c.input_bus("b", 16);
  Bus q2, r1;
  for (std::size_t i = 0; i < 16; ++i) {
    const NetId t = c.xor2(a[i], b[i]);
    const NetId m = c.maj3(a[i], b[i], t);
    const NetId rm = c.dff(m);
    const NetId s = c.xor2(c.dff(t), rm);
    q2.push_back(c.dff(s));
    r1.push_back(rm);
  }
  c.output_bus("o", q2);
  c.output_bus("r", r1);
}

// ---- exact partition on a hand-built circuit -------------------------------

// o = (a & b) & (a | b) == a & b: the OR gate is redundant, so its
// stuck-at-1 fault ((a&b) & 1 == a&b) is logically undetectable -- by
// ANY vector set -- while all five other stuck faults flip o for some
// input.  Built with raw add() so no constant-folding builder can
// simplify the redundancy away.
TEST(FaultCampaign, ExactPartitionOnRedundantCircuit) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  const NetId n_and = c.add(GateKind::And2, a, b);
  const NetId n_or = c.add(GateKind::Or2, a, b);
  const NetId n_out = c.add(GateKind::And2, n_and, n_or);
  c.output("o", n_out);

  const CompiledCircuit cc(c);
  const auto sites = enumerate_stuck_faults(c);
  ASSERT_EQ(sites.size(), 6u);  // 3 eligible gates x {sa0, sa1}

  const FaultVectors fv = FaultVectors::exhaustive(c);
  EXPECT_EQ(fv.count(), 4u);  // 2 free inputs

  const FaultCampaignReport rep = run_fault_campaign(cc, sites, fv);
  EXPECT_EQ(rep.sites, 6u);
  EXPECT_EQ(rep.detected, 5u);
  ASSERT_EQ(rep.undetected.size(), 1u);
  EXPECT_EQ(rep.undetected[0].site.net, n_or);
  EXPECT_EQ(rep.undetected[0].site.kind, FaultKind::kStuckAt1);
  // Redundant logic is observable and not pinned, so it lands in the
  // vector-gap class -- the documented upper-bound caveat.
  EXPECT_EQ(rep.undetected[0].cause, UndetectedCause::kVectorGap);

  // Per-site verdicts pin the exact partition, not just the counts.
  for (std::size_t s = 0; s < sites.size(); ++s) {
    const bool expect_missed = sites[s].net == n_or &&
                               sites[s].kind == FaultKind::kStuckAt1;
    EXPECT_EQ(rep.site_detected[s] != 0, !expect_missed)
        << "site " << s << ": net " << sites[s].net << " "
        << fault_kind_name(sites[s].kind);
  }
}

// ---- bit-identical agreement with the copy-circuit injector ----------------

// Every eligible gate of the 8x8 multiplier, both polarities, campaign
// verdicts vs clone_with_stuck + scalar LevelSim over the *same* vector
// set.  The seed test could only afford 60 sampled victims; the
// lane-masked campaign covers all of them and must not diverge on one.
TEST(FaultCampaign, MatchesCopyCircuitInjectorOnEveryMultiplierGate) {
  mult::MultiplierOptions o;
  o.n = 8;
  o.g = 4;
  const auto u = mult::build_multiplier(o);
  const Circuit& c = *u.circuit;
  const CompiledCircuit cc(c);

  std::size_t eligible = 0;
  for (NetId i = 0; i < c.size(); ++i) {
    const GateKind k = c.gate(i).kind;
    if (k != GateKind::Input && k != GateKind::Const0 &&
        k != GateKind::Const1)
      ++eligible;
  }
  const auto sites = enumerate_stuck_faults(c);
  ASSERT_EQ(sites.size(), 2 * eligible) << "a gate escaped enumeration";

  const FaultVectors fv(c, /*count=*/128, /*seed=*/0xC0FFEE);
  FaultCampaignOptions opt;
  opt.classify_undetected = false;
  const FaultCampaignReport rep = run_fault_campaign(cc, sites, fv, opt);

  // Reference responses once, then one cloned circuit per fault.
  const std::vector<NetId> outs = output_nets(c);
  LevelSim ref(cc);
  std::vector<std::vector<bool>> golden(fv.count());
  for (std::size_t v = 0; v < fv.count(); ++v) {
    for (std::size_t i = 0; i < fv.inputs().size(); ++i)
      ref.set(fv.inputs()[i], fv.bit(v, i));
    ref.eval();
    for (const NetId out : outs) golden[v].push_back(ref.value(out));
  }
  for (std::size_t s = 0; s < sites.size(); ++s) {
    const auto faulty = clone_with_stuck(
        c, sites[s].net, sites[s].kind == FaultKind::kStuckAt1);
    LevelSim sim(*faulty);
    bool caught = false;
    for (std::size_t v = 0; v < fv.count() && !caught; ++v) {
      for (std::size_t i = 0; i < fv.inputs().size(); ++i)
        sim.set(fv.inputs()[i], fv.bit(v, i));
      sim.eval();
      for (std::size_t oi = 0; oi < outs.size(); ++oi)
        if (sim.value(outs[oi]) != golden[v][oi]) {
          caught = true;
          break;
        }
    }
    ASSERT_EQ(rep.site_detected[s] != 0, caught)
        << "verdict diverged on net " << sites[s].net << " "
        << fault_kind_name(sites[s].kind);
  }

  // Random vectors must still expose the large majority (the seed's
  // 80% bar, now over the full site list instead of a 60-victim sample).
  EXPECT_GE(rep.detected * 100, rep.sites * 80)
      << rep.detected << "/" << rep.sites;
}

// ---- multi-group sequential campaigns reset state between groups -----------

// A sequential circuit with 96 eligible gates (192 stuck sites) forces
// the campaign into four 63-fault groups.  A fault in one group corrupts
// its lane's register state; the campaign must start every group from
// power-on state, or lanes 1..63 would enter the next group with the
// previous group's corrupted state and the cycle-0 diff against lane 0
// would flag phantom detections.  The scalar reference
// below replays one clone_with_stuck machine per fault from power-on
// state with identical window semantics, so any group-boundary leakage
// shows up as a verdict divergence.
TEST(FaultCampaign, SequentialMultiGroupMatchesScalarReference) {
  Circuit c;
  build_two_stage16(c);

  const CompiledCircuit cc(c);
  const auto sites = enumerate_stuck_faults(c);
  ASSERT_EQ(sites.size(), 192u);

  const FaultVectors fv(c, /*count=*/24, /*seed=*/0xBEEF);
  FaultCampaignOptions opt;
  opt.cycles = 2;  // two register stages between inputs and "o"
  opt.classify_undetected = false;
  const FaultCampaignReport rep = run_fault_campaign(cc, sites, fv, opt);
  // The whole point: the campaign crossed several group boundaries.
  EXPECT_EQ(rep.passes, 4u);

  const std::vector<NetId> outs = output_nets(c);
  // The campaign's window semantics on one scalar machine: inputs held
  // for cycles+1 evals, outputs sampled after every eval, register
  // state carried across vectors, power-on (all-zero) start.
  const auto scalar_responses = [&](const Circuit& machine) {
    LevelSim sim(machine);
    std::vector<bool> out;
    for (std::size_t v = 0; v < fv.count(); ++v) {
      for (std::size_t i = 0; i < fv.inputs().size(); ++i)
        sim.set(fv.inputs()[i], fv.bit(v, i));
      for (int cyc = 0; cyc <= opt.cycles; ++cyc) {
        if (cyc > 0) sim.clock();
        sim.eval();
        for (const NetId o : outs) out.push_back(sim.value(o));
      }
    }
    return out;
  };
  const std::vector<bool> golden = scalar_responses(c);
  for (std::size_t s = 0; s < sites.size(); ++s) {
    const auto faulty = clone_with_stuck(
        c, sites[s].net, sites[s].kind == FaultKind::kStuckAt1);
    const bool caught = scalar_responses(*faulty) != golden;
    ASSERT_EQ(rep.site_detected[s] != 0, caught)
        << "verdict diverged on net " << sites[s].net << " "
        << fault_kind_name(sites[s].kind) << " (site " << s << ", group "
        << s / 63 << ")";
  }
}

// ---- scale: thousands of multi-format-unit sites ---------------------------

TEST(FaultCampaign, CoversThousandsOfMfUnitSites) {
  const auto u = mf::build_mf_unit({});  // Fig. 5 pipeline
  const Circuit& c = *u.circuit;
  const CompiledCircuit cc(c);

  auto sites = enumerate_stuck_faults(c);
  ASSERT_GT(sites.size(), 2000u * 2);
  // A contiguous prefix slice keeps the test fast while still covering
  // thousands of real sites (recoder / precompute / ppgen cones); the
  // full sweep is tools/mfm_faults' job.
  sites.resize(4000);

  // frmt is left free, so the random vectors mix int64/fp64/fp32-dual
  // operations -- faults only visible in one mode still get exercised.
  const FaultVectors fv(c, /*count=*/48, /*seed=*/0x5EED);
  FaultCampaignOptions opt;
  opt.cycles = u.latency_cycles;
  const FaultCampaignReport rep = run_fault_campaign(cc, sites, fv, opt);

  EXPECT_EQ(rep.sites, 4000u);
  EXPECT_GE(rep.detected * 100, rep.sites * 70)
      << rep.detected << "/" << rep.sites;
  // Windows were actually pipelined: latency+1 evals per vector group.
  EXPECT_GT(u.latency_cycles, 0);
  EXPECT_GT(rep.evals, rep.passes);
}

// ---- stuck and flip sites across vector blocks vs the scalar oracle --------

// The campaign records the fault-free machine 64 vectors at a time and
// carries each group's cone flop state from block to block.  150 vectors
// span blocks of 64, 64 and 22; 192 stuck plus 96 flip sites make six
// groups.  Every verdict must match the independent scalar machine,
// with and without early exit.
TEST(FaultCampaign, StuckAndFlipSitesAcrossVectorBlocksMatchScalarOracle) {
  Circuit c;
  build_two_stage16(c);
  const CompiledCircuit cc(c);
  std::vector<FaultSite> sites = enumerate_stuck_faults(c);
  const std::vector<FaultSite> flips = enumerate_transient_faults(c);
  ASSERT_EQ(sites.size(), 192u);
  ASSERT_EQ(flips.size(), 96u);
  sites.insert(sites.end(), flips.begin(), flips.end());

  const FaultVectors fv(c, /*count=*/150, /*seed=*/0xB10C);
  FaultCampaignOptions opt;
  opt.cycles = 2;
  opt.classify_undetected = false;
  for (const bool early_exit : {true, false}) {
    SCOPED_TRACE(early_exit ? "early exit" : "no early exit");
    opt.early_exit = early_exit;
    const FaultCampaignReport rep = run_fault_campaign(cc, sites, fv, opt);
    EXPECT_EQ(rep.passes, 6u);
    expect_oracle_verdicts(c, sites, fv, opt.cycles, rep);
    if (!early_exit) {
      EXPECT_EQ(rep.evals, rep.passes * 150 * 3);
      EXPECT_EQ(rep.fault_vectors, sites.size() * 150);
    }
  }
}

// The same oracle on a seeded sample of stuck and flip sites spread over
// the whole Fig. 5 pipelined multi-format unit, not just a prefix.
TEST(FaultCampaign, MfUnitSampledSitesMatchScalarOracle) {
  const auto u = mf::build_mf_unit({});
  const Circuit& c = *u.circuit;
  const CompiledCircuit cc(c);
  const std::vector<FaultSite> stuck = enumerate_stuck_faults(c);
  const std::vector<FaultSite> flips = enumerate_transient_faults(c);

  std::mt19937_64 rng(0x5A3B1E);
  std::vector<FaultSite> sites;
  for (int k = 0; k < 16; ++k) sites.push_back(stuck[rng() % stuck.size()]);
  for (int k = 0; k < 16; ++k) sites.push_back(flips[rng() % flips.size()]);

  const FaultVectors fv(c, /*count=*/24, /*seed=*/0x5EED);
  FaultCampaignOptions opt;
  opt.cycles = u.latency_cycles;
  opt.classify_undetected = false;
  const FaultCampaignReport rep = run_fault_campaign(cc, sites, fv, opt);
  EXPECT_EQ(rep.passes, 2u);
  expect_oracle_verdicts(c, sites, fv, opt.cycles, rep);
}

// Seven free inputs give 128 exhaustive vectors, two blocks of 64.  x is
// 1 only in vector 63 (inputs 0..5 high, input 6 low), the last of the
// first block; its flop carries it into the first frame of vector 64,
// where input 6 is high and o = q & i6 shows it.  A fault on x or q is
// seen on no other frame, so it is detected only if the group's cone
// flop state crosses the block boundary.
TEST(FaultCampaign, FlopStateCarriesAcrossVectorBlocks) {
  Circuit c;
  const Bus in = c.input_bus("i", 7);
  const NetId lo = c.add(GateKind::And3, in[0], in[1], in[2]);
  const NetId hi = c.add(GateKind::And3, in[3], in[4], in[5]);
  const NetId x = c.add(GateKind::And3, lo, hi, c.add(GateKind::Not, in[6]));
  const NetId q = c.dff(x);
  c.output("o", c.add(GateKind::And2, q, in[6]));
  const CompiledCircuit cc(c);

  const std::vector<FaultSite> sites = enumerate_stuck_faults(c);
  const FaultVectors fv = FaultVectors::exhaustive(c);
  ASSERT_EQ(fv.count(), 128u);
  FaultCampaignOptions opt;
  opt.cycles = 1;
  opt.classify_undetected = false;
  const FaultCampaignReport rep = run_fault_campaign(cc, sites, fv, opt);
  expect_oracle_verdicts(c, sites, fv, opt.cycles, rep);
  for (std::size_t s = 0; s < sites.size(); ++s) {
    if ((sites[s].net == x || sites[s].net == q) &&
        sites[s].kind == FaultKind::kStuckAt0) {
      EXPECT_TRUE(rep.site_detected[s]) << "net " << sites[s].net;
    }
  }
}

// A flip is armed on the first eval of each window only, on a gate and
// on a primary input alike.  With two clocks per window, q1 ^ q2 is 0 on
// a window's first and last evals and a(v) ^ a(v-1) on its middle one,
// so a flip of x or y through o = y & (q1 ^ q2) can never show: armed on
// every eval it would, whenever a changes.
TEST(FaultCampaign, FlipIsArmedOnTheWindowsFirstEvalOnly) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId x = c.input("x");
  const NetId y = c.add(GateKind::Buf, x);
  const NetId q1 = c.dff(a);
  const NetId q2 = c.dff(q1);
  c.output("o", c.add(GateKind::And2, y, c.add(GateKind::Xor2, q1, q2)));
  const CompiledCircuit cc(c);

  const std::vector<FaultSite> sites{{y, FaultKind::kStuckAt0},
                                     {y, FaultKind::kFlip},
                                     {x, FaultKind::kFlip}};
  const FaultVectors fv(c, /*count=*/32, /*seed=*/7);
  FaultCampaignOptions opt;
  opt.cycles = 2;
  opt.classify_undetected = false;
  const FaultCampaignReport rep = run_fault_campaign(cc, sites, fv, opt);
  expect_oracle_verdicts(c, sites, fv, opt.cycles, rep);
  EXPECT_TRUE(rep.site_detected[0]);
  EXPECT_FALSE(rep.site_detected[1]);
  EXPECT_FALSE(rep.site_detected[2]);
}

TEST(FaultCampaign, RejectsOutOfRangeSiteAndNegativeCycles) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId n = c.not_(a);
  c.output("o", n);
  const CompiledCircuit cc(c);
  const FaultVectors fv = FaultVectors::exhaustive(c);

  const std::vector<FaultSite> bad{{static_cast<NetId>(c.size()),
                                    FaultKind::kStuckAt0}};
  EXPECT_THROW(run_fault_campaign(cc, bad, fv), std::invalid_argument);

  FaultCampaignOptions opt;
  opt.cycles = -1;
  EXPECT_THROW(run_fault_campaign(cc, enumerate_stuck_faults(c), fv, opt),
               std::invalid_argument);
}

// ---- transient (single-cycle flip) faults ----------------------------------

// Two-stage pipeline o = dff(dff(a xor b)): a flip armed on the first
// eval of a window is captured by the registers and must surface at the
// output one or two cycles later, within the same window.  The dangling
// NOT gate is unobservable, so its flip is undetected and classified as
// such, not as a vector gap.
TEST(FaultCampaign, TransientFlipsDetectedThroughPipeline) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  const NetId x = c.add(GateKind::Xor2, a, b);
  const NetId q1 = c.dff(x);
  const NetId q2 = c.dff(q1);
  const NetId dangling = c.add(GateKind::Not, x);
  c.output("o", q2);

  const CompiledCircuit cc(c);
  const auto sites = enumerate_transient_faults(c);
  ASSERT_EQ(sites.size(), 4u);  // x, q1, q2, dangling

  const FaultVectors fv = FaultVectors::exhaustive(c);
  FaultCampaignOptions opt;
  opt.cycles = 2;  // pipeline depth: let the flip drain to the output
  const FaultCampaignReport rep = run_fault_campaign(cc, sites, fv, opt);

  EXPECT_EQ(rep.detected, 3u);
  ASSERT_EQ(rep.undetected.size(), 1u);
  EXPECT_EQ(rep.undetected[0].site.net, dangling);
  EXPECT_EQ(rep.undetected[0].cause, UndetectedCause::kUnobservable);
}

// ---- vector sets -----------------------------------------------------------

// The control pins ride inside the vector set and the campaign
// classifies under exactly those pins (FaultVectors::pins()) -- there is
// no second pin list to diverge.  With en pinned to 0, the AND output is
// a ternary constant 0: its stuck-at-0 is undetectable by construction
// (pinned-constant, not a vector gap), while its stuck-at-1 still flips
// the output and must be detected.
TEST(FaultCampaign, PinnedConstantClassificationUsesVectorPins) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId en = c.input("en");
  const NetId g = c.and2(a, en);
  c.output("o", g);
  (void)a;

  std::vector<TernaryPin> pins;
  pin_port(c, "en", 0, pins);
  const CompiledCircuit cc(c);
  const auto sites = enumerate_stuck_faults(c);
  ASSERT_EQ(sites.size(), 2u);
  const FaultVectors fv = FaultVectors::exhaustive(c, pins);
  const FaultCampaignReport rep = run_fault_campaign(cc, sites, fv);
  EXPECT_EQ(rep.detected, 1u);
  ASSERT_EQ(rep.undetected.size(), 1u);
  EXPECT_EQ(rep.undetected[0].site.net, g);
  EXPECT_EQ(rep.undetected[0].site.kind, FaultKind::kStuckAt0);
  EXPECT_EQ(rep.undetected[0].cause, UndetectedCause::kPinnedConstant);
  EXPECT_EQ(rep.undetected_pinned, 1u);
  EXPECT_EQ(rep.undetected_gap, 0u);
}

// A stale pin list referencing a net outside the circuit must fail
// loudly, not silently build vectors under different pins than intended.
TEST(FaultVectors, OutOfRangePinNetThrows) {
  Circuit c;
  const NetId a = c.input("a");
  c.output("o", c.not_(a));
  const std::vector<TernaryPin> bad{{static_cast<NetId>(c.size()), true}};
  EXPECT_THROW(FaultVectors(c, 4, /*seed=*/1, bad), std::invalid_argument);
  EXPECT_THROW(FaultVectors::exhaustive(c, bad), std::invalid_argument);
}

TEST(FaultVectors, PinnedInputsHoldAndExhaustiveThrowsWhenTooWide) {
  Circuit c;
  const Bus a = c.input_bus("a", 4);
  const NetId sel = c.input("sel");
  Bus outs;
  for (const NetId n : a) outs.push_back(c.and2(n, sel));
  c.output_bus("o", outs);

  std::vector<TernaryPin> pins;
  pin_port(c, "sel", 1, pins);
  const FaultVectors fv(c, 8, /*seed=*/1, pins);
  for (std::size_t v = 0; v < fv.count(); ++v) {
    // sel is input ordinal 4 (declared after the a bus) and pinned to 1
    // in every vector, including the all-zeros vector 0.
    EXPECT_TRUE(fv.bit(v, 4)) << "vector " << v;
  }

  const FaultVectors ex = FaultVectors::exhaustive(c, pins);
  EXPECT_EQ(ex.count(), 16u);  // 4 free inputs

  Circuit wide;
  wide.output_bus("o", wide.input_bus("a", 17));
  EXPECT_THROW(FaultVectors::exhaustive(wide), std::invalid_argument);
}

TEST(FaultCampaign, CloneWithStuckRejectsIneligibleVictims) {
  Circuit c;
  const NetId a = c.input("a");
  c.output("o", c.not_(a));
  EXPECT_THROW(clone_with_stuck(c, a, true), std::invalid_argument);
  EXPECT_THROW(clone_with_stuck(c, c.const0(), false), std::invalid_argument);
  EXPECT_THROW(clone_with_stuck(c, static_cast<NetId>(c.size()), false),
               std::invalid_argument);
}

// Report renderers: the campaign summary must survive a round trip
// through both formats without losing the headline numbers.
TEST(FaultCampaign, ReportsMentionCountsAndClasses) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  const NetId n_and = c.add(GateKind::And2, a, b);
  const NetId n_or = c.add(GateKind::Or2, a, b);
  c.output("o", c.add(GateKind::And2, n_and, n_or));

  const CompiledCircuit cc(c);
  const auto rep = run_fault_campaign(cc, enumerate_stuck_faults(c),
                                      FaultVectors::exhaustive(c));
  const std::string text = fault_report_text(rep, "redundant");
  EXPECT_NE(text.find("=== faults: redundant ==="), std::string::npos);
  EXPECT_NE(text.find("detected 5 / 6"), std::string::npos);
  EXPECT_NE(text.find("vector-gap 1"), std::string::npos);
  const std::string json = fault_report_json(rep, "redundant");
  EXPECT_NE(json.find("\"detected\":5"), std::string::npos);
  EXPECT_NE(json.find("\"vector_gap\":1"), std::string::npos);
  EXPECT_NE(json.find("\"gaps\":[{\"net\":"), std::string::npos);
}

}  // namespace
}  // namespace mfm::netlist
