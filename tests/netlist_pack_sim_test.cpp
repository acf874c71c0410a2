// PackSim cross-checks: the 64-way bit-parallel simulator must agree
// with LevelSim on EVERY net (not just output ports) for every shipped
// netlist generator, under directed lanes (all-zeros, all-ones, walking
// one across the concatenated input ports) plus random lanes, for both
// combinational and pipelined builds.  A deliberate-mismatch control
// proves the comparison is not vacuous, and the guard tests pin the
// input-only set() contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "mf/mf_unit.h"
#include "mult/fp_adder.h"
#include "mult/fp_multiplier.h"
#include "mult/multiplier.h"
#include "netlist/compiled.h"
#include "netlist/sim_level.h"
#include "netlist/sim_pack.h"
#include "rtl/adders.h"

namespace mfm::netlist {
namespace {

u128 width_mask(int w) {
  return (w >= 128) ? ~static_cast<u128>(0)
                    : ((static_cast<u128>(1) << w) - 1);
}

/// Drives a PackSim and 64 per-lane LevelSims (all sharing one
/// CompiledCircuit) with identical inputs and asserts every net's
/// 64-lane word matches bit-for-bit, for @p cycles eval/clock rounds.
/// Lane 0 = all-zeros, lane 1 = all-ones, lanes 2.. walk a single one
/// across the concatenated input ports; leftover lanes are random.
void expect_pack_matches_level(const Circuit& c, std::uint64_t seed,
                               int cycles = 3) {
  const CompiledCircuit cc(c);
  PackSim ps(cc);
  std::vector<LevelSim> refs;
  refs.reserve(PackSim::kLanes);
  for (int lane = 0; lane < PackSim::kLanes; ++lane) refs.emplace_back(cc);

  std::mt19937_64 rng(seed);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (int lane = 0; lane < PackSim::kLanes; ++lane) {
      // Walking-one bit index for this lane (negative: constant lanes).
      long long cursor = lane - 2;
      const bool walking = cycle == 0 && lane >= 2;
      for (const auto& [name, bus] : c.in_ports()) {
        const int w = static_cast<int>(bus.size());
        u128 v;
        if (lane == 0) {
          v = 0;
        } else if (lane == 1) {
          v = width_mask(w);
        } else if (walking && cursor >= 0 && cursor < w) {
          v = static_cast<u128>(1) << cursor;
        } else if (walking && cursor >= 0) {
          v = 0;  // the walking one sits in a later port
        } else {
          v = (static_cast<u128>(rng()) << 64 | rng()) & width_mask(w);
        }
        cursor -= w;
        ps.set_bus(bus, lane, v);
        refs[static_cast<std::size_t>(lane)].set_bus(bus, v);
      }
    }
    ps.eval();
    for (auto& r : refs) r.eval();
    for (NetId n = 0; n < static_cast<NetId>(cc.size()); ++n) {
      std::uint64_t want = 0;
      for (int lane = 0; lane < PackSim::kLanes; ++lane)
        want |= static_cast<std::uint64_t>(
                    refs[static_cast<std::size_t>(lane)].value(n))
                << lane;
      ASSERT_EQ(ps.word(n), want)
          << "net " << n << " (" << gate_name(cc.kind(n)) << ") diverged in "
          << "cycle " << cycle;
    }
    ps.clock();
    for (auto& r : refs) r.clock();
  }
}

TEST(PackSim, MatchesLevelSimOnPrefixAdders) {
  for (auto kind : {rtl::PrefixKind::KoggeStone, rtl::PrefixKind::Sklansky,
                    rtl::PrefixKind::BrentKung, rtl::PrefixKind::HanCarlson}) {
    Circuit c;
    const Bus a = c.input_bus("a", 64);
    const Bus b = c.input_bus("b", 64);
    const NetId cin = c.input("cin");
    const auto out = rtl::prefix_adder(c, a, b, cin, kind);
    c.output_bus("s", out.sum);
    c.output("cout", out.carry_out);
    expect_pack_matches_level(c, 0xADD + static_cast<int>(kind),
                              /*cycles=*/1);
  }
}

TEST(PackSim, MatchesLevelSimOnCarrySelectAndRipple) {
  Circuit c;
  const Bus a = c.input_bus("a", 32);
  const Bus b = c.input_bus("b", 32);
  const NetId cin = c.input("cin");
  const auto cs = rtl::carry_select_adder(c, a, b, cin);
  const auto rp = rtl::ripple_adder(c, a, b, cin);
  c.output_bus("cs_s", cs.sum);
  c.output_bus("rp_s", rp.sum);
  c.output("cs_c", cs.carry_out);
  c.output("rp_c", rp.carry_out);
  expect_pack_matches_level(c, 0xCA44, /*cycles=*/1);
}

TEST(PackSim, MatchesLevelSimOnMultipliers) {
  for (int g : {2, 4}) {  // radix-4 and radix-16
    mult::MultiplierOptions o;
    o.n = 16;
    o.g = g;
    const auto unit = mult::build_multiplier(o);
    expect_pack_matches_level(*unit.circuit, 0x1111u * g, /*cycles=*/1);
  }
}

TEST(PackSim, MatchesLevelSimOnPipelinedMultiplier) {
  mult::MultiplierOptions o;
  o.n = 16;
  o.g = 4;
  o.cut = mult::PipelineCut::AfterRecode;
  o.register_inputs = true;
  const auto unit = mult::build_multiplier(o);
  // Multiple cycles: the per-lane DFF state must advance like 64
  // independent machines.
  expect_pack_matches_level(*unit.circuit, 0x9199, /*cycles=*/4);
}

TEST(PackSim, MatchesLevelSimOnFpMultipliers) {
  for (const auto& fmt : {fp::kBinary16, fp::kBinary32, fp::kBinary64}) {
    mult::FpMultiplierOptions o;
    o.format = fmt;
    const auto unit = mult::build_fp_multiplier(o);
    expect_pack_matches_level(*unit.circuit, 0xF9 + fmt.storage_bits,
                              /*cycles=*/1);
  }
}

TEST(PackSim, MatchesLevelSimOnFpAdder) {
  mult::FpAdderOptions o;
  o.format = fp::kBinary32;
  const auto unit = mult::build_fp_adder(o);
  expect_pack_matches_level(*unit.circuit, 0xFADD, /*cycles=*/1);
}

TEST(PackSim, MatchesLevelSimOnMfUnitCombinational) {
  mf::MfOptions o;
  o.pipeline = mf::MfPipeline::Combinational;
  const auto unit = mf::build_mf_unit(o);
  // frmt is an input port, so the random lanes mix int64/fp64/fp32-dual
  // operations within one evaluation pass.
  expect_pack_matches_level(*unit.circuit, 0x3F, /*cycles=*/1);
}

TEST(PackSim, MatchesLevelSimOnMfUnitFig5Pipeline) {
  mf::MfOptions o;
  o.pipeline = mf::MfPipeline::Fig5;
  const auto unit = mf::build_mf_unit(o);
  expect_pack_matches_level(*unit.circuit, 0xF1675, /*cycles=*/5);
}

// Non-vacuity control: PackSim over an XOR must disagree with LevelSim
// over an XNOR under the same comparison the positive tests run.  If the
// harness "passed" here, the cross-checks above prove nothing.
TEST(PackSim, DeliberateMismatchIsDetected) {
  Circuit cx, cn;
  for (Circuit* c : {&cx, &cn}) {
    const NetId a = c->input("a");
    const NetId b = c->input("b");
    c->output("o", c == &cx ? c->xor2(a, b) : c->xnor2(a, b));
  }
  const CompiledCircuit ccx(cx), ccn(cn);
  PackSim ps(ccx);
  LevelSim ref(ccn);
  std::uint64_t mismatch = 0;
  for (int lane = 0; lane < PackSim::kLanes; ++lane) {
    const bool a = (lane >> 0) & 1, b = (lane >> 1) & 1;
    ps.set_lane(cx.in_port("a")[0], lane, a);
    ps.set_lane(cx.in_port("b")[0], lane, b);
    ref.set(cn.in_port("a")[0], a);
    ref.set(cn.in_port("b")[0], b);
    ps.eval();
    ref.eval();
    if (ps.value(cx.out_port("o")[0], lane) !=
        ref.value(cn.out_port("o")[0]))
      mismatch |= 1ull << lane;
  }
  EXPECT_EQ(mismatch, ~0ull);  // xor vs xnor differ in every lane
}

TEST(PackSim, SetOnNonInputThrows) {
  mult::MultiplierOptions o;
  o.n = 8;
  o.g = 2;
  const auto unit = mult::build_multiplier(o);
  PackSim ps(*unit.circuit);
  EXPECT_THROW(ps.set(unit.p.back(), ~0ull), std::invalid_argument);
  EXPECT_NO_THROW(ps.set(unit.x.front(), ~0ull));
}

TEST(PackSim, ForceOverridesSelectedLanesOnly) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  const NetId n_and = c.and2(a, b);
  const NetId n_not = c.not_(n_and);
  c.output("o", n_not);
  PackSim ps(c);
  ps.set(a, ~0ull);
  ps.set(b, ~0ull);

  // Stuck-at-0 on n_and in lanes 1 and 3: the override must land after
  // the gate evaluates and propagate to the downstream NOT.
  ps.force(n_and, 0b1010, 0);
  EXPECT_TRUE(ps.has_forces());
  ps.eval();
  EXPECT_EQ(ps.word(n_and), ~0b1010ull);
  EXPECT_EQ(ps.word(n_not), 0b1010ull);

  // Overrides persist across eval() and accumulate in call order: a
  // second force on an overlapping mask wins on the overlap.
  ps.force(n_and, 0b0011, ~0ull);
  ps.eval();
  EXPECT_EQ(ps.word(n_and), ~0b1000ull);

  ps.clear_forces();
  EXPECT_FALSE(ps.has_forces());
  ps.eval();
  EXPECT_EQ(ps.word(n_and), ~0ull);
}

TEST(PackSim, ResetRestoresPowerOnState) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId q = c.dff(a);
  const NetId o = c.not_(q);
  c.output("o", o);
  PackSim ps(c);
  ps.set(a, ~0ull);
  ps.step();  // capture all-ones into the flop
  ps.eval();
  EXPECT_EQ(ps.word(q), ~0ull);

  // Power-on state again: inputs, net words, and DFF state all zero,
  // with combinational logic re-evaluated from that state.
  ps.reset();
  EXPECT_EQ(ps.word(a), 0u);
  EXPECT_EQ(ps.word(q), 0u);
  EXPECT_EQ(ps.word(o), ~0ull);

  // Installed overrides survive reset() and apply to its eval(); call
  // clear_forces() first for a pristine baseline.
  ps.force(q, 0b1, ~0ull);
  ps.reset();
  EXPECT_EQ(ps.word(q), 0b1ull);
  EXPECT_EQ(ps.word(o), ~0b1ull);
}

TEST(PackSim, ForceOutOfRangeThrows) {
  Circuit c;
  c.output("o", c.not_(c.input("a")));
  PackSim ps(c);
  const NetId bogus = static_cast<NetId>(c.size());
  EXPECT_THROW(ps.force(bogus, ~0ull, 0), std::invalid_argument);
}

TEST(PackSim, WordAndValueBoundsThrow) {
  Circuit c;
  const NetId a = c.input("a");
  c.output("o", c.not_(a));
  PackSim ps(c);
  ps.eval();
  EXPECT_THROW(ps.word(static_cast<NetId>(c.size())), std::invalid_argument);
  EXPECT_THROW(ps.value(a, -1), std::invalid_argument);
  EXPECT_THROW(ps.value(a, PackSim::kLanes), std::invalid_argument);
  EXPECT_THROW(ps.value(static_cast<NetId>(c.size()), 0),
               std::invalid_argument);
  EXPECT_NO_THROW(ps.value(a, PackSim::kLanes - 1));
}

TEST(PackSim, WordAndLaneViewsAgree) {
  Circuit c;
  const Bus a = c.input_bus("a", 4);
  Bus inv;
  for (NetId n : a) inv.push_back(c.not_(n));
  c.output_bus("o", inv);
  PackSim ps(c);
  ps.set(a[0], 0xAAAAAAAAAAAAAAAAull);
  ps.set(a[1], 0);
  ps.set(a[2], ~0ull);
  ps.set(a[3], 1);
  ps.eval();
  EXPECT_EQ(ps.word(inv[0]), ~0xAAAAAAAAAAAAAAAAull);
  EXPECT_EQ(ps.word(inv[1]), ~0ull);
  EXPECT_EQ(ps.word(inv[2]), 0u);
  EXPECT_TRUE(ps.value(inv[3], 1));
  EXPECT_FALSE(ps.value(inv[3], 0));
  // Lane 0 drives a = {0, 0, 1, 1} (LSB first), so inv reads 0b0011.
  EXPECT_EQ(ps.read_bus(inv, 0), static_cast<u128>(0b0011));
}

}  // namespace
}  // namespace mfm::netlist
