// Multiplier-netlist tests: exhaustive at 8x8 for every radix, randomized
// at 64x64, pipelined-stream equivalence, and the structural/timing
// properties the paper reports in Sec. II.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <tuple>

#include "mult/multiplier.h"
#include "netlist/report.h"
#include "netlist/sim_level.h"
#include "netlist/timing.h"

namespace mfm::mult {
namespace {

using netlist::LevelSim;
using netlist::Sta;
using netlist::TechLib;

class SmallExhaustive : public ::testing::TestWithParam<int /*g*/> {};

TEST_P(SmallExhaustive, EightByEightAllPairs) {
  MultiplierOptions o;
  o.n = 8;
  o.g = GetParam();
  const auto u = build_multiplier(o);
  LevelSim sim(*u.circuit);
  for (int x = 0; x < 256; ++x)
    for (int y = 0; y < 256; ++y) {
      sim.set_bus(u.x, static_cast<u128>(x));
      sim.set_bus(u.y, static_cast<u128>(y));
      sim.eval();
      ASSERT_EQ(sim.read_bus(u.p), static_cast<u128>(x * y))
          << x << "*" << y << " g=" << o.g;
    }
}

INSTANTIATE_TEST_SUITE_P(Radices, SmallExhaustive, ::testing::Values(1, 2, 3, 4),
                         [](const auto& info) {
                           return "radix" + std::to_string(1 << info.param);
                         });

class Full64 : public ::testing::TestWithParam<int /*g*/> {};

TEST_P(Full64, RandomAndCornerOperands) {
  MultiplierOptions o;
  o.n = 64;
  o.g = GetParam();
  const auto u = build_multiplier(o);
  LevelSim sim(*u.circuit);
  auto check = [&](std::uint64_t x, std::uint64_t y) {
    sim.set_bus(u.x, x);
    sim.set_bus(u.y, y);
    sim.eval();
    ASSERT_EQ(sim.read_bus(u.p), static_cast<u128>(x) * y)
        << std::hex << x << "*" << y;
  };
  // Corners.
  for (std::uint64_t v :
       {0ull, 1ull, 2ull, ~0ull, 0x8000000000000000ull, 0x5555555555555555ull,
        0xAAAAAAAAAAAAAAAAull, 0x00000000FFFFFFFFull})
    for (std::uint64_t w : {0ull, 1ull, ~0ull, 0x8000000000000000ull})
      check(v, w);
  // Random.
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 1500; ++i) check(rng(), rng());
}

INSTANTIATE_TEST_SUITE_P(Radices, Full64, ::testing::Values(2, 3, 4),
                         [](const auto& info) {
                           return "radix" + std::to_string(1 << info.param);
                         });

TEST(MultiplierStructure, PaperRowCounts) {
  EXPECT_EQ(build_radix16_64().pp_rows, 17);  // Sec. II: 17 PPs at n = 64
  EXPECT_EQ(build_radix4_64().pp_rows, 33);
  EXPECT_EQ(build_radix8_64().pp_rows, 23);
}

TEST(MultiplierStructure, TreeDepthShrinksWithRadix) {
  const auto r4 = build_radix4_64();
  const auto r8 = build_radix8_64();
  const auto r16 = build_radix16_64();
  EXPECT_GT(r4.tree_stages, r8.tree_stages);
  EXPECT_GT(r8.tree_stages, r16.tree_stages);
  EXPECT_EQ(r16.tree_stages, 6);  // 17 -> 13 -> 9 -> 6 -> 4 -> 3 -> 2
  EXPECT_EQ(r4.tree_stages, 8);   // 33 -> ...
}

TEST(MultiplierTiming, Radix4IsFasterRadix16HasNoPrecomputeOnlyInR4) {
  // Paper Sec. II-A: the radix-4 combinational unit is faster (about 20%
  // in the paper's library); the radix-16 critical path starts in the
  // odd-multiple pre-computation.
  const auto& lib = TechLib::lp45();
  const auto r4 = build_radix4_64();
  const auto r16 = build_radix16_64();
  Sta s4(*r4.circuit, lib);
  Sta s16(*r16.circuit, lib);
  EXPECT_LT(s4.max_delay_ps(), s16.max_delay_ps());
  EXPECT_GT(s4.max_delay_ps(), 0.7 * s16.max_delay_ps());
  // Pre-computation only exists for radix >= 8.
  EXPECT_GT(s16.module_settle_ps("top/precomp"), 0.0);
  const auto cp16 = s16.critical_path();
  ASSERT_FALSE(cp16.segments.empty());
  EXPECT_EQ(cp16.segments.front().module, "top/precomp");
}

class PipelinedStream
    : public ::testing::TestWithParam<std::tuple<int /*g*/, PipelineCut>> {};

TEST_P(PipelinedStream, MatchesCombinationalWithLatency) {
  const auto [g, cut] = GetParam();
  MultiplierOptions o;
  o.n = 64;
  o.g = g;
  o.cut = cut;
  o.register_inputs = true;
  const auto u = build_multiplier(o);
  ASSERT_EQ(u.latency_cycles, 2);
  LevelSim sim(*u.circuit);
  std::mt19937_64 rng(g * 1000 + static_cast<int>(cut));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
  for (int i = 0; i < 120; ++i) ops.emplace_back(rng(), rng());
  for (std::size_t i = 0; i < ops.size() + 2; ++i) {
    if (i < ops.size()) {
      sim.set_bus(u.x, ops[i].first);
      sim.set_bus(u.y, ops[i].second);
    }
    sim.eval();
    if (i >= 2) {
      const auto& [x, y] = ops[i - 2];
      ASSERT_EQ(sim.read_bus(u.p), static_cast<u128>(x) * y)
          << "op " << i - 2;
    }
    sim.clock();
  }
}

INSTANTIATE_TEST_SUITE_P(
    CutsAndRadices, PipelinedStream,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::Values(PipelineCut::AfterRecode,
                                         PipelineCut::AfterPPGen,
                                         PipelineCut::AfterTree)),
    [](const auto& info) {
      const char* cut =
          std::get<1>(info.param) == PipelineCut::AfterRecode  ? "AfterRecode"
          : std::get<1>(info.param) == PipelineCut::AfterPPGen ? "AfterPPGen"
                                                               : "AfterTree";
      return "radix" + std::to_string(1 << std::get<0>(info.param)) + "_" +
             cut;
    });

TEST(PipelinedTiming, StagesAreShorterThanCombinational) {
  const auto& lib = TechLib::lp45();
  const auto comb = build_radix16_64();
  const auto piped = build_radix16_64(PipelineCut::AfterPPGen);
  Sta sc(*comb.circuit, lib);
  Sta sp(*piped.circuit, lib);
  // Min clock period of the pipelined unit is far below the combinational
  // latency but above half of it (2 stages + register overhead).
  EXPECT_LT(sp.max_delay_ps(), sc.max_delay_ps());
  EXPECT_GT(sp.max_delay_ps(), sc.max_delay_ps() / 2 * 0.8);
}

TEST(MultiplierAdders, PrefixChoicesDoNotChangeResults) {
  MultiplierOptions o;
  o.n = 16;
  o.g = 4;
  for (auto pre : {rtl::PrefixKind::KoggeStone, rtl::PrefixKind::BrentKung,
                   rtl::PrefixKind::Sklansky})
    for (auto fin : {rtl::PrefixKind::KoggeStone, rtl::PrefixKind::BrentKung}) {
      o.precompute_adder = pre;
      o.final_adder = fin;
      const auto u = build_multiplier(o);
      LevelSim sim(*u.circuit);
      std::mt19937_64 rng(7);
      for (int i = 0; i < 400; ++i) {
        const std::uint64_t x = rng() & 0xFFFF, y = rng() & 0xFFFF;
        sim.set_bus(u.x, x);
        sim.set_bus(u.y, y);
        sim.eval();
        ASSERT_EQ(sim.read_bus(u.p), static_cast<u128>(x * y));
      }
    }
}

TEST(MultiplierArea, Radix16SmallerTreeLargerPPGen) {
  // Structural sanity on the area split (Sec. II-A trade-off): radix-4
  // spends more area in the TREE, radix-16 more in PPGEN + precompute.
  const auto& lib = TechLib::lp45();
  const auto r4 = build_radix4_64();
  const auto r16 = build_radix16_64();
  const auto a4 = netlist::area_by_module(*r4.circuit, lib);
  const auto a16 = netlist::area_by_module(*r16.circuit, lib);
  EXPECT_GT(a4.at("top/tree").area_nand2, 1.5 * a16.at("top/tree").area_nand2);
  EXPECT_GT(a16.at("top/ppgen").area_nand2 +
                a16.at("top/precomp").area_nand2,
            a4.at("top/ppgen").area_nand2);
}

}  // namespace
}  // namespace mfm::mult
