// FP adder generator tests: netlist == word model == IEEE soft-float add
// on normal-range cases, across formats; alignment-clamp and cancellation
// corners; pipelined stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>

#include "format_printer.h"
#include "fp/softfloat.h"
#include "mult/fp_adder.h"
#include "netlist/sim_level.h"

namespace mfm::mult {
namespace {

using netlist::LevelSim;

u128 random_normal(std::mt19937_64& rng, const fp::FormatSpec& f,
                   int e_lo, int e_hi) {
  const u128 frac = (static_cast<u128>(rng()) << 64 | rng()) & f.frac_mask();
  const u128 exp = static_cast<u128>(
      e_lo + static_cast<int>(rng() % static_cast<unsigned>(e_hi - e_lo + 1)));
  const u128 sign = rng() & 1;
  return (sign << (f.storage_bits - 1)) | (exp << f.trailing_bits) | frac;
}

// True when fp::add in RNE produced a normal (or exactly zero) result in
// range -- the domain where the paper-style unit matches IEEE.
bool ieee_result_in_range(u128 a, u128 b, const fp::FormatSpec& f,
                          u128* want) {
  const auto r = fp::add(a, b, f);
  *want = r.bits;
  if (r.flags.overflow || r.flags.underflow) return false;
  const auto cls = fp::decode(r.bits, f).cls;
  return cls == fp::FpClass::Normal || cls == fp::FpClass::Zero;
}

class FpAdderFormats
    : public ::testing::TestWithParam<const fp::FormatSpec*> {};

TEST_P(FpAdderFormats, NetlistEqualsModelEqualsIeee) {
  const fp::FormatSpec& f = *GetParam();
  FpAdderOptions o;
  o.format = f;
  const auto u = build_fp_adder(o);
  LevelSim sim(*u.circuit);
  std::mt19937_64 rng(f.storage_bits);
  const int e_max = static_cast<int>(f.exp_mask()) - 1;
  for (int i = 0; i < 6000; ++i) {
    // Mix of exponent gaps: nearby (cancellation), medium, sticky-range.
    const int ea = 2 + static_cast<int>(rng() % static_cast<unsigned>(e_max - 2));
    int ebx;
    switch (i % 4) {
      case 0: ebx = ea; break;
      case 1: ebx = std::max(1, ea - 1 - static_cast<int>(rng() % 3)); break;
      case 2: ebx = std::max(1, ea - static_cast<int>(rng() % (f.precision + 6))); break;
      default: ebx = 1 + static_cast<int>(rng() % e_max); break;
    }
    const u128 a = random_normal(rng, f, ea, ea);
    const u128 b = random_normal(rng, f, ebx, ebx);
    sim.set_bus(u.a, a);
    sim.set_bus(u.b, b);
    sim.eval();
    const u128 got = sim.read_bus(u.s);
    ASSERT_EQ(got, fp_adder_model(a, b, f))
        << f.name << " " << std::hex << static_cast<unsigned long long>(a)
        << " + " << static_cast<unsigned long long>(b);
    u128 want;
    if (ieee_result_in_range(a, b, f, &want)) {
      ASSERT_EQ(got, want) << f.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, FpAdderFormats,
                         ::testing::Values(&fp::kBinary16, &fp::kBinary32,
                                           &fp::kBinary64),
                         [](const auto& info) {
                           return std::string(info.param->name);
                         });

TEST(FpAdder, CancellationAndCornerCases) {
  FpAdderOptions o;
  o.format = fp::kBinary32;
  const auto u = build_fp_adder(o);
  LevelSim sim(*u.circuit);
  auto run = [&](std::uint32_t a, std::uint32_t b) {
    sim.set_bus(u.a, a);
    sim.set_bus(u.b, b);
    sim.eval();
    return static_cast<std::uint32_t>(sim.read_bus(u.s));
  };
  auto f2b = [](float x) { return std::bit_cast<std::uint32_t>(x); };
  // x + (-x) = +0 exactly.
  EXPECT_EQ(run(f2b(3.25f), f2b(-3.25f)), 0u);
  EXPECT_EQ(run(f2b(-1.0f), f2b(1.0f)), 0u);
  // Massive cancellation down to one ulp.
  EXPECT_EQ(run(0x3F800001u, 0xBF800000u),
            std::bit_cast<std::uint32_t>(std::bit_cast<float>(0x3F800001u) -
                                         1.0f));
  // Clamped alignment: tiny addend only shows through rounding.
  EXPECT_EQ(run(f2b(1.0f), f2b(1.0e-30f)), f2b(1.0f + 1.0e-30f));
  EXPECT_EQ(run(f2b(1.0f), f2b(-1.0e-30f)), f2b(1.0f - 1.0e-30f));
  // Same magnitudes, same sign: exponent increments.
  EXPECT_EQ(run(f2b(1.5f), f2b(1.5f)), f2b(3.0f));
  // All-ones significand rounds up across a binade.
  EXPECT_EQ(run(0x3FFFFFFFu, 0x33FFFFFFu),
            std::bit_cast<std::uint32_t>(std::bit_cast<float>(0x3FFFFFFFu) +
                                         std::bit_cast<float>(0x33FFFFFFu)));
}

TEST(FpAdder, PipelinedStream) {
  FpAdderOptions o;
  o.format = fp::kBinary32;
  o.pipelined = true;
  const auto u = build_fp_adder(o);
  ASSERT_EQ(u.latency_cycles, 1);
  LevelSim sim(*u.circuit);
  std::mt19937_64 rng(77);
  std::vector<std::pair<u128, u128>> ops;
  for (int i = 0; i < 200; ++i)
    ops.emplace_back(random_normal(rng, fp::kBinary32, 60, 190),
                     random_normal(rng, fp::kBinary32, 60, 190));
  for (std::size_t i = 0; i < ops.size() + 1; ++i) {
    if (i < ops.size()) {
      sim.set_bus(u.a, ops[i].first);
      sim.set_bus(u.b, ops[i].second);
    }
    sim.eval();
    if (i >= 1) {
      ASSERT_EQ(sim.read_bus(u.s),
                fp_adder_model(ops[i - 1].first, ops[i - 1].second,
                               fp::kBinary32));
    }
    sim.clock();
  }
}

TEST(FpAdderModel, MatchesIeeeAddBroadSweep) {
  // Pure word-model sweep at higher volume (no netlist cost): the model
  // must equal IEEE RNE whenever the IEEE result is normal/zero in range.
  std::mt19937_64 rng(88);
  long checked = 0;
  for (int i = 0; i < 400000; ++i) {
    const u128 a = random_normal(rng, fp::kBinary64, 2, 2044);
    const int ea = static_cast<int>((a >> 52) & 0x7FF);
    const int eb2 = std::max(
        1, std::min(2045, ea - 60 + static_cast<int>(rng() % 121)));
    const u128 b = random_normal(rng, fp::kBinary64, eb2, eb2);
    u128 want;
    if (!ieee_result_in_range(a, b, fp::kBinary64, &want)) continue;
    ++checked;
    ASSERT_EQ(fp_adder_model(a, b, fp::kBinary64), want)
        << std::hex << static_cast<unsigned long long>(a) << " + "
        << static_cast<unsigned long long>(b);
  }
  EXPECT_GT(checked, 300000);
}

}  // namespace
}  // namespace mfm::mult
