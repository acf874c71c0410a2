// Single-format FP multiplier generator tests: netlist == word model ==
// soft-float across formats, radices, rounding modes and pipelining; the
// binary16 instance is swept near-exhaustively.
#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "format_printer.h"
#include "fp/softfloat.h"
#include "mult/fp_multiplier.h"
#include "netlist/sim_level.h"

namespace mfm::mult {
namespace {

using netlist::LevelSim;

u128 random_normal(std::mt19937_64& rng, const fp::FormatSpec& f,
                   int margin) {
  const int e_lo = margin;
  const int e_hi = static_cast<int>(f.exp_mask()) - 1 - margin;
  const u128 frac = (static_cast<u128>(rng()) << 64 | rng()) & f.frac_mask();
  const u128 exp = static_cast<u128>(
      e_lo + static_cast<int>(rng() % static_cast<unsigned>(e_hi - e_lo + 1)));
  const u128 sign = rng() & 1;
  return (sign << (f.storage_bits - 1)) | (exp << f.trailing_bits) | frac;
}

class FpMultFormats
    : public ::testing::TestWithParam<
          std::tuple<const fp::FormatSpec*, int /*g*/, mf::MfRounding>> {};

TEST_P(FpMultFormats, NetlistEqualsModelEqualsSoftfloat) {
  const auto [fmt, g, rounding] = GetParam();
  FpMultiplierOptions o;
  o.format = *fmt;
  o.radix_g = g;
  o.rounding = rounding;
  const auto u = build_fp_multiplier(o);
  LevelSim sim(*u.circuit);
  std::mt19937_64 rng(fmt->storage_bits * 10 + g);
  const int margin = fmt->exp_bits >= 8 ? (1 << (fmt->exp_bits - 2)) : 4;
  for (int i = 0; i < 3000; ++i) {
    const u128 a = random_normal(rng, *fmt, margin);
    const u128 b = random_normal(rng, *fmt, margin);
    sim.set_bus(u.a, a);
    sim.set_bus(u.b, b);
    sim.eval();
    const u128 got = sim.read_bus(u.p);
    ASSERT_EQ(got, fp_multiplier_model(a, b, *fmt, rounding))
        << fmt->name << " g=" << g;
    // Cross-check against the IEEE software reference in matching mode.
    const auto want = fp::multiply(a, b, *fmt,
                                   rounding == mf::MfRounding::NearestEven
                                       ? fp::Rounding::NearestEven
                                       : fp::Rounding::NearestTiesUp);
    if (!want.flags.overflow && !want.flags.underflow) {
      ASSERT_EQ(got, want.bits) << fmt->name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FpMultFormats,
    ::testing::Combine(::testing::Values(&fp::kBinary16, &fp::kBinary32,
                                         &fp::kBinary64),
                       ::testing::Values(2, 4),
                       ::testing::Values(mf::MfRounding::PaperTiesUp,
                                         mf::MfRounding::NearestEven)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)->name) + "_radix" +
             std::to_string(1 << std::get<1>(info.param)) +
             (std::get<2>(info.param) == mf::MfRounding::NearestEven
                  ? "_rne"
                  : "_tiesup");
    });

TEST(FpMultBinary16, DenseOperandSweep) {
  // binary16 is small enough to sweep densely: all exponent combinations
  // with several fractions each, checked against the soft-float reference.
  FpMultiplierOptions o;
  o.format = fp::kBinary16;
  o.rounding = mf::MfRounding::NearestEven;
  const auto u = build_fp_multiplier(o);
  LevelSim sim(*u.circuit);
  std::mt19937_64 rng(16);
  for (std::uint32_t ea = 1; ea <= 30; ++ea)
    for (std::uint32_t eb = 1; eb <= 30; ++eb) {
      if (ea + eb < 18 || ea + eb > 43) continue;  // keep products normal
      for (int k = 0; k < 8; ++k) {
        const std::uint32_t a = (ea << 10) | (rng() & 0x3FF);
        const std::uint32_t b =
            ((rng() & 1u) << 15) | (eb << 10) | (rng() & 0x3FF);
        sim.set_bus(u.a, a);
        sim.set_bus(u.b, b);
        sim.eval();
        const auto want = fp::multiply(a, b, fp::kBinary16);
        if (want.flags.overflow || want.flags.underflow) continue;
        ASSERT_EQ(sim.read_bus(u.p), want.bits)
            << std::hex << a << " * " << b;
      }
    }
}

TEST(FpMultPipelined, StreamWithLatencyOne) {
  FpMultiplierOptions o;
  o.format = fp::kBinary32;
  o.pipelined = true;
  const auto u = build_fp_multiplier(o);
  ASSERT_EQ(u.latency_cycles, 1);
  LevelSim sim(*u.circuit);
  std::mt19937_64 rng(17);
  std::vector<std::pair<u128, u128>> ops;
  for (int i = 0; i < 200; ++i)
    ops.emplace_back(random_normal(rng, fp::kBinary32, 32),
                     random_normal(rng, fp::kBinary32, 32));
  for (std::size_t i = 0; i < ops.size() + 1; ++i) {
    if (i < ops.size()) {
      sim.set_bus(u.a, ops[i].first);
      sim.set_bus(u.b, ops[i].second);
    }
    sim.eval();
    if (i >= 1) {
      ASSERT_EQ(sim.read_bus(u.p),
                fp_multiplier_model(ops[i - 1].first, ops[i - 1].second,
                                    fp::kBinary32,
                                    mf::MfRounding::PaperTiesUp));
    }
    sim.clock();
  }
}

TEST(FpMultModel, AgreesWithMfModelOnSharedFormats) {
  // The generic generator's model must coincide with the multi-format
  // model on binary64 and binary32 (same datapath semantics).
  std::mt19937_64 rng(18);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t a64 = static_cast<std::uint64_t>(
        random_normal(rng, fp::kBinary64, 256));
    const std::uint64_t b64 = static_cast<std::uint64_t>(
        random_normal(rng, fp::kBinary64, 256));
    ASSERT_EQ(
        static_cast<std::uint64_t>(fp_multiplier_model(
            a64, b64, fp::kBinary64, mf::MfRounding::PaperTiesUp)),
        mf::fp64_mul(a64, b64));
    const std::uint32_t a32 = static_cast<std::uint32_t>(
        random_normal(rng, fp::kBinary32, 32));
    const std::uint32_t b32 = static_cast<std::uint32_t>(
        random_normal(rng, fp::kBinary32, 32));
    ASSERT_EQ(static_cast<std::uint32_t>(fp_multiplier_model(
                  a32, b32, fp::kBinary32, mf::MfRounding::NearestEven)),
              mf::fp32_mul(a32, b32, mf::MfRounding::NearestEven));
  }
}

}  // namespace
}  // namespace mfm::mult
