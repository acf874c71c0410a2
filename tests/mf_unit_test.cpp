// MfUnit (netlist) tests: bit-exact equivalence with MfModel across every
// format, pipelined streaming, lane isolation, the Sec. IV reduction
// integration, and the Fig. 5 timing story.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <random>
#include <vector>

#include "fp/softfloat.h"
#include "mf/fp_reduce.h"
#include "mf/mf_model.h"
#include "mf/mf_unit.h"
#include "netlist/compiled.h"
#include "netlist/power.h"
#include "netlist/sim_event.h"
#include "netlist/sim_level.h"
#include "netlist/sim_pack.h"
#include "netlist/timing.h"

namespace mfm::mf {
namespace {

using netlist::CompiledCircuit;
using netlist::LevelSim;
using netlist::PackSim;
using netlist::Sta;
using netlist::TechLib;

std::uint64_t rand_fp64(std::mt19937_64& rng, int e_lo = 512,
                        int e_hi = 1534) {
  return ((rng() & 1) << 63) |
         (static_cast<std::uint64_t>(e_lo + rng() % (e_hi - e_lo + 1)) << 52) |
         (rng() & ((1ull << 52) - 1));
}
std::uint64_t rand_fp32_pair(std::mt19937_64& rng) {
  auto one = [&rng] {
    return ((rng() & 1) << 31) |
           (static_cast<std::uint64_t>(64 + rng() % 127) << 23) |
           (rng() & 0x7FFFFF);
  };
  return (one() << 32) | one();
}

// Shared combinational unit (building it is the expensive part).  One
// CompiledCircuit backs both the scalar LevelSim (run()) and the 64-way
// PackSim (run_packed()); the model-match sweeps batch through PackSim,
// which is what makes the 15000-vector budgets cheap.
class MfUnitComb : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MfOptions opt;
    opt.pipeline = MfPipeline::Combinational;
    unit_ = new MfUnit(build_mf_unit(opt));
    cc_ = new CompiledCircuit(*unit_->circuit);
    sim_ = new LevelSim(*cc_);
    psim_ = new PackSim(*cc_);
  }
  static void TearDownTestSuite() {
    delete psim_;
    delete sim_;
    delete cc_;
    delete unit_;
    psim_ = nullptr;
    sim_ = nullptr;
    cc_ = nullptr;
    unit_ = nullptr;
  }
  static Ports run(Format f, std::uint64_t a, std::uint64_t b) {
    sim_->set_port("a", a);
    sim_->set_port("b", b);
    sim_->set_port("frmt", frmt_bits(f));
    sim_->eval();
    return Ports{static_cast<std::uint64_t>(sim_->read_port("ph")),
                 static_cast<std::uint64_t>(sim_->read_port("pl"))};
  }

  struct PackOp {
    Format f;
    std::uint64_t a, b;
  };
  /// Streams @p ops through PackSim 64 per evaluation pass (lanes may mix
  /// formats -- frmt is just another input port) and calls
  /// check(op_index, ports) for every op.
  template <typename Check>
  static void run_packed(const std::vector<PackOp>& ops, const Check& check) {
    for (std::size_t base = 0; base < ops.size();
         base += PackSim::kLanes) {
      const std::size_t n =
          std::min<std::size_t>(PackSim::kLanes, ops.size() - base);
      for (std::size_t l = 0; l < n; ++l) {
        const int lane = static_cast<int>(l);
        psim_->set_port("a", lane, ops[base + l].a);
        psim_->set_port("b", lane, ops[base + l].b);
        psim_->set_port("frmt", lane, frmt_bits(ops[base + l].f));
      }
      psim_->eval();
      for (std::size_t l = 0; l < n; ++l) {
        const int lane = static_cast<int>(l);
        check(base + l,
              Ports{static_cast<std::uint64_t>(psim_->read_port("ph", lane)),
                    static_cast<std::uint64_t>(
                        psim_->read_port("pl", lane))});
      }
    }
  }

  static MfUnit* unit_;
  static CompiledCircuit* cc_;
  static LevelSim* sim_;
  static PackSim* psim_;
};
MfUnit* MfUnitComb::unit_ = nullptr;
CompiledCircuit* MfUnitComb::cc_ = nullptr;
LevelSim* MfUnitComb::sim_ = nullptr;
PackSim* MfUnitComb::psim_ = nullptr;

TEST_F(MfUnitComb, Int64MatchesModel) {
  std::mt19937_64 rng(11);
  std::vector<PackOp> ops;
  for (int i = 0; i < 15000; ++i) {
    const std::uint64_t x = rng(), y = rng();
    ops.push_back({Format::Int64, x, y});
  }
  run_packed(ops, [&](std::size_t i, const Ports& got) {
    const Ports want = execute(Format::Int64, ops[i].a, ops[i].b);
    ASSERT_EQ(got.ph, want.ph) << "op " << i;
    ASSERT_EQ(got.pl, want.pl) << "op " << i;
  });
  const Ports corner = run(Format::Int64, ~0ull, ~0ull);
  EXPECT_EQ(corner.ph, 0xFFFFFFFFFFFFFFFEull);
  EXPECT_EQ(corner.pl, 1ull);
}

TEST_F(MfUnitComb, Fp64MatchesModelAndSoftfloat) {
  std::mt19937_64 rng(12);
  std::vector<PackOp> ops;
  for (int i = 0; i < 15000; ++i)
    ops.push_back({Format::Fp64, rand_fp64(rng), rand_fp64(rng)});
  run_packed(ops, [&](std::size_t i, const Ports& got) {
    const std::uint64_t a = ops[i].a, b = ops[i].b;
    ASSERT_EQ(got.ph, fp64_mul(a, b)) << std::hex << a << "," << b;
    ASSERT_EQ(got.pl, 0u);
    const std::uint32_t ea = (a >> 52) & 0x7FF, eb = (b >> 52) & 0x7FF;
    if (ea + eb > 1100 && ea + eb < 2900) {
      const auto sf =
          fp::multiply(a, b, fp::kBinary64, fp::Rounding::NearestTiesUp);
      ASSERT_EQ(got.ph, static_cast<std::uint64_t>(sf.bits));
    }
  });
}

TEST_F(MfUnitComb, DualFp32MatchesModel) {
  std::mt19937_64 rng(13);
  std::vector<PackOp> ops;
  for (int i = 0; i < 15000; ++i)
    ops.push_back({Format::Fp32Dual, rand_fp32_pair(rng),
                   rand_fp32_pair(rng)});
  run_packed(ops, [&](std::size_t i, const Ports& got) {
    const Ports want = execute(Format::Fp32Dual, ops[i].a, ops[i].b);
    ASSERT_EQ(got.ph, want.ph) << std::hex << ops[i].a << "," << ops[i].b;
    ASSERT_EQ(got.pl, 0u);
  });
}

TEST_F(MfUnitComb, PackedMixedFormatsMatchModel) {
  // All three formats interleaved within single evaluation passes.
  std::mt19937_64 rng(18);
  std::vector<PackOp> ops;
  for (int i = 0; i < 3000; ++i) {
    switch (static_cast<Format>(i % 3)) {
      case Format::Int64:
        ops.push_back({Format::Int64, rng(), rng()});
        break;
      case Format::Fp64:
        ops.push_back({Format::Fp64, rand_fp64(rng), rand_fp64(rng)});
        break;
      default:
        ops.push_back({Format::Fp32Dual, rand_fp32_pair(rng),
                       rand_fp32_pair(rng)});
    }
  }
  run_packed(ops, [&](std::size_t i, const Ports& got) {
    const Ports want = execute(ops[i].f, ops[i].a, ops[i].b);
    ASSERT_EQ(got.ph, want.ph) << "op " << i;
    ASSERT_EQ(got.pl, want.pl) << "op " << i;
  });
}

TEST_F(MfUnitComb, LanesIsolatedInDualMode) {
  // Fuzzing the upper lane must never change the lower product (and vice
  // versa) -- the Sec. III-B blanking/carry-kill property, end to end.
  std::mt19937_64 rng(14);
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t a = rand_fp32_pair(rng), b = rand_fp32_pair(rng);
    const std::uint32_t lo0 =
        static_cast<std::uint32_t>(run(Format::Fp32Dual, a, b).ph);
    for (int k = 0; k < 3; ++k) {
      const std::uint64_t au =
          (rand_fp32_pair(rng) & ~0xFFFFFFFFull) | (a & 0xFFFFFFFF);
      const std::uint64_t bu =
          (rand_fp32_pair(rng) & ~0xFFFFFFFFull) | (b & 0xFFFFFFFF);
      ASSERT_EQ(static_cast<std::uint32_t>(run(Format::Fp32Dual, au, bu).ph),
                lo0);
    }
    const std::uint32_t hi0 = static_cast<std::uint32_t>(
        run(Format::Fp32Dual, a, b).ph >> 32);
    for (int k = 0; k < 3; ++k) {
      const std::uint64_t al =
          (a & ~0xFFFFFFFFull) | (rand_fp32_pair(rng) & 0xFFFFFFFF);
      const std::uint64_t bl =
          (b & ~0xFFFFFFFFull) | (rand_fp32_pair(rng) & 0xFFFFFFFF);
      ASSERT_EQ(static_cast<std::uint32_t>(
                    run(Format::Fp32Dual, al, bl).ph >> 32),
                hi0);
    }
  }
}

TEST_F(MfUnitComb, BackToBackFormatSwitches) {
  // The same hardware must give correct answers when the format changes
  // every evaluation (mode nets reach every shared block).
  std::mt19937_64 rng(15);
  for (int i = 0; i < 900; ++i) {
    const Format f = static_cast<Format>(i % 3);
    std::uint64_t a, b;
    switch (f) {
      case Format::Int64:
        a = rng();
        b = rng();
        break;
      case Format::Fp64:
        a = rand_fp64(rng);
        b = rand_fp64(rng);
        break;
      default:
        a = rand_fp32_pair(rng);
        b = rand_fp32_pair(rng);
    }
    const Ports got = run(f, a, b);
    const Ports want = execute(f, a, b);
    ASSERT_EQ(got.ph, want.ph) << "format " << static_cast<int>(f);
    ASSERT_EQ(got.pl, want.pl);
  }
}

// ---- pipelined builds -------------------------------------------------------

class MfPipelineTest : public ::testing::TestWithParam<MfPipeline> {};

TEST_P(MfPipelineTest, MixedFormatStreamWithLatencyTwo) {
  MfOptions opt;
  opt.pipeline = GetParam();
  const MfUnit u = build_mf_unit(opt);
  ASSERT_EQ(u.latency_cycles, 2);
  LevelSim sim(*u.circuit);
  std::mt19937_64 rng(16);
  struct Op {
    std::uint64_t a, b;
    Format f;
  };
  std::vector<Op> ops;
  for (int i = 0; i < 150; ++i) {
    const Format f = static_cast<Format>(rng() % 3);
    Op op{0, 0, f};
    switch (f) {
      case Format::Int64:
        op.a = rng();
        op.b = rng();
        break;
      case Format::Fp64:
        op.a = rand_fp64(rng);
        op.b = rand_fp64(rng);
        break;
      default:
        op.a = rand_fp32_pair(rng);
        op.b = rand_fp32_pair(rng);
    }
    ops.push_back(op);
  }
  for (std::size_t i = 0; i < ops.size() + 2; ++i) {
    if (i < ops.size()) {
      sim.set_port("a", ops[i].a);
      sim.set_port("b", ops[i].b);
      sim.set_port("frmt", frmt_bits(ops[i].f));
    }
    sim.eval();
    if (i >= 2) {
      const Op& op = ops[i - 2];
      const Ports want = execute(op.f, op.a, op.b);
      ASSERT_EQ(static_cast<std::uint64_t>(sim.read_port("ph")), want.ph)
          << "op " << i - 2;
      ASSERT_EQ(static_cast<std::uint64_t>(sim.read_port("pl")), want.pl);
    }
    sim.clock();
  }
}

INSTANTIATE_TEST_SUITE_P(Placements, MfPipelineTest,
                         ::testing::Values(MfPipeline::Fig5,
                                           MfPipeline::AfterPPGen),
                         [](const auto& info) {
                           return info.param == MfPipeline::Fig5
                                      ? "Fig5"
                                      : "AfterPPGen";
                         });

TEST(MfTiming, Fig5CriticalPathIsInStage2Near880MHz) {
  // Paper Sec. III-D: critical path 1120 ps in stage 2 (~17.5 FO4),
  // max frequency about 880 MHz.  Loose band: 15.5 .. 20 FO4.
  const MfUnit u = build_mf_unit();
  Sta sta(*u.circuit, TechLib::lp45());
  EXPECT_GT(sta.max_delay_fo4(), 15.5);
  EXPECT_LT(sta.max_delay_fo4(), 20.0);
  const double fmax_mhz = 1e6 / sta.max_delay_ps();
  EXPECT_GT(fmax_mhz, 750.0);
  EXPECT_LT(fmax_mhz, 1050.0);
  // The worst path runs through stage 2 (PPGEN or TREE).
  const auto cp = sta.critical_path();
  ASSERT_GE(cp.segments.size(), 2u);
  bool touches_stage2 = false;
  for (const auto& s : cp.segments)
    if (s.module == "top/tree" || s.module == "top/ppgen")
      touches_stage2 = true;
  EXPECT_TRUE(touches_stage2);
}

// ---- Sec. IV reduction integration -----------------------------------------

TEST(MfReductionIntegration, EligibleFp64RunsAsFp32) {
  MfOptions opt;
  opt.pipeline = MfPipeline::Combinational;
  opt.with_reduction = true;
  const MfUnit u = build_mf_unit(opt);
  ASSERT_NE(u.reduced, netlist::kNoNet);
  LevelSim sim(*u.circuit);

  auto run = [&](Format f, std::uint64_t a, std::uint64_t b) {
    sim.set_port("a", a);
    sim.set_port("b", b);
    sim.set_port("frmt", frmt_bits(f));
    sim.eval();
  };

  std::mt19937_64 rng(17);
  int reduced_count = 0;
  for (int i = 0; i < 600; ++i) {
    std::uint64_t a, b;
    if (i % 2 == 0) {
      // Small integers: always reducible (Sec. IV motivation).
      a = std::bit_cast<std::uint64_t>(
          static_cast<double>(1 + rng() % 4096));
      b = std::bit_cast<std::uint64_t>(
          static_cast<double>(1 + rng() % 4096));
    } else {
      a = rand_fp64(rng);
      b = rand_fp64(rng);
    }
    run(Format::Fp64, a, b);
    const bool both = reduce64to32(a).has_value() &&
                      reduce64to32(b).has_value();
    ASSERT_EQ(sim.value(u.reduced), both);
    if (both) {
      ++reduced_count;
      // The op executed on the lower binary32 lane.
      const std::uint32_t got =
          static_cast<std::uint32_t>(sim.read_port("ph"));
      ASSERT_EQ(got, fp32_mul(*reduce64to32(a), *reduce64to32(b)));
    } else {
      ASSERT_EQ(static_cast<std::uint64_t>(sim.read_port("ph")),
                fp64_mul(a, b));
    }
  }
  EXPECT_GT(reduced_count, 200);

  // Non-fp64 formats must never trigger the reduction.
  run(Format::Int64, std::bit_cast<std::uint64_t>(2.0),
      std::bit_cast<std::uint64_t>(2.0));
  EXPECT_FALSE(sim.value(u.reduced));
  run(Format::Fp32Dual, rand_fp32_pair(rng), rand_fp32_pair(rng));
  EXPECT_FALSE(sim.value(u.reduced));
}

TEST(MfStructure, GateAndFlopBudgets) {
  // Coarse structural pins to catch accidental blow-ups: the pipelined
  // unit is a few tens of thousands of gates with several hundred flops.
  const MfUnit comb = build_mf_unit(
      MfOptions{.pipeline = MfPipeline::Combinational});
  const MfUnit piped = build_mf_unit();
  EXPECT_EQ(comb.circuit->flops().size(), 0u);
  EXPECT_GT(piped.circuit->flops().size(), 400u);
  EXPECT_LT(piped.circuit->flops().size(), 1200u);
  EXPECT_GT(comb.circuit->size(), 15000u);
  EXPECT_LT(piped.circuit->size(), 40000u);
}

}  // namespace
}  // namespace mfm::mf
