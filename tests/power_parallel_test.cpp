// Sharded measurement-engine tests: the determinism contract (merged
// toggle totals and every PowerReport field are bit-identical across
// thread counts and equal to the sequential path), the parallel_for
// utility, the env parsing fixes, and the always-on EventSim guards.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>

#include "common/parallel.h"
#include "mf/mf_unit.h"
#include "mult/multiplier.h"
#include "netlist/sim_event.h"
#include "power/measure.h"
#include "power/workloads.h"

namespace mfm::power {
namespace {

void expect_identical(const FormatPower& a, const FormatPower& b) {
  EXPECT_EQ(a.toggles, b.toggles);
  EXPECT_EQ(a.functional, b.functional);
  EXPECT_EQ(a.glitch, b.glitch);
  EXPECT_EQ(a.events, b.events);
  // Bit-exact double comparisons are intentional: the merged integer
  // counts are identical and the report sums energies in net order, so
  // every derived figure must match exactly, not just approximately.
  EXPECT_EQ(a.mw_100, b.mw_100);
  EXPECT_EQ(a.mw_fmax, b.mw_fmax);
  EXPECT_EQ(a.gflops, b.gflops);
  EXPECT_EQ(a.gflops_per_w, b.gflops_per_w);
  EXPECT_EQ(a.at_100mhz.dynamic_mw, b.at_100mhz.dynamic_mw);
  EXPECT_EQ(a.at_100mhz.glitch_mw, b.at_100mhz.glitch_mw);
  EXPECT_EQ(a.at_100mhz.clock_mw, b.at_100mhz.clock_mw);
  EXPECT_EQ(a.at_100mhz.leakage_mw, b.at_100mhz.leakage_mw);
  EXPECT_EQ(a.at_100mhz.cycles, b.at_100mhz.cycles);
  EXPECT_EQ(a.at_100mhz.by_module_mw, b.at_100mhz.by_module_mw);
}

TEST(MeasureParallel, BitIdenticalAcrossThreadCountsAllFormats) {
  const mf::MfUnit unit = mf::build_mf_unit();
  // 80 vectors -> 3 shards (32/32/16): exercises thread counts below,
  // equal to, and above the shard count.
  const int vectors = 80;
  const struct {
    Workload w;
    int ops;
  } cases[] = {{Workload::Uniform64, 1},
               {Workload::Fp64Random, 1},
               {Workload::Fp32DualRandom, 2},
               {Workload::Fp32SingleRandom, 1}};
  for (const auto& c : cases) {
    const FormatPower seq = measure_mf(unit, c.w, vectors, 880.0, c.ops);
    EXPECT_EQ(seq.at_100mhz.cycles, static_cast<std::uint64_t>(vectors));
    EXPECT_GT(seq.toggles, 0u);
    for (int threads : {1, 2, 4}) {
      const FormatPower par =
          measure_mf_parallel(unit, c.w, vectors, 880.0, c.ops, threads);
      SCOPED_TRACE(workload_name(c.w) + " threads=" +
                   std::to_string(threads));
      expect_identical(seq, par);
    }
  }
}

TEST(MeasureParallel, MultiplierBitIdenticalAcrossThreadCounts) {
  mult::MultiplierOptions o;
  o.n = 16;
  o.g = 2;
  const auto unit = mult::build_multiplier(o);
  const int vectors = 80;
  const MultiplierPower seq =
      measure_multiplier_parallel(unit, vectors, 100.0, 0x5EED, 1);
  EXPECT_EQ(seq.report.total_mw(),
            measure_multiplier(unit, vectors, 100.0).total_mw());
  for (int threads : {2, 4}) {
    const MultiplierPower par =
        measure_multiplier_parallel(unit, vectors, 100.0, 0x5EED, threads);
    EXPECT_EQ(seq.toggles, par.toggles);
    EXPECT_EQ(seq.events, par.events);
    EXPECT_EQ(seq.report.dynamic_mw, par.report.dynamic_mw);
    EXPECT_EQ(seq.report.clock_mw, par.report.clock_mw);
    EXPECT_EQ(seq.report.leakage_mw, par.report.leakage_mw);
    EXPECT_EQ(seq.report.cycles, par.report.cycles);
  }
}

// Pinned pre-refactor toggle totals.  These exact values were produced
// by the seed sharded engine (before CompiledCircuit) for the fixed
// (workload, vectors, seed) tuples below; the compiled engine must
// reproduce them bit-for-bit.  A change here means the event schedule
// -- and therefore every power figure in the paper tables -- moved.
// The functional/glitch split must partition each pinned total exactly:
// the split only classifies transitions, it never adds or drops any.
TEST(MeasureParallel, ToggleTotalsMatchPinnedBaseline) {
  const mf::MfUnit unit = mf::build_mf_unit();
  const FormatPower fp64 =
      measure_mf_parallel(unit, Workload::Fp64Random, 96, 880.0, 1, 1);
  EXPECT_EQ(fp64.toggles, 675452u);
  EXPECT_EQ(fp64.functional + fp64.glitch, 675452u);
  EXPECT_GT(fp64.functional, 0u);
  EXPECT_GT(fp64.glitch, 0u);
  const FormatPower fp32x2 =
      measure_mf_parallel(unit, Workload::Fp32DualRandom, 96, 1330.0, 2, 3);
  EXPECT_EQ(fp32x2.toggles, 498403u);
  EXPECT_EQ(fp32x2.functional + fp32x2.glitch, 498403u);

  mult::MultiplierOptions o;
  o.n = 16;
  o.g = 2;
  const auto mult_unit = mult::build_multiplier(o);
  const MultiplierPower mp =
      measure_multiplier_parallel(mult_unit, 96, 100.0, 0x5EED, 2);
  EXPECT_EQ(mp.toggles, 82681u);
  EXPECT_EQ(mp.functional + mp.glitch, 82681u);

  // The split itself is thread-count invariant, like every other figure.
  const MultiplierPower mp4 =
      measure_multiplier_parallel(mult_unit, 96, 100.0, 0x5EED, 4);
  EXPECT_EQ(mp4.functional, mp.functional);
  EXPECT_EQ(mp4.glitch, mp.glitch);

  // Compile time is reported separately from simulation wall-clock.
  EXPECT_GT(fp64.compile_s, 0.0);
  EXPECT_GT(fp64.wall_s, 0.0);
  EXPECT_GT(mp.compile_s, 0.0);
}

TEST(MeasureParallel, SeedReachesEveryShard) {
  // Changing the base seed must change the per-shard operand streams
  // (shard seeds are a function of the base seed, not just the index).
  mult::MultiplierOptions o;
  o.n = 16;
  o.g = 2;
  const auto unit = mult::build_multiplier(o);
  const MultiplierPower a =
      measure_multiplier_parallel(unit, 64, 100.0, /*seed=*/1, 2);
  const MultiplierPower b =
      measure_multiplier_parallel(unit, 64, 100.0, /*seed=*/2, 2);
  EXPECT_NE(a.toggles, b.toggles);  // seed reaches every shard
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 9}) {
    std::set<int> seen;
    std::mutex mu;
    std::atomic<int> calls{0};
    common::parallel_for(37, threads, [&](int i) {
      calls.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(i);
    });
    EXPECT_EQ(calls.load(), 37);
    EXPECT_EQ(seen.size(), 37u);
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), 36);
  }
  // Empty and single-element ranges.
  int hits = 0;
  common::parallel_for(0, 4, [&](int) { ++hits; });
  EXPECT_EQ(hits, 0);
  common::parallel_for(1, 4, [&](int) { ++hits; });
  EXPECT_EQ(hits, 1);
}

TEST(ParallelFor, PropagatesWorkerExceptions) {
  for (int threads : {1, 4}) {
    EXPECT_THROW(
        common::parallel_for(16, threads,
                             [&](int i) {
                               if (i == 7)
                                 throw std::runtime_error("boom");
                             }),
        std::runtime_error);
  }
}

TEST(ParallelFor, InlinePathReportsSkippedIndicesBeforeRethrow) {
  // threads=1 takes the sequential path: a throw at index i drains the
  // n-i-1 indices after it, and the count lands in skipped_out before
  // the exception reaches the caller.
  int skipped = -1;
  EXPECT_THROW(common::parallel_for(
                   16, 1,
                   [&](int i) {
                     if (i == 7) throw std::runtime_error("boom");
                   },
                   &skipped),
               std::runtime_error);
  EXPECT_EQ(skipped, 8);

  // Clean runs report zero through both channels.
  skipped = -1;
  EXPECT_EQ(common::parallel_for(16, 1, [](int) {}, &skipped), 0);
  EXPECT_EQ(skipped, 0);
  skipped = -1;
  EXPECT_EQ(common::parallel_for(0, 1, [](int) {}, &skipped), 0);
  EXPECT_EQ(skipped, 0);
}

TEST(ParallelFor, ThreadedPathDrainsAndAccountsForSkippedIndices) {
  // Threaded drain-on-error: the first exception is rethrown, the pool
  // joins cleanly, and attempted + skipped covers the full range.  The
  // exact skip count is scheduling-dependent, but every index either
  // entered fn or is counted as skipped -- none may vanish.
  for (int threads : {2, 4}) {
    std::atomic<int> attempted{0};
    int skipped = -1;
    EXPECT_THROW(common::parallel_for(
                     64, threads,
                     [&](int i) {
                       attempted.fetch_add(1);
                       if (i == 5) throw std::runtime_error("boom");
                     },
                     &skipped),
                 std::runtime_error);
    EXPECT_GE(skipped, 0);
    EXPECT_EQ(attempted.load() + skipped, 64);
  }

  // The FIRST exception wins even when several workers throw.
  int skipped = -1;
  try {
    common::parallel_for(
        64, 4,
        [&](int) { throw std::runtime_error("every index throws"); },
        &skipped);
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "every index throws");
  }
  EXPECT_GE(skipped, 0);
  EXPECT_LE(skipped, 63);

  // Clean threaded runs return 0 and write 0.
  skipped = -1;
  EXPECT_EQ(common::parallel_for(64, 4, [](int) {}, &skipped), 0);
  EXPECT_EQ(skipped, 0);
}

class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~EnvGuard() { unsetenv(name_); }

 private:
  const char* name_;
};

TEST(Measure, BenchVectorsRejectsMalformedValues) {
  {
    EnvGuard e("MFM_BENCH_VECTORS", "2k");  // atoi would yield 2
    EXPECT_EQ(bench_vectors(200), 200);
  }
  {
    EnvGuard e("MFM_BENCH_VECTORS", "-5");
    EXPECT_EQ(bench_vectors(200), 200);
  }
  {
    EnvGuard e("MFM_BENCH_VECTORS", "nope");
    EXPECT_EQ(bench_vectors(200), 200);
  }
  {
    EnvGuard e("MFM_BENCH_VECTORS", "99999999999999999999");
    EXPECT_EQ(bench_vectors(200), 200);
  }
  {
    EnvGuard e("MFM_BENCH_VECTORS", "2000");
    EXPECT_EQ(bench_vectors(200), 2000);
  }
}

TEST(Measure, BenchThreadsEnvOverride) {
  EXPECT_GE(bench_threads(), 1);  // default: hardware concurrency
  {
    EnvGuard e("MFM_BENCH_THREADS", "3");
    EXPECT_EQ(bench_threads(), 3);
  }
  {
    EnvGuard e("MFM_BENCH_THREADS", "zero");
    EXPECT_GE(bench_threads(), 1);
  }
}

TEST(EventSimGuards, SetOnNonInputThrowsEvenInRelease) {
  mult::MultiplierOptions o;
  o.n = 16;
  o.g = 2;
  const auto unit = mult::build_multiplier(o);
  netlist::EventSim sim(*unit.circuit, netlist::TechLib::lp45());
  // The product bus nets are gate outputs, not primary inputs.
  EXPECT_THROW(sim.set(unit.p.back(), true), std::invalid_argument);
  EXPECT_THROW(sim.set(static_cast<netlist::NetId>(unit.circuit->size()),
                       true),
               std::invalid_argument);
  // Valid input still works.
  EXPECT_NO_THROW(sim.set(unit.x.front(), true));
}

TEST(EventSimGuards, ReadBusWiderThan128Throws) {
  mult::MultiplierOptions o;
  o.n = 16;
  o.g = 2;
  const auto unit = mult::build_multiplier(o);
  netlist::EventSim sim(*unit.circuit, netlist::TechLib::lp45());
  netlist::Bus wide(129, unit.x.front());
  EXPECT_THROW(sim.read_bus(wide), std::invalid_argument);
  EXPECT_NO_THROW(sim.read_bus(unit.p));
}

TEST(EventSimGuards, SetBusWiderThan128Throws) {
  mult::MultiplierOptions o;
  o.n = 16;
  o.g = 2;
  const auto unit = mult::build_multiplier(o);
  netlist::EventSim sim(*unit.circuit, netlist::TechLib::lp45());
  // Bits from index 128 up have no source in a u128 value.
  netlist::Bus wide(129, unit.x.front());
  EXPECT_THROW(sim.set_bus(wide, 0), std::invalid_argument);
  EXPECT_NO_THROW(sim.set_bus(unit.x, 0xBEEF));
}

TEST(ActivityCounts, MergeIsAdditiveAndSizeChecked) {
  netlist::ActivityCounts a, b;
  a.toggles = {1, 2, 3};
  a.cycles = 10;
  a.events = 5;
  b.toggles = {10, 20, 30};
  b.cycles = 1;
  b.events = 2;
  a.merge(b);
  EXPECT_EQ(a.toggles, (std::vector<std::uint64_t>{11, 22, 33}));
  EXPECT_EQ(a.cycles, 11u);
  EXPECT_EQ(a.events, 7u);
  EXPECT_EQ(a.total_toggles(), 66u);

  netlist::ActivityCounts empty;
  empty.merge(b);  // merging into empty adopts the size
  EXPECT_EQ(empty.toggles, b.toggles);

  netlist::ActivityCounts wrong;
  wrong.toggles = {1, 2};
  EXPECT_THROW(wrong.merge(b), std::invalid_argument);
}

TEST(ActivityCounts, FunctionalSplitSurvivesMergeOnlyWhenBothSidesCarryIt) {
  netlist::ActivityCounts a, b;
  a.toggles = {4, 6};
  a.functional = {2, 2};
  b.toggles = {1, 1};
  b.functional = {1, 0};
  a.merge(b);
  ASSERT_TRUE(a.has_split());
  EXPECT_EQ(a.functional, (std::vector<std::uint64_t>{3, 2}));
  EXPECT_EQ(a.total_functional(), 5u);
  EXPECT_EQ(a.total_glitch(), 12u - 5u);

  // Merging a lumped-only contribution into split counts (or the reverse)
  // throws: a partial functional vector would misreport glitch energy.
  netlist::ActivityCounts lumped;
  lumped.toggles = {10, 10};
  EXPECT_THROW(a.merge(lumped), std::invalid_argument);
  EXPECT_THROW(lumped.merge(a), std::invalid_argument);
  EXPECT_EQ(a.functional, (std::vector<std::uint64_t>{3, 2}));

  // Merging split counts into a fresh accumulator adopts the split.
  netlist::ActivityCounts fresh;
  fresh.merge(b);
  ASSERT_TRUE(fresh.has_split());
  EXPECT_EQ(fresh.functional, b.functional);
}

}  // namespace
}  // namespace mfm::power
