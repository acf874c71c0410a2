#include "power/measure.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "common/env.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "netlist/compiled.h"
#include "netlist/sim_event.h"

namespace mfm::power {

using common::env_positive_int;
using common::splitmix64;

namespace {

/// Seed of shard @p s: a pure function of (seed, s).  splitmix64
/// decorrelates the mt19937_64 streams of adjacent shards.
std::uint64_t shard_seed(std::uint64_t seed, int s) {
  return splitmix64(seed + static_cast<std::uint64_t>(s) *
                               0x9E3779B97F4A7C15ull);
}

int shard_count(int vectors) {
  return (vectors + kShardVectors - 1) / kShardVectors;
}

/// Runs @p vectors of work split into fixed-size shards across
/// @p threads workers.  The structural compilation @p cc is built ONCE
/// per measurement by the caller and shared read-only by every shard's
/// private EventSim (it is immutable, so no synchronization is needed).
/// @p run_shard(sim, shard_index, shard_vectors) drives one shard's
/// simulator.  Shards merge in index order; since toggle counts are
/// integers the merge is order-insensitive anyway, and the single
/// report computed from the merged counts is bit-deterministic.
template <typename RunShard>
netlist::ActivityCounts run_sharded(const netlist::CompiledCircuit& cc,
                                    int vectors, int threads,
                                    const RunShard& run_shard) {
  const auto& lib = netlist::TechLib::lp45();
  const int shards = shard_count(vectors);
  std::vector<netlist::ActivityCounts> per_shard(
      static_cast<std::size_t>(std::max(shards, 1)));
  common::parallel_for(shards, threads, [&](int s) {
    netlist::EventSim sim(cc, lib);
    const int quota =
        std::min(kShardVectors, vectors - s * kShardVectors);
    run_shard(sim, s, quota);
    sim.merge_counts(per_shard[static_cast<std::size_t>(s)]);
  });
  netlist::ActivityCounts merged;
  for (const auto& p : per_shard) merged.merge(p);
  return merged;
}

}  // namespace

int bench_vectors(int fallback) {
  return env_positive_int("MFM_BENCH_VECTORS", fallback);
}

int bench_threads(int fallback) {
  if (fallback <= 0) fallback = common::hardware_threads();
  return env_positive_int("MFM_BENCH_THREADS", fallback);
}

FormatPower measure_mf_parallel(const mf::MfUnit& unit, Workload workload,
                                int vectors, double fmax_mhz,
                                int ops_per_cycle, int threads) {
  if (threads <= 0) threads = bench_threads();
  const auto tc = std::chrono::steady_clock::now();
  const netlist::CompiledCircuit cc(*unit.circuit);
  const auto t0 = std::chrono::steady_clock::now();
  const netlist::ActivityCounts merged = run_sharded(
      cc, vectors, threads,
      [&](netlist::EventSim& sim, int s, int quota) {
        OperandGen gen(workload, shard_seed(0x5EED, s));
        for (int i = 0; i < quota; ++i) {
          const OpPair op = gen.next();
          sim.set_bus(unit.a, op.a);
          sim.set_bus(unit.b, op.b);
          sim.set_bus(unit.frmt, mf::frmt_bits(op.format));
          sim.cycle();
        }
      });
  const auto t1 = std::chrono::steady_clock::now();

  netlist::PowerModel pm(*unit.circuit, netlist::TechLib::lp45());
  FormatPower out;
  out.at_100mhz = pm.report(merged, 100.0);
  out.mw_100 = out.at_100mhz.total_mw();
  out.fmax_mhz = fmax_mhz;
  // Dynamic + clock power scale with frequency; leakage does not.
  out.mw_fmax = (out.at_100mhz.dynamic_mw + out.at_100mhz.clock_mw) *
                    (fmax_mhz / 100.0) +
                out.at_100mhz.leakage_mw;
  out.gflops = ops_per_cycle * fmax_mhz / 1000.0;
  out.gflops_per_w =
      out.mw_fmax > 0.0 ? out.gflops / (out.mw_fmax / 1000.0) : 0.0;
  out.toggles = merged.total_toggles();
  out.functional = merged.total_functional();
  out.glitch = merged.total_glitch();
  out.events = merged.events;
  out.compile_s = std::chrono::duration<double>(t0 - tc).count();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

FormatPower measure_mf(const mf::MfUnit& unit, Workload workload,
                       int vectors, double fmax_mhz, int ops_per_cycle) {
  return measure_mf_parallel(unit, workload, vectors, fmax_mhz,
                             ops_per_cycle, /*threads=*/1);
}

MultiplierPower measure_multiplier_parallel(const mult::MultiplierUnit& unit,
                                            int vectors, double freq_mhz,
                                            std::uint64_t seed, int threads) {
  if (threads <= 0) threads = bench_threads();
  const auto tc = std::chrono::steady_clock::now();
  const netlist::CompiledCircuit cc(*unit.circuit);
  const auto t0 = std::chrono::steady_clock::now();
  const netlist::ActivityCounts merged = run_sharded(
      cc, vectors, threads,
      [&](netlist::EventSim& sim, int s, int quota) {
        std::mt19937_64 rng(shard_seed(seed, s));
        for (int i = 0; i < quota; ++i) {
          sim.set_bus(unit.x, rng());
          sim.set_bus(unit.y, rng());
          sim.cycle();
        }
      });
  const auto t1 = std::chrono::steady_clock::now();

  netlist::PowerModel pm(*unit.circuit, netlist::TechLib::lp45());
  MultiplierPower out;
  out.report = pm.report(merged, freq_mhz);
  out.toggles = merged.total_toggles();
  out.functional = merged.total_functional();
  out.glitch = merged.total_glitch();
  out.events = merged.events;
  out.compile_s = std::chrono::duration<double>(t0 - tc).count();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

netlist::PowerReport measure_multiplier(const mult::MultiplierUnit& unit,
                                        int vectors, double freq_mhz,
                                        std::uint64_t seed) {
  return measure_multiplier_parallel(unit, vectors, freq_mhz, seed,
                                     /*threads=*/1)
      .report;
}

}  // namespace mfm::power
