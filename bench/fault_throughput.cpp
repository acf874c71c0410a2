// Fault-injection throughput: lane-masked campaign vs copy-circuit.
//
// The seed repo injected stuck-at faults by rebuilding the whole circuit
// per fault and simulating one scalar vector at a time, which is why its
// test could only afford a few dozen sampled victims.  The campaign in
// netlist/fault.h instead records the fault-free machine once per
// 64-vector block and evaluates 63 faults per group (lane 0 = fault-free
// reference) over their fanout cone only, on one shared compilation.
// This bench runs both injectors over the identical fault list and
// vector set on the 8x8 multiplier -- early exit and undetected-fault
// classification disabled so both sides do the full nominal
// fault x vector work -- and reports faults*vectors/s each way plus the
// speedup (about 235x at 256 vectors in a Release build on a 4-vCPU
// x86-64 VM).  It exits 1 when any per-site verdict differs between the
// two injectors, so a CI smoke run of it is a correctness check too.
//
// Vector count: MFM_BENCH_VECTORS (default 256).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "common/env.h"
#include "netlist/compiled.h"
#include "netlist/fault.h"
#include "netlist/sim_level.h"
#include "roster/roster.h"

using namespace mfm;
using netlist::CompiledCircuit;
using netlist::FaultSite;
using netlist::FaultVectors;
using netlist::LevelSim;
using netlist::NetId;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  bench::header("fault_throughput: lane-masked campaign vs copy-circuit",
                "methodology bench (fault-injection engine, netlist/fault.h)");

  const int vectors = common::env_positive_int("MFM_BENCH_VECTORS", 256);

  // The unit and its shared compilation come from the roster cache --
  // the same mult8 declaration the mfm_faults CI gate runs.
  roster::UnitCache cache;
  const std::size_t mult8 = roster::spec_index("mult8");
  const netlist::Circuit& c =
      *cache.unit(mult8, roster::BuildMode::kPipelined).circuit;
  const CompiledCircuit& cc =
      cache.compiled(mult8, roster::BuildMode::kPipelined);

  const std::vector<FaultSite> sites = netlist::enumerate_stuck_faults(c);
  const FaultVectors fv(c, static_cast<std::size_t>(vectors), /*seed=*/0xFA);
  const std::uint64_t budget =
      static_cast<std::uint64_t>(sites.size()) * fv.count();

  std::printf("unit: 8x8 radix-16 multiplier (%zu gates, %zu fault sites, "
              "%zu vectors/fault)\n\n",
              c.size(), sites.size(), fv.count());

  // Output nets: the clone preserves gate ids and copies no ports, so the
  // source circuit's port buses index both machines.
  std::vector<NetId> outs;
  for (const auto& [name, bus] : c.out_ports()) {
    (void)name;
    outs.insert(outs.end(), bus.begin(), bus.end());
  }

  // --- lane-masked campaign, full nominal work (no early exit) ----------
  netlist::FaultCampaignOptions opt;
  opt.classify_undetected = false;
  opt.early_exit = false;
  auto t0 = std::chrono::steady_clock::now();
  const netlist::FaultCampaignReport rep =
      run_fault_campaign(cc, sites, fv, opt);
  const double t_pack = seconds_since(t0);

  // --- copy-circuit reference: rebuild + recompile + scalar sim per fault
  std::vector<std::uint8_t> slow_detected(sites.size(), 0);
  t0 = std::chrono::steady_clock::now();
  {
    // Fault-free reference responses, once.
    LevelSim ref(cc);
    std::vector<std::vector<bool>> golden(fv.count());
    for (std::size_t v = 0; v < fv.count(); ++v) {
      for (std::size_t i = 0; i < fv.inputs().size(); ++i)
        ref.set(fv.inputs()[i], fv.bit(v, i));
      ref.eval();
      golden[v].reserve(outs.size());
      for (const NetId o : outs) golden[v].push_back(ref.value(o));
    }
    for (std::size_t si = 0; si < sites.size(); ++si) {
      const FaultSite& s = sites[si];
      const auto faulty =
          netlist::clone_with_stuck(c, s.net, s.kind == netlist::FaultKind::kStuckAt1);
      LevelSim sim(*faulty);  // compiles the clone, as the seed test did
      bool caught = false;
      // Full vector budget per fault (no early exit), mirroring the
      // campaign's early_exit=false: both sides apply exactly
      // sites*vectors fault-vectors, so the rates divide cleanly.
      for (std::size_t v = 0; v < fv.count(); ++v) {
        for (std::size_t i = 0; i < fv.inputs().size(); ++i)
          sim.set(fv.inputs()[i], fv.bit(v, i));
        sim.eval();
        for (std::size_t oi = 0; oi < outs.size(); ++oi)
          if (sim.value(outs[oi]) != golden[v][oi]) {
            caught = true;
            break;
          }
      }
      slow_detected[si] = caught ? 1 : 0;
    }
  }
  const double t_copy = seconds_since(t0);

  // The two injectors must agree on every site, not just on the count.
  std::size_t mismatches = 0;
  for (std::size_t si = 0; si < sites.size(); ++si) {
    if ((rep.site_detected[si] != 0) == (slow_detected[si] != 0)) continue;
    if (++mismatches > 8) continue;
    const std::string_view kind = netlist::fault_kind_name(sites[si].kind);
    std::printf("MISMATCH: net %u %.*s: campaign %s, copy-circuit %s\n",
                sites[si].net, static_cast<int>(kind.size()), kind.data(),
                rep.site_detected[si] ? "detected" : "undetected",
                slow_detected[si] ? "detected" : "undetected");
  }

  bench::Table t;
  t.row({"injector", "fault-vectors", "time [s]", "Mfv/s"});
  t.row({"lane-masked campaign", std::to_string(rep.fault_vectors),
         bench::fmt("%.3f", t_pack),
         bench::fmt("%.2f", 1e-6 * static_cast<double>(rep.fault_vectors) / t_pack)});
  t.row({"copy-circuit (seed)", std::to_string(budget),
         bench::fmt("%.3f", t_copy),
         bench::fmt("%.2f", 1e-6 * static_cast<double>(budget) / t_copy)});
  t.print();

  const double pack_rate = static_cast<double>(rep.fault_vectors) / t_pack;
  const double copy_rate = static_cast<double>(budget) / t_copy;
  std::printf("\nspeedup (faults*vectors/s): %.1fx  (detected %zu/%zu)\n",
              pack_rate / copy_rate, rep.detected, sites.size());
  if (mismatches > 0) {
    std::printf("FAIL: %zu of %zu per-site verdicts differ between the "
                "injectors\n",
                mismatches, sites.size());
    return 1;
  }
  std::printf("per-site verdicts identical on all %zu sites\n", sites.size());
  return 0;
}
