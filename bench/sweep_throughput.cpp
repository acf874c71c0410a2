// Sweep throughput: the signature-based equivalence sweeper over real units.
//
// Runs the full sweep pipeline (netlist/sweep.h: strash seed -> ternary
// constant pre-merge -> signature refinement -> exact confirmation ->
// merge_rewrite -> re-verification) over the radix-16 64-bit multiplier
// and the multi-format unit (combinational build, fp32x1 pins -- the
// mode-specialization headline case), and reports wall time, nets/s
// through the pipeline, and the gates/area each sweep removes.  The
// sweep itself is the measured unit of work: the merged netlist's
// equivalence re-verification is included in the timing because no
// caller should ever run one without the other.
//
// Signature rounds: MFM_BENCH_VECTORS / 64 (default 8 rounds).

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/env.h"
#include "netlist/sweep.h"
#include "roster/roster.h"

using namespace mfm;
using netlist::Circuit;
using netlist::SweepOptions;
using netlist::SweepResult;
using netlist::TernaryPin;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  bench::header("sweep_throughput: signature-based equivalence sweeping",
                "methodology bench (netlist sweeper, netlist/sweep.h)");

  const int vectors = common::env_positive_int("MFM_BENCH_VECTORS", 512);
  const int rounds = vectors / 64 > 0 ? vectors / 64 : 1;

  struct Case {
    std::string name;
    const Circuit* circuit;
    std::vector<TernaryPin> pins;
  };

  // Units and the fp32x1 pin set come from the shared roster catalog --
  // the same declaration mfm_sweep runs, served by the compile cache.
  roster::UnitCache cache;
  const roster::BuildMode mode = roster::BuildMode::kCombinational;
  const roster::BuiltUnit& r16 =
      cache.unit(roster::spec_index("radix16-64"), mode);
  const roster::BuiltUnit& mfu = cache.unit(roster::spec_index("mf"), mode);
  const roster::PinVariant& fp32x1 = roster::find_variant(mfu, "fp32x1");

  const Case cases[] = {
      {"radix16-64", r16.circuit.get(), {}},
      {"mf/fp32x1", mfu.circuit.get(), fp32x1.pins},
  };

  bench::Table t;
  t.row({"unit", "nets", "time [s]", "nets/s", "gates removed",
         "area removed [NAND2]", "verified"});
  for (const Case& cs : cases) {
    SweepOptions opt;
    opt.pins = cs.pins;
    opt.signature_rounds = rounds;
    const auto t0 = std::chrono::steady_clock::now();
    const SweepResult res = netlist::sweep_circuit(*cs.circuit, opt);
    const double dt = seconds_since(t0);
    t.row({cs.name, std::to_string(cs.circuit->size()),
           bench::fmt("%.2f", dt),
           bench::fmt("%.0f", static_cast<double>(cs.circuit->size()) / dt),
           std::to_string(res.report.gates_removed()),
           bench::fmt("%.1f", res.report.area_removed_nand2()),
           res.report.verified ? "yes" : "NO"});
  }
  t.print();
  std::printf("\nsignature rounds: %d (64 vectors each)\n", rounds);
  return 0;
}
