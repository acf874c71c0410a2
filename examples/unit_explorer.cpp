// Example: unit explorer -- a small CLI over the whole library.
//
//   unit_explorer                 summary of every unit
//   unit_explorer mf              deep report on the multi-format unit
//   unit_explorer r4|r8|r16       the plain multipliers
//   unit_explorer fp16|fp32|fp64  fixed-format FP multipliers
//   unit_explorer fpadd32         the binary32 adder
//   unit_explorer reduce          the Sec. IV reduction unit
//   unit_explorer wave <file.vcd> dump a short multi-format waveform
//   unit_explorer verilog <file.v> export the MFmult as structural Verilog
//
// Shows what a downstream user gets from one build call: structure,
// verification, timing, area and a quick power estimate.
#include <cstdio>
#include <fstream>
#include <cstring>
#include <random>
#include <string>

#include "mfm.h"
#include "mult/fp_adder.h"
#include "mult/fp_multiplier.h"
#include "netlist/lint.h"
#include "netlist/vcd.h"

using namespace mfm;

namespace {

void report(const char* name, const netlist::Circuit& c,
            double power_mw = -1.0) {
  const auto& lib = netlist::TechLib::lp45();
  const auto lint = netlist::lint_circuit(c);
  const auto& st = lint.structure;
  netlist::Sta sta(c, lib);
  netlist::PowerModel pm(c, lib);
  std::printf("%-24s %7zu gates %5zu flops  depth %3d  %7.0f NAND2  "
              "%6.0f ps (%4.1f FO4)",
              name, st.combinational, st.flops, st.max_logic_depth,
              pm.area_nand2(), sta.max_delay_ps(), sta.max_delay_fo4());
  if (power_mw >= 0) std::printf("  %5.2f mW@100", power_mw);
  if (!lint.clean())
    std::printf("  [STRUCTURE BAD: %zu errors]\n", lint.errors);
  else
    std::printf("  [lint clean; %zu dup, %zu unobservable]\n",
                lint.duplicate_gates, lint.unobservable_gates);
}

double quick_power(const netlist::Circuit& c, const netlist::Bus& a,
                   const netlist::Bus& b) {
  const auto& lib = netlist::TechLib::lp45();
  netlist::EventSim sim(c, lib);
  netlist::PowerModel pm(c, lib);
  std::mt19937_64 rng(5);
  for (int i = 0; i < 60; ++i) {
    sim.set_bus(a, (static_cast<u128>(rng()) << 64) | rng());
    sim.set_bus(b, (static_cast<u128>(rng()) << 64) | rng());
    sim.cycle();
  }
  return pm.report(sim, 100.0).total_mw();
}

void deep_report(const char* name, const netlist::Circuit& c) {
  const auto& lib = netlist::TechLib::lp45();
  std::printf("== %s ==\n", name);
  netlist::Sta sta(c, lib);
  std::printf("critical path (%.0f ps):\n", sta.max_delay_ps());
  for (const auto& s : sta.critical_path().segments)
    std::printf("  %-20s %6.0f ps (%d cells)\n", s.module.c_str(),
                s.delay_ps, s.gates);
  std::printf("area by module:\n");
  for (const auto& [m, ma] :
       netlist::area_by_module(c, lib))
    std::printf("  %-20s %8.0f NAND2  %6zu gates\n", m.c_str(),
                ma.area_nand2, ma.gates);
  std::printf("cell histogram:\n%s",
              netlist::format_kind_histogram(c).c_str());
}

int dump_wave(const std::string& path) {
  const mf::MfUnit u = mf::build_mf_unit();
  netlist::LevelSim sim(*u.circuit);
  netlist::VcdWriter vcd(path);
  vcd.add_bus("a", u.a);
  vcd.add_bus("b", u.b);
  vcd.add_bus("frmt", u.frmt);
  vcd.add_bus("ph", u.ph);
  vcd.add_bus("pl", u.pl);
  std::mt19937_64 rng(9);
  for (int t = 0; t < 24; ++t) {
    const int f = t % 3;
    std::uint64_t a = rng(), b = rng();
    if (f == 1) {
      a = (a & ~(0x7FFull << 52)) | (1000ull << 52);
      b = (b & ~(0x7FFull << 52)) | (1010ull << 52);
    }
    sim.set_port("a", a);
    sim.set_port("b", b);
    sim.set_port("frmt", static_cast<std::uint64_t>(f));
    sim.eval();
    vcd.sample(sim, static_cast<std::uint64_t>(t));
    sim.clock();
  }
  std::printf("wrote 24 cycles of the pipelined multi-format unit to %s\n",
              path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string what = argc > 1 ? argv[1] : "all";

  if (what == "wave")
    return dump_wave(argc > 2 ? argv[2] : "mfm_wave.vcd");

  if (what == "verilog") {
    const std::string path = argc > 2 ? argv[2] : "mfmult.v";
    const mf::MfUnit u = mf::build_mf_unit();
    std::ofstream out(path);
    netlist::write_verilog(out, *u.circuit, "mfmult");
    std::printf("wrote %zu-gate / %zu-flop structural Verilog to %s\n",
                u.circuit->size(), u.circuit->flops().size(), path.c_str());
    return 0;
  }

  auto want = [&](const char* n) { return what == "all" || what == n; };

  if (want("r4")) {
    const auto u = mult::build_radix4_64();
    report("radix-4 64x64", *u.circuit, quick_power(*u.circuit, u.x, u.y));
    if (what == "r4") deep_report("radix-4 64x64", *u.circuit);
  }
  if (want("r8")) {
    const auto u = mult::build_radix8_64();
    report("radix-8 64x64", *u.circuit, quick_power(*u.circuit, u.x, u.y));
    if (what == "r8") deep_report("radix-8 64x64", *u.circuit);
  }
  if (want("r16")) {
    const auto u = mult::build_radix16_64();
    report("radix-16 64x64", *u.circuit, quick_power(*u.circuit, u.x, u.y));
    if (what == "r16") deep_report("radix-16 64x64", *u.circuit);
  }
  if (want("mf")) {
    const auto u = mf::build_mf_unit();
    report("MFmult (Fig. 5)", *u.circuit);
    if (what == "mf") deep_report("MFmult (Fig. 5)", *u.circuit);
  }
  for (const auto& [key, fmt] :
       {std::pair{"fp16", &fp::kBinary16}, std::pair{"fp32", &fp::kBinary32},
        std::pair{"fp64", &fp::kBinary64}}) {
    if (!want(key)) continue;
    mult::FpMultiplierOptions o;
    o.format = *fmt;
    const auto u = mult::build_fp_multiplier(o);
    report((std::string("FP mult ") + fmt->name.data()).c_str(), *u.circuit,
           quick_power(*u.circuit, u.a, u.b));
    if (what == key) deep_report(key, *u.circuit);
  }
  if (want("fpadd32")) {
    mult::FpAdderOptions o;
    const auto u = mult::build_fp_adder(o);
    report("FP adder binary32", *u.circuit,
           quick_power(*u.circuit, u.a, u.b));
    if (what == "fpadd32") deep_report("FP adder binary32", *u.circuit);
  }
  if (want("reduce")) {
    const auto u = mf::build_reduce_unit();
    report("reduce64to32 (Fig. 6)", *u.circuit);
    if (what == "reduce") deep_report("reduce64to32", *u.circuit);
  }
  return 0;
}
