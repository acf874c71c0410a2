#include "netlist/power.h"

#include <stdexcept>

#include "netlist/report.h"

namespace mfm::netlist {

namespace {

// Wire load estimate per fan-out pin [fF]; a small adder on top of pin caps
// standing in for routing parasitics.
constexpr double kWireCapPerFanoutFf = 0.45;

}  // namespace

PowerModel::PowerModel(const Circuit& c, const TechLib& lib)
    : c_(c), lib_(lib), net_energy_fj_(c.size(), 0.0) {
  // Net load = sum of fan-in pin caps of driven gates + wire estimate.
  std::vector<double> load_ff(c.size(), 0.0);
  for (NetId g = 0; g < c.size(); ++g) {
    const Gate& gate = c.gate(g);
    const int nin = fanin_count(gate.kind);
    const double pin = lib.cell(gate.kind).input_cap_ff;
    for (int p = 0; p < nin; ++p)
      load_ff[gate.in[p]] += pin + kWireCapPerFanoutFf;
    area_nand2_ += lib.cell(gate.kind).area_nand2;
  }
  for (NetId n = 0; n < c.size(); ++n)
    net_energy_fj_[n] = lib.toggle_energy_fj(c.gate(n).kind, load_ff[n]);
}

double PowerModel::area_um2() const {
  return area_nand2_ * lib_.nand2_area_um2();
}

PowerReport PowerModel::report(const EventSim& sim, double freq_mhz) const {
  return report(sim.counts(), freq_mhz);
}

PowerReport PowerModel::report(const ActivityCounts& counts,
                               double freq_mhz) const {
  PowerReport r;
  r.freq_mhz = freq_mhz;
  r.cycles = counts.cycles;
  if (r.cycles == 0) return r;
  if (counts.toggles.size() != c_.size())
    throw std::invalid_argument(
        "PowerModel::report: activity counts are for a different circuit");

  const double period_ns = 1000.0 / freq_mhz;
  const double sim_time_ns = static_cast<double>(r.cycles) * period_ns;

  double total_fj = 0.0;
  double glitch_fj = 0.0;
  const auto& toggles = counts.toggles;
  r.has_glitch_split = counts.has_split();
  for (NetId n = 0; n < c_.size(); ++n) {
    if (toggles[n] == 0) continue;
    const double e = static_cast<double>(toggles[n]) * net_energy_fj_[n];
    total_fj += e;
    if (r.has_glitch_split)
      glitch_fj += static_cast<double>(toggles[n] - counts.functional[n]) *
                   net_energy_fj_[n];
    const std::string label =
        truncate_module(c_.module_path(c_.gate(n).module));
    // fJ over the whole sim -> mW:  fJ/ns = uW, /1000 = mW.
    r.by_module_mw[label] += e / sim_time_ns / 1000.0;
  }
  r.dynamic_mw = total_fj / sim_time_ns / 1000.0;
  r.glitch_mw = glitch_fj / sim_time_ns / 1000.0;

  // Clock tree: each flop's clock pin swings twice per cycle, plus the
  // flop's internal clock-node energy (burned even when D is stable).
  const double clk_pin_cap = lib_.cell(GateKind::Dff).input_cap_ff;
  const double e_clk_fj_per_flop_cycle =
      2.0 * 0.5 * clk_pin_cap * lib_.vdd() * lib_.vdd() +
      lib_.dff_clock_internal_fj();
  r.clock_mw = static_cast<double>(c_.flops().size()) *
               e_clk_fj_per_flop_cycle / period_ns / 1000.0;

  r.leakage_mw = area_nand2_ * lib_.leakage_nw_per_nand2() * 1e-6;
  return r;
}

}  // namespace mfm::netlist
