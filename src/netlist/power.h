// Activity-based power model.
//
// Dynamic power is computed from per-net transition counts recorded by the
// event-driven simulator:  P_dyn = sum_nets  N_toggles * E_toggle / T_sim,
// where E_toggle includes the driving cell's internal energy and the energy
// to swing the net load (fan-out pin caps + a wire estimate).  Clock-tree
// power is charged per flop per cycle, leakage proportionally to area.
// This mirrors what a gate-level SAIF/VCD power flow (as used in the paper)
// computes, with an abstract library in place of the 45 nm cells.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "netlist/circuit.h"
#include "netlist/sim_event.h"
#include "netlist/techlib.h"

namespace mfm::netlist {

/// Power figures for one measurement [mW].
struct PowerReport {
  double dynamic_mw = 0.0;   ///< combinational + register data switching
  /// Glitch component of dynamic_mw: energy of transitions beyond the
  /// settled-value change of each net per cycle.  Only filled when the
  /// activity counts carry the functional/glitch split (EventSim);
  /// otherwise stays 0 with has_glitch_split = false.
  double glitch_mw = 0.0;
  bool has_glitch_split = false;
  double clock_mw = 0.0;     ///< clock tree / register clock pins
  double leakage_mw = 0.0;   ///< area-proportional static power
  double total_mw() const { return dynamic_mw + clock_mw + leakage_mw; }
  double freq_mhz = 0.0;
  std::uint64_t cycles = 0;
  /// Dynamic power by module label (truncate_module).
  std::map<std::string, double> by_module_mw;
};

/// Computes power from a simulated activity profile.
class PowerModel {
 public:
  PowerModel(const Circuit& c, const TechLib& lib);

  /// Energy per transition of net @p n [fJ] (precomputed from the library).
  double toggle_energy_fj(NetId n) const { return net_energy_fj_[n]; }

  /// Total cell area [NAND2 equivalents].
  double area_nand2() const { return area_nand2_; }
  /// Total cell area [um^2].
  double area_um2() const;

  /// Builds a report from the simulator's accumulated transition counts,
  /// assuming a clock frequency of @p freq_mhz.
  PowerReport report(const EventSim& sim, double freq_mhz) const;

  /// Same, from detached (possibly merged-across-shards) activity
  /// counters.  Because the merged counts are integers and the energy sum
  /// always runs in net order, the report is bit-identical however the
  /// counts were produced.
  PowerReport report(const ActivityCounts& counts, double freq_mhz) const;

 private:
  const Circuit& c_;
  const TechLib& lib_;
  std::vector<double> net_energy_fj_;
  double area_nand2_ = 0.0;
};

}  // namespace mfm::netlist
