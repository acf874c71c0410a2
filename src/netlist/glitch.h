// Static glitch (hazard) analysis over a Circuit, and its measured
// counterpart.
//
// The static side propagates arrival *windows* and per-net transition
// bounds through the CompiledCircuit levels.  A net whose fan-in paths
// settle at different times can emit intermediate values until the last
// path arrives; classic transition-density arguments bound the number of
// transitions per cycle by both (a) the sum of the fan-in transition
// bounds (every output transition is caused by an input transition) and
// (b) the arrival-window width divided by the gate's inertial delay plus
// one (a gate cannot emit pulses shorter than its own delay -- the same
// inertial filter EventSim implements).  Everything beyond the single
// functional transition is a potential glitch; weighting that excess by
// the net's toggle energy (driver internal energy + fan-out load, the
// PowerModel pricing) yields a per-net static glitch score in fJ/cycle
// that needs no simulation.
//
// The measured side drives EventSim with random vectors under the same
// control pins and splits its per-net toggles into functional transitions
// (settled-value changes) and glitches.  cross_validate_glitch compares
// the two rankings (top-K overlap and Spearman rank correlation), which
// is the CI gate keeping the estimator honest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/circuit.h"
#include "netlist/compiled.h"
#include "netlist/sim_event.h"
#include "netlist/techlib.h"
#include "netlist/ternary.h"

namespace mfm::netlist {

struct GlitchOptions {
  /// Control-net constraints (e.g. "frmt = fp32x2").  Nets the pins make
  /// statically constant cannot toggle and score zero, so the static
  /// scores are mode-aware like every other analysis in the stack.
  /// Each must name a primary input (check_pins).
  std::vector<TernaryPin> pins;
  /// Length of the ranked hot-net list.
  int max_hot = 20;
};

/// One entry of the ranked hot-net list.
struct GlitchHotNet {
  NetId net = kNoNet;
  double score = 0.0;      ///< bounded extra transitions per cycle
  double energy_fj = 0.0;  ///< score x toggle energy of the net
  double window_ps = 0.0;  ///< arrival-window width at the net
  std::string module;      ///< truncated module path (truncate_module)
};

/// Static glitch aggregate of one module label.
struct GlitchModule {
  std::string path;
  double score = 0.0;
  double energy_fj = 0.0;
  std::size_t nets = 0;  ///< nets with score > 0
};

struct GlitchReport {
  std::size_t nets = 0;          ///< combinational gates analyzed
  std::size_t glitchy_nets = 0;  ///< nets with score > 0
  double total_score = 0.0;      ///< sum of bounded extra transitions
  double total_energy_fj = 0.0;  ///< estimated glitch energy per cycle
  double max_window_ps = 0.0;

  std::vector<double> score;      ///< per net, indexed by NetId
  std::vector<double> energy_fj;  ///< per net: score x toggle energy
  std::vector<double> window_ps;  ///< per net: arrival-window width

  std::vector<GlitchHotNet> hot;      ///< top max_hot nets by energy
  std::vector<GlitchModule> modules;  ///< aggregates, by energy desc
};

/// Runs the static window/bound propagation over a shared compilation.
/// Throws std::invalid_argument when a pin does not name a primary input.
GlitchReport analyze_glitch(const CompiledCircuit& cc, const TechLib& lib,
                            const GlitchOptions& options = {});

/// Convenience: compiles @p c privately, then analyzes.
GlitchReport analyze_glitch(const Circuit& c, const TechLib& lib,
                            const GlitchOptions& options = {});

/// Static glitch-energy estimate alone [fJ/cycle] -- the cheap scalar the
/// optimizer reports as a before/after delta.
double static_glitch_energy_fj(const Circuit& c, const TechLib& lib,
                               const std::vector<TernaryPin>& pins = {});

/// Human-readable multi-line report.
std::string glitch_report_text(const GlitchReport& report,
                               const std::string& title = "");

/// Machine-readable report (schema documented in DESIGN.md S16).
std::string glitch_report_json(const GlitchReport& report,
                               const std::string& title = "");

/// Measured counterpart: EventSim activity under random vectors with the
/// control pins held, split into functional and glitch transitions.
struct MeasuredGlitch {
  ActivityCounts counts;                 ///< per-net split included
  std::vector<double> glitch_energy_fj;  ///< per net: glitches x energy
  std::uint64_t functional = 0;          ///< settled-value transitions
  std::uint64_t glitch = 0;              ///< toggles - functional
  double glitch_energy_total_fj = 0.0;
  std::uint64_t cycles = 0;
};

/// Runs @p cycles random vectors (free primary inputs driven from a
/// deterministic @p seed stream, pinned nets held at their pin value)
/// and returns the per-net measured glitch split.  Throws
/// std::invalid_argument if a pin names a net that is not a primary
/// input (only inputs can be held from outside).
MeasuredGlitch measure_glitch(const CompiledCircuit& cc, const TechLib& lib,
                              const std::vector<TernaryPin>& pins, int cycles,
                              std::uint64_t seed);

/// Static-vs-measured ranking comparison: the CI cross-validation gate.
struct GlitchCrossCheck {
  int k = 0;            ///< effective K (min of k and both nonzero pools)
  int overlap = 0;      ///< |topK(static) intersect topK(measured)|
  double overlap_frac = 0.0;  ///< overlap / k (1.0 when k == 0)
  double rank_corr = 0.0;     ///< Spearman rho over the union universe
  std::size_t compared = 0;   ///< nets in the correlation universe
};

/// Compares the static energy ranking against the measured glitch-energy
/// ranking: top-@p k set overlap plus Spearman rank correlation (average
/// ranks for ties) over the union of nets either side scores nonzero.
GlitchCrossCheck cross_validate_glitch(const GlitchReport& stat,
                                       const MeasuredGlitch& meas, int k = 20);

}  // namespace mfm::netlist
