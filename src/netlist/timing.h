// Static timing analysis over a Circuit.
//
// Fixed per-cell delays (TechLib), topological longest-path computation.
// Sources are primary inputs (t = 0) and DFF outputs (t = clk-to-q);
// endpoints are primary outputs and DFF D pins (+ setup).  For a pipelined
// circuit the maximum endpoint arrival therefore equals the minimum clock
// period.
//
// Besides the classic max arrival, Sta also propagates the *min* arrival
// (shortest path under the same delay model), so every net carries an
// arrival window [arrival_min, arrival].  The window width bounds how long
// a net can keep switching after its earliest possible transition -- the
// raw material of the static glitch analysis in netlist/glitch.h.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "netlist/circuit.h"
#include "netlist/compiled.h"
#include "netlist/techlib.h"

namespace mfm::netlist {

/// One section of a critical path, grouped by module label.
struct PathSegment {
  std::string module;  ///< module path (truncate_module)
  double delay_ps = 0.0;
  int gates = 0;
};

/// Result of tracing the worst path.
struct CriticalPath {
  double delay_ps = 0.0;               ///< endpoint arrival incl. setup
  std::vector<NetId> nets;             ///< source..endpoint net sequence
  std::vector<PathSegment> segments;   ///< per-module breakdown, in order
};

/// Static timing analyzer.
class Sta {
 public:
  /// Analyzes over a shared compilation (@p cc must outlive the Sta).
  Sta(const CompiledCircuit& cc, const TechLib& lib);
  /// Convenience: compiles @p c privately.
  Sta(const Circuit& c, const TechLib& lib);

  /// Latest arrival time of a net [ps].  Throws std::invalid_argument on
  /// an out-of-range NetId (always on: an assert would vanish in Release
  /// builds, the bug class fixed across the simulators in earlier PRs).
  double arrival(NetId n) const {
    check_net(n);
    return arrival_[n];
  }

  /// Earliest arrival time of a net [ps] (shortest path).
  double arrival_min(NetId n) const {
    check_net(n);
    return arrival_min_[n];
  }

  /// Arrival-window width [ps]: arrival(n) - arrival_min(n).  Zero means
  /// every path to the net has equal delay, so the net settles in one
  /// transition; a wide window is the static precondition for glitching.
  double window_ps(NetId n) const {
    check_net(n);
    return arrival_[n] - arrival_min_[n];
  }

  /// Worst endpoint arrival over primary outputs and DFF D pins (+setup).
  /// Equals the minimum clock period for sequential circuits and the
  /// input-to-output latency for combinational ones.
  double max_delay_ps() const { return max_delay_ps_; }

  /// max_delay_ps() expressed in FO4 units of the library.
  double max_delay_fo4() const { return max_delay_ps_ / lib_.fo4_ps(); }

  /// Traces the critical path and groups it into per-module segments
  /// (truncate_module labels: "top/ppgen/row3" groups as "top/ppgen").
  CriticalPath critical_path() const;

  /// Arrival of the worst net belonging to module @p prefix (by path
  /// prefix match) -- useful to report when a block's outputs settle.
  double module_settle_ps(const std::string& prefix) const;

 private:
  void analyze();
  void check_net(NetId n) const;

  std::unique_ptr<const CompiledCircuit> owned_;  // Circuit ctor only
  const CompiledCircuit* cc_;
  const TechLib& lib_;
  std::vector<double> arrival_;
  std::vector<double> arrival_min_;
  double max_delay_ps_ = 0.0;
  NetId worst_endpoint_ = kNoNet;   // net feeding worst endpoint
};

}  // namespace mfm::netlist
