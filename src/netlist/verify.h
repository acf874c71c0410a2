// Structural verification of a Circuit: the invariants every generator
// must maintain.  Returns human-readable findings instead of aborting so
// tests can assert emptiness and tools can report.
#pragma once

#include <string>
#include <vector>

#include "netlist/circuit.h"

namespace mfm::netlist {

/// Structural statistics gathered during verification.
struct CircuitStats {
  std::size_t gates = 0;           ///< all gates incl. sources
  std::size_t combinational = 0;   ///< logic cells
  std::size_t flops = 0;
  std::size_t inputs = 0;
  std::size_t constants = 0;
  std::size_t dangling = 0;        ///< gates driving nothing & not ports
  int max_logic_depth = 0;         ///< gates on the longest topological path
};

/// Checks structural invariants (lint_circuit's structure rule, which
/// lists at most kMaxFindingsPerRule of them; this lists every one):
///  * every used fan-in slot references an earlier gate (topological order,
///    hence no combinational loops by construction);
///  * unused fan-in slots hold kNoNet;
///  * port nets are in range;
///  * flop/input bookkeeping matches the gate list.
/// Appends one message per violation; returns the statistics either way.
CircuitStats verify_circuit(const Circuit& c,
                            std::vector<std::string>* findings = nullptr);

}  // namespace mfm::netlist
