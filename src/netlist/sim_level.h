// Zero-delay levelized simulator.
//
// Evaluates the whole circuit in construction order (which is topological),
// treating DFF outputs as state sourced from the previous clock edge.  Used
// for functional verification; see EventSim for the timing/power simulator
// and PackSim for the 64-way bit-parallel variant.  Flop ordinals come from
// the shared CompiledCircuit -- the simulator builds no structure tables of
// its own.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/u128.h"
#include "netlist/circuit.h"
#include "netlist/compiled.h"

namespace mfm::netlist {

/// Two-valued zero-delay simulator over a frozen Circuit.
class LevelSim {
 public:
  /// Simulates over a shared compilation (@p cc must outlive the sim).
  explicit LevelSim(const CompiledCircuit& cc);
  /// Convenience: compiles @p c privately.
  explicit LevelSim(const Circuit& c);

  /// Sets the value of a primary-input net (does not re-evaluate).
  /// Throws std::invalid_argument when the net is not a primary input.
  void set(NetId input_net, bool v);
  /// Sets an input bus (LSB first) from the low bits of @p value.
  /// Throws std::invalid_argument when it is wider than 128 bits.
  void set_bus(const Bus& bus, u128 value);
  /// Sets a named input port.
  void set_port(const std::string& name, u128 value);

  /// Evaluates all combinational gates; DFFs output their current state.
  void eval();

  /// Clock edge: captures every DFF's D input into its state.
  void clock();

  /// Convenience: eval(), then clock().
  void step() {
    eval();
    clock();
  }

  bool value(NetId n) const { return values_[n] != 0; }
  /// Reads up to 128 bits of a bus (LSB first).  Throws
  /// std::invalid_argument on a bus wider than 128 bits.
  u128 read_bus(const Bus& bus) const;
  u128 read_port(const std::string& name) const;

 private:
  std::unique_ptr<const CompiledCircuit> owned_;  // Circuit ctor only
  const CompiledCircuit* cc_;
  std::vector<std::uint8_t> values_;  // current net values
  std::vector<std::uint8_t> state_;   // DFF states, indexed by flop ordinal
};

}  // namespace mfm::netlist
