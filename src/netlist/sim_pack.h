// PackSim: 64-way bit-parallel two-valued zero-delay simulator.
//
// Every net holds one uint64_t word whose bit L is the net's value in
// lane L, so one pass over the gate list evaluates 64 independent input
// vectors with plain bitwise arithmetic (NAND is ~(a & b) on whole
// words, a mux is (sel & d1) | (~sel & d0), ...).  Functional
// verification -- equivalence checking, netlist-vs-model cross-checks
// -- is throughput-bound on vectors/second, and word-level evaluation
// buys a ~64x wider sweep per pass; only the timing/power simulator
// (EventSim) needs per-event glitch modelling and stays scalar.
//
// Sequential circuits work like LevelSim: DFF output words come from
// per-lane state captured at clock(); each lane therefore advances as an
// independent machine, one cycle per eval()/clock() pair.  set_state()
// writes a flop's state word directly, so an analysis can treat register
// outputs as free variables.  Every other net is computed by eval().
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/u128.h"
#include "netlist/circuit.h"
#include "netlist/compiled.h"

namespace mfm::netlist {

/// 64-lane bit-parallel simulator over a CompiledCircuit.
class PackSim {
 public:
  /// Number of independent vectors evaluated per eval() pass.
  static constexpr int kLanes = 64;

  /// Simulates over a shared compilation (does not copy; @p cc must
  /// outlive the simulator).
  explicit PackSim(const CompiledCircuit& cc);
  /// Convenience: compiles @p c privately.  Prefer the CompiledCircuit
  /// overload when several engines analyze the same circuit.
  explicit PackSim(const Circuit& c);

  const CompiledCircuit& compiled() const { return *cc_; }

  /// Sets the full 64-lane word of a primary input (bit L = lane L).
  /// Throws std::invalid_argument when the net is not a primary input.
  void set(NetId input_net, std::uint64_t lanes);
  /// Sets one lane of a primary input.
  void set_lane(NetId input_net, int lane, bool v);
  /// Sets lane @p lane of an input bus (LSB first) from @p value.
  /// Throws std::invalid_argument on a bus wider than 128 bits (a wider
  /// bus used to silently drive zeros into bits >= 128); read_bus has
  /// the same always-on guard.
  void set_bus(const Bus& bus, int lane, u128 value);
  /// Sets a named input port in lane @p lane.
  void set_port(const std::string& name, int lane, u128 value);

  /// Sets the full 64-lane state word of a flop: the flop outputs it
  /// from the next eval() until clock() or reset() replaces it.  The
  /// sweep (netlist/sweep.h) drives the flop outputs of its signature
  /// passes this way.  Throws std::invalid_argument when the net is not
  /// a Dff.
  void set_state(NetId dff, std::uint64_t word);

  /// Evaluates all combinational gates (all 64 lanes at once); DFFs
  /// output their current state.
  void eval();
  /// Returns every lane to the power-on state: zeroes all DFF state and
  /// all net words (primary inputs included), then eval()s -- the same
  /// state a freshly constructed simulator starts from.
  void reset();
  /// Clock edge: captures every DFF's D word into its state.
  void clock();
  /// eval(), then clock().
  void step() {
    eval();
    clock();
  }

  /// The raw 64-lane word of a net (bit L = lane L) -- the "signature"
  /// view used for equivalence diffing and SAT-sweeping style analyses.
  /// Throws std::invalid_argument when the net is out of range.
  std::uint64_t word(NetId n) const {
    if (n >= words_.size())
      throw std::invalid_argument("PackSim::word: net " + std::to_string(n) +
                                  " out of range");
    return words_[n];
  }
  /// One lane of a net.  Throws std::invalid_argument when the net or
  /// the lane is out of range (a lane >= 64 would be an UB-width shift).
  bool value(NetId n, int lane) const {
    if (lane < 0 || lane >= kLanes)
      throw std::invalid_argument("PackSim::value: lane " +
                                  std::to_string(lane) + " out of range");
    return (word(n) >> lane) & 1;
  }
  /// Reads lane @p lane of a bus (up to 128 bits, LSB first).
  u128 read_bus(const Bus& bus, int lane) const;
  u128 read_port(const std::string& name, int lane) const;

 private:
  std::unique_ptr<const CompiledCircuit> owned_;  // Circuit ctor only
  const CompiledCircuit* cc_;
  std::vector<std::uint64_t> words_;  // per-net lane words
  std::vector<std::uint64_t> state_;  // DFF state words by flop ordinal
};

}  // namespace mfm::netlist
