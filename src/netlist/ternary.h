// Ternary (0/1/X) constant propagation over a Circuit.
//
// Evaluates every net in Kleene three-valued logic under an optional set
// of pinned net values (typically control inputs: "frmt = fp32x2").  Free
// primary inputs are X; everything a pinned control forces to a constant
// is reported as such.  This is the engine behind the lint rules that
// reason about blanked/dead logic cones and mode-gated subarrays: a gate
// whose output is statically 0/1 under a control assignment cannot toggle
// for *any* operand values, which is exactly the paper's per-format
// blanking claim (Table V) stated structurally.
//
// Because circuits are built in topological order, every fan-in -- even a
// flip-flop's D pin -- references an earlier gate, so the netlists are
// feed-forward through registers and one topological pass computes the
// steady-state value of every net when the pinned inputs are held
// constant across cycles (flops_transparent = true, the default).  With
// flops_transparent = false the pass instead models the first cycle out
// of reset: every flop output is X, which exposes where uninitialized
// state can reach the primary outputs before the pipeline fills.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "netlist/circuit.h"
#include "netlist/compiled.h"

namespace mfm::netlist {

/// A Kleene logic value: known 0, known 1, or unknown.
enum class Tern : std::uint8_t { k0 = 0, k1 = 1, kX = 2 };

inline Tern tern_of(bool v) { return v ? Tern::k1 : Tern::k0; }
inline bool tern_is_const(Tern v) { return v != Tern::kX; }

/// Evaluates one gate in Kleene logic (Dff/Input/Const handled by the
/// caller; for completeness Dff evaluates as a buffer of a).
Tern eval_gate_ternary(GateKind k, Tern a, Tern b = Tern::kX,
                       Tern c = Tern::kX, Tern d = Tern::kX);

/// Holds one primary input at a value (check_pins).
struct TernaryPin {
  NetId net;
  bool value;
};

/// The one pin check of every pinned analysis (ternary_propagate,
/// lint_circuit, analyze_glitch, measure_glitch, sweep_circuit,
/// rewrite_circuit, FaultVectors): throws std::invalid_argument, naming
/// @p caller, when a pin net is out of range or is not a primary input.
/// A pin on an internal gate would override the value that gate
/// computes, and one past the circuit would be silently dropped.
void check_pins(const Circuit& c, const std::vector<TernaryPin>& pins,
                std::string_view caller);

/// Evaluation options (see file comment for the flop semantics).
struct TernaryOptions {
  /// true: steady-state (flop = its D); false: first cycle (flop = X).
  bool flops_transparent = true;
};

/// The per-net values plus summary counts.
struct TernaryResult {
  std::vector<Tern> value;        ///< indexed by NetId
  std::size_t const_comb = 0;     ///< combinational gates stuck at 0/1
  std::size_t const0_comb = 0;    ///< ... of which stuck at 0
  std::size_t x_flops = 0;        ///< flops whose value stays X

  Tern at(NetId n) const { return value[n]; }
};

/// Runs one topological constant-propagation pass under @p pins over a
/// shared compilation.  Pinned inputs hold their pin value; check_pins
/// rejects any other pin.
TernaryResult ternary_propagate(const CompiledCircuit& cc,
                                const std::vector<TernaryPin>& pins = {},
                                const TernaryOptions& options = {});

/// Convenience overload: compiles @p c privately, then propagates.
/// Callers that run several analyses on one circuit (lint does) should
/// build the CompiledCircuit once and use the overload above.
TernaryResult ternary_propagate(const Circuit& c,
                                const std::vector<TernaryPin>& pins = {},
                                const TernaryOptions& options = {});

}  // namespace mfm::netlist
