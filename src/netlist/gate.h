// Gate primitives for the structural netlist substrate.
//
// A circuit is a DAG of single-output gates; the output net of a gate is
// identified by the gate's index in the circuit.  The gate set mirrors a
// small standard-cell library: simple 1-3 input combinational cells,
// compound AOI/OAI-style cells (modelled in positive logic as AO/OA for
// readability -- the technology model prices them like the inverting
// originals), the full-adder decomposition cells XOR3/MAJ3, a 2:1 mux and a
// D flip-flop.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace mfm::netlist {

/// Identifier of a net (== index of its driving gate in the Circuit).
using NetId = std::uint32_t;

/// Sentinel for "no net connected".
inline constexpr NetId kNoNet = 0xFFFF'FFFFu;

/// The primitive cell types available to circuit builders.
enum class GateKind : std::uint8_t {
  Const0,   ///< constant 0 source (no inputs)
  Const1,   ///< constant 1 source (no inputs)
  Input,    ///< primary input (no inputs; value set by the simulator)
  Buf,      ///< a
  Not,      ///< !a
  And2,     ///< a & b
  Or2,      ///< a | b
  Xor2,     ///< a ^ b
  Nand2,    ///< !(a & b)
  Nor2,     ///< !(a | b)
  Xnor2,    ///< !(a ^ b)
  AndNot2,  ///< a & !b   (blanking / gating cell)
  OrNot2,   ///< a | !b
  And3,     ///< a & b & c
  Or3,      ///< a | b | c
  Xor3,     ///< a ^ b ^ c           (full-adder sum)
  Maj3,     ///< majority(a, b, c)   (full-adder carry)
  Ao21,     ///< (a & b) | c
  Oa21,     ///< (a | b) & c
  Ao22,     ///< (a & b) | (c & d)  (4-input AOI-class compound cell)
  Mux2,     ///< c ? b : a  (inputs: a = data0, b = data1, c = select)
  Dff,      ///< D flip-flop; input a = D, output = Q (state element)
};

/// Number of distinct gate kinds (for table sizing).
inline constexpr std::size_t kGateKindCount =
    static_cast<std::size_t>(GateKind::Dff) + 1;

/// Number of fan-in pins used by a gate of kind @p k.
constexpr int fanin_count(GateKind k) {
  switch (k) {
    case GateKind::Const0:
    case GateKind::Const1:
    case GateKind::Input:
      return 0;
    case GateKind::Buf:
    case GateKind::Not:
    case GateKind::Dff:
      return 1;
    case GateKind::And2:
    case GateKind::Or2:
    case GateKind::Xor2:
    case GateKind::Nand2:
    case GateKind::Nor2:
    case GateKind::Xnor2:
    case GateKind::AndNot2:
    case GateKind::OrNot2:
      return 2;
    case GateKind::And3:
    case GateKind::Or3:
    case GateKind::Xor3:
    case GateKind::Maj3:
    case GateKind::Ao21:
    case GateKind::Oa21:
    case GateKind::Mux2:
      return 3;
    case GateKind::Ao22:
      return 4;
  }
  return 0;
}

/// Combinationally evaluates a gate of kind @p k on input values a, b, c.
/// Dff is evaluated as a buffer of its state by the simulators, never here.
constexpr bool eval_gate(GateKind k, bool a, bool b, bool c, bool d = false) {
  switch (k) {
    case GateKind::Const0: return false;
    case GateKind::Const1: return true;
    case GateKind::Input:  return false;  // value injected by simulator
    case GateKind::Buf:    return a;
    case GateKind::Not:    return !a;
    case GateKind::And2:   return a && b;
    case GateKind::Or2:    return a || b;
    case GateKind::Xor2:   return a != b;
    case GateKind::Nand2:  return !(a && b);
    case GateKind::Nor2:   return !(a || b);
    case GateKind::Xnor2:  return a == b;
    case GateKind::AndNot2:return a && !b;
    case GateKind::OrNot2: return a || !b;
    case GateKind::And3:   return a && b && c;
    case GateKind::Or3:    return a || b || c;
    case GateKind::Xor3:   return (a != b) != c;
    case GateKind::Maj3:   return (a && b) || (a && c) || (b && c);
    case GateKind::Ao21:   return (a && b) || c;
    case GateKind::Oa21:   return (a || b) && c;
    case GateKind::Ao22:   return (a && b) || (c && d);
    case GateKind::Mux2:   return c ? b : a;
    case GateKind::Dff:    return a;  // transparent view of D; sims override
  }
  return false;
}

/// Word-level evaluation of one gate: every operator of eval_gate()
/// lifted to bitwise arithmetic on a word type.  PackSim and the fault
/// campaign pass std::uint64_t words (64 lanes) by value.  The sweep's
/// cone tape passes blocks of such words, whose operators loop over the
/// block, as W = const Block&: one switch per gate then selects a case
/// whose operators are lane loops, and no block is copied on the way in.
template <typename W>
constexpr std::remove_cvref_t<W> eval_gate_word(GateKind k, W a, W b, W c,
                                                W d) {
  using Word = std::remove_cvref_t<W>;
  switch (k) {
    case GateKind::Const0: return Word{};
    case GateKind::Const1: return ~Word{};
    case GateKind::Input:  return Word{};  // driven externally
    case GateKind::Buf:    return a;
    case GateKind::Not:    return ~a;
    case GateKind::And2:   return a & b;
    case GateKind::Or2:    return a | b;
    case GateKind::Xor2:   return a ^ b;
    case GateKind::Nand2:  return ~(a & b);
    case GateKind::Nor2:   return ~(a | b);
    case GateKind::Xnor2:  return ~(a ^ b);
    case GateKind::AndNot2: return a & ~b;
    case GateKind::OrNot2: return a | ~b;
    case GateKind::And3:   return a & b & c;
    case GateKind::Or3:    return a | b | c;
    case GateKind::Xor3:   return a ^ b ^ c;
    case GateKind::Maj3:   return (a & b) | (a & c) | (b & c);
    case GateKind::Ao21:   return (a & b) | c;
    case GateKind::Oa21:   return (a | b) & c;
    case GateKind::Ao22:   return (a & b) | (c & d);
    case GateKind::Mux2:   return (c & b) | (~c & a);
    case GateKind::Dff:    return a;  // the simulators drive flops from state
  }
  return Word{};
}

/// Short human-readable cell name (for reports and dumps).
constexpr std::string_view gate_name(GateKind k) {
  switch (k) {
    case GateKind::Const0: return "CONST0";
    case GateKind::Const1: return "CONST1";
    case GateKind::Input:  return "INPUT";
    case GateKind::Buf:    return "BUF";
    case GateKind::Not:    return "NOT";
    case GateKind::And2:   return "AND2";
    case GateKind::Or2:    return "OR2";
    case GateKind::Xor2:   return "XOR2";
    case GateKind::Nand2:  return "NAND2";
    case GateKind::Nor2:   return "NOR2";
    case GateKind::Xnor2:  return "XNOR2";
    case GateKind::AndNot2:return "ANDNOT2";
    case GateKind::OrNot2: return "ORNOT2";
    case GateKind::And3:   return "AND3";
    case GateKind::Or3:    return "OR3";
    case GateKind::Xor3:   return "XOR3";
    case GateKind::Maj3:   return "MAJ3";
    case GateKind::Ao21:   return "AO21";
    case GateKind::Oa21:   return "OA21";
    case GateKind::Ao22:   return "AO22";
    case GateKind::Mux2:   return "MUX2";
    case GateKind::Dff:    return "DFF";
  }
  return "?";
}

/// One gate instance.  The gate's output net id equals its index in the
/// owning Circuit; fan-ins reference earlier gates only (the circuit is
/// constructed in topological order).
struct Gate {
  GateKind kind = GateKind::Const0;
  std::uint16_t module = 0;  ///< module label (see Circuit::intern_module)
  std::array<NetId, 4> in{kNoNet, kNoNet, kNoNet, kNoNet};
};

}  // namespace mfm::netlist
