#include "netlist/ternary.h"

#include <stdexcept>
#include <string>

namespace mfm::netlist {

namespace {

using enum Tern;

Tern t_not(Tern a) { return a == kX ? kX : (a == k0 ? k1 : k0); }

Tern t_and(Tern a, Tern b) {
  if (a == k0 || b == k0) return k0;
  if (a == k1 && b == k1) return k1;
  return kX;
}

Tern t_or(Tern a, Tern b) {
  if (a == k1 || b == k1) return k1;
  if (a == k0 && b == k0) return k0;
  return kX;
}

Tern t_xor(Tern a, Tern b) {
  if (a == kX || b == kX) return kX;
  return a == b ? k0 : k1;
}

Tern t_mux(Tern d0, Tern d1, Tern sel) {
  if (sel == k0) return d0;
  if (sel == k1) return d1;
  // Unknown select: the output is known only when both data agree.
  return (d0 == d1 && d0 != kX) ? d0 : kX;
}

Tern t_maj(Tern a, Tern b, Tern c) {
  const int zeros = (a == k0) + (b == k0) + (c == k0);
  const int ones = (a == k1) + (b == k1) + (c == k1);
  if (zeros >= 2) return k0;
  if (ones >= 2) return k1;
  return kX;
}

}  // namespace

Tern eval_gate_ternary(GateKind k, Tern a, Tern b, Tern c, Tern d) {
  switch (k) {
    case GateKind::Const0: return k0;
    case GateKind::Const1: return k1;
    case GateKind::Input:  return kX;  // free unless pinned by the caller
    case GateKind::Buf:    return a;
    case GateKind::Not:    return t_not(a);
    case GateKind::And2:   return t_and(a, b);
    case GateKind::Or2:    return t_or(a, b);
    case GateKind::Xor2:   return t_xor(a, b);
    case GateKind::Nand2:  return t_not(t_and(a, b));
    case GateKind::Nor2:   return t_not(t_or(a, b));
    case GateKind::Xnor2:  return t_not(t_xor(a, b));
    case GateKind::AndNot2: return t_and(a, t_not(b));
    case GateKind::OrNot2: return t_or(a, t_not(b));
    case GateKind::And3:   return t_and(t_and(a, b), c);
    case GateKind::Or3:    return t_or(t_or(a, b), c);
    case GateKind::Xor3:   return t_xor(t_xor(a, b), c);
    case GateKind::Maj3:   return t_maj(a, b, c);
    case GateKind::Ao21:   return t_or(t_and(a, b), c);
    case GateKind::Oa21:   return t_and(t_or(a, b), c);
    case GateKind::Ao22:   return t_or(t_and(a, b), t_and(c, d));
    case GateKind::Mux2:   return t_mux(a, b, c);
    case GateKind::Dff:    return a;
  }
  return kX;
}

void check_pins(const Circuit& c, const std::vector<TernaryPin>& pins,
                std::string_view caller) {
  for (const TernaryPin& p : pins)
    if (p.net >= c.size() || c.gate(p.net).kind != GateKind::Input)
      throw std::invalid_argument(std::string(caller) + ": pin net " +
                                  std::to_string(p.net) +
                                  " is not a primary input");
}

TernaryResult ternary_propagate(const CompiledCircuit& cc,
                                const std::vector<TernaryPin>& pins,
                                const TernaryOptions& options) {
  check_pins(cc.circuit(), pins, "ternary_propagate");
  TernaryResult r;
  r.value.assign(cc.size(), kX);

  std::vector<std::uint8_t> pinned(cc.size(), 0);
  for (const TernaryPin& p : pins) {
    pinned[p.net] = 1;
    r.value[p.net] = tern_of(p.value);
  }

  for (NetId i = 0; i < cc.size(); ++i) {
    if (pinned[i]) continue;
    const GateKind k = cc.kind(i);
    const auto fanin = cc.fanin(i);
    Tern v;
    switch (k) {
      case GateKind::Const0: v = k0; break;
      case GateKind::Const1: v = k1; break;
      case GateKind::Input:  v = kX; break;
      case GateKind::Dff:
        v = options.flops_transparent ? r.value[fanin[0]] : kX;
        break;
      default: {
        Tern in[4] = {kX, kX, kX, kX};
        for (std::size_t p = 0; p < fanin.size(); ++p)
          in[p] = r.value[fanin[p]];
        v = eval_gate_ternary(k, in[0], in[1], in[2], in[3]);
        break;
      }
    }
    r.value[i] = v;
  }

  for (NetId i = 0; i < cc.size(); ++i) {
    const GateKind k = cc.kind(i);
    if (k == GateKind::Const0 || k == GateKind::Const1 ||
        k == GateKind::Input)
      continue;
    if (k == GateKind::Dff) {
      if (r.value[i] == kX) ++r.x_flops;
      continue;
    }
    if (tern_is_const(r.value[i])) {
      ++r.const_comb;
      if (r.value[i] == k0) ++r.const0_comb;
    }
  }
  return r;
}

TernaryResult ternary_propagate(const Circuit& c,
                                const std::vector<TernaryPin>& pins,
                                const TernaryOptions& options) {
  return ternary_propagate(CompiledCircuit(c), pins, options);
}

}  // namespace mfm::netlist

