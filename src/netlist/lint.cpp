#include "netlist/lint.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <sstream>

#include "netlist/compiled.h"
#include "netlist/glitch.h"
#include "netlist/pattern.h"
#include "netlist/report.h"
#include "netlist/structural_hash.h"

namespace mfm::netlist {

std::string_view lint_rule_name(LintRule r) {
  switch (r) {
    case LintRule::kStructure: return "structure";
    case LintRule::kConstant: return "constant";
    case LintRule::kLaneIsolation: return "lane-isolation";
    case LintRule::kDuplicate: return "duplicate";
    case LintRule::kUnobservable: return "unobservable";
    case LintRule::kFanout: return "fanout";
    case LintRule::kFusion: return "fusion";
    case LintRule::kGlitchProne: return "glitch-prone";
  }
  return "?";
}

std::string_view lint_severity_name(LintSeverity s) {
  switch (s) {
    case LintSeverity::kInfo: return "info";
    case LintSeverity::kWarning: return "warning";
    case LintSeverity::kError: return "error";
  }
  return "?";
}

namespace {

using enum Tern;

/// Bounded findings collector: severity counters stay exact; at most
/// kMaxFindingsPerRule messages per rule are materialized.
class Findings {
 public:
  explicit Findings(LintReport& report) : report_(report) {}

  void add(LintRule rule, LintSeverity sev, NetId net, std::string msg) {
    switch (sev) {
      case LintSeverity::kError: ++report_.errors; break;
      case LintSeverity::kWarning: ++report_.warnings; break;
      case LintSeverity::kInfo: ++report_.infos; break;
    }
    int& n = emitted_[static_cast<std::size_t>(rule)];
    if (n >= kMaxFindingsPerRule) return;
    ++n;
    report_.findings.push_back({rule, sev, net, std::move(msg)});
  }

 private:
  LintReport& report_;
  std::array<int, 8> emitted_{};
};

std::string net_label(const Circuit& c, NetId n) {
  std::string s = "net " + std::to_string(n);
  if (n < c.size()) {
    s += " (" + std::string(gate_name(c.gate(n).kind)) + " in " +
         c.module_path(c.gate(n).module) + ")";
  }
  return s;
}

// ---- structure rule --------------------------------------------------------
//
// The invariants verify_circuit() reports; violations make the other
// rules meaningless (and unsafe to run), so lint_circuit() gates on this
// rule's error count.  @p violation(net, message) is called once per
// violation, with net = kNoNet when no one gate is at fault.

template <typename Violation>
CircuitStats check_structure(const Circuit& c, Violation&& violation) {
  CircuitStats st;
  st.gates = c.size();

  std::vector<std::uint8_t> driven(c.size(), 0);
  std::vector<int> depth(c.size(), 0);
  std::size_t flops_seen = 0, inputs_seen = 0;

  for (NetId i = 0; i < c.size(); ++i) {
    const Gate& g = c.gate(i);
    const int nin = fanin_count(g.kind);
    switch (g.kind) {
      case GateKind::Input:
        ++st.inputs;
        ++inputs_seen;
        break;
      case GateKind::Const0:
      case GateKind::Const1:
        ++st.constants;
        break;
      case GateKind::Dff:
        ++st.flops;
        ++flops_seen;
        break;
      default:
        ++st.combinational;
        break;
    }
    int d = 0;
    for (int p = 0; p < 4; ++p) {
      const NetId in = g.in[static_cast<std::size_t>(p)];
      if (p < nin) {
        if (in == kNoNet || in >= i) {
          violation(i, "gate " + std::to_string(i) + " (" +
                           std::string(gate_name(g.kind)) + "): fan-in " +
                           std::to_string(p) + " invalid or not topological");
          continue;
        }
        driven[in] = 1;
        if (g.kind != GateKind::Dff) d = std::max(d, depth[in]);
      } else if (in != kNoNet) {
        violation(i, "gate " + std::to_string(i) + " (" +
                         std::string(gate_name(g.kind)) +
                         "): unused fan-in slot " + std::to_string(p) +
                         " not kNoNet");
      }
    }
    const bool is_source = nin == 0 || g.kind == GateKind::Dff;
    depth[i] = is_source ? 0 : d + 1;
    st.max_logic_depth = std::max(st.max_logic_depth, depth[i]);
  }

  if (flops_seen != c.flops().size())
    violation(kNoNet, "flop list out of sync with gate list");
  if (inputs_seen != c.primary_inputs().size())
    violation(kNoNet, "input list out of sync with gate list");

  auto check_ports = [&](const auto& ports, const char* kind) {
    for (const auto& [name, bus] : ports)
      for (const NetId n : bus) {
        if (n >= c.size())
          violation(kNoNet, std::string(kind) + " port '" + name +
                                "' references out-of-range net");
        else
          driven[n] = 1;
      }
  };
  check_ports(c.in_ports(), "input");
  check_ports(c.out_ports(), "output");

  for (NetId i = 0; i < c.size(); ++i) {
    const GateKind k = c.gate(i).kind;
    if (k == GateKind::Const0 || k == GateKind::Const1) continue;
    if (!driven[i]) ++st.dangling;
  }
  return st;
}

// ---- support (cone-of-influence) engine ------------------------------------

/// Fan-in pins that can still influence the gate's output, given the
/// ternary input values (callers handle constant outputs separately).
/// The default is "every X-valued pin" -- sound because constant-valued
/// nets carry empty support -- sharpened for the cells where a constant
/// control kills a non-constant data pin: a mux with a known select
/// depends only on the selected branch, and a dead AND-term of a
/// compound cell cannot pass its inputs through.
unsigned live_pins(GateKind k, const Tern v[4]) {
  switch (k) {
    case GateKind::Mux2:
      if (v[2] == k0) return 1u << 0;
      if (v[2] == k1) return 1u << 1;
      break;
    case GateKind::Ao21:  // (a & b) | c
      if (v[0] == k0 || v[1] == k0) return 1u << 2;
      break;
    case GateKind::Oa21:  // (a | b) & c
      if (v[0] == k1 || v[1] == k1) return 1u << 2;
      break;
    case GateKind::Ao22: {  // (a & b) | (c & d)
      unsigned m = 0;
      if (v[0] != k0 && v[1] != k0)
        m |= (v[0] == kX ? 1u : 0u) | (v[1] == kX ? 2u : 0u);
      if (v[2] != k0 && v[3] != k0)
        m |= (v[2] == kX ? 4u : 0u) | (v[3] == kX ? 8u : 0u);
      return m;
    }
    default:
      break;
  }
  unsigned m = 0;
  const int nin = fanin_count(k);
  for (int p = 0; p < nin; ++p)
    if (v[p] == kX) m |= 1u << p;
  return m;
}

/// Per-net primary-input support as bitsets over the input ordinal.
/// Pinned inputs are constants and carry empty support; flops are
/// transparent (the circuit is feed-forward, see netlist/ternary.h).
class SupportMap {
 public:
  SupportMap(const CompiledCircuit& cc, const TernaryResult& tern,
             const std::vector<std::uint8_t>& pinned) {
    const auto& inputs = cc.circuit().primary_inputs();
    input_ordinal_.assign(cc.size(), -1);
    for (std::size_t i = 0; i < inputs.size(); ++i)
      input_ordinal_[inputs[i]] = static_cast<int>(i);
    words_ = (inputs.size() + 63) / 64;
    bits_.assign(cc.size() * words_, 0);

    for (NetId i = 0; i < cc.size(); ++i) {
      const GateKind k = cc.kind(i);
      const auto fanin = cc.fanin(i);
      std::uint64_t* sup = row(i);
      if (k == GateKind::Input) {
        if (!pinned[i]) {
          const int ord = input_ordinal_[i];
          sup[ord / 64] |= 1ull << (ord % 64);
        }
        continue;
      }
      if (k == GateKind::Const0 || k == GateKind::Const1) continue;
      if (pinned[i] || tern_is_const(tern.value[i])) continue;
      if (k == GateKind::Dff) {
        or_into(sup, row(fanin[0]));
        continue;
      }
      Tern v[4] = {kX, kX, kX, kX};
      for (std::size_t p = 0; p < fanin.size(); ++p)
        v[p] = tern.value[fanin[p]];
      const unsigned live = live_pins(k, v);
      for (std::size_t p = 0; p < fanin.size(); ++p)
        if (live & (1u << p)) or_into(sup, row(fanin[p]));
    }
  }

  /// Does the support of @p net include primary input @p in?
  bool depends_on(NetId net, NetId in) const {
    const int ord = input_ordinal_[in];
    if (ord < 0) return false;
    return (row(net)[ord / 64] >> (ord % 64)) & 1;
  }

  /// Unions the supports of @p nets into one bitset.
  std::vector<std::uint64_t> union_of(const Bus& nets) const {
    std::vector<std::uint64_t> u(words_, 0);
    for (const NetId n : nets) or_into(u.data(), row(n));
    return u;
  }

  bool set_contains(const std::vector<std::uint64_t>& set, NetId in) const {
    const int ord = input_ordinal_[in];
    if (ord < 0) return false;
    return (set[static_cast<std::size_t>(ord) / 64] >> (ord % 64)) & 1;
  }

 private:
  std::uint64_t* row(NetId n) { return bits_.data() + n * words_; }
  const std::uint64_t* row(NetId n) const { return bits_.data() + n * words_; }
  void or_into(std::uint64_t* dst, const std::uint64_t* src) const {
    for (std::size_t w = 0; w < words_; ++w) dst[w] |= src[w];
  }

  std::vector<int> input_ordinal_;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;
};

bool is_comb(GateKind k) {
  return fanin_count(k) > 0 && k != GateKind::Dff;
}

}  // namespace

// ---- pin helpers -----------------------------------------------------------

void pin_port_bits(const Circuit& c, const std::string& name, int lo,
                   int width, std::uint64_t value,
                   std::vector<TernaryPin>& pins) {
  const Bus& bus = c.in_port(name);
  if (lo < 0 || width < 0 ||
      static_cast<std::size_t>(lo) + static_cast<std::size_t>(width) >
          bus.size())
    throw std::out_of_range("pin_port_bits: range out of bounds for port '" +
                            name + "'");
  for (int i = 0; i < width; ++i)
    pins.push_back({bus[static_cast<std::size_t>(lo + i)],
                    i < 64 && ((value >> i) & 1) != 0});
}

void pin_port(const Circuit& c, const std::string& name, std::uint64_t value,
              std::vector<TernaryPin>& pins) {
  pin_port_bits(c, name, 0, static_cast<int>(c.in_port(name).size()), value,
                pins);
}

// ---- the analyzer ----------------------------------------------------------

std::vector<std::uint8_t> unobservable_nets(const CompiledCircuit& cc) {
  // mark[n] = 1 once n is known to reach an output port.
  std::vector<std::uint8_t> mark(cc.size(), 0);
  std::vector<NetId> stack;
  for (const auto& [name, bus] : cc.circuit().out_ports()) {
    (void)name;
    for (const NetId n : bus)
      if (!mark[n]) {
        mark[n] = 1;
        stack.push_back(n);
      }
  }
  while (!stack.empty()) {
    const NetId n = stack.back();
    stack.pop_back();
    for (const NetId in : cc.fanin(n)) {
      if (!mark[in]) {
        mark[in] = 1;
        stack.push_back(in);
      }
    }
  }
  for (NetId i = 0; i < cc.size(); ++i) {
    const GateKind k = cc.kind(i);
    mark[i] = !mark[i] && (is_comb(k) || k == GateKind::Dff);
  }
  return mark;
}

CircuitStats verify_circuit(const Circuit& c,
                            std::vector<std::string>* findings) {
  return check_structure(c, [findings](NetId, std::string message) {
    if (findings) findings->push_back(std::move(message));
  });
}

LintReport lint_circuit(const Circuit& c, const LintOptions& options) {
  check_pins(c, options.pins, "lint_circuit");
  LintReport rep;
  Findings out(rep);

  // structure -- always evaluated; every other rule runs only on a
  // structurally valid circuit.
  rep.structure = check_structure(c, [&out](NetId n, std::string message) {
    out.add(LintRule::kStructure, LintSeverity::kError, n, std::move(message));
  });
  if (rep.errors != 0) {
    out.add(LintRule::kStructure, LintSeverity::kInfo, kNoNet,
            "structural errors present; value-based rules skipped");
    return rep;
  }
  rep.rules_ran = true;

  // Module accounting is filled in by each rule as it runs.
  rep.modules.resize(c.module_count());
  for (std::size_t m = 0; m < c.module_count(); ++m)
    rep.modules[m].path = c.module_path(static_cast<std::uint16_t>(m));
  auto module_of = [&](NetId n) -> ModuleLintStats& {
    return rep.modules[c.gate(n).module];
  };
  for (NetId i = 0; i < c.size(); ++i) {
    const GateKind k = c.gate(i).kind;
    if (is_comb(k) || k == GateKind::Dff) ++module_of(i).gates;
  }

  // One shared structural compilation backs every value-based rule
  // (ternary propagation, the cone-of-influence supports, backward
  // observability, fanout counts).  Built only after the structure rule
  // validated the circuit -- CompiledCircuit requires a well-formed DAG.
  const CompiledCircuit compiled(c);

  // constant -- ternary propagation under the pins.
  const TernaryResult steady = ternary_propagate(compiled, options.pins);
  rep.blanked_gates = steady.const_comb;
  rep.blanked0_gates = steady.const0_comb;
  rep.active_gates = rep.structure.combinational - steady.const_comb;
  rep.x_flops = steady.x_flops;
  for (NetId i = 0; i < c.size(); ++i)
    if (is_comb(c.gate(i).kind) && tern_is_const(steady.value[i]))
      ++module_of(i).constant_gates;

  // Output bits stuck at a constant.  With no pins this is suspicious
  // (the cone cannot depend on any input); under pins it is the
  // expected blanking statistic.
  const LintSeverity stuck_sev =
      options.pins.empty() ? LintSeverity::kWarning : LintSeverity::kInfo;
  for (const auto& [name, bus] : c.out_ports())
    for (std::size_t b = 0; b < bus.size(); ++b)
      if (tern_is_const(steady.value[bus[b]])) {
        ++rep.constant_output_bits;
        out.add(LintRule::kConstant, stuck_sev, bus[b],
                "output '" + name + "[" + std::to_string(b) +
                    "]' is stuck at " +
                    (steady.value[bus[b]] == k1 ? "1" : "0"));
      }

  // First-cycle pass: which output bits expose uninitialized flops?
  if (!c.flops().empty()) {
    const TernaryResult first = ternary_propagate(
        compiled, options.pins, {.flops_transparent = false});
    for (const auto& [name, bus] : c.out_ports()) {
      (void)name;
      for (const NetId n : bus)
        if (first.value[n] == kX && steady.value[n] != kX)
          ++rep.uninit_output_bits;
    }
    if (rep.uninit_output_bits > 0)
      out.add(LintRule::kConstant, LintSeverity::kInfo, kNoNet,
              std::to_string(rep.uninit_output_bits) +
                  " output bit(s) read uninitialized register state on "
                  "the first cycle (pipeline fill)");
  }

  // lane-isolation -- cone-of-influence proofs under the pins.
  if (!options.lanes.empty()) {
    std::vector<std::uint8_t> pinned(c.size(), 0);
    for (const TernaryPin& p : options.pins) pinned[p.net] = 1;
    const SupportMap support(compiled, steady, pinned);
    for (const LaneSpec& lane : options.lanes) {
      LaneResult res;
      res.name = lane.name;
      res.require_constant = lane.require_constant;
      if (lane.require_constant) {
        for (const NetId n : lane.outputs)
          if (n >= c.size() || !tern_is_const(steady.value[n]))
            res.offenders.push_back(n);
        res.ok = res.offenders.empty();
        if (!res.ok)
          out.add(LintRule::kLaneIsolation, LintSeverity::kError,
                  res.offenders.front(),
                  "lane '" + lane.name + "': " +
                      std::to_string(res.offenders.size()) +
                      " output net(s) not constant; first: " +
                      net_label(c, res.offenders.front()));
        else
          out.add(LintRule::kLaneIsolation, LintSeverity::kInfo, kNoNet,
                  "lane '" + lane.name + "': all " +
                      std::to_string(lane.outputs.size()) +
                      " outputs proven constant");
      } else {
        const auto cone = support.union_of(lane.outputs);
        for (const NetId f : lane.forbidden_inputs)
          if (f < c.size() && support.set_contains(cone, f))
            res.offenders.push_back(f);
        res.ok = res.offenders.empty();
        if (!res.ok)
          out.add(LintRule::kLaneIsolation, LintSeverity::kError,
                  res.offenders.front(),
                  "lane '" + lane.name + "': cone reaches " +
                      std::to_string(res.offenders.size()) +
                      " forbidden input(s); first: input net " +
                      std::to_string(res.offenders.front()));
        else
          out.add(LintRule::kLaneIsolation, LintSeverity::kInfo, kNoNet,
                  "lane '" + lane.name + "': cone of " +
                      std::to_string(lane.outputs.size()) +
                      " outputs proven disjoint from " +
                      std::to_string(lane.forbidden_inputs.size()) +
                      " forbidden inputs");
      }
      rep.lanes.push_back(std::move(res));
    }
  }

  // duplicate -- structural hashing.
  const StrashResult strash = structural_hash(c);
  rep.duplicate_gates = strash.duplicate_gates;
  rep.structural_classes = strash.classes;
  for (NetId i = 0; i < c.size(); ++i)
    if (strash.is_duplicate(i)) {
      ++module_of(i).duplicate_gates;
      out.add(LintRule::kDuplicate, LintSeverity::kInfo, i,
              net_label(c, i) + " duplicates net " +
                  std::to_string(strash.rep[i]) + " (CSE opportunity)");
    }

  // unobservable -- backward reachability from the output ports.
  const std::vector<std::uint8_t> unobservable = unobservable_nets(compiled);
  for (NetId i = 0; i < c.size(); ++i) {
    if (!unobservable[i]) continue;
    ++rep.unobservable_gates;
    ++module_of(i).unobservable_gates;
    out.add(LintRule::kUnobservable, LintSeverity::kWarning, i,
            net_label(c, i) + " cannot reach any output port");
  }

  // fanout -- histogram, hot nets, buffer chains (counts come from the
  // shared CSR adjacency; no private fanout table).
  for (NetId i = 0; i < c.size(); ++i) {
    const Gate& g = c.gate(i);
    if ((g.kind == GateKind::Buf && c.gate(g.in[0]).kind == GateKind::Buf) ||
        (g.kind == GateKind::Not && c.gate(g.in[0]).kind == GateKind::Not)) {
      ++rep.buffer_chain_gates;
      out.add(LintRule::kFanout, LintSeverity::kInfo, i,
              net_label(c, i) + " forms a " +
                  (g.kind == GateKind::Buf ? "buffer chain"
                                           : "double inverter"));
    }
  }
  rep.fanout_hist.assign(kFanoutBuckets, 0);
  for (NetId i = 0; i < c.size(); ++i) {
    const GateKind k = c.gate(i).kind;
    if (k == GateKind::Const0 || k == GateKind::Const1) continue;
    const int f = compiled.fanout_count(i);
    int b = 0;
    if (f > 0) {
      b = 1;
      while (b < kFanoutBuckets - 1 && (1 << (b - 1)) < f) ++b;
    }
    ++rep.fanout_hist[static_cast<std::size_t>(b)];
    if (f > rep.max_fanout) {
      rep.max_fanout = f;
      rep.max_fanout_net = i;
    }
    ModuleLintStats& ms = module_of(i);
    ms.max_fanout = std::max(ms.max_fanout, f);
    if (options.fanout_warning_threshold > 0 &&
        f > options.fanout_warning_threshold)
      out.add(LintRule::kFanout, LintSeverity::kWarning, i,
              net_label(c, i) + " has fanout " + std::to_string(f) +
                  " (threshold " +
                  std::to_string(options.fanout_warning_threshold) + ")");
  }

  // fusion -- advisory AO/OA compound-cell opportunities, via the same
  // matcher and greedy overlap resolution the optimizer pass applies.
  const PatternContext ctx(compiled, TechLib::lp45());
  for (const CollectedMatch& m : collect_matches(ctx, fusion_rewrite_rules())) {
    ++rep.fusion_opportunities;
    rep.fusion_area_nand2 += m.area_saved_nand2;
    char area[32];
    std::snprintf(area, sizeof area, "%.2f", m.area_saved_nand2);
    out.add(LintRule::kFusion, LintSeverity::kInfo, m.edit.root,
            net_label(c, m.edit.root) + " fusable (" +
                std::string(m.rule->name()) + ", -" + area + " NAND2)");
  }

  // glitch-prone -- static arrival-window hazard analysis under the same
  // pins (netlist/glitch.h), reporting the energy-ranked hot nets.
  GlitchOptions gopt;
  gopt.pins = options.pins;
  gopt.max_hot = kMaxFindingsPerRule;
  const GlitchReport g = analyze_glitch(compiled, TechLib::lp45(), gopt);
  rep.glitch_prone_nets = g.glitchy_nets;
  rep.glitch_score_total = g.total_score;
  rep.glitch_energy_fj = g.total_energy_fj;
  for (const GlitchHotNet& h : g.hot) {
    if (h.energy_fj < kGlitchFindingThresholdFj) break;
    char detail[96];
    std::snprintf(detail, sizeof detail,
                  " (score %.1f, %.2f fJ/cycle, window %.0f ps)", h.score,
                  h.energy_fj, h.window_ps);
    out.add(LintRule::kGlitchProne, LintSeverity::kInfo, h.net,
            net_label(c, h.net) + " is glitch-prone" + detail);
  }

  // Drop modules no rule touched so reports stay small.
  rep.modules.erase(
      std::remove_if(rep.modules.begin(), rep.modules.end(),
                     [](const ModuleLintStats& m) { return m.gates == 0; }),
      rep.modules.end());
  return rep;
}

// ---- reports ---------------------------------------------------------------

std::string lint_report_text(const LintReport& rep, const std::string& title) {
  std::ostringstream os;
  if (!title.empty()) os << "=== lint: " << title << " ===\n";
  const CircuitStats& st = rep.structure;
  os << "gates " << st.gates << " (comb " << st.combinational << ", flops "
     << st.flops << ", inputs " << st.inputs << ")  depth "
     << st.max_logic_depth << "  dangling " << st.dangling << "\n";
  os << "findings: " << rep.errors << " error(s), " << rep.warnings
     << " warning(s), " << rep.infos << " info(s)\n";
  if (rep.rules_ran)
    os << "constant: blanked " << rep.blanked_gates << " (" << rep.blanked0_gates
       << " at 0), active " << rep.active_gates << ", stuck output bits "
       << rep.constant_output_bits << ", X flops " << rep.x_flops << "\n";
  for (const LaneResult& l : rep.lanes)
    os << "lane '" << l.name << "': "
       << (l.ok ? (l.require_constant ? "PROVEN constant" : "PROVEN isolated")
                : "VIOLATED")
       << (l.offenders.empty()
               ? ""
               : " (" + std::to_string(l.offenders.size()) + " offender(s))")
       << "\n";
  if (rep.rules_ran) {
    os << "duplicate: " << rep.duplicate_gates << " redundant gate(s), "
       << rep.structural_classes << " structural classes\n";
    os << "unobservable: " << rep.unobservable_gates << " gate(s)\n";
    os << "fanout: max " << rep.max_fanout << " (net " << rep.max_fanout_net
       << "), buffer chains " << rep.buffer_chain_gates << ", hist";
    for (std::size_t b = 0; b < rep.fanout_hist.size(); ++b)
      if (rep.fanout_hist[b] != 0) os << " [" << b << "]=" << rep.fanout_hist[b];
    os << "\n";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2f", rep.fusion_area_nand2);
    os << "fusion: " << rep.fusion_opportunities
       << " unfused AO/OA opportunity(ies), " << buf << " NAND2 fusable\n";
    std::snprintf(buf, sizeof buf, "score %.1f, %.1f fJ/cycle",
                  rep.glitch_score_total, rep.glitch_energy_fj);
    os << "glitch-prone: " << rep.glitch_prone_nets << " net(s), " << buf
       << "\n";
  }
  for (const LintFinding& f : rep.findings)
    os << "  " << lint_severity_name(f.severity) << " ["
       << lint_rule_name(f.rule) << "] " << f.message << "\n";
  if (!rep.modules.empty()) {
    os << "per-module (gates/const/dup/unobs/maxfan):\n";
    for (const ModuleLintStats& m : rep.modules)
      os << "  " << m.path << ": " << m.gates << "/" << m.constant_gates << "/"
         << m.duplicate_gates << "/" << m.unobservable_gates << "/"
         << m.max_fanout << "\n";
  }
  return os.str();
}

std::string lint_report_json(const LintReport& rep, const std::string& title) {
  JsonWriter j;
  j.object().field("title", title);
  const CircuitStats& st = rep.structure;
  j.key("circuit").object()
      .field("gates", st.gates)
      .field("combinational", st.combinational)
      .field("flops", st.flops)
      .field("inputs", st.inputs)
      .field("constants", st.constants)
      .field("dangling", st.dangling)
      .field("max_logic_depth", st.max_logic_depth)
      .end();
  j.field("errors", rep.errors)
      .field("warnings", rep.warnings)
      .field("infos", rep.infos);
  if (rep.rules_ran)
    j.key("constant").object()
        .field("blanked", rep.blanked_gates)
        .field("blanked0", rep.blanked0_gates)
        .field("active", rep.active_gates)
        .field("stuck_output_bits", rep.constant_output_bits)
        .field("x_flops", rep.x_flops)
        .field("uninit_output_bits", rep.uninit_output_bits)
        .end();
  if (!rep.lanes.empty()) {
    j.key("lanes").array();
    for (const LaneResult& l : rep.lanes) {
      j.object()
          .field("name", l.name)
          .field("ok", l.ok)
          .field("require_constant", l.require_constant)
          .key("offenders").array();
      for (const NetId n : l.offenders) j.value(n);
      j.end().end();
    }
    j.end();
  }
  if (rep.rules_ran) {
    j.field("duplicate_gates", rep.duplicate_gates)
        .field("structural_classes", rep.structural_classes)
        .field("unobservable_gates", rep.unobservable_gates)
        .field("max_fanout", rep.max_fanout)
        .field("buffer_chain_gates", rep.buffer_chain_gates)
        .key("fanout_hist").array();
    for (const std::size_t count : rep.fanout_hist) j.value(count);
    j.end()
        .field("fusion_opportunities", rep.fusion_opportunities)
        .field("fusion_area_nand2", rep.fusion_area_nand2, 3)
        .field("glitch_prone_nets", rep.glitch_prone_nets)
        .field("glitch_score_total", rep.glitch_score_total, 3)
        .field("glitch_energy_fj", rep.glitch_energy_fj, 3);
  }
  j.key("findings").array();
  for (const LintFinding& f : rep.findings) {
    j.object()
        .field("rule", lint_rule_name(f.rule))
        .field("severity", lint_severity_name(f.severity))
        .key("net");
    if (f.net == kNoNet)
      j.value(nullptr);
    else
      j.value(f.net);
    j.field("message", f.message).end();
  }
  j.end().key("modules").array();
  for (const ModuleLintStats& m : rep.modules)
    j.object()
        .field("path", m.path)
        .field("gates", m.gates)
        .field("constant", m.constant_gates)
        .field("duplicate", m.duplicate_gates)
        .field("unobservable", m.unobservable_gates)
        .field("max_fanout", m.max_fanout)
        .end();
  j.end().end();
  return j.str();
}

}  // namespace mfm::netlist
