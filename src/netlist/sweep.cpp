#include "netlist/sweep.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "common/rng.h"
#include "netlist/compiled.h"
#include "netlist/equiv.h"
#include "netlist/report.h"
#include "netlist/sim_pack.h"
#include "netlist/structural_hash.h"

namespace mfm::netlist {

namespace {

// ---- cones -----------------------------------------------------------------

/// Per-net pin state: 0 = free, 1 = pinned to 0, 2 = pinned to 1.
using PinMap = std::vector<std::uint8_t>;

bool is_cut(const Circuit& c, const PinMap& pinned, NetId n) {
  if (pinned[n] != 0) return true;
  const GateKind k = c.gate(n).kind;
  return k == GateKind::Input || k == GateKind::Dff ||
         k == GateKind::Const0 || k == GateKind::Const1;
}

/// Scratch shared across the many confirmation calls of one sweep
/// (stamp-based visited marks avoid re-zeroing O(n) arrays per pair).
struct ConeScratch {
  std::vector<std::uint32_t> stamp;
  std::vector<std::uint32_t> lidx;  // net -> dense local index
  std::uint32_t epoch = 0;
  std::vector<NetId> cone;  // non-cut gates, topological (ascending id)
  std::vector<NetId> vars;  // free support: unpinned inputs + flop outputs
  std::vector<NetId> cuts;  // constant cut nets (consts + pinned)
  std::vector<std::uint64_t> val;  // local index -> 64-lane word
};

/// Gathers the combined cone of @p a and @p b up to the cut frontier.
void gather_cone(const Circuit& c, const PinMap& pinned, NetId a, NetId b,
                 ConeScratch& s) {
  s.cone.clear();
  s.vars.clear();
  s.cuts.clear();
  ++s.epoch;
  std::vector<NetId> stack{a, b};
  s.stamp[a] = s.epoch;
  if (a != b) s.stamp[b] = s.epoch;
  while (!stack.empty()) {
    const NetId n = stack.back();
    stack.pop_back();
    if (is_cut(c, pinned, n)) {
      const GateKind k = c.gate(n).kind;
      if (pinned[n] != 0 || k == GateKind::Const0 || k == GateKind::Const1)
        s.cuts.push_back(n);
      else
        s.vars.push_back(n);
      continue;
    }
    s.cone.push_back(n);
    const Gate& g = c.gate(n);
    const int nin = fanin_count(g.kind);
    for (int p = 0; p < nin; ++p) {
      const NetId f = g.in[static_cast<std::size_t>(p)];
      if (s.stamp[f] != s.epoch) {
        s.stamp[f] = s.epoch;
        stack.push_back(f);
      }
    }
  }
  std::sort(s.cone.begin(), s.cone.end());
  std::sort(s.vars.begin(), s.vars.end());
}

std::uint64_t cut_word(const Circuit& c, const PinMap& pinned, NetId n) {
  if (pinned[n] == 1) return 0;
  if (pinned[n] == 2) return ~0ull;
  return c.gate(n).kind == GateKind::Const1 ? ~0ull : 0;
}

/// The cone evaluator: evaluates the cone gathered in @p s over
/// @p passes 64-lane assignments of its free support, where
/// support_word(pass, i) is the word of s.vars[i] in that pass.  Returns
/// true as soon as a lane in @p valid sets @p a and @p b apart -- a
/// witness that the pair is not equivalent.
template <typename SupportWord>
bool cone_differs(const Circuit& c, const PinMap& pinned, NetId a, NetId b,
                  std::uint64_t passes, std::uint64_t valid,
                  SupportWord support_word, ConeScratch& s) {
  // Dense local indices: the support first (so vars[i] is slot i), then
  // the constant cuts, then the cone in topological order.
  std::uint32_t next = 0;
  for (const NetId v : s.vars) s.lidx[v] = next++;
  for (const NetId cu : s.cuts) s.lidx[cu] = next++;
  for (const NetId g : s.cone) s.lidx[g] = next++;
  s.val.resize(next);
  for (const NetId cu : s.cuts) s.val[s.lidx[cu]] = cut_word(c, pinned, cu);

  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < s.vars.size(); ++i)
      s.val[i] = support_word(pass, i);
    for (const NetId n : s.cone) {
      const Gate& g = c.gate(n);
      const int nin = fanin_count(g.kind);
      const std::uint64_t wa = nin > 0 ? s.val[s.lidx[g.in[0]]] : 0;
      const std::uint64_t wb = nin > 1 ? s.val[s.lidx[g.in[1]]] : 0;
      const std::uint64_t wc = nin > 2 ? s.val[s.lidx[g.in[2]]] : 0;
      const std::uint64_t wd = nin > 3 ? s.val[s.lidx[g.in[3]]] : 0;
      s.val[s.lidx[n]] = eval_gate_word(g.kind, wa, wb, wc, wd);
    }
    if (((s.val[s.lidx[a]] ^ s.val[s.lidx[b]]) & valid) != 0) return true;
  }
  return false;
}

enum class ConfirmOutcome { kProven, kRefuted, kUnresolved };

/// Exact confirmation of one candidate pair on its gathered cone.  A
/// free support of at most exhaustive_support_limit variables is
/// evaluated over every assignment, 64 per pass: proven or refuted.  A
/// wider support gets random_refute_passes passes of random assignments,
/// which can only refute -- a survivor is unresolved and stays unmerged.
ConfirmOutcome confirm_pair(const Circuit& c, const PinMap& pinned, NetId a,
                            NetId b, const SweepOptions& opt,
                            ConeScratch& s) {
  const int k = static_cast<int>(s.vars.size());
  if (k <= opt.exhaustive_support_limit) {
    static constexpr std::uint64_t kPat[6] = {
        0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
        0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
    const std::uint64_t passes = k > 6 ? (1ull << (k - 6)) : 1;
    const std::uint64_t valid =
        k >= 6 ? ~0ull : ((1ull << (1u << k)) - 1);
    const bool differs = cone_differs(
        c, pinned, a, b, passes, valid,
        [](std::uint64_t pass, std::size_t i) -> std::uint64_t {
          return i < 6 ? kPat[i] : ((pass >> (i - 6)) & 1 ? ~0ull : 0);
        },
        s);
    return differs ? ConfirmOutcome::kRefuted : ConfirmOutcome::kProven;
  }
  std::mt19937_64 rng(opt.seed ^ (0x9E3779B97F4A7C15ull * (a + 1)) ^
                      (0xC2B2AE3D27D4EB4Full * (b + 1)));
  const bool differs = cone_differs(
      c, pinned, a, b,
      static_cast<std::uint64_t>(std::max(opt.random_refute_passes, 0)),
      ~0ull, [&rng](std::uint64_t, std::size_t) { return rng(); }, s);
  return differs ? ConfirmOutcome::kRefuted : ConfirmOutcome::kUnresolved;
}

// ---- union-find ------------------------------------------------------------

NetId uf_find(std::vector<NetId>& parent, NetId n) {
  while (parent[n] != n) {
    parent[n] = parent[parent[n]];  // path halving
    n = parent[n];
  }
  return n;
}

}  // namespace

SweepResult sweep_circuit(const Circuit& c, const SweepOptions& opt,
                          const TechLib& lib) {
  const CompiledCircuit cc(c);  // validates structure
  const std::size_t n = c.size();

  PinMap pinned(n, 0);
  for (const TernaryPin& pin : opt.pins) {
    if (pin.net >= n || c.gate(pin.net).kind != GateKind::Input)
      throw std::invalid_argument(
          "sweep_circuit: pin net " + std::to_string(pin.net) +
          " is not a primary input");
    pinned[pin.net] = pin.value ? 2 : 1;
  }

  SweepResult result;
  SweepReport& rep = result.report;
  rep.gates_before = n - c.primary_inputs().size() - 2;
  rep.area_before_nand2 = total_area_nand2(c, lib);

  // 1. Structural seed: strash duplicates are equal by construction.
  const StrashResult strash = structural_hash(c);
  std::vector<NetId> parent = strash.rep;
  rep.strash_merged = strash.duplicate_gates;

  // 1b. Ternary constant pre-merge: a net that Kleene propagation under
  //     the pins proves stuck at 0/1 merges into that constant source
  //     directly -- the blanked-cone bulk of a mode-specialized sweep,
  //     proven without evaluating a single cone.  Flops are X (first-cycle
  //     semantics), matching the sweep's state-as-free-cut-variable
  //     model: a steady-state-only constant must NOT be merged.
  {
    TernaryOptions topt;
    topt.flops_transparent = false;
    const TernaryResult tern = ternary_propagate(cc, opt.pins, topt);
    for (NetId net = 2; net < n; ++net) {
      const GateKind k = c.gate(net).kind;
      if (k == GateKind::Input || k == GateKind::Dff) continue;
      if (!tern_is_const(tern.at(net))) continue;
      const NetId cst = tern.at(net) == Tern::k1 ? c.const1() : c.const0();
      const NetId ra = uf_find(parent, cst);
      const NetId rb = uf_find(parent, net);
      if (ra != rb) {
        parent[std::max(ra, rb)] = std::min(ra, rb);
        ++rep.proven_ternary;
      }
    }
  }

  // 2. Signature refinement: hash every net's 64-lane PackSim word over
  //    directed walking-one rounds plus random rounds.  Pinned inputs
  //    are forced to their pin value; every DFF output is forced to a
  //    fresh random word per round, making state a free cut variable --
  //    so a proven merge is valid for every reachable state.
  std::vector<std::uint64_t> sig(n, 0x517CC1B727220A95ull);
  {
    PackSim ps(cc);
    std::mt19937_64 rng(opt.seed);
    std::vector<NetId> free_vars;  // unpinned inputs, then flops
    for (const NetId in : c.primary_inputs())
      if (pinned[in] == 0) free_vars.push_back(in);
    const std::size_t first_flop_var = free_vars.size();
    for (const NetId q : c.flops()) free_vars.push_back(q);

    auto run_round = [&](auto word_of) {
      ps.clear_forces();
      for (const TernaryPin& pin : opt.pins)
        ps.force(pin.net, ~0ull, pin.value ? ~0ull : 0);
      for (std::size_t i = 0; i < free_vars.size(); ++i) {
        const std::uint64_t w = word_of(i);
        if (i < first_flop_var)
          ps.set(free_vars[i], w);
        else
          ps.force(free_vars[i], ~0ull, w);
      }
      ps.eval();
      for (NetId net = 0; net < n; ++net)
        sig[net] = common::splitmix64(sig[net] ^ ps.word(net));
    };

    // Directed rounds: lane 0 all-zeros, lane 1 all-ones, lanes 2..63
    // walk a one across a 62-variable window per round.
    const std::size_t windows =
        std::min<std::size_t>(16, (free_vars.size() + 61) / 62);
    for (std::size_t wdw = 0; wdw < windows; ++wdw)
      run_round([&](std::size_t i) -> std::uint64_t {
        const std::uint64_t ones_lane = 2;
        if (i >= wdw * 62 && i < wdw * 62 + 62)
          return (1ull << (2 + (i - wdw * 62))) | ones_lane;
        return ones_lane;
      });
    for (int round = 0; round < opt.signature_rounds; ++round)
      run_round([&](std::size_t) -> std::uint64_t { return rng(); });
  }

  // 3. Group strash class leaders by signature; confirm survivors
  //    exactly and union proven pairs (leader = lowest net id).
  std::unordered_map<std::uint64_t, std::vector<NetId>> groups;
  groups.reserve(n);
  for (NetId net = 0; net < n; ++net)
    if (strash.rep[net] == net) groups[sig[net]].push_back(net);

  ConeScratch scratch;
  scratch.stamp.assign(n, 0);
  scratch.lidx.assign(n, 0);

  // Iterate groups in leader order so results are deterministic
  // (unordered_map iteration order is not).
  std::vector<const std::vector<NetId>*> ordered;
  for (const auto& [h, members] : groups)
    if (members.size() >= 2) ordered.push_back(&members);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto* x, const auto* y) {
              return x->front() < y->front();
            });

  for (const auto* members : ordered) {
    bool counted_class = false;
    std::vector<NetId> reps{members->front()};
    for (std::size_t mi = 1; mi < members->size(); ++mi) {
      const NetId m = (*members)[mi];
      const GateKind mk = c.gate(m).kind;
      // Inputs are externally driven and a Dff is state: they may serve
      // as a class leader but are never merged away.
      if (mk == GateKind::Input || mk == GateKind::Dff) continue;
      // Already proven equivalent (ternary constant pre-merge).
      if (uf_find(parent, m) != m) continue;
      if (!counted_class) {
        ++rep.candidate_classes;
        counted_class = true;
      }
      bool placed = false;
      for (const NetId leader : reps) {
        ++rep.candidates;
        gather_cone(c, pinned, leader, m, scratch);
        const ConfirmOutcome out =
            confirm_pair(c, pinned, leader, m, opt, scratch);
        if (out == ConfirmOutcome::kProven) {
          ++rep.proven_exhaustive;
          const NetId ra = uf_find(parent, leader);
          const NetId rb = uf_find(parent, m);
          if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
          placed = true;
          break;
        }
        if (out == ConfirmOutcome::kUnresolved) {
          ++rep.unresolved;
          placed = true;  // not decidable here: stop trying this net
          break;
        }
        ++rep.refuted;
      }
      if (!placed) reps.push_back(m);  // distinct function, own sub-class
    }
  }

  // 4. Canonical leader map and the checked merge.
  result.leader.resize(n);
  for (NetId net = 0; net < n; ++net)
    result.leader[net] = uf_find(parent, net);
  MergeRewrite merge = c.merge_rewrite(result.leader);
  rep.merged_gates = merge.merged_gates;
  rep.dead_gates = merge.dead_gates;
  result.net_map = std::move(merge.net_map);
  result.circuit = std::move(merge.circuit);

  rep.gates_after =
      result.circuit->size() - result.circuit->primary_inputs().size() - 2;
  rep.area_after_nand2 = total_area_nand2(*result.circuit, lib);

  // Per-module deltas (depth-2 subtrees, TechLib pricing).
  {
    const auto before = area_by_module(c, lib);
    const auto after = area_by_module(*result.circuit, lib);
    for (const auto& [path, ma] : before) {
      const auto it = after.find(path);
      const std::size_t g_after = it == after.end() ? 0 : it->second.gates;
      const double a_after = it == after.end() ? 0.0 : it->second.area_nand2;
      if (ma.gates > g_after)
        rep.modules.push_back(SweepModuleDelta{
            path, ma.gates - g_after, ma.area_nand2 - a_after});
    }
    std::sort(rep.modules.begin(), rep.modules.end(),
              [](const SweepModuleDelta& x, const SweepModuleDelta& y) {
                return x.area_removed_nand2 > y.area_removed_nand2;
              });
  }

  // 5. Re-verification of the merged netlist against the original.
  if (opt.verify) {
    rep.verify_ran = true;
    if (c.flops().empty()) {
      const EquivResult eq = check_equivalence(
          c, *result.circuit, opt.pins, opt.verify_vectors, opt.seed ^ 0xEC);
      rep.verified = eq.equivalent;
      rep.verify_vectors = eq.vectors;
      if (!eq.equivalent) rep.counterexample = eq.counterexample;
    } else {
      const EquivResult eq =
          check_equivalence_cosim(c, *result.circuit, opt.pins,
                                  opt.verify_vectors, opt.seed ^ 0x5EC);
      rep.verified = eq.equivalent;
      rep.verify_vectors = eq.vectors;
      if (!eq.equivalent) rep.counterexample = eq.counterexample;
    }
  }
  return result;
}

// ---- reports ---------------------------------------------------------------

std::string sweep_report_text(const SweepReport& rep,
                              const std::string& title) {
  std::ostringstream os;
  if (!title.empty()) os << "=== sweep: " << title << " ===\n";
  char pct[32];
  std::snprintf(pct, sizeof pct, "%.2f",
                rep.area_before_nand2 > 0.0
                    ? 100.0 * rep.area_removed_nand2() / rep.area_before_nand2
                    : 0.0);
  os << "gates " << rep.gates_before << " -> " << rep.gates_after
     << " (merged " << rep.merged_gates << ", dead " << rep.dead_gates
     << ")  area " << rep.area_before_nand2 << " -> " << rep.area_after_nand2
     << " NAND2 (-" << pct << "%)\n";
  os << "strash-merged " << rep.strash_merged << ", ternary constants "
     << rep.proven_ternary << "; signature classes "
     << rep.candidate_classes << ", confirmations " << rep.candidates
     << ": exhaustive " << rep.proven_exhaustive << ", refuted "
     << rep.refuted << ", unresolved " << rep.unresolved << "\n";
  if (rep.verify_ran)
    os << "verify: " << (rep.verified ? "PASS" : "FAIL") << " ("
       << rep.verify_vectors << " vectors)"
       << (rep.verified ? "" : " -- " + rep.counterexample) << "\n";
  if (!rep.modules.empty()) {
    os << "per-module (gates/area removed):\n";
    for (const SweepModuleDelta& m : rep.modules) {
      char area[32];
      std::snprintf(area, sizeof area, "%.1f", m.area_removed_nand2);
      os << "  " << m.path << ": " << m.gates_removed << " / " << area
         << "\n";
    }
  }
  return os.str();
}

std::string sweep_report_json(const SweepReport& rep,
                              const std::string& title) {
  JsonWriter j;
  j.object()
      .field("unit", title)
      .field("gates_before", rep.gates_before)
      .field("gates_after", rep.gates_after)
      .field("gates_removed", rep.gates_removed())
      .field("area_before_nand2", rep.area_before_nand2, 3)
      .field("area_after_nand2", rep.area_after_nand2, 3)
      .field("area_removed_nand2", rep.area_removed_nand2(), 3)
      .field("strash_merged", rep.strash_merged)
      .field("proven_ternary", rep.proven_ternary)
      .field("candidate_classes", rep.candidate_classes)
      .field("candidates", rep.candidates)
      .field("proven_exhaustive", rep.proven_exhaustive)
      .field("proven_sat", rep.proven_sat)
      .field("refuted", rep.refuted)
      .field("unresolved", rep.unresolved)
      .field("merged_gates", rep.merged_gates)
      .field("dead_gates", rep.dead_gates)
      .field("verify_ran", rep.verify_ran)
      .field("verified", rep.verified)
      .field("verify_vectors", rep.verify_vectors)
      .field("counterexample", rep.counterexample)
      .key("modules").array();
  for (const SweepModuleDelta& m : rep.modules)
    j.object()
        .field("path", m.path)
        .field("gates_removed", m.gates_removed)
        .field("area_removed_nand2", m.area_removed_nand2, 3)
        .end();
  j.end().end();
  return j.str();
}

}  // namespace mfm::netlist
