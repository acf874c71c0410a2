#include "netlist/sweep.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <random>
#include <sstream>
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

/// Passes per walk of the cone tape: each tape op evaluates its gate
/// over this many 64-lane passes at once.
constexpr std::size_t kWalkPasses = 16;

/// One net's words over the passes of a walk (w[j] = pass j of the walk).
/// Its operators run lane by lane, which is all eval_gate_word needs of a
/// word type.  w has no initializer, so an operator does not zero the
/// result it overwrites; Block{} and vector growth still zero it.
struct Block {
  std::array<std::uint64_t, kWalkPasses> w;

  friend Block operator~(const Block& x) {
    Block r;
    for (std::size_t l = 0; l < kWalkPasses; ++l) r.w[l] = ~x.w[l];
    return r;
  }
  friend Block operator&(const Block& x, const Block& y) {
    Block r;
    for (std::size_t l = 0; l < kWalkPasses; ++l) r.w[l] = x.w[l] & y.w[l];
    return r;
  }
  friend Block operator|(const Block& x, const Block& y) {
    Block r;
    for (std::size_t l = 0; l < kWalkPasses; ++l) r.w[l] = x.w[l] | y.w[l];
    return r;
  }
  friend Block operator^(const Block& x, const Block& y) {
    Block r;
    for (std::size_t l = 0; l < kWalkPasses; ++l) r.w[l] = x.w[l] ^ y.w[l];
    return r;
  }
};

/// One cone gate of a compiled pair: its kind and value slots.  Unused
/// fan-in pins read slot 0, which eval_gate_word ignores.
struct TapeOp {
  GateKind kind;
  std::uint32_t out;
  std::array<std::uint32_t, 4> in;
};

/// Scratch shared across the many confirmation calls of one sweep
/// (stamp-based visited marks avoid re-zeroing O(n) arrays per pair).
/// Everything a pair compiles lives here, so concurrent sweeps share
/// nothing.
struct ConeScratch {
  /// Per-net state, one record per net so a visit touches one line.
  struct Mark {
    std::uint32_t stamp = 0;  // epoch of the last gather that reached it
    std::uint32_t slot = 0;   // value slot in this pair's tape
    std::uint32_t reads = 0;  // cone pins reading it, not yet compiled
  };
  struct Frame {
    NetId net;
    int pin;  // next fan-in pin to visit
  };
  std::vector<Mark> mark;
  std::uint32_t epoch = 0;
  std::vector<Frame> frames;  // gather_cone's depth-first stack
  std::vector<NetId> vars;    // free support: unpinned inputs + flop outputs
  std::vector<NetId> cuts;    // constant cut nets (consts + pinned)
  std::vector<std::uint32_t> free_slots;
  std::vector<TapeOp> tape;   // one op per cone gate, topological
  std::vector<Block> val;     // slot -> words of the current walk
};

/// Gathers the combined cone of @p a and @p b up to the cut frontier by
/// a depth-first post-order walk, so s.tape holds the cone's gates in
/// topological order (output and inputs as net ids until compile_tape)
/// and each reached net's mark counts the cone pins that read it (a root
/// counts one more).  The support is sorted ascending: its order decides
/// which random word each variable gets.
void gather_cone(const Circuit& c, const PinMap& pinned, NetId a, NetId b,
                 ConeScratch& s) {
  s.tape.clear();
  s.vars.clear();
  s.cuts.clear();
  ++s.epoch;
  const auto visit = [&](NetId n) {
    ConeScratch::Mark& m = s.mark[n];
    if (m.stamp == s.epoch) {
      ++m.reads;
      return;
    }
    m.stamp = s.epoch;
    m.reads = 1;
    if (!is_cut(c, pinned, n)) {
      s.frames.push_back({n, 0});
      return;
    }
    const GateKind k = c.gate(n).kind;
    if (pinned[n] != 0 || k == GateKind::Const0 || k == GateKind::Const1)
      s.cuts.push_back(n);
    else
      s.vars.push_back(n);
  };
  for (const NetId root : {a, b}) {
    visit(root);
    while (!s.frames.empty()) {
      ConeScratch::Frame& f = s.frames.back();
      const Gate& g = c.gate(f.net);
      if (f.pin < fanin_count(g.kind)) {
        visit(g.in[static_cast<std::size_t>(f.pin++)]);  // may reallocate
      } else {
        s.tape.push_back({g.kind, f.net, g.in});
        s.frames.pop_back();
      }
    }
  }
  std::sort(s.vars.begin(), s.vars.end());
}

std::uint64_t cut_word(const Circuit& c, const PinMap& pinned, NetId n) {
  if (pinned[n] == 1) return 0;
  if (pinned[n] == 2) return ~0ull;
  return c.gate(n).kind == GateKind::Const1 ? ~0ull : 0;
}

/// Compiles the gathered tape from net ids to value slots.  The support
/// takes slots 0..k-1 (vars[i] is slot i) and the constant cuts the next
/// ones, filled here for the whole pair.  A cone gate's slot is recycled
/// after its last reader, except those of @p a and @p b, which the
/// comparison reads; an op may write the slot of an input it frees, since
/// it reads all its inputs first.  s.val is sized by the live width.
void compile_tape(const Circuit& c, const PinMap& pinned, NetId a, NetId b,
                  ConeScratch& s) {
  std::uint32_t width = 0;
  for (const NetId v : s.vars) s.mark[v].slot = width++;
  for (const NetId cu : s.cuts) s.mark[cu].slot = width++;
  const std::uint32_t fixed = width;
  s.free_slots.clear();
  for (TapeOp& op : s.tape) {
    const int nin = fanin_count(op.kind);
    for (int p = 0; p < 4; ++p) {
      std::uint32_t& in = op.in[static_cast<std::size_t>(p)];
      if (p >= nin) {
        in = 0;
        continue;
      }
      const NetId f = in;
      ConeScratch::Mark& m = s.mark[f];
      in = m.slot;
      if (--m.reads == 0 && m.slot >= fixed && f != a && f != b)
        s.free_slots.push_back(m.slot);
    }
    const NetId n = op.out;
    if (s.free_slots.empty()) {
      op.out = width++;
    } else {
      op.out = s.free_slots.back();
      s.free_slots.pop_back();
    }
    s.mark[n].slot = op.out;
  }

  s.val.resize(width);
  for (const NetId cu : s.cuts)
    s.val[s.mark[cu].slot].w.fill(cut_word(c, pinned, cu));
}

/// One walk of the tape: every cone gate over all kWalkPasses passes.
/// flatten inlines eval_gate_word and the Block operators into the loop;
/// GCC otherwise calls the 22-case switch out of line for every op.
[[gnu::flatten]] void run_tape(ConeScratch& s) {
  for (const TapeOp& op : s.tape)
    s.val[op.out] = eval_gate_word<const Block&>(
        op.kind, s.val[op.in[0]], s.val[op.in[1]], s.val[op.in[2]],
        s.val[op.in[3]]);
}

/// The cone evaluator: runs the tape compiled in @p s over @p passes
/// 64-lane assignments of its free support, kWalkPasses passes per walk.
/// fill(first, lanes) writes the support words of passes first ..
/// first + lanes - 1 into lanes 0 .. lanes - 1 of slots 0..k-1.  Returns
/// true after the first walk in which a pass sets @p a and @p b apart on
/// a lane in @p valid -- a witness that the pair is not equivalent.
template <typename FillSupport>
bool cone_differs(NetId a, NetId b, std::uint64_t passes,
                  std::uint64_t valid, FillSupport fill, ConeScratch& s) {
  const std::uint32_t sa = s.mark[a].slot, sb = s.mark[b].slot;
  for (std::uint64_t first = 0; first < passes; first += kWalkPasses) {
    const std::size_t lanes = static_cast<std::size_t>(
        std::min<std::uint64_t>(kWalkPasses, passes - first));
    fill(first, lanes);
    run_tape(s);
    std::uint64_t diff = 0;
    for (std::size_t l = 0; l < lanes; ++l)
      diff |= s.val[sa].w[l] ^ s.val[sb].w[l];
    if ((diff & valid) != 0) return true;
  }
  return false;
}

enum class ConfirmOutcome { kProven, kRefuted, kUnresolved };

/// Exact confirmation of one candidate pair on its compiled cone.  A
/// free support of at most kExhaustiveSupportLimit variables is
/// evaluated over every assignment, 64 per pass: proven or refuted.  A
/// wider support gets random_refute_passes passes of random assignments,
/// which can only refute -- a survivor is unresolved and stays unmerged.
ConfirmOutcome confirm_pair(const Circuit& c, const PinMap& pinned, NetId a,
                            NetId b, const SweepOptions& opt,
                            ConeScratch& s) {
  gather_cone(c, pinned, a, b, s);
  compile_tape(c, pinned, a, b, s);
  const std::size_t k = s.vars.size();
  if (static_cast<int>(k) <= kExhaustiveSupportLimit) {
    static constexpr std::uint64_t kPat[6] = {
        0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
        0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
    const std::uint64_t passes = k > 6 ? (1ull << (k - 6)) : 1;
    const std::uint64_t valid =
        k >= 6 ? ~0ull : ((1ull << (1u << k)) - 1);
    const bool differs = cone_differs(
        a, b, passes, valid,
        [&s, k](std::uint64_t first, std::size_t) {
          for (std::size_t i = 0; i < k; ++i)
            for (std::size_t l = 0; l < kWalkPasses; ++l)
              s.val[i].w[l] = i < 6 ? kPat[i]
                              : ((first + l) >> (i - 6)) & 1 ? ~0ull
                                                               : 0;
        },
        s);
    return differs ? ConfirmOutcome::kRefuted : ConfirmOutcome::kProven;
  }
  std::mt19937_64 rng(opt.seed ^ (0x9E3779B97F4A7C15ull * (a + 1)) ^
                      (0xC2B2AE3D27D4EB4Full * (b + 1)));
  const bool differs = cone_differs(
      a, b, static_cast<std::uint64_t>(std::max(opt.random_refute_passes, 0)),
      ~0ull,
      [&s, &rng, k](std::uint64_t, std::size_t lanes) {
        for (std::size_t l = 0; l < lanes; ++l)  // pass-major, support-minor
          for (std::size_t i = 0; i < k; ++i) s.val[i].w[l] = rng();
      },
      s);
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

  check_pins(c, opt.pins, "sweep_circuit");
  PinMap pinned(n, 0);
  for (const TernaryPin& pin : opt.pins) pinned[pin.net] = pin.value ? 2 : 1;

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
  //    hold their pin value; every DFF gets a fresh random state word
  //    per round, making state a free cut variable -- so a proven merge
  //    is valid for every reachable state.
  std::vector<std::uint64_t> sig(n, 0x517CC1B727220A95ull);
  {
    PackSim ps(cc);
    for (const TernaryPin& pin : opt.pins)
      ps.set(pin.net, pin.value ? ~0ull : 0);
    std::mt19937_64 rng(opt.seed);
    std::vector<NetId> free_vars;  // unpinned inputs, then flops
    for (const NetId in : c.primary_inputs())
      if (pinned[in] == 0) free_vars.push_back(in);
    const std::size_t first_flop_var = free_vars.size();
    for (const NetId q : c.flops()) free_vars.push_back(q);

    auto run_round = [&](auto word_of) {
      for (std::size_t i = 0; i < free_vars.size(); ++i) {
        const std::uint64_t w = word_of(i);
        if (i < first_flop_var)
          ps.set(free_vars[i], w);
        else
          ps.set_state(free_vars[i], w);
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
  scratch.mark.resize(n);

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
