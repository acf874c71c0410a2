#include "netlist/rewrite.h"

#include <cstdio>
#include <sstream>

#include "netlist/compiled.h"
#include "netlist/equiv.h"
#include "netlist/report.h"

namespace mfm::netlist {

RewriteResult rewrite_circuit(const Circuit& c,
                              const std::vector<const RewriteRule*>& rules,
                              const RewriteOptions& opt, const TechLib& lib) {
  check_pins(c, opt.pins, "rewrite_circuit");

  RewriteResult result;
  RewriteReport& rep = result.report;
  rep.gates_before = gate_count(c);
  rep.area_before_nand2 = total_area_nand2(c, lib);
  rep.rules.reserve(rules.size());
  for (const RewriteRule* r : rules)
    rep.rules.push_back(RewriteRuleStats{std::string(r->name()), 0, 0.0});

  const Circuit* cur = &c;
  for (int iter = 0; iter < kMaxRewriteIterations; ++iter) {
    const CompiledCircuit cc(*cur);
    const PatternContext ctx(cc, lib);
    std::vector<CollectedMatch> matches = collect_matches(ctx, rules);
    if (matches.empty()) break;
    std::vector<ConeEdit> edits;
    edits.reserve(matches.size());
    for (CollectedMatch& m : matches) {
      for (std::size_t r = 0; r < rules.size(); ++r)
        if (rules[r] == m.rule) {
          ++rep.rules[r].matches;
          rep.rules[r].area_saved_nand2 += m.area_saved_nand2;
          break;
        }
      edits.push_back(std::move(m.edit));
    }
    ConeRewrite cr = cur->replace_cone(edits);
    rep.applied += edits.size();
    ++rep.iterations;
    result.circuit = std::move(cr.circuit);
    cur = result.circuit.get();
  }
  if (!result.circuit)  // zero matches anywhere: hand back a plain copy
    result.circuit = c.replace_cone({}).circuit;

  rep.gates_after = gate_count(*result.circuit);
  rep.area_after_nand2 = total_area_nand2(*result.circuit, lib);

  if (opt.verify) {
    rep.verify_ran = true;
    const EquivResult eq =
        c.flops().empty()
            ? check_equivalence(c, *result.circuit, opt.pins,
                                opt.verify_vectors, opt.seed ^ 0xEC)
            : check_equivalence_cosim(c, *result.circuit, opt.pins,
                                      opt.verify_vectors, opt.seed ^ 0x5EC);
    rep.verified = eq.equivalent;
    rep.verify_vectors = eq.vectors;
    if (!eq.equivalent) rep.counterexample = eq.counterexample;
  }
  return result;
}

RewriteResult optimize_circuit(const Circuit& c, const RewriteOptions& opt,
                               const TechLib& lib) {
  return rewrite_circuit(c, default_rewrite_rules(), opt, lib);
}

// ---- reports ---------------------------------------------------------------

std::string rewrite_report_text(const RewriteReport& rep,
                                const std::string& title) {
  std::ostringstream os;
  if (!title.empty()) os << "=== opt: " << title << " ===\n";
  char pct[32];
  std::snprintf(pct, sizeof pct, "%.2f",
                rep.area_before_nand2 > 0.0
                    ? 100.0 * rep.area_removed_nand2() / rep.area_before_nand2
                    : 0.0);
  os << "gates " << rep.gates_before << " -> " << rep.gates_after << "  area "
     << rep.area_before_nand2 << " -> " << rep.area_after_nand2
     << " NAND2 (-" << pct << "%)  " << rep.applied << " rewrite"
     << (rep.applied == 1 ? "" : "s") << " in "
     << rep.iterations << " iteration" << (rep.iterations == 1 ? "" : "s")
     << "\n";
  for (const RewriteRuleStats& r : rep.rules) {
    if (r.matches == 0) continue;
    char area[32];
    std::snprintf(area, sizeof area, "%.2f", r.area_saved_nand2);
    os << "  " << r.rule << ": " << r.matches << " match"
       << (r.matches == 1 ? "" : "es") << ", -" << area << " NAND2\n";
  }
  if (rep.glitch_ran) {
    char g[96];
    std::snprintf(g, sizeof g, "glitch energy %.1f -> %.1f fJ/cycle (-%.1f)",
                  rep.glitch_before_fj, rep.glitch_after_fj,
                  rep.glitch_removed_fj());
    os << g << "\n";
  }
  if (rep.verify_ran)
    os << "verify: " << (rep.verified ? "PASS" : "FAIL") << " ("
       << rep.verify_vectors << " vectors)"
       << (rep.verified ? "" : " -- " + rep.counterexample) << "\n";
  return os.str();
}

std::string rewrite_report_json(const RewriteReport& rep,
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
      .field("iterations", rep.iterations)
      .field("applied", rep.applied)
      .field("glitch_ran", rep.glitch_ran)
      .field("glitch_before_fj", rep.glitch_before_fj, 3)
      .field("glitch_after_fj", rep.glitch_after_fj, 3)
      .field("glitch_removed_fj", rep.glitch_removed_fj(), 3)
      .field("verify_ran", rep.verify_ran)
      .field("verified", rep.verified)
      .field("verify_vectors", rep.verify_vectors)
      .field("counterexample", rep.counterexample)
      .key("rules").array();
  for (const RewriteRuleStats& r : rep.rules)
    j.object()
        .field("rule", r.rule)
        .field("matches", r.matches)
        .field("area_saved_nand2", r.area_saved_nand2, 3)
        .end();
  j.end().end();
  return j.str();
}

}  // namespace mfm::netlist
