// Iterate-to-fixpoint pattern rewriting: the optimizing pass behind
// tools/mfm_opt.
//
// Each iteration compiles the current circuit, runs the rule list
// through collect_matches() (netlist/pattern.h) to get one
// conflict-free batch of cone edits, and applies the batch with
// Circuit::replace_cone().  Every accepted match strictly decreases
// TechLib area, so the loop terminates; it stops at the first iteration
// with no matches (the fixpoint) or after kMaxRewriteIterations.  The final
// circuit is then re-proven against the ORIGINAL input -- pins overload
// of check_equivalence for combinational circuits, multi-cycle random
// cosimulation (check_equivalence_cosim) for sequential ones -- exactly
// as the sweeper re-verifies its merges.  A failed re-verification is a
// rewrite-engine bug by definition; callers MUST gate on
// report.verified before using the result (mfm_opt and the tests do).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netlist/circuit.h"
#include "netlist/pattern.h"
#include "netlist/techlib.h"
#include "netlist/ternary.h"

namespace mfm::netlist {

/// Iteration cap; a backstop, never reached in practice (each iteration
/// must strictly shrink area).
inline constexpr int kMaxRewriteIterations = 64;

struct RewriteOptions {
  /// Control pins the re-verification runs under; must name primary
  /// inputs.  The rewrites themselves are mode-independent (pure
  /// structural identities), so pins only constrain the proof.
  std::vector<TernaryPin> pins;

  /// Re-verify the rewritten circuit against the original.
  bool verify = true;
  /// Random-vector budget of the re-verification.
  int verify_vectors = 4000;
  std::uint64_t seed = 0x0B7;
};

/// Match count and area saved by one rule across all iterations.
struct RewriteRuleStats {
  std::string rule;
  std::size_t matches = 0;
  double area_saved_nand2 = 0.0;
};

struct RewriteReport {
  // Gate counts exclude the constant sources and primary inputs.
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  double area_before_nand2 = 0.0;  ///< TechLib::lp45() pricing
  double area_after_nand2 = 0.0;

  int iterations = 0;          ///< iterations that applied at least one edit
  std::size_t applied = 0;     ///< total cone edits applied
  std::vector<RewriteRuleStats> rules;  ///< one entry per rule, in order

  bool verify_ran = false;
  bool verified = false;
  std::uint64_t verify_vectors = 0;
  std::string counterexample;  ///< on a failed re-verification

  /// Static glitch-energy estimate (netlist/glitch.h) before and after,
  /// under the same pins -- so a rewrite campaign can claim glitch
  /// savings, not just gate-count savings.  rewrite_circuit leaves these
  /// unset; the caller fills them over whatever span it reports (mfm_opt:
  /// the whole sweep -> rewrite -> sweep pipeline).
  bool glitch_ran = false;
  double glitch_before_fj = 0.0;  ///< [fJ/cycle]
  double glitch_after_fj = 0.0;   ///< [fJ/cycle]

  std::size_t gates_removed() const { return gates_before - gates_after; }
  double area_removed_nand2() const {
    return area_before_nand2 - area_after_nand2;
  }
  double glitch_removed_fj() const {
    return glitch_before_fj - glitch_after_fj;
  }
};

struct RewriteResult {
  std::unique_ptr<Circuit> circuit;
  RewriteReport report;
};

/// Runs @p rules to fixpoint on @p c.  Throws std::invalid_argument
/// when a pin does not name a primary input.
RewriteResult rewrite_circuit(const Circuit& c,
                              const std::vector<const RewriteRule*>& rules,
                              const RewriteOptions& opt = {},
                              const TechLib& lib = TechLib::lp45());

/// rewrite_circuit() with default_rewrite_rules().
RewriteResult optimize_circuit(const Circuit& c,
                               const RewriteOptions& opt = {},
                               const TechLib& lib = TechLib::lp45());

/// Human-readable multi-line report.
std::string rewrite_report_text(const RewriteReport& report,
                                const std::string& title = "");

/// Machine-readable report (schema documented in DESIGN.md §13).
std::string rewrite_report_json(const RewriteReport& report,
                                const std::string& title = "");

}  // namespace mfm::netlist
