// mfm-lint: a rule-based static analyzer for generated netlists.
//
// Takes a Circuit plus an optional set of control-net constraints (e.g.
// "frmt = fp32x2") and emits severity-tagged findings and per-module
// statistics, as text and JSON.  The rules:
//
//  structure       The generator invariants previously enforced by
//                  verify_circuit(): every used fan-in slot references an
//                  earlier gate (topological order), unused slots hold
//                  kNoNet, port nets are in range, flop/input bookkeeping
//                  matches the gate list.  Violations are errors; all
//                  other rules run only on structurally valid circuits.
//
//  constant        Ternary 0/1/X propagation under the pinned controls
//                  (netlist/ternary.h).  Counts blanked gates -- gates
//                  statically stuck at 0/1 for *all* operand values --
//                  which is the paper's per-format blanking claim (Table
//                  V) stated structurally, and reports primary-output
//                  bits that are stuck constant.  A second first-cycle
//                  pass (flops = X) counts output bits that expose
//                  uninitialized register state before the pipeline
//                  fills.
//
//  lane-isolation  Cone-of-influence proofs.  For each LaneSpec, computes
//                  the primary-input support of the lane's output cone
//                  under the pins -- pruning fan-ins that the pinned
//                  controls make irrelevant (a blanked gate has empty
//                  support; a mux with a constant select depends only on
//                  the selected branch) -- and proves it disjoint from
//                  the forbidden inputs (the Fig. 4 sectioning claim), or
//                  that the cone is entirely constant (an idle lane).
//                  Violations are errors.
//
//  duplicate       Structural hashing (netlist/structural_hash.h):
//                  commutativity-normalized duplicate-gate (CSE)
//                  detection.
//
//  unobservable    Backward reachability from the output ports: gates
//                  whose value can never reach an output drive nothing.
//
//  fanout          Per-module fanout histogram, the maximum-fanout nets,
//                  and buffer-chain / double-inverter detection.
//
//  fusion          Advisory: unfused AO/OA compound-cell opportunities
//                  (AND+OR pairs an Ao21/Ao22/Oa21 cell would replace at
//                  lower TechLib area), found with the SAME matcher the
//                  optimizer pass applies (netlist/pattern.h), so this
//                  analysis and tools/mfm_opt can never disagree.
//
//  glitch-prone    Advisory: static arrival-window hazard analysis
//                  (netlist/glitch.h) under the same pins.  Reports the
//                  nets whose bounded extra-transition estimate weighted
//                  by TechLib load tops the ranking -- the nets most
//                  likely to burn glitch power -- plus circuit totals.
//
// verify_circuit() (netlist/verify.h) is now a thin wrapper over the
// structure rule, so every existing caller goes through the analyzer.
#pragma once

#include <string>
#include <vector>

#include "netlist/circuit.h"
#include "netlist/ternary.h"
#include "netlist/verify.h"

namespace mfm::netlist {

class CompiledCircuit;

enum class LintSeverity : std::uint8_t { kInfo, kWarning, kError };

enum class LintRule : std::uint8_t {
  kStructure,
  kConstant,
  kLaneIsolation,
  kDuplicate,
  kUnobservable,
  kFanout,
  kFusion,
  kGlitchProne,
};

std::string_view lint_rule_name(LintRule r);
std::string_view lint_severity_name(LintSeverity s);

/// One diagnostic.
struct LintFinding {
  LintRule rule;
  LintSeverity severity;
  NetId net = kNoNet;  ///< anchor net, kNoNet when not net-specific
  std::string message;
};

/// A lane-isolation obligation: under the lint pins, either the cone of
/// @p outputs must not reach any net in @p forbidden_inputs, or (for
/// require_constant) the outputs must all be statically constant.
struct LaneSpec {
  std::string name;
  Bus outputs;
  Bus forbidden_inputs;
  bool require_constant = false;
};

/// Per-lane proof result.
struct LaneResult {
  std::string name;
  bool ok = false;
  bool require_constant = false;
  /// Isolation proofs: forbidden inputs that leak into the cone.
  /// Constant proofs: output nets that are not constant.
  std::vector<NetId> offenders;
};

/// Per-module statistics (module = interned '/'-path label).
struct ModuleLintStats {
  std::string path;
  std::size_t gates = 0;          ///< combinational + flops in this module
  std::size_t constant_gates = 0; ///< stuck at 0/1 under the pins
  std::size_t duplicate_gates = 0;
  std::size_t unobservable_gates = 0;
  int max_fanout = 0;
};

struct LintOptions {
  std::vector<TernaryPin> pins;  ///< control-net constraints
  std::vector<LaneSpec> lanes;

  bool check_constants = true;
  bool check_duplicates = true;
  bool check_unobservable = true;
  bool check_fanout = true;
  bool check_fusion = true;
  bool check_glitch = true;

  /// glitch rule: emit a finding only for nets whose static glitch
  /// energy meets this threshold [fJ/cycle] (the totals stay exact).
  double glitch_energy_threshold_fj = 1.0;

  /// Cap on emitted findings per rule (counts stay exact).
  int max_findings_per_rule = 16;
  /// Warn on nets whose fanout exceeds this (0 disables the finding).
  int fanout_warning_threshold = 0;
};

/// Log2-bucketed fanout histogram: bucket i counts nets with fanout in
/// [2^(i-1)+1 .. 2^i] (bucket 0 = fanout 0, bucket 1 = fanout 1).
inline constexpr int kFanoutBuckets = 16;

struct LintReport {
  std::vector<LintFinding> findings;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t infos = 0;

  CircuitStats structure;  ///< same statistics verify_circuit() returned

  // constant rule (valid when constant_ran)
  bool constant_ran = false;
  std::size_t blanked_gates = 0;    ///< combinational gates stuck at 0/1
  std::size_t blanked0_gates = 0;   ///< ... of which stuck at 0
  std::size_t active_gates = 0;     ///< combinational gates that can toggle
  std::size_t constant_output_bits = 0;
  std::size_t x_flops = 0;          ///< flops with non-constant steady state
  std::size_t uninit_output_bits = 0;  ///< output bits reading X on cycle 1

  // lane rule
  std::vector<LaneResult> lanes;

  // duplicate rule
  bool duplicates_ran = false;
  std::size_t duplicate_gates = 0;
  std::size_t structural_classes = 0;

  // unobservable rule
  bool unobservable_ran = false;
  std::size_t unobservable_gates = 0;

  // fanout rule
  bool fanout_ran = false;
  int max_fanout = 0;
  NetId max_fanout_net = kNoNet;
  std::size_t buffer_chain_gates = 0;  ///< Buf->Buf and Not->Not pairs
  std::vector<std::size_t> fanout_hist;  ///< kFanoutBuckets entries

  // fusion rule
  bool fusion_ran = false;
  std::size_t fusion_opportunities = 0;  ///< unfused AO/OA cone matches
  double fusion_area_nand2 = 0.0;        ///< area the fusions would remove

  // glitch rule (netlist/glitch.h under the same pins)
  bool glitch_ran = false;
  std::size_t glitch_prone_nets = 0;     ///< nets with a positive score
  double glitch_score_total = 0.0;       ///< bounded extra transitions
  double glitch_energy_fj = 0.0;         ///< static estimate [fJ/cycle]

  std::vector<ModuleLintStats> modules;

  bool clean(LintSeverity at_least = LintSeverity::kError) const {
    switch (at_least) {
      case LintSeverity::kError: return errors == 0;
      case LintSeverity::kWarning: return errors == 0 && warnings == 0;
      default: return findings.empty();
    }
  }
};

/// Runs the enabled rules and returns findings plus statistics.
LintReport lint_circuit(const Circuit& c, const LintOptions& options = {});

/// The unobservable rule's analysis, which the fault campaign also
/// classifies with: one byte per net, 1 for a gate (combinational or
/// flop) that cannot reach any output port by backward reachability
/// over @p cc's fan-in, else 0.
std::vector<std::uint8_t> unobservable_nets(const CompiledCircuit& cc);

/// Appends pins forcing the named input port to @p value (bit i of the
/// port gets bit i of value).  Throws std::out_of_range on unknown port.
void pin_port(const Circuit& c, const std::string& name, std::uint64_t value,
              std::vector<TernaryPin>& pins);

/// Appends pins for @p width bits of the named input port starting at bit
/// @p lo (for partially idle operands, e.g. an unused fp32 lane).
void pin_port_bits(const Circuit& c, const std::string& name, int lo,
                   int width, std::uint64_t value,
                   std::vector<TernaryPin>& pins);

/// Human-readable multi-line report.
std::string lint_report_text(const LintReport& report,
                             const std::string& title = "");

/// Machine-readable report (schema documented in DESIGN.md).
std::string lint_report_json(const LintReport& report,
                             const std::string& title = "");

}  // namespace mfm::netlist
