// Byte pins of every JSON report renderer, on hand-built reports that
// reach branches the roster goldens never do: a title that needs every
// kind of escape, empty arrays, a finding with no net, failed
// re-verifications with quoted counterexamples, stuck and flip gaps, the
// service stats with and without rates, and the roster's error record.
// CI diffs these reports byte for byte, so a renderer change that moves
// a comma, an escape or a number's precision fails here first.

#include <gtest/gtest.h>

#include <string>

#include "netlist/fault.h"
#include "netlist/glitch.h"
#include "netlist/lint.h"
#include "netlist/rewrite.h"
#include "netlist/sweep.h"
#include "roster/roster.h"
#include "serve/serve.h"

namespace mfm::netlist {
namespace {

// A quote, a backslash, a newline, a tab and the control bytes 0x01 and
// 0x1f.
const std::string kTitle = "q\"b\\s\nt\t\x01z\x1f";

TEST(ReportJson, LintEveryRuleAndANullNet) {
  LintReport r;
  r.findings = {
      {LintRule::kStructure, LintSeverity::kInfo, kNoNet,
       "skipped: \"quoted\" \\ here"},
      {LintRule::kLaneIsolation, LintSeverity::kError, 7, "lane 'hi'"},
      {LintRule::kGlitchProne, LintSeverity::kWarning, 42,
       "net 42 (And2 in top/a)\n"},
  };
  r.errors = 1;
  r.warnings = 1;
  r.infos = 1;
  r.structure = {120, 80, 4, 30, 2, 3, 17};
  r.rules_ran = true;
  r.blanked_gates = 11;
  r.blanked0_gates = 5;
  r.active_gates = 69;
  r.constant_output_bits = 2;
  r.x_flops = 1;
  r.uninit_output_bits = 3;
  r.lanes = {{"lo\"lane", true, false, {}}, {"hi", false, true, {7, 9}}};
  r.duplicate_gates = 4;
  r.structural_classes = 77;
  r.unobservable_gates = 6;
  r.max_fanout = 13;
  r.max_fanout_net = 9;
  r.buffer_chain_gates = 2;
  r.fanout_hist = {3, 50, 20, 0, 5};
  r.fusion_opportunities = 3;
  r.fusion_area_nand2 = 2.0625;
  r.glitch_prone_nets = 8;
  r.glitch_score_total = 12.25;
  r.glitch_energy_fj = 1234.5678;
  r.modules = {{"top", 60, 5, 2, 3, 13}, {"top/m\"x", 20, 6, 2, 3, 4}};
  EXPECT_EQ(lint_report_json(r, kTitle),
      R"js({"title":"q\"b\\s\nt\t\u0001z\u001f","circuit":{"gates":120,"combinational":80,"flops":4,"inputs":30,"constants":2,"dangling":3,"max_logic_depth":17},"errors":1,"warnings":1,"infos":1,"constant":{"blanked":11,"blanked0":5,"active":69,"stuck_output_bits":2,"x_flops":1,"uninit_output_bits":3},"lanes":[{"name":"lo\"lane","ok":true,"require_constant":false,"offenders":[]},{"name":"hi","ok":false,"require_constant":true,"offenders":[7,9]}],"duplicate_gates":4,"structural_classes":77,"unobservable_gates":6,"max_fanout":13,"buffer_chain_gates":2,"fanout_hist":[3,50,20,0,5],"fusion_opportunities":3,"fusion_area_nand2":2.062,"glitch_prone_nets":8,"glitch_score_total":12.250,"glitch_energy_fj":1234.568,"findings":[{"rule":"structure","severity":"info","net":null,"message":"skipped: \"quoted\" \\ here"},{"rule":"lane-isolation","severity":"error","net":7,"message":"lane 'hi'"},{"rule":"glitch-prone","severity":"warning","net":42,"message":"net 42 (And2 in top/a)\n"}],"modules":[{"path":"top","gates":60,"constant":5,"duplicate":2,"unobservable":3,"max_fanout":13},{"path":"top/m\"x","gates":20,"constant":6,"duplicate":2,"unobservable":3,"max_fanout":4}]})js");
}

TEST(ReportJson, LintNothingRan) {
  EXPECT_EQ(lint_report_json(LintReport{}),
      R"js({"title":"","circuit":{"gates":0,"combinational":0,"flops":0,"inputs":0,"constants":0,"dangling":0,"max_logic_depth":0},"errors":0,"warnings":0,"infos":0,"findings":[],"modules":[]})js");
}

FaultCampaignReport fault_with_gaps() {
  FaultCampaignReport r;
  r.sites = 10;
  r.detected = 6;
  r.undetected_gap = 2;
  r.undetected_unobservable = 1;
  r.undetected_pinned = 1;
  r.vectors = 64;
  r.passes = 1;
  r.evals = 192;
  r.fault_vectors = 640;
  r.undetected = {
      {{5, FaultKind::kStuckAt0}, UndetectedCause::kVectorGap, "net 5"},
      {{6, FaultKind::kStuckAt1}, UndetectedCause::kUnobservable, "net 6"},
      {{7, FaultKind::kFlip}, UndetectedCause::kVectorGap, "net 7"},
      {{8, FaultKind::kStuckAt1}, UndetectedCause::kPinnedConstant, "net 8"},
  };
  r.modules = {{"top", 6, 4, 1}, {"top/\"q\"", 4, 2, 1}};
  return r;
}

TEST(ReportJson, FaultStuckAndFlipGaps) {
  EXPECT_EQ(fault_report_json(fault_with_gaps(), kTitle),
      R"js({"title":"q\"b\\s\nt\t\u0001z\u001f","sites":10,"detected":6,"coverage_pct":60.00,"undetected":{"vector_gap":2,"unobservable":1,"pinned_constant":1},"vectors_per_fault":64,"passes":1,"evals":192,"fault_vectors":640,"gaps":[{"net":5,"kind":"stuck-at-0"},{"net":7,"kind":"flip"}],"modules":[{"path":"top","sites":6,"detected":4,"gaps":1},{"path":"top/\"q\"","sites":4,"detected":2,"gaps":1}]})js");
}

TEST(ReportJson, FaultNoSites) {
  EXPECT_EQ(fault_report_json(FaultCampaignReport{}),
      R"js({"title":"","sites":0,"detected":0,"coverage_pct":100.00,"undetected":{"vector_gap":0,"unobservable":0,"pinned_constant":0},"vectors_per_fault":0,"passes":0,"evals":0,"fault_vectors":0,"gaps":[],"modules":[]})js");
}

TEST(ReportJson, SweepFailedReverification) {
  SweepReport r;
  r.gates_before = 100;
  r.gates_after = 90;
  r.area_before_nand2 = 200.5;
  r.area_after_nand2 = 180.25;
  r.strash_merged = 3;
  r.proven_ternary = 2;
  r.candidate_classes = 4;
  r.candidates = 5;
  r.proven_exhaustive = 3;
  r.refuted = 1;
  r.unresolved = 1;
  r.merged_gates = 8;
  r.dead_gates = 2;
  r.verify_ran = true;
  r.verified = false;
  r.verify_vectors = 4000;
  r.counterexample = "outputs differ for a=0x1: 'p' \"0x2\" vs 0x3 \\ [differs];";
  r.modules = {{"top/pp", 7, 12.3456}, {"top", 3, 8.0}};
  EXPECT_EQ(sweep_report_json(r, kTitle),
      R"js({"unit":"q\"b\\s\nt\t\u0001z\u001f","gates_before":100,"gates_after":90,"gates_removed":10,"area_before_nand2":200.500,"area_after_nand2":180.250,"area_removed_nand2":20.250,"strash_merged":3,"proven_ternary":2,"candidate_classes":4,"candidates":5,"proven_exhaustive":3,"proven_sat":0,"refuted":1,"unresolved":1,"merged_gates":8,"dead_gates":2,"verify_ran":true,"verified":false,"verify_vectors":4000,"counterexample":"outputs differ for a=0x1: 'p' \"0x2\" vs 0x3 \\ [differs];","modules":[{"path":"top/pp","gates_removed":7,"area_removed_nand2":12.346},{"path":"top","gates_removed":3,"area_removed_nand2":8.000}]})js");
}

TEST(ReportJson, SweepNothingMerged) {
  EXPECT_EQ(sweep_report_json(SweepReport{}),
      R"js({"unit":"","gates_before":0,"gates_after":0,"gates_removed":0,"area_before_nand2":0.000,"area_after_nand2":0.000,"area_removed_nand2":0.000,"strash_merged":0,"proven_ternary":0,"candidate_classes":0,"candidates":0,"proven_exhaustive":0,"proven_sat":0,"refuted":0,"unresolved":0,"merged_gates":0,"dead_gates":0,"verify_ran":false,"verified":false,"verify_vectors":0,"counterexample":"","modules":[]})js");
}

TEST(ReportJson, RewriteFailedReverification) {
  RewriteReport r;
  r.gates_before = 50;
  r.gates_after = 47;
  r.area_before_nand2 = 90.0;
  r.area_after_nand2 = 85.5;
  r.iterations = 2;
  r.applied = 3;
  r.rules = {{"fuse-ao22", 3, 4.5}, {"push-\"not\"", 0, 0.0}};
  r.verify_ran = true;
  r.verified = false;
  r.verify_vectors = 64;
  r.counterexample = "sequential cosim: output \"q\" bit 1 differs";
  r.glitch_ran = true;
  r.glitch_before_fj = 10.0;
  r.glitch_after_fj = 12.5;
  EXPECT_EQ(rewrite_report_json(r, kTitle),
      R"js({"unit":"q\"b\\s\nt\t\u0001z\u001f","gates_before":50,"gates_after":47,"gates_removed":3,"area_before_nand2":90.000,"area_after_nand2":85.500,"area_removed_nand2":4.500,"iterations":2,"applied":3,"glitch_ran":true,"glitch_before_fj":10.000,"glitch_after_fj":12.500,"glitch_removed_fj":-2.500,"verify_ran":true,"verified":false,"verify_vectors":64,"counterexample":"sequential cosim: output \"q\" bit 1 differs","rules":[{"rule":"fuse-ao22","matches":3,"area_saved_nand2":4.500},{"rule":"push-\"not\"","matches":0,"area_saved_nand2":0.000}]})js");
}

TEST(ReportJson, RewriteNoRules) {
  EXPECT_EQ(rewrite_report_json(RewriteReport{}),
      R"js({"unit":"","gates_before":0,"gates_after":0,"gates_removed":0,"area_before_nand2":0.000,"area_after_nand2":0.000,"area_removed_nand2":0.000,"iterations":0,"applied":0,"glitch_ran":false,"glitch_before_fj":0.000,"glitch_after_fj":0.000,"glitch_removed_fj":0.000,"verify_ran":false,"verified":false,"verify_vectors":0,"counterexample":"","rules":[]})js");
}

TEST(ReportJson, GlitchHotNetsAndModules) {
  GlitchReport r;
  r.nets = 50;
  r.glitchy_nets = 3;
  r.total_score = 4.5;
  r.total_energy_fj = 12.3456;
  r.max_window_ps = 87.5;
  r.hot = {{9, 2.0, 6.5, 40.0, "top/\"x\""}, {4, 1.0, 3.25, 20.0, "top"}};
  r.modules = {{"top", 3.0, 9.75, 2}};
  EXPECT_EQ(glitch_report_json(r, kTitle),
      R"js({"title":"q\"b\\s\nt\t\u0001z\u001f","nets":50,"glitchy_nets":3,"total_score":4.500,"total_energy_fj":12.346,"max_window_ps":87.500,"hot":[{"net":9,"module":"top/\"x\"","score":2.000,"energy_fj":6.500,"window_ps":40.000},{"net":4,"module":"top","score":1.000,"energy_fj":3.250,"window_ps":20.000}],"modules":[{"path":"top","score":3.000,"energy_fj":9.750,"nets":2}]})js");
}

TEST(ReportJson, GlitchNoHotNets) {
  EXPECT_EQ(glitch_report_json(GlitchReport{}),
      R"js({"title":"","nets":0,"glitchy_nets":0,"total_score":0.000,"total_energy_fj":0.000,"max_window_ps":0.000,"hot":[],"modules":[]})js");
}

TEST(ReportJson, ServiceStatsWithAndWithoutRates) {
  serve::ServiceStats s;
  s.work_label = "mults\"x";
  s.work = 1000;
  s.requests = 12;
  s.failed = 1;
  s.batches = 20;
  s.rejected = 2;
  s.queue_high_water = 7;
  s.threads = 4;
  s.elapsed_s = 0.25;
  s.unit_batches = {{"mult8", 12}, {"mf/\"fp64\"", 8}};
  EXPECT_EQ(s.json(),
      R"js({"label":"mults\"x","work":1000,"requests":12,"failed":1,"batches":20,"rejected":2,"units":{"mult8":12,"mf/\"fp64\"":8}})js");
  EXPECT_EQ(s.json(/*with_rates=*/true),
      R"js({"label":"mults\"x","work":1000,"requests":12,"failed":1,"batches":20,"rejected":2,"units":{"mult8":12,"mf/\"fp64\"":8},"threads":4,"queue_high_water":7,"elapsed_s":0.250,"per_s":4000})js");
  EXPECT_EQ(serve::ServiceStats{}.json(/*with_rates=*/true),
      R"js({"label":"","work":0,"requests":0,"failed":0,"batches":0,"rejected":0,"units":{},"threads":0,"queue_high_water":0,"elapsed_s":0.000,"per_s":0})js");
}

TEST(ReportJson, JobErrorRecord) {
  EXPECT_EQ(roster::render_job_error("mf/fp64", "boom: \"bad\" pin\n", true),
      R"js({"unit":"mf/fp64","error":"boom: \"bad\" pin\n"})js");
  EXPECT_EQ(roster::render_job_error("mf/fp64", "boom: \"bad\" pin", false),
      R"js(mf/fp64: ERROR: boom: "bad" pin)js");
}

}  // namespace
}  // namespace mfm::netlist
