// mfm_opt: declarative pattern-rewrite optimization over every shipped
// generator in the roster catalog (netlist/rewrite.h, roster/roster.h)
// -- the lint stack turned into a small synthesis flow.
//
//   mfm_opt [--json] [--only=LIST] [--seed=S] [--verify-vectors=N]
//           [--rounds=N] [--min-area-saved=X] [--out=FILE] [--threads=N]
//
// The unit set is the shared catalog: the 8x8 radix-16 teaching
// multiplier, the radix-4 and radix-16 64-bit multipliers, the
// multi-format unit (baseline and with the Sec. IV reduction,
// combinational build) -- unpinned and under each format's control
// pins, including the fp32x1 idle-upper-lane mode -- plus the
// single-format FP multipliers, adder, and reduction unit.  Each unit
// runs the full pipeline as one roster job: sweep (mode-specialized
// under the pins), AO/OA fusion + inverter rewriting to fixpoint
// (default_rewrite_rules), a second sweep over the rewritten netlist,
// and a final end-to-end equivalence proof of the result against the
// ORIGINAL circuit under the same pins (check_equivalence, or
// multi-cycle random cosimulation for sequential units).  Jobs fan out
// over --threads workers -- the sweep/proof stages are embarrassingly
// parallel across units -- and reports are emitted in catalog order
// with the end-to-end gate/area delta (TechLib::lp45() pricing) plus
// the per-rule match counts, byte-identical at any thread count.
//
// Exit status is nonzero when any end-to-end proof fails (a rewrite or
// sweep bug: the optimized netlist MUST be equivalent) or when the
// total area saved across all (filtered) units falls below
// --min-area-saved NAND2 equivalents, so CI can gate on both.

#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cli_util.h"
#include "netlist/equiv.h"
#include "netlist/glitch.h"
#include "netlist/report.h"
#include "netlist/rewrite.h"
#include "netlist/sweep.h"
#include "roster/roster.h"

namespace {

using mfm::cli::flag;
using mfm::netlist::Circuit;
using mfm::netlist::EquivResult;
using mfm::netlist::RewriteOptions;
using mfm::netlist::RewriteReport;
using mfm::netlist::RewriteResult;
using mfm::netlist::SweepOptions;
using mfm::netlist::TechLib;

struct CliOptions {
  mfm::cli::CommonOptions common;
  std::uint64_t seed = 0x0B7;
  int verify_vectors = 4000;
  int rounds = 8;  // signature rounds of the sweep stages
  double min_area_saved = 0.0;
};

struct JobResult {
  std::string rendered;
  bool failed = false;
  std::string error;  ///< end-to-end proof counterexample, for stderr
  double area_saved = 0.0;
  double glitch_saved_fj = 0.0;  ///< static estimate delta [fJ/cycle]
};

/// One sweep stage (mode-specialized under @p pins) with its own
/// stage verification off.
std::unique_ptr<Circuit> sweep_stage(
    const Circuit& c, const std::vector<mfm::netlist::TernaryPin>& pins,
    int rounds, std::uint64_t seed, const TechLib& lib) {
  SweepOptions so;
  so.pins = pins;
  so.signature_rounds = rounds;
  so.seed = seed;
  so.verify = false;
  return sweep_circuit(c, so, lib).circuit;
}

/// The whole sweep -> rewrite -> sweep pipeline plus the end-to-end
/// proof, as one roster job body.
JobResult optimize_unit(const CliOptions& cli,
                        const mfm::roster::JobContext& ctx) {
  const Circuit& c = *ctx.unit.circuit;
  const std::vector<mfm::netlist::TernaryPin>& pins = ctx.variant.pins;
  const TechLib& lib = TechLib::lp45();

  // Stage verification is off: the pipeline ends with one end-to-end
  // proof against the original, which is what CI gates on.
  std::unique_ptr<Circuit> out =
      sweep_stage(c, pins, cli.rounds, cli.seed, lib);

  RewriteOptions ro;
  ro.pins = pins;
  ro.seed = cli.seed;
  ro.verify = false;
  const RewriteResult rr = optimize_circuit(*out, ro, lib);

  // The rewrite can expose new merges (e.g. a fused cell duplicating
  // an existing one); sweep again over the rewritten netlist.
  out = sweep_stage(*rr.circuit, pins, cli.rounds, cli.seed ^ 0x90, lib);

  const EquivResult eq =
      c.flops().empty()
          ? check_equivalence(c, *out, pins, cli.verify_vectors,
                              cli.seed ^ 0xE2E)
          : check_equivalence_cosim(c, *out, pins, cli.verify_vectors,
                                    cli.seed ^ 0xE2E);

  // One report for the whole pipeline: end-to-end gate/area deltas,
  // rule breakdown from the rewrite stage, end-to-end proof result.
  RewriteReport rep = rr.report;
  rep.gates_before = mfm::netlist::gate_count(c);
  rep.area_before_nand2 = total_area_nand2(c, lib);
  rep.gates_after = mfm::netlist::gate_count(*out);
  rep.area_after_nand2 = total_area_nand2(*out, lib);
  // End-to-end static glitch-energy delta (the rewrite stage's numbers
  // would miss what the sweeps removed).
  rep.glitch_ran = true;
  rep.glitch_before_fj = mfm::netlist::static_glitch_energy_fj(c, lib, pins);
  rep.glitch_after_fj =
      mfm::netlist::static_glitch_energy_fj(*out, lib, pins);
  rep.verify_ran = true;
  rep.verified = eq.equivalent;
  rep.verify_vectors = eq.vectors;
  rep.counterexample = eq.equivalent ? "" : eq.counterexample;

  JobResult r;
  r.failed = !eq.equivalent;
  r.error = eq.equivalent ? "" : eq.counterexample;
  r.area_saved = rep.area_removed_nand2();
  r.glitch_saved_fj = rep.glitch_removed_fj();
  r.rendered = cli.common.json ? rewrite_report_json(rep, ctx.job.name)
                               : rewrite_report_text(rep, ctx.job.name);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  const auto flags = mfm::cli::table(
      cli.common,
      {flag("--seed", "S", cli.seed),
       flag("--verify-vectors", "N", cli.verify_vectors, 2, 1'000'000),
       flag("--rounds", "N", cli.rounds, 1, 10'000),
       flag("--min-area-saved", "X", cli.min_area_saved, 0.0,
            std::numeric_limits<double>::infinity())});
  if (!mfm::cli::parse("mfm_opt", flags, argc, argv)) return 2;

  mfm::netlist::ReportSink sink("mfm_opt", cli.common.json, cli.common.out);
  if (!sink.ok()) return 2;

  mfm::roster::RosterDriver driver(mfm::roster::BuildMode::kCombinational,
                                   cli.common.only, cli.common.threads,
                                   cli.common.json);
  const auto results = driver.run<JobResult>(
      sink, [&cli](const mfm::roster::JobContext& ctx) {
        return optimize_unit(cli, ctx);
      });

  mfm::cli::Summary summary;
  double total_area_saved = 0.0;  // summed in catalog order: deterministic
  double total_glitch_saved = 0.0;
  for (const auto& [job, r] : results) {
    if (r.failed)
      summary.failures.push_back(
          job->name +
          ": optimized netlist FAILED the end-to-end equivalence proof: " +
          r.error);
    total_area_saved += r.area_saved;
    total_glitch_saved += r.glitch_saved_fj;
  }
  summary.json.field("total_area_saved_nand2", total_area_saved, 3)
      .field("total_glitch_saved_fj", total_glitch_saved, 3)
      .field("failures", summary.failures.size());
  char text[160];
  std::snprintf(text, sizeof text,
                "total area saved: %.3f NAND2, glitch energy saved: %.3f "
                "fJ/cycle\n",
                total_area_saved, total_glitch_saved);
  summary.text = text;
  if (total_area_saved < cli.min_area_saved) {
    char line[128];
    std::snprintf(line, sizeof line,
                  "total area saved %.3f NAND2 below --min-area-saved=%.3f",
                  total_area_saved, cli.min_area_saved);
    summary.failures.push_back(line);
  }
  return mfm::cli::finish("mfm_opt", sink, driver, summary);
}
