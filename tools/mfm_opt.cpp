// mfm_opt: declarative pattern-rewrite optimization over every shipped
// generator in the roster catalog (netlist/rewrite.h, roster/roster.h)
// -- the lint stack turned into a small synthesis flow.
//
//   mfm_opt [--json] [--only=LIST] [--seed=S] [--verify-vectors=N]
//           [--rounds=N] [--no-sweep] [--min-area-saved=X] [--out=FILE]
//           [--threads=N]
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
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cli_util.h"
#include "netlist/equiv.h"
#include "netlist/glitch.h"
#include "netlist/report.h"
#include "netlist/rewrite.h"
#include "netlist/sweep.h"
#include "roster/roster.h"

namespace {

using mfm::netlist::Circuit;
using mfm::netlist::EquivResult;
using mfm::netlist::RewriteOptions;
using mfm::netlist::RewriteReport;
using mfm::netlist::RewriteResult;
using mfm::netlist::SweepOptions;
using mfm::netlist::SweepResult;
using mfm::netlist::TechLib;

struct CliOptions {
  mfm::cli::CommonOptions common;
  bool no_sweep = false;
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

int usage() {
  std::fprintf(stderr,
               "usage: mfm_opt %s [--verify-vectors=N] [--rounds=N] "
               "[--no-sweep] [--min-area-saved=X]\n",
               mfm::cli::common_usage(/*with_seed=*/true));
  return 2;
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
  const Circuit* cur = &c;
  std::unique_ptr<Circuit> stage;
  if (!cli.no_sweep) {
    SweepOptions so;
    so.pins = pins;
    so.signature_rounds = cli.rounds;
    so.seed = cli.common.seed;
    so.verify = false;
    SweepResult sr = sweep_circuit(*cur, so, lib);
    stage = std::move(sr.circuit);
    cur = stage.get();
  }

  RewriteOptions ro;
  ro.pins = pins;
  ro.seed = cli.common.seed;
  ro.verify = false;
  RewriteResult rr = optimize_circuit(*cur, ro, lib);
  stage = std::move(rr.circuit);
  cur = stage.get();

  if (!cli.no_sweep) {
    // The rewrite can expose new merges (e.g. a fused cell duplicating
    // an existing one); sweep again over the rewritten netlist.
    SweepOptions so;
    so.pins = pins;
    so.signature_rounds = cli.rounds;
    so.seed = cli.common.seed ^ 0x90;
    so.verify = false;
    SweepResult sr = sweep_circuit(*cur, so, lib);
    stage = std::move(sr.circuit);
    cur = stage.get();
  }

  const EquivResult eq =
      c.flops().empty()
          ? check_equivalence(c, *cur, pins, cli.verify_vectors,
                              cli.common.seed ^ 0xE2E)
          : check_equivalence_cosim(c, *cur, pins, cli.verify_vectors,
                                    cli.common.seed ^ 0xE2E);

  // One report for the whole pipeline: end-to-end gate/area deltas,
  // rule breakdown from the rewrite stage, end-to-end proof result.
  RewriteReport rep = rr.report;
  rep.gates_before = mfm::netlist::gate_count(c);
  rep.area_before_nand2 = total_area_nand2(c, lib);
  rep.gates_after = mfm::netlist::gate_count(*cur);
  rep.area_after_nand2 = total_area_nand2(*cur, lib);
  // End-to-end static glitch-energy delta (the rewrite stage's numbers
  // would miss what the sweeps removed).
  rep.glitch_ran = true;
  rep.glitch_before_fj = mfm::netlist::static_glitch_energy_fj(c, lib, pins);
  rep.glitch_after_fj =
      mfm::netlist::static_glitch_energy_fj(*cur, lib, pins);
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
  cli.common.seed = 0x0B7;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    switch (mfm::cli::parse_common("mfm_opt", arg, cli.common)) {
      case mfm::cli::ParseStatus::kMatched: continue;
      case mfm::cli::ParseStatus::kError: return 2;
      case mfm::cli::ParseStatus::kNoMatch: break;
    }
    if (arg == "--no-sweep") {
      cli.no_sweep = true;
    } else if (arg.rfind("--verify-vectors=", 0) == 0) {
      long v = 0;
      if (!mfm::cli::parse_long(arg.c_str() + 17, v) || v < 2 ||
          v > 1'000'000) {
        std::fprintf(stderr,
                     "mfm_opt: bad --verify-vectors value '%s' (need an "
                     "integer >= 2)\n",
                     arg.c_str() + 17);
        return 2;
      }
      cli.verify_vectors = static_cast<int>(v);
    } else if (arg.rfind("--rounds=", 0) == 0) {
      long v = 0;
      if (!mfm::cli::parse_long(arg.c_str() + 9, v) || v < 1 || v > 10'000) {
        std::fprintf(stderr,
                     "mfm_opt: bad --rounds value '%s' (need an integer in "
                     "[1, 10000])\n",
                     arg.c_str() + 9);
        return 2;
      }
      cli.rounds = static_cast<int>(v);
    } else if (arg.rfind("--min-area-saved=", 0) == 0) {
      if (!mfm::cli::parse_double(arg.c_str() + 17, cli.min_area_saved) ||
          cli.min_area_saved < 0.0) {
        std::fprintf(stderr,
                     "mfm_opt: bad --min-area-saved value '%s' (need a "
                     "number >= 0)\n",
                     arg.c_str() + 17);
        return 2;
      }
    } else {
      return usage();
    }
  }

  mfm::netlist::ReportSink sink("mfm_opt", cli.common.json, cli.common.out);
  if (!sink.ok()) return 2;

  mfm::roster::RosterDriver driver(mfm::roster::BuildMode::kCombinational,
                                   cli.common.only, cli.common.threads,
                                   cli.common.json);
  const std::vector<JobResult> results = driver.run<JobResult>(
      sink, [&cli](const mfm::roster::JobContext& ctx) {
        return optimize_unit(cli, ctx);
      });

  const std::vector<std::string> errored = driver.failed_jobs();
  int failures = 0;
  double total_area_saved = 0.0;  // summed in catalog order: deterministic
  double total_glitch_saved = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!driver.job_errors()[i].empty()) continue;  // fail-soft error entry
    if (results[i].failed) {
      ++failures;
      std::fprintf(stderr,
                   "mfm_opt: %s: optimized netlist FAILED the end-to-end "
                   "equivalence proof: %s\n",
                   driver.jobs()[i].name.c_str(), results[i].error.c_str());
    }
    total_area_saved += results[i].area_saved;
    total_glitch_saved += results[i].glitch_saved_fj;
  }

  char area[64];
  std::snprintf(area, sizeof area, "%.3f", total_area_saved);
  char glitch[64];
  std::snprintf(glitch, sizeof glitch, "%.3f", total_glitch_saved);
  if (!sink.finish(std::string("\"total_area_saved_nand2\":") + area +
                       ",\"total_glitch_saved_fj\":" + glitch +
                       ",\"failures\":" + std::to_string(failures) +
                       ",\"errors\":" + std::to_string(errored.size()),
                   std::string("total area saved: ") + area +
                       " NAND2, glitch energy saved: " + glitch +
                       " fJ/cycle\n"))
    return 2;
  if (!errored.empty()) {
    std::fprintf(stderr, "mfm_opt: %zu job(s) failed:", errored.size());
    for (const std::string& name : errored)
      std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "mfm_opt: %d unit(s) failed the end-to-end equivalence "
                 "proof\n",
                 failures);
    return 1;
  }
  if (total_area_saved < cli.min_area_saved) {
    std::fprintf(stderr,
                 "mfm_opt: total area saved %.3f NAND2 below "
                 "--min-area-saved=%.3f\n",
                 total_area_saved, cli.min_area_saved);
    return 1;
  }
  return 0;
}
