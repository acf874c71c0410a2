// mfm_sweep: signature-based equivalence sweeping over every shipped
// generator in the roster catalog (netlist/sweep.h, roster/roster.h).
//
//   mfm_sweep [--json] [--only=LIST] [--rounds=N] [--seed=S]
//             [--verify-vectors=N] [--min-total-removed=N] [--out=FILE]
//             [--threads=N]
//
// The unit set is the shared catalog: the 8x8 radix-16 teaching
// multiplier, the radix-4 and radix-16 64-bit multipliers, the
// multi-format unit (baseline and with the Sec. IV reduction,
// combinational build so the merged netlist can be re-verified with
// check_equivalence) -- unpinned and under each format's control pins,
// including the fp32x1 idle-upper-lane mode -- plus the single-format
// FP multipliers, adder, and reduction unit.  Units are swept in
// parallel over --threads workers (the cone-evaluation and
// re-verification stages are embarrassingly parallel across units);
// each merged netlist is re-verified against the original under the
// same pins, and the gates/area removed are reported per module with
// TechLib::lp45() pricing, in catalog order -- byte-identical at any
// thread count.
//
// Exit status is nonzero when any re-verification fails (a sweeper bug:
// the merged netlist MUST be equivalent) or when the total number of
// gates removed across all (filtered) units falls below
// --min-total-removed, so CI can gate on both.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cli_util.h"
#include "netlist/report.h"
#include "netlist/sweep.h"
#include "roster/roster.h"

namespace {

using mfm::netlist::SweepOptions;
using mfm::netlist::SweepResult;

struct CliOptions {
  mfm::cli::CommonOptions common;
  int rounds = 8;
  int verify_vectors = 4000;
  long min_total_removed = 0;
};

struct JobResult {
  std::string rendered;
  bool failed = false;
  std::string error;  ///< re-verification counterexample, for stderr
  std::size_t removed = 0;
};

int usage() {
  std::fprintf(stderr,
               "usage: mfm_sweep %s [--rounds=N] [--verify-vectors=N] "
               "[--min-total-removed=N]\n",
               mfm::cli::common_usage(/*with_seed=*/true));
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  cli.common.seed = 0x5EE9;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    switch (mfm::cli::parse_common("mfm_sweep", arg, cli.common)) {
      case mfm::cli::ParseStatus::kMatched: continue;
      case mfm::cli::ParseStatus::kError: return 2;
      case mfm::cli::ParseStatus::kNoMatch: break;
    }
    if (arg.rfind("--rounds=", 0) == 0) {
      long v = 0;
      if (!mfm::cli::parse_long(arg.c_str() + 9, v) || v < 1 || v > 10'000) {
        std::fprintf(stderr,
                     "mfm_sweep: bad --rounds value '%s' (need an integer in "
                     "[1, 10000])\n",
                     arg.c_str() + 9);
        return 2;
      }
      cli.rounds = static_cast<int>(v);
    } else if (arg.rfind("--verify-vectors=", 0) == 0) {
      long v = 0;
      if (!mfm::cli::parse_long(arg.c_str() + 17, v) || v < 2 ||
          v > 1'000'000) {
        std::fprintf(stderr,
                     "mfm_sweep: bad --verify-vectors value '%s' (need an "
                     "integer >= 2)\n",
                     arg.c_str() + 17);
        return 2;
      }
      cli.verify_vectors = static_cast<int>(v);
    } else if (arg.rfind("--min-total-removed=", 0) == 0) {
      if (!mfm::cli::parse_long(arg.c_str() + 20, cli.min_total_removed) ||
          cli.min_total_removed < 0) {
        std::fprintf(stderr,
                     "mfm_sweep: bad --min-total-removed value '%s' (need an "
                     "integer >= 0)\n",
                     arg.c_str() + 20);
        return 2;
      }
    } else {
      return usage();
    }
  }

  mfm::netlist::ReportSink sink("mfm_sweep", cli.common.json, cli.common.out);
  if (!sink.ok()) return 2;

  mfm::roster::RosterDriver driver(mfm::roster::BuildMode::kCombinational,
                                   cli.common.only, cli.common.threads,
                                   cli.common.json);
  const std::vector<JobResult> results = driver.run<JobResult>(
      sink, [&cli](const mfm::roster::JobContext& ctx) {
        SweepOptions opt;
        opt.pins = ctx.variant.pins;
        opt.signature_rounds = cli.rounds;
        opt.seed = cli.common.seed;
        opt.verify_vectors = cli.verify_vectors;
        const SweepResult res = sweep_circuit(*ctx.unit.circuit, opt);
        JobResult r;
        if (res.report.verify_ran && !res.report.verified) {
          r.failed = true;
          r.error = res.report.counterexample;
        }
        r.removed = res.report.gates_removed();
        r.rendered = cli.common.json
                         ? sweep_report_json(res.report, ctx.job.name)
                         : sweep_report_text(res.report, ctx.job.name);
        return r;
      });

  const std::vector<std::string> errored = driver.failed_jobs();
  int failures = 0;
  std::size_t total_removed = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!driver.job_errors()[i].empty()) continue;  // fail-soft error entry
    if (results[i].failed) {
      ++failures;
      std::fprintf(stderr,
                   "mfm_sweep: %s: merged netlist FAILED re-verification: "
                   "%s\n",
                   driver.jobs()[i].name.c_str(), results[i].error.c_str());
    }
    total_removed += results[i].removed;
  }

  if (!sink.finish(
          "\"total_gates_removed\":" + std::to_string(total_removed) +
              ",\"failures\":" + std::to_string(failures) +
              ",\"errors\":" + std::to_string(errored.size()),
          "total gates removed: " + std::to_string(total_removed) + "\n"))
    return 2;
  if (!errored.empty()) {
    std::fprintf(stderr, "mfm_sweep: %zu job(s) failed:", errored.size());
    for (const std::string& name : errored)
      std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }
  if (failures > 0) {
    std::fprintf(stderr, "mfm_sweep: %d unit(s) failed re-verification\n",
                 failures);
    return 1;
  }
  if (total_removed < static_cast<std::size_t>(cli.min_total_removed)) {
    std::fprintf(stderr,
                 "mfm_sweep: total gates removed %zu below "
                 "--min-total-removed=%ld\n",
                 total_removed, cli.min_total_removed);
    return 1;
  }
  return 0;
}
