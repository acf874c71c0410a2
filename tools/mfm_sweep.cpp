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
#include <limits>
#include <string>
#include <vector>

#include "cli_util.h"
#include "netlist/report.h"
#include "netlist/sweep.h"
#include "roster/roster.h"

namespace {

using mfm::cli::flag;
using mfm::netlist::SweepOptions;
using mfm::netlist::SweepResult;

struct CliOptions {
  mfm::cli::CommonOptions common;
  std::uint64_t seed = 0x5EE9;
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

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  const auto flags = mfm::cli::table(
      cli.common,
      {flag("--seed", "S", cli.seed),
       flag("--rounds", "N", cli.rounds, 1, 10'000),
       flag("--verify-vectors", "N", cli.verify_vectors, 2, 1'000'000),
       flag("--min-total-removed", "N", cli.min_total_removed, 0,
            std::numeric_limits<long>::max())});
  if (!mfm::cli::parse("mfm_sweep", flags, argc, argv)) return 2;

  mfm::netlist::ReportSink sink("mfm_sweep", cli.common.json, cli.common.out);
  if (!sink.ok()) return 2;

  mfm::roster::RosterDriver driver(mfm::roster::BuildMode::kCombinational,
                                   cli.common.only, cli.common.threads,
                                   cli.common.json);
  const auto results = driver.run<JobResult>(
      sink, [&cli](const mfm::roster::JobContext& ctx) {
        SweepOptions opt;
        opt.pins = ctx.variant.pins;
        opt.signature_rounds = cli.rounds;
        opt.seed = cli.seed;
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

  mfm::cli::Summary summary;
  std::size_t total_removed = 0;
  for (const auto& [job, r] : results) {
    if (r.failed)
      summary.failures.push_back(
          job->name + ": merged netlist FAILED re-verification: " + r.error);
    total_removed += r.removed;
  }
  const std::string total = std::to_string(total_removed);
  summary.json.field("total_gates_removed", total_removed)
      .field("failures", summary.failures.size());
  summary.text = "total gates removed: " + total + "\n";
  if (total_removed < static_cast<std::size_t>(cli.min_total_removed))
    summary.failures.push_back("total gates removed " + total +
                               " below --min-total-removed=" +
                               std::to_string(cli.min_total_removed));
  return mfm::cli::finish("mfm_sweep", sink, driver, summary);
}
