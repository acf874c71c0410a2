// mfm_lint: run the netlist static analyzer over every shipped
// generator in the roster catalog (roster/roster.h).
//
//   mfm_lint [--json] [--fail-on=error|warning] [--only=LIST]
//            [--fanout-threshold=N] [--out=FILE] [--threads=N]
//
// The unit set is the shared catalog: the teaching multiplier, the
// radix-4 and radix-16 64-bit multipliers, the multi-format unit
// (baseline and with the Sec. IV reduction integrated) unpinned and
// under each format's control pins, the single-format FP multipliers
// and adder, and the standalone reduction unit.  For the MF unit the
// fp32x2 variant carries the Fig. 4 lane-isolation obligations (each
// lane's product cone must exclude the other lane's operand inputs)
// and the fp32x1 variant proves the idle upper lane statically
// constant -- both declared once in the catalog, next to the pins.
//
// Units are linted in parallel over --threads workers; reports are
// buffered and emitted in catalog order, so the output is byte-
// identical at any thread count.
//
// Exit status is nonzero when any report has findings at or above the
// --fail-on severity (default: error), so CI can gate on it.

#include <cstdio>
#include <string>
#include <vector>

#include "cli_util.h"
#include "netlist/lint.h"
#include "netlist/report.h"
#include "roster/roster.h"

namespace {

using mfm::cli::flag;
using mfm::netlist::LintOptions;
using mfm::netlist::LintReport;
using mfm::netlist::LintSeverity;

struct CliOptions {
  mfm::cli::CommonOptions common;
  LintSeverity fail_on = LintSeverity::kError;
  int fanout_threshold = 0;
};

struct JobResult {
  std::string rendered;
  bool failed = false;
  // Active combinational gates under the format pins, for the Table V
  // summary (set only for pinned variants).
  bool has_active = false;
  std::size_t active_gates = 0;
};

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  const auto flags = mfm::cli::table(
      cli.common, {flag("--fail-on", cli.fail_on,
                        {{"error", LintSeverity::kError},
                         {"warning", LintSeverity::kWarning}}),
                   flag("--fanout-threshold", "N", cli.fanout_threshold, 0,
                        1'000'000)});
  if (!mfm::cli::parse("mfm_lint", flags, argc, argv)) return 2;

  mfm::netlist::ReportSink sink("mfm_lint", cli.common.json, cli.common.out);
  if (!sink.ok()) return 2;

  mfm::roster::RosterDriver driver(mfm::roster::BuildMode::kPipelined,
                                   cli.common.only, cli.common.threads,
                                   cli.common.json);
  const auto results = driver.run<JobResult>(
      sink, [&cli](const mfm::roster::JobContext& ctx) {
        LintOptions opt;
        opt.pins = ctx.variant.pins;
        opt.lanes = ctx.variant.lanes;
        opt.fanout_warning_threshold = cli.fanout_threshold;
        const LintReport rep = lint_circuit(*ctx.unit.circuit, opt);
        JobResult r;
        r.failed = !rep.clean(cli.fail_on);
        if (rep.rules_ran && !opt.pins.empty()) {
          r.has_active = true;
          r.active_gates = rep.active_gates;
        }
        r.rendered = cli.common.json ? lint_report_json(rep, ctx.job.name)
                                     : lint_report_text(rep, ctx.job.name);
        return r;
      });

  mfm::cli::Summary summary;
  for (const auto& [job, r] : results) {
    if (r.failed)
      summary.failures.push_back(
          job->name + ": findings at " +
          std::string(lint_severity_name(cli.fail_on)) + "+");
    if (r.has_active) {
      char line[64];
      std::snprintf(line, sizeof line, "  %-18s %zu\n", job->name.c_str(),
                    r.active_gates);
      summary.text += line;
    }
  }
  if (!summary.text.empty())
    // Table V, structurally: gates that can toggle under each format pin.
    summary.text.insert(0, "active combinational gates by format:\n");
  summary.json.field("failures", summary.failures.size());
  return mfm::cli::finish("mfm_lint", sink, driver, summary);
}
